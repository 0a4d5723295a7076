//! Deterministic contiguous partitioning of a campaign's seed range.

use crate::DistError;

/// One shard of a campaign: either the `shard_index`-th of `num_shards`
/// contiguous slices of the seed range `seed_base .. seed_base + count`
/// (a **fraction** shard, the `--shard I/N` kind), or an **explicit**
/// contiguous sub-range (a **range** shard, the unit the elastic
/// supervisor claims, splits and retries).
///
/// The fraction partition is pure arithmetic over `(count, num_shards)` —
/// the same even-split-with-remainder scheme the work-stealing executor
/// uses for its initial deques: shard `i` holds `count / num_shards`
/// seeds, plus one more when `i < count % num_shards`. Every process that
/// knows the campaign parameters derives the identical decomposition,
/// which is what makes the merge *exact*: no coordination, no overlap,
/// no gap. Range shards carry their slice explicitly instead (the
/// supervisor re-splits slices on the fly, so they are not derivable
/// from an `I/N` designator); the merge validates that the *covered*
/// ranges tile the campaign either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Base seed of the **whole** campaign (not of this shard).
    pub seed_base: u64,
    /// Experiment count of the **whole** campaign.
    pub count: usize,
    /// This shard's index in `0..num_shards` (0 for range shards).
    pub shard_index: usize,
    /// Total number of shards (1 for range shards).
    pub num_shards: usize,
    /// Explicit `(offset, len)` slice override of a range shard;
    /// `None` for classic fraction shards.
    range: Option<(usize, usize)>,
}

/// Every seed of a campaign, `seed_base..seed_base + count`, must be a
/// u64: then no shard's seed arithmetic can overflow.
fn check_seed_range(seed_base: u64, count: usize) -> Result<(), DistError> {
    match u64::try_from(count).ok().and_then(|n| seed_base.checked_add(n)) {
        Some(_) => Ok(()),
        None => Err(DistError::Plan(format!(
            "seeds {seed_base}..+{count} run past the largest seed {}",
            u64::MAX
        ))),
    }
}

impl ShardPlan {
    /// Builds a validated fraction plan (`num_shards >= 1`,
    /// `shard_index < num_shards`).
    pub fn new(
        seed_base: u64,
        count: usize,
        shard_index: usize,
        num_shards: usize,
    ) -> Result<ShardPlan, DistError> {
        if num_shards == 0 {
            return Err(DistError::Plan("num_shards must be at least 1".to_string()));
        }
        if shard_index >= num_shards {
            return Err(DistError::Plan(format!(
                "shard index {shard_index} out of range (have {num_shards} shards, \
                 indices 0..{num_shards})"
            )));
        }
        check_seed_range(seed_base, count)?;
        Ok(ShardPlan { seed_base, count, shard_index, num_shards, range: None })
    }

    /// Builds a validated **range** plan: the explicit slice
    /// `offset .. offset + len` of the campaign's seed range.
    pub fn range(
        seed_base: u64,
        count: usize,
        offset: usize,
        len: usize,
    ) -> Result<ShardPlan, DistError> {
        if offset.checked_add(len).is_none_or(|end| end > count) {
            return Err(DistError::Plan(format!(
                "range slice {offset}+{len} exceeds the campaign's {count} experiments"
            )));
        }
        check_seed_range(seed_base, count)?;
        Ok(ShardPlan {
            seed_base,
            count,
            shard_index: 0,
            num_shards: 1,
            range: Some((offset, len)),
        })
    }

    /// The explicit `(offset, len)` slice of a range shard, `None` for a
    /// fraction shard.
    pub fn range_slice(&self) -> Option<(usize, usize)> {
        self.range
    }

    /// Parses the CLI shard designator `I/N` (e.g. `--shard 1/3`).
    pub fn parse_fraction(raw: &str) -> Result<(usize, usize), String> {
        let (i, n) = raw
            .split_once('/')
            .ok_or_else(|| format!("invalid shard designator {raw:?} (expected I/N)"))?;
        let i: usize = i.parse().map_err(|_| format!("invalid shard index {i:?} in {raw:?}"))?;
        let n: usize = n.parse().map_err(|_| format!("invalid shard count {n:?} in {raw:?}"))?;
        if n == 0 || i >= n {
            return Err(format!("shard designator {raw:?} must satisfy I < N, N >= 1"));
        }
        Ok((i, n))
    }

    /// Number of experiments in this shard.
    pub fn shard_count(&self) -> usize {
        match self.range {
            Some((_, len)) => len,
            None => {
                self.count / self.num_shards
                    + usize::from(self.shard_index < self.count % self.num_shards)
            }
        }
    }

    /// Offset of this shard's first experiment within the campaign.
    pub fn shard_offset(&self) -> usize {
        match self.range {
            Some((offset, _)) => offset,
            None => {
                let base = self.count / self.num_shards;
                let rem = self.count % self.num_shards;
                self.shard_index * base + self.shard_index.min(rem)
            }
        }
    }

    /// First seed of this shard.
    pub fn seed_start(&self) -> u64 {
        self.seed_base + self.shard_offset() as u64
    }

    /// One past the last seed of this shard.
    pub fn seed_end(&self) -> u64 {
        self.seed_start() + self.shard_count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_tile_the_seed_range_exactly() {
        for count in [0usize, 1, 2, 5, 7, 100, 101, 4096] {
            for num_shards in [1usize, 2, 3, 5, 8, 13] {
                let mut next = 2009u64;
                let mut total = 0usize;
                for i in 0..num_shards {
                    let plan = ShardPlan::new(2009, count, i, num_shards).unwrap();
                    assert_eq!(plan.seed_start(), next, "count={count} shards={num_shards} i={i}");
                    assert_eq!(plan.seed_end() - plan.seed_start(), plan.shard_count() as u64);
                    next = plan.seed_end();
                    total += plan.shard_count();
                }
                assert_eq!(total, count);
                assert_eq!(next, 2009 + count as u64);
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> =
            (0..5).map(|i| ShardPlan::new(0, 17, i, 5).unwrap().shard_count()).collect();
        assert_eq!(sizes, vec![4, 4, 3, 3, 3]);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(matches!(ShardPlan::new(0, 10, 0, 0), Err(DistError::Plan(_))));
        assert!(matches!(ShardPlan::new(0, 10, 3, 3), Err(DistError::Plan(_))));
        assert!(ShardPlan::new(u64::MAX - 10, 10, 1, 2).is_ok());
        assert!(matches!(ShardPlan::new(u64::MAX - 10, 11, 1, 2), Err(DistError::Plan(_))));
        assert!(matches!(ShardPlan::range(u64::MAX, 1, 0, 1), Err(DistError::Plan(_))));
    }

    #[test]
    fn range_plans_carry_their_explicit_slice() {
        let plan = ShardPlan::range(2009, 100, 34, 33).unwrap();
        assert_eq!(plan.range_slice(), Some((34, 33)));
        assert_eq!(plan.shard_offset(), 34);
        assert_eq!(plan.shard_count(), 33);
        assert_eq!(plan.seed_start(), 2043);
        assert_eq!(plan.seed_end(), 2076);
        // Zero-length and full-campaign slices are valid; overshoot is not.
        assert!(ShardPlan::range(0, 10, 10, 0).is_ok());
        assert!(ShardPlan::range(0, 10, 0, 10).is_ok());
        assert!(matches!(ShardPlan::range(0, 10, 5, 6), Err(DistError::Plan(_))));
        assert!(matches!(ShardPlan::range(0, 10, usize::MAX, 2), Err(DistError::Plan(_))));
    }

    #[test]
    fn fraction_designator_parses_and_validates() {
        assert_eq!(ShardPlan::parse_fraction("0/1").unwrap(), (0, 1));
        assert_eq!(ShardPlan::parse_fraction("2/3").unwrap(), (2, 3));
        for bad in ["3/3", "1", "a/2", "1/b", "1/0", "-1/2"] {
            assert!(ShardPlan::parse_fraction(bad).is_err(), "{bad}");
        }
    }
}
