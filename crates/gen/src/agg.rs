//! Shared gap-aggregation helpers (crate-internal).
//!
//! Every aggregate over relative gaps in this crate has the same two
//! hazards, fixed once here instead of re-derived per call site:
//!
//! * **Bit-pattern folding** — the streaming maximum is a max on raw f64
//!   bits, which is a numeric max only for non-negative finite doubles; a
//!   negative sign bit or a NaN/∞ pattern out-ranks every real gap
//!   ([`fold_max_gap_bits`]).
//! * **Non-finite poisoning** — a degenerate draw (infinite
//!   simulator-fallback period) yields gap ∞, which must be excluded from
//!   maxima and order statistics (it would otherwise dominate the
//!   maximum, and NaN would panic the quantile sort).
//!
//! Users: the associative [`crate::campaign::CampaignAccum`] (and through
//! it progress sinks and the shard merger of `repwf-dist`),
//! [`crate::campaign::CampaignResult::max_gap`] and
//! [`crate::stats::gap_quantiles`].

/// True iff `gap` may enter a gap aggregate: strictly positive and
/// finite. Zero gaps carry no information (the maximum starts at 0.0) and
/// non-finite gaps come only from degenerate draws.
pub(crate) fn countable_gap(gap: f64) -> bool {
    gap.is_finite() && gap > 0.0
}

/// Folds one gap into a bit-pattern maximum.
///
/// For **non-negative finite** IEEE-754 doubles the bit pattern is
/// monotone in the value, so a max on the bits is a numeric max — but
/// only on that domain: a negative value's sign bit out-ranks every
/// positive pattern, and NaN/∞ patterns sit above every real gap. The
/// guard rejects those outright. [`ExperimentOutcome::gap`] already
/// clamps at 0.0; this keeps the aggregate safe even for degenerate
/// outcomes such as an infinite simulator-fallback period. Associative
/// and commutative, which is what makes the campaign accumulator
/// mergeable.
///
/// [`ExperimentOutcome::gap`]: crate::campaign::ExperimentOutcome::gap
pub(crate) fn fold_max_gap_bits(max_gap_bits: u64, gap: f64) -> u64 {
    if countable_gap(gap) {
        max_gap_bits.max(gap.to_bits())
    } else {
        max_gap_bits
    }
}

/// Maximum of an iterator of gaps, skipping non-finite entries; 0.0 when
/// nothing survives.
pub(crate) fn max_finite_gap(gaps: impl Iterator<Item = f64>) -> f64 {
    gaps.filter(|g| g.is_finite()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countable_rejects_non_finite_and_non_positive() {
        assert!(countable_gap(0.25));
        for g in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!countable_gap(g), "{g}");
        }
    }

    #[test]
    fn bit_fold_matches_numeric_max_on_countable_gaps() {
        let mut bits = 0u64;
        for g in [0.1, -3.0, f64::INFINITY, 0.4, f64::NAN, 0.2] {
            bits = fold_max_gap_bits(bits, g);
        }
        assert_eq!(f64::from_bits(bits), 0.4);
    }

    #[test]
    fn max_finite_gap_skips_infinities() {
        assert_eq!(max_finite_gap([f64::INFINITY, 0.5, f64::NAN, 0.75].into_iter()), 0.75);
        assert_eq!(max_finite_gap(std::iter::empty()), 0.0);
    }
}
