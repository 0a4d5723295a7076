//! The shard manifest: a one-line JSON header that makes a shard file
//! self-describing and verifiable at merge time.

use crate::json::{parse, JsonValue};
use crate::plan::ShardPlan;
use crate::DistError;
use repwf_core::model::CommModel;
use repwf_gen::{GenConfig, Range};

/// Schema tag of the shard NDJSON format.
pub const SHARD_SCHEMA: &str = "repwf-shard/v1";

/// Short name of a communication model (`overlap` / `strict`), as used in
/// manifests and the campaign JSON document.
pub fn model_name(model: CommModel) -> &'static str {
    match model {
        CommModel::Overlap => "overlap",
        CommModel::Strict => "strict",
    }
}

fn parse_model(name: &str) -> Option<CommModel> {
    match name {
        "overlap" => Some(CommModel::Overlap),
        "strict" => Some(CommModel::Strict),
        _ => None,
    }
}

pub use repwf_gen::campaign::CampaignSpec;

/// The parsed (or to-be-written) manifest of one shard file: the campaign
/// spec plus this shard's place in the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardManifest {
    /// The campaign this shard belongs to.
    pub spec: CampaignSpec,
    /// This shard's slice of the seed range.
    pub plan: ShardPlan,
}

impl ShardManifest {
    /// Builds the manifest for shard `shard_index` of `num_shards` of a
    /// campaign.
    pub fn new(
        spec: CampaignSpec,
        shard_index: usize,
        num_shards: usize,
    ) -> Result<ShardManifest, DistError> {
        let plan = ShardPlan::new(spec.seed_base, spec.count, shard_index, num_shards)?;
        Ok(ShardManifest { spec, plan })
    }

    /// Builds the manifest for an explicit seed sub-range of a campaign
    /// (a supervisor claim unit).
    pub fn new_range(
        spec: CampaignSpec,
        offset: usize,
        len: usize,
    ) -> Result<ShardManifest, DistError> {
        let plan = ShardPlan::range(spec.seed_base, spec.count, offset, len)?;
        Ok(ShardManifest { spec, plan })
    }

    /// Serializes to the single NDJSON manifest line (no trailing
    /// newline). Time-range bounds are stored as exact f64 bit patterns;
    /// the redundant `seed_start`/`shard_count` fields let a reader
    /// verify the shard's claimed slice against the plan arithmetic.
    /// Range shards (supervisor claim units) additionally carry their
    /// explicit `range_offset`/`range_len` slice; fraction shards keep
    /// the exact byte layout of earlier releases.
    pub fn to_line(&self) -> String {
        let s = &self.spec;
        let p = &self.plan;
        let range_fields = match p.range_slice() {
            Some((offset, len)) => {
                format!(",\"range_offset\":{offset},\"range_len\":{len}")
            }
            None => String::new(),
        };
        format!(
            "{{\"kind\":\"manifest\",\"schema\":\"{SHARD_SCHEMA}\",\"model\":\"{}\",\
             \"stages\":{},\"procs\":{},\
             \"comp_lo_bits\":{},\"comp_hi_bits\":{},\
             \"comm_lo_bits\":{},\"comm_hi_bits\":{},\
             \"count\":{},\"seed_base\":{},\"cap\":{},\
             \"shard_index\":{},\"num_shards\":{},\
             \"seed_start\":{},\"shard_count\":{}{range_fields}}}",
            model_name(s.model),
            s.cfg.stages,
            s.cfg.procs,
            s.cfg.comp.lo.to_bits(),
            s.cfg.comp.hi.to_bits(),
            s.cfg.comm.lo.to_bits(),
            s.cfg.comm.hi.to_bits(),
            s.count,
            s.seed_base,
            s.cap,
            p.shard_index,
            p.num_shards,
            p.seed_start(),
            p.shard_count(),
        )
    }

    /// Parses a manifest line (`path` only labels errors).
    pub fn parse_line(line: &str, path: &str) -> Result<ShardManifest, DistError> {
        let corrupt = |reason: String| DistError::Corrupt { path: path.to_string(), reason };
        let doc = parse(line).map_err(|e| corrupt(format!("manifest line: {e}")))?;
        let str_field = |key: &str| -> Result<&str, DistError> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| corrupt(format!("manifest field {key:?} missing or not a string")))
        };
        let u64_field = |key: &str| -> Result<u64, DistError> {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| corrupt(format!("manifest field {key:?} missing or not an integer")))
        };
        if str_field("kind")? != "manifest" {
            return Err(corrupt("first line is not a manifest".to_string()));
        }
        let schema = str_field("schema")?;
        if schema != SHARD_SCHEMA {
            return Err(corrupt(format!(
                "unknown shard schema {schema:?} (expected {SHARD_SCHEMA:?})"
            )));
        }
        let model = parse_model(str_field("model")?)
            .ok_or_else(|| corrupt("manifest field \"model\" is not a known model".to_string()))?;
        let spec = CampaignSpec {
            cfg: GenConfig {
                stages: u64_field("stages")? as usize,
                procs: u64_field("procs")? as usize,
                comp: Range::new(
                    f64::from_bits(u64_field("comp_lo_bits")?),
                    f64::from_bits(u64_field("comp_hi_bits")?),
                ),
                comm: Range::new(
                    f64::from_bits(u64_field("comm_lo_bits")?),
                    f64::from_bits(u64_field("comm_hi_bits")?),
                ),
            },
            model,
            count: u64_field("count")? as usize,
            seed_base: u64_field("seed_base")?,
            cap: u64_field("cap")? as usize,
        };
        let manifest = if doc.get("range_offset").is_some() || doc.get("range_len").is_some() {
            let plan = ShardPlan::range(
                spec.seed_base,
                spec.count,
                u64_field("range_offset")? as usize,
                u64_field("range_len")? as usize,
            )
            .map_err(|e| corrupt(format!("manifest declares an invalid range: {e}")))?;
            ShardManifest { spec, plan }
        } else {
            ShardManifest::new(
                spec,
                u64_field("shard_index")? as usize,
                u64_field("num_shards")? as usize,
            )
            .map_err(|e| corrupt(format!("manifest declares an invalid plan: {e}")))?
        };
        // The redundant slice fields must agree with the plan arithmetic —
        // a shard claiming a foreign slice is corrupt, not merely odd.
        let (claimed_start, claimed_count) =
            (u64_field("seed_start")?, u64_field("shard_count")? as usize);
        if claimed_start != manifest.plan.seed_start()
            || claimed_count != manifest.plan.shard_count()
        {
            return Err(corrupt(format!(
                "manifest claims seeds {claimed_start}..{} but shard {}/{} of this campaign \
                 owns {}..{}",
                claimed_start.saturating_add(claimed_count as u64),
                manifest.plan.shard_index,
                manifest.plan.num_shards,
                manifest.plan.seed_start(),
                manifest.plan.seed_end(),
            )));
        }
        Ok(manifest)
    }

    /// First campaign-level difference between two manifests (ignores
    /// `shard_index`, which legitimately differs between shards), as a
    /// human-readable `field: a vs b` description — `None` when the two
    /// shards belong to the same campaign and plan layout.
    pub fn campaign_mismatch(&self, other: &ShardManifest) -> Option<String> {
        let a = &self.spec;
        let b = &other.spec;
        let fields: [(&str, String, String); 10] = [
            ("model", model_name(a.model).into(), model_name(b.model).into()),
            ("stages", a.cfg.stages.to_string(), b.cfg.stages.to_string()),
            ("procs", a.cfg.procs.to_string(), b.cfg.procs.to_string()),
            ("comp.lo", a.cfg.comp.lo.to_string(), b.cfg.comp.lo.to_string()),
            ("comp.hi", a.cfg.comp.hi.to_string(), b.cfg.comp.hi.to_string()),
            ("comm.lo", a.cfg.comm.lo.to_string(), b.cfg.comm.lo.to_string()),
            ("comm.hi", a.cfg.comm.hi.to_string(), b.cfg.comm.hi.to_string()),
            ("count", a.count.to_string(), b.count.to_string()),
            ("seed_base", a.seed_base.to_string(), b.seed_base.to_string()),
            ("cap", a.cap.to_string(), b.cap.to_string()),
        ];
        // Bitwise range comparison: a NaN or -0.0 smuggled into a range
        // must not compare as "same campaign".
        let bit_pairs = [
            (a.cfg.comp.lo, b.cfg.comp.lo),
            (a.cfg.comp.hi, b.cfg.comp.hi),
            (a.cfg.comm.lo, b.cfg.comm.lo),
            (a.cfg.comm.hi, b.cfg.comm.hi),
        ];
        for (k, (x, y)) in bit_pairs.iter().enumerate() {
            if x.to_bits() != y.to_bits() {
                let (name, va, vb) = &fields[3 + k];
                return Some(format!("{name}: {va} vs {vb}"));
            }
        }
        for (name, va, vb) in &fields {
            if va != vb {
                return Some(format!("{name}: {va} vs {vb}"));
            }
        }
        // Fraction shards of one campaign must share the shard layout.
        // Range shards carry explicit slices instead: any mix of slices of
        // the same campaign is layout-compatible (the merge checks that
        // the *covered* ranges tile the seed space), and a range shard is
        // also compatible with fraction shards.
        if self.plan.range_slice().is_none()
            && other.plan.range_slice().is_none()
            && self.plan.num_shards != other.plan.num_shards
        {
            return Some(format!(
                "num_shards: {} vs {}",
                self.plan.num_shards, other.plan.num_shards
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            cfg: GenConfig {
                stages: 2,
                procs: 7,
                comp: Range::constant(1.0),
                comm: Range::new(5.0, 10.0),
            },
            model: CommModel::Strict,
            count: 100,
            seed_base: 2009,
            cap: 400_000,
        }
    }

    #[test]
    fn manifest_round_trips_through_its_line() {
        let manifest = ShardManifest::new(spec(), 1, 3).unwrap();
        let line = manifest.to_line();
        assert!(!line.contains('\n'));
        let back = ShardManifest::parse_line(&line, "s1.ndjson").unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.plan.seed_start(), 2009 + 34);
        assert_eq!(back.plan.shard_count(), 33);
        assert!(manifest.campaign_mismatch(&back).is_none());
    }

    #[test]
    fn range_manifests_round_trip_and_are_layout_compatible() {
        let manifest = ShardManifest::new_range(spec(), 34, 33).unwrap();
        let line = manifest.to_line();
        assert!(line.contains("\"range_offset\":34,\"range_len\":33"), "{line}");
        let back = ShardManifest::parse_line(&line, "r2043-33.ndjson").unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.plan.seed_start(), 2043);
        assert_eq!(back.plan.shard_count(), 33);

        // Different slices of one campaign are the same campaign; so is a
        // range shard next to a fraction shard.
        let other = ShardManifest::new_range(spec(), 0, 34).unwrap();
        assert!(manifest.campaign_mismatch(&other).is_none());
        let fraction = ShardManifest::new(spec(), 1, 3).unwrap();
        assert!(manifest.campaign_mismatch(&fraction).is_none());

        // A range overshooting the campaign is corrupt at parse time.
        let doctored = line.replace("\"range_len\":33", "\"range_len\":90");
        let err = ShardManifest::parse_line(&doctored, "x").unwrap_err();
        assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn mismatches_are_diagnosed_field_by_field() {
        let a = ShardManifest::new(spec(), 0, 3).unwrap();
        let mut other = spec();
        other.model = CommModel::Overlap;
        let b = ShardManifest::new(other, 1, 3).unwrap();
        let diff = a.campaign_mismatch(&b).expect("differs");
        assert!(diff.contains("model"), "{diff}");

        let mut other = spec();
        other.cfg.comm = Range::new(5.0, 11.0);
        let c = ShardManifest::new(other, 1, 3).unwrap();
        let diff = a.campaign_mismatch(&c).expect("differs");
        assert!(diff.contains("comm.hi"), "{diff}");

        let d = ShardManifest::new(spec(), 1, 4).unwrap();
        let diff = a.campaign_mismatch(&d).expect("differs");
        assert!(diff.contains("num_shards"), "{diff}");

        // Same campaign, different shard index: NOT a mismatch.
        let e = ShardManifest::new(spec(), 2, 3).unwrap();
        assert!(a.campaign_mismatch(&e).is_none());
    }

    #[test]
    fn foreign_slice_claims_are_corrupt() {
        let line = ShardManifest::new(spec(), 1, 3).unwrap().to_line();
        let doctored = line.replace("\"seed_start\":2043", "\"seed_start\":2044");
        let err = ShardManifest::parse_line(&doctored, "x").unwrap_err();
        assert!(matches!(err, DistError::Corrupt { .. }), "{err}");

        let garbage = ShardManifest::parse_line("{\"kind\":\"outcome\"}", "x").unwrap_err();
        assert!(matches!(garbage, DistError::Corrupt { .. }), "{garbage}");
    }

    #[test]
    fn deeply_nested_line_is_corrupt_not_a_stack_overflow() {
        let line = "[".repeat(200_000);
        let err = ShardManifest::parse_line(&line, "deep.ndjson").unwrap_err();
        match &err {
            DistError::Corrupt { path, reason } => {
                assert_eq!(path, "deep.ndjson");
                assert!(reason.contains("nesting deeper than"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }
}
