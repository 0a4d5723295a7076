//! Hostile-input properties of the remaining readers: the JSON parser
//! (`json::parse`), the shard manifest line (`ShardManifest::parse_line`),
//! the fault plan (`FaultPlan::parse`) and lease bodies read through
//! `lease::inspect`. Each reader sees arbitrary bytes, every truncation of
//! a valid input and every single bit flip of it, and must return `Ok` or
//! a typed error, never panic. Text readers get invalid UTF-8 as its lossy
//! decoding; the lease reader gets the raw bytes on disk.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_dist::json::{self, JsonError};
use repwf_dist::lease::{inspect, Lease, RetryPolicy};
use repwf_dist::{CampaignSpec, DistError, FaultPlan, LeaseProgress, ShardManifest};
use repwf_gen::{GenConfig, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case (unique names keep concurrent test
/// binaries apart).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repwf-readers-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every strict prefix of `valid`, then `valid` with each single bit
/// flipped, each paired with whether it is a truncation.
fn damaged(valid: &[u8]) -> impl Iterator<Item = (Vec<u8>, bool)> + '_ {
    let cuts = (0..valid.len()).map(|n| (valid[..n].to_vec(), true));
    let flips = (0..8 * valid.len()).map(|bit| {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        (bytes, false)
    });
    cuts.chain(flips)
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Arbitrary bytes biased towards the readers' syntax, so they get past
/// their first byte often enough to exercise every branch.
fn junk_strategy() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}[]\":,=-+.eE0123456789\n\\u truefalsnkid_btm\x00\xc3\xa9\xff";
    proptest::collection::vec((0usize..ALPHABET.len() + 8, 0u8..=255), 0..200).prop_map(|picks| {
        picks.into_iter().map(|(i, raw)| ALPHABET.get(i).copied().unwrap_or(raw)).collect()
    })
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        cfg: GenConfig {
            stages: 3,
            procs: 7,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(1.5, 4.25),
        },
        model: CommModel::Strict,
        count: 120,
        seed_base: 11,
        cap: 2_000_000,
    }
}

/// A fraction manifest and a range manifest.
fn valid_manifests() -> [String; 2] {
    [
        ShardManifest::new(spec(), 1, 3).unwrap().to_line(),
        ShardManifest::new_range(spec(), 40, 25).unwrap().to_line(),
    ]
}

const VALID_FAULT_PLAN: &str = "kill-after=7,torn=12,slow=5,corrupt-footer,exit";

/// A JSON document with every value kind, escapes and a non-ASCII string.
const VALID_JSON: &str = "{\"a\":[1,-2.5e3,true,false,null],\"s\":\"h\\u00f4te \\\"x\\\"\\n\",\
                          \"o\":{\"n\":18446744073709551615,\"é\":[]}}";

fn parse_manifest(text: &str) -> Result<ShardManifest, DistError> {
    let result = ShardManifest::parse_line(text, "s.ndjson");
    if let Err(e) = &result {
        assert!(matches!(e, DistError::Corrupt { .. }), "untyped manifest error {e:?}");
    }
    result
}

fn parse_fault_plan(text: &str) -> Result<FaultPlan, DistError> {
    let result = FaultPlan::parse(text);
    if let Err(e) = &result {
        assert!(matches!(e, DistError::Plan(_)), "untyped fault-plan error {e:?}");
    }
    result
}

/// A claimed lease with progress, its owner non-ASCII so that a cut can
/// split a character.
fn valid_lease_body() -> Vec<u8> {
    let dir = scratch_dir("lease-src");
    let path = dir.join("unit.lease");
    let lease = Lease::claim(&path, "hôte:42", 2, 9).unwrap().expect("fresh path");
    let progress = LeaseProgress { records: 17, start_records: 3, elapsed_ms: 250 };
    assert!(lease.heartbeat_progress(progress).unwrap());
    let body = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    body
}

/// Reads `bytes` as a lease file. Every body is a claim: a corrupt one is
/// a live claim of unknown shape, never an error that fails a scan. Its
/// retry gates must evaluate too.
fn inspect_lease(bytes: &[u8]) {
    let dir = scratch_dir("lease");
    let path = dir.join("unit.lease");
    std::fs::write(&path, bytes).unwrap();
    let info = inspect(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let info = info.unwrap_or_else(|e| panic!("lease {:?} failed the scan: {e}", lossy(bytes)));
    let info = info.expect("the lease file exists");
    let policy = RetryPolicy::default();
    let timeout = Duration::from_secs(1);
    info.reclaimable(7, timeout, &policy);
    info.exhausted(timeout, &policy);
    if let Some(progress) = info.progress {
        progress.records_per_sec();
    }
}

#[test]
fn the_undamaged_inputs_are_accepted() {
    let doc = json::parse(VALID_JSON).expect("valid JSON");
    assert_eq!(doc.get("s").and_then(|s| s.as_str()), Some("hôte \"x\"\n"));
    for line in valid_manifests() {
        let manifest = parse_manifest(&line).expect("valid manifest");
        assert_eq!(manifest.to_line(), line);
    }
    let plan = parse_fault_plan(VALID_FAULT_PLAN).expect("valid fault plan");
    assert_eq!(plan.to_directive(), VALID_FAULT_PLAN);
    let dir = scratch_dir("lease-valid");
    let path = dir.join("unit.lease");
    std::fs::write(&path, valid_lease_body()).unwrap();
    let info = inspect(&path).unwrap().expect("lease");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((info.owner.as_str(), info.attempt), ("hôte:42", 2));
    assert_eq!(info.progress.map(|p| p.records), Some(17));
}

#[test]
fn json_parse_survives_every_truncation_and_bit_flip() {
    for (bytes, cut) in damaged(VALID_JSON.as_bytes()) {
        let result = json::parse(&lossy(&bytes));
        if cut {
            assert!(result.is_err(), "truncation {:?} parsed", lossy(&bytes));
        }
    }
    // Nesting past the limit is refused, not recursed into.
    let deep = "[".repeat(json::MAX_DEPTH + 1);
    assert!(matches!(json::parse(&deep), Err(JsonError::TooDeep { .. })));
}

#[test]
fn manifest_lines_survive_every_truncation_and_bit_flip() {
    for line in valid_manifests() {
        for (bytes, cut) in damaged(line.as_bytes()) {
            let result = parse_manifest(&lossy(&bytes));
            if cut {
                assert!(result.is_err(), "truncation {:?} parsed", lossy(&bytes));
            }
        }
    }
}

#[test]
fn fault_plans_survive_every_truncation_and_bit_flip() {
    for (bytes, _) in damaged(VALID_FAULT_PLAN.as_bytes()) {
        let _ = parse_fault_plan(&lossy(&bytes));
    }
}

#[test]
fn lease_bodies_survive_every_truncation_and_bit_flip() {
    for (bytes, _) in damaged(&valid_lease_body()) {
        inspect_lease(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn readers_return_typed_errors_on_arbitrary_bytes(junk in junk_strategy()) {
        let text = lossy(&junk);
        let _ = json::parse(&text);
        let _ = parse_manifest(&text);
        let _ = parse_fault_plan(&text);
        inspect_lease(&junk);
    }
}
