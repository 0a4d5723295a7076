//! Shard determinism properties (the PR's acceptance criteria):
//!
//! * for random `(count, num_shards, threads)`, the merged campaign JSON
//!   is **byte-identical** to the unsharded run, under both communication
//!   models;
//! * resuming after an arbitrary NDJSON truncation reproduces the same
//!   shard bytes (and hence the same merged JSON);
//! * inconsistent shard sets are diagnosed, never silently merged.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_dist::report::campaign_doc;
use repwf_dist::{merge_paths, run_shard, CampaignSpec, DistError};
use repwf_gen::campaign::{engine_for_cap, run_one_with, CampaignResult};
use repwf_gen::{GenConfig, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case (cleaned by the caller's best
/// effort; unique names keep concurrent test binaries apart).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repwf-dist-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spec(model: CommModel, count: usize, seed_base: u64) -> CampaignSpec {
    CampaignSpec {
        cfg: GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        },
        model,
        count,
        seed_base,
        cap: 200_000,
    }
}

/// The unsharded reference: the serial per-instance oracle, `run_one_with`
/// seed by seed on one engine.
fn oracle(spec: &CampaignSpec) -> CampaignResult {
    let mut engine = engine_for_cap(spec.cap);
    CampaignResult {
        outcomes: (0..spec.count)
            .map(|k| run_one_with(&spec.cfg, spec.model, spec.seed_base + k as u64, &mut engine))
            .collect(),
    }
}

/// Runs every shard to a file, merges, and returns the merged document
/// plus the shard file paths.
fn shard_and_merge(
    spec: &CampaignSpec,
    num_shards: usize,
    threads: usize,
    dir: &std::path::Path,
) -> (String, Vec<PathBuf>) {
    let paths: Vec<PathBuf> =
        (0..num_shards).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (i, path) in paths.iter().enumerate() {
        let summary = run_shard(spec, i, num_shards, threads, path, None).expect("shard runs");
        assert_eq!(summary.resumed, 0);
        assert_eq!(summary.ran, summary.manifest.plan.shard_count());
    }
    let merged = merge_paths(&paths).expect("complete shard set merges");
    assert_eq!(merged.num_shards, num_shards);
    assert_eq!(merged.accum.done, spec.count);
    let doc = campaign_doc(&merged.spec, &merged.result).to_string_pretty();
    (doc, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn merged_json_is_byte_identical_to_the_unsharded_run(
        count in 0usize..28,
        num_shards in 1usize..5,
        threads in 1usize..4,
        seed_base in 1u64..5000,
    ) {
        for model in [CommModel::Overlap, CommModel::Strict] {
            let spec = spec(model, count, seed_base);
            let reference = campaign_doc(&spec, &oracle(&spec)).to_string_pretty();

            let dir = scratch_dir("merge");
            let (merged, _) = shard_and_merge(&spec, num_shards, threads, &dir);
            prop_assert!(
                merged == reference,
                "merged JSON diverges: count={} shards={} threads={} model={:?}",
                count, num_shards, threads, model
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_after_truncation_reproduces_the_same_bytes(
        count in 1usize..24,
        num_shards in 1usize..4,
        threads in 1usize..3,
        cut in 0.0f64..1.0,
    ) {
        let spec = spec(CommModel::Strict, count, 77);
        let dir = scratch_dir("resume");
        let (reference_doc, paths) = shard_and_merge(&spec, num_shards, threads, &dir);
        // Kill the *largest* shard mid-write: truncate its NDJSON at an
        // arbitrary byte past the manifest line (often mid-record).
        let victim = &paths[0];
        let original = std::fs::read(victim).unwrap();
        let manifest_len = original.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut_at = manifest_len
            + ((original.len() - manifest_len) as f64 * cut) as usize;
        std::fs::write(victim, &original[..cut_at]).unwrap();

        let summary = run_shard(&spec, 0, num_shards, threads, victim, None)
            .expect("resume succeeds");
        prop_assert_eq!(summary.resumed + summary.ran, summary.manifest.plan.shard_count());
        let resumed = std::fs::read(victim).unwrap();
        prop_assert!(
            resumed == original,
            "resume from byte {} of {} must converge to the same file",
            cut_at, original.len()
        );
        let merged = merge_paths(&paths).expect("merges after resume");
        prop_assert_eq!(
            campaign_doc(&merged.spec, &merged.result).to_string_pretty(),
            reference_doc
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn complete_shard_reruns_are_validated_noops() {
    let spec = spec(CommModel::Strict, 9, 400);
    let dir = scratch_dir("noop");
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 2, 2, &path, None).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let again = run_shard(&spec, 0, 2, 1, &path, None).unwrap();
    assert_eq!(again.ran, 0, "complete shard must not recompute");
    assert_eq!(again.resumed, again.manifest.plan.shard_count());
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_the_manifest_write_restarts_fresh_but_foreign_garbage_does_not() {
    let dir = scratch_dir("torn-manifest");
    let spec = spec(CommModel::Strict, 6, 12);
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 1, 1, &path, None).unwrap();
    let complete = std::fs::read(&path).unwrap();
    let manifest_len = complete.iter().position(|&b| b == b'\n').unwrap() + 1;

    // A kill mid-manifest leaves a newline-less prefix of our own
    // manifest line: restartable from scratch, converging bytewise.
    for cut in [1, manifest_len / 2, manifest_len - 1] {
        std::fs::write(&path, &complete[..cut]).unwrap();
        let summary = run_shard(&spec, 0, 1, 2, &path, None).unwrap();
        assert_eq!((summary.resumed, summary.ran), (0, 6), "cut={cut}");
        assert_eq!(std::fs::read(&path).unwrap(), complete, "cut={cut}");
    }

    // A newline-less first line that is NOT our manifest prefix is a
    // foreign file: refuse, never overwrite.
    std::fs::write(&path, b"{\"kind\":\"something else entirely").unwrap();
    let err = run_shard(&spec, 0, 1, 1, &path, None).unwrap_err();
    assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_manifests_are_refused_on_resume_and_merge() {
    let dir = scratch_dir("mismatch");
    let strict = spec(CommModel::Strict, 10, 5);
    let overlap = CampaignSpec { model: CommModel::Overlap, ..strict };
    let s0 = dir.join("s0.ndjson");
    let s1 = dir.join("s1.ndjson");
    run_shard(&strict, 0, 2, 1, &s0, None).unwrap();

    // Resuming the same file under a different campaign must refuse.
    let err = run_shard(&overlap, 0, 2, 1, &s0, None).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("model"), "{err}");
    // ... and under a different shard identity too.
    let err = run_shard(&strict, 1, 2, 1, &s0, None).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");

    // Merging shards of different campaigns must name the field.
    run_shard(&overlap, 1, 2, 1, &s1, None).unwrap();
    let err = merge_paths(&[&s0, &s1]).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("model: strict vs overlap"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_duplicate_and_incomplete_shards_are_diagnosed() {
    let dir = scratch_dir("shardset");
    let spec = spec(CommModel::Strict, 12, 9);
    let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (i, path) in paths.iter().enumerate() {
        run_shard(&spec, i, 3, 1, path, None).unwrap();
    }

    let err = merge_paths(&paths[..2]).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("missing shard(s) 2"), "{err}");

    let err = merge_paths(&[&paths[0], &paths[1], &paths[1]]).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("duplicate shard 1"), "{err}");

    // An unfinished shard (manifest + some records, no footer) must point
    // at the resume command, not merge partial data.
    let text = std::fs::read_to_string(&paths[2]).unwrap();
    let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&paths[2], keep).unwrap();
    let err = merge_paths(&paths).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    assert!(err.to_string().contains("incomplete"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interior_corruption_is_refused_not_resumed() {
    let dir = scratch_dir("corrupt");
    let spec = spec(CommModel::Strict, 8, 31);
    let path = dir.join("s0.ndjson");
    run_shard(&spec, 0, 1, 1, &path, None).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // Flip a digit of an interior record's seed: contiguity check fires.
    let lines: Vec<&str> = text.lines().collect();
    let doctored_record = lines[2].replacen("\"seed\":32", "\"seed\":33", 1);
    assert_ne!(doctored_record, lines[2], "doctoring must hit");
    let mut doctored = lines.to_vec();
    doctored[2] = &doctored_record;
    let doctored: String = doctored.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, &doctored).unwrap();
    for err in [
        run_shard(&spec, 0, 1, 1, &path, None).unwrap_err(),
        merge_paths(&[&path]).unwrap_err(),
    ] {
        assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("seed 33, expected 32"), "{err}");
    }

    // A tampered record under an unchanged footer: checksum mismatch.
    let tampered = text.replacen("\"resolution\":\"exact\"", "\"resolution\":\"simulated\"", 1);
    assert_ne!(tampered, text);
    std::fs::write(&path, &tampered).unwrap();
    let err = merge_paths(&[&path]).unwrap_err();
    assert!(matches!(err, DistError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
