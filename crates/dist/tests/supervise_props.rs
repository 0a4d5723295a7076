//! Supervisor fault-tolerance properties (the PR's acceptance criteria):
//!
//! * a supervised campaign — including one with injected kills, torn
//!   lines, takeovers and re-splits — merges to output **byte-identical**
//!   to the plain unsharded run;
//! * a mid-run kill loses at most the writer's unflushed buffer
//!   (`flush_every − 1` records past the last flush);
//! * exhausted retry budgets degrade loudly: the exact merge names the
//!   uncovered seed ranges and a ready-to-run command per gap, and
//!   `--allow-partial` merges what exists while reporting what's missing.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_dist::lease::RetryPolicy;
use repwf_dist::report::{campaign_doc, campaign_doc_partial};
use repwf_dist::shard::run_range;
use repwf_dist::{
    merge_paths, merge_paths_partial, run_shard, run_shard_opts, supervise, CampaignSpec,
    DistError, FaultPlan, ShardRunOptions, SuperviseOptions, SuperviseSummary,
};
use repwf_gen::campaign::{engine_for_cap, run_one_with, CampaignResult};
use repwf_gen::{GenConfig, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repwf-sup-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spec(count: usize, seed_base: u64) -> CampaignSpec {
    CampaignSpec {
        cfg: GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        },
        model: CommModel::Strict,
        count,
        seed_base,
        cap: 200_000,
    }
}

/// The unsharded reference document, from the serial per-instance oracle
/// (`run_one_with` seed by seed on one engine).
fn reference_doc(spec: &CampaignSpec) -> String {
    let mut engine = engine_for_cap(spec.cap);
    let res = CampaignResult {
        outcomes: (0..spec.count)
            .map(|k| run_one_with(&spec.cfg, spec.model, spec.seed_base + k as u64, &mut engine))
            .collect(),
    };
    campaign_doc(spec, &res).to_string_pretty()
}

/// Fast-retry options for tests (failed leases become reclaimable within
/// milliseconds instead of the production kind of backoff).
fn fast_opts(owner: &str, jitter_seed: u64) -> SuperviseOptions {
    SuperviseOptions {
        owner: owner.to_string(),
        threads: 1,
        retry: RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
            max_attempts: 6,
            jitter_seed,
        },
        flush_every: 4,
        poll: Duration::from_millis(2),
        ..SuperviseOptions::default()
    }
}

fn merged_doc(summary: &SuperviseSummary, spec: &CampaignSpec) -> String {
    assert!(summary.complete, "campaign should have completed: {summary:?}");
    let merged = merge_paths(&summary.files).expect("enumerated unit set merges");
    assert_eq!(merged.accum.done, spec.count);
    campaign_doc(&merged.spec, &merged.result).to_string_pretty()
}

#[test]
fn supervised_campaign_is_byte_identical_to_the_unsharded_run() {
    for (count, units) in [(1usize, 1usize), (9, 4), (26, 8), (30, 3)] {
        let spec = spec(count, 501 + count as u64);
        let dir = scratch_dir("basic");
        let opts = SuperviseOptions { units, ..fast_opts("solo", 7) };
        let summary = supervise(&dir, &spec, &opts).expect("supervise runs");
        assert_eq!(merged_doc(&summary, &spec), reference_doc(&spec), "count={count}");

        // A second worker over the finished directory claims nothing and
        // reports the same complete unit set.
        let again = supervise(&dir, &spec, &opts).expect("idempotent rerun");
        assert!(again.complete && again.claims.is_empty());
        assert_eq!(again.files, summary.files);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn divergent_worker_flags_are_refused_by_the_pinned_campaign() {
    let dir = scratch_dir("pin");
    let a = spec(8, 40);
    supervise(&dir, &a, &fast_opts("a", 1)).unwrap();
    let b = CampaignSpec { seed_base: 41, ..a };
    let err = supervise(&dir, &b, &fast_opts("b", 1)).unwrap_err();
    assert!(matches!(err, DistError::ManifestMismatch { .. }), "{err}");
    assert!(err.to_string().contains("seed_base: 40 vs 41"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 4: kills injected at seeded record counts (clean or with
    /// a torn final line), resumed by a competing clean worker, still
    /// merge byte-identically — counters included (`merged_doc` goes
    /// through the accum-checked merge).
    #[test]
    fn injected_kills_and_takeovers_merge_byte_identically(
        count in 1usize..22,
        fault_seed in 0u64..1000,
        seed_base in 1u64..3000,
    ) {
        let spec = spec(count, seed_base);
        let reference = reference_doc(&spec);
        let dir = scratch_dir("chaos");
        let fault = FaultPlan::seeded(fault_seed, count.min(8));
        let faulty = SuperviseOptions {
            units: 3.min(count),
            fault: Some(fault.clone()),
            ..fast_opts("faulty", fault_seed)
        };
        let clean = SuperviseOptions { units: 3.min(count), ..fast_opts("clean", fault_seed) };

        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| supervise(&dir, &spec, &faulty));
            let b = scope.spawn(|| supervise(&dir, &spec, &clean));
            (a.join().expect("worker a"), b.join().expect("worker b"))
        });
        let (a, b) = (a.expect("faulty worker finishes"), b.expect("clean worker finishes"));
        prop_assert!(a.complete && b.complete);
        prop_assert_eq!(a.files.clone(), b.files.clone());
        prop_assert_eq!(merged_doc(&a, &spec), reference);

        // If the kill actually fired, some later claim recovered the unit.
        let faulted: Vec<_> = a.claims.iter()
            .filter(|c| matches!(c.outcome, repwf_dist::supervise::ClaimOutcome::Faulted(_)))
            .collect();
        for f in faulted {
            let recovered = a.claims.iter().chain(&b.claims).any(|c| {
                c.offset == f.offset
                    && c.attempt > f.attempt
                    && matches!(c.outcome, repwf_dist::supervise::ClaimOutcome::Completed)
            });
            prop_assert!(recovered, "faulted unit at {} was never recovered", f.offset);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite 2: a kill after K records with flush cadence N leaves at
/// least `K − (N − 1)` records durably on disk, and the resume converges
/// to the uninterrupted bytes.
#[test]
fn mid_run_kill_keeps_all_but_the_unflushed_tail_on_disk() {
    let spec = spec(30, 913);
    let dir = scratch_dir("cadence");
    let reference = dir.join("ref.ndjson");
    run_shard(&spec, 0, 1, 2, &reference, None).unwrap();
    let reference_bytes = std::fs::read(&reference).unwrap();

    for (kill_after, flush_every, torn) in
        [(0usize, 5usize, 0usize), (7, 5, 9), (13, 4, 1), (29, 8, 0)]
    {
        let path = dir.join(format!("kill-{kill_after}-{flush_every}.ndjson"));
        let opts = ShardRunOptions {
            flush_every,
            fault: Some(FaultPlan { kill_after: Some(kill_after), torn, ..FaultPlan::default() }),
        };
        let err = run_shard_opts(&spec, 0, 1, 2, &path, None, &opts).unwrap_err();
        assert!(matches!(err, DistError::Fault(_)), "{err}");

        let text = std::fs::read_to_string(&path).unwrap();
        let durable_records = text.split_inclusive('\n').filter(|l| l.ends_with('\n')).count() - 1;
        assert!(
            durable_records >= kill_after.saturating_sub(flush_every - 1)
                && durable_records <= kill_after,
            "kill_after={kill_after} flush_every={flush_every}: {durable_records} on disk"
        );
        if torn > 0 && kill_after < spec.count {
            assert!(!text.ends_with('\n'), "expected a torn final line");
        }

        let summary = run_shard(&spec, 0, 1, 2, &path, None).unwrap();
        assert_eq!(summary.resumed, durable_records);
        assert_eq!(std::fs::read(&path).unwrap(), reference_bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3: gaps in an exact merge are refused with the precise seed
/// ranges and a ready-to-run `--range` command; `--allow-partial` merges
/// the covered prefix set and reports the same ranges as data.
#[test]
fn coverage_gaps_name_seed_ranges_and_resume_commands() {
    let spec = spec(12, 9);
    let dir = scratch_dir("gaps");
    let lo = dir.join("r0-5.ndjson");
    let hi = dir.join("r8-4.ndjson");
    run_range(&spec, 0, 5, 1, &lo, None, &ShardRunOptions::default()).unwrap();
    run_range(&spec, 8, 4, 1, &hi, None, &ShardRunOptions::default()).unwrap();

    let err = merge_paths(&[&lo, &hi]).unwrap_err();
    assert!(matches!(err, DistError::ShardSet(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("coverage incomplete: 3 of 12 experiments missing"), "{msg}");
    assert!(msg.contains("seeds 14..17 uncovered"), "{msg}");
    assert!(msg.contains("--range 5+3"), "{msg}");
    assert!(msg.contains("--seed 9"), "{msg}");

    let report = merge_paths_partial(&[&lo, &hi]).unwrap();
    assert_eq!(report.missing, vec![(14, 17)]);
    assert_eq!(report.merged.result.outcomes.len(), 9);
    let doc = campaign_doc_partial(&report.merged.spec, &report.merged.result, &report.missing)
        .to_string_pretty();
    assert!(doc.contains("\"partial\": true"), "{doc}");
    assert!(doc.contains("\"seed_start\": 14"), "{doc}");

    // Running exactly the suggested command closes the gap and the exact
    // merge equals the unsharded run.
    let fill = dir.join("r5-3.ndjson");
    run_range(&spec, 5, 3, 1, &fill, None, &ShardRunOptions::default()).unwrap();
    let merged = merge_paths(&[&lo, &fill, &hi]).unwrap();
    assert_eq!(campaign_doc(&merged.spec, &merged.result).to_string_pretty(), reference_doc(&spec));

    // Overlapping tiles: refused exactly, trimmed (to identical bytes,
    // records being pure functions of their seeds) under --allow-partial.
    let wide = dir.join("r4-8.ndjson");
    run_range(&spec, 4, 8, 1, &wide, None, &ShardRunOptions::default()).unwrap();
    let err = merge_paths(&[&lo, &wide]).unwrap_err();
    assert!(err.to_string().contains("overlapping coverage"), "{err}");
    let report = merge_paths_partial(&[&lo, &wide]).unwrap();
    assert!(report.missing.is_empty());
    assert_eq!(
        campaign_doc(&report.merged.spec, &report.merged.result).to_string_pretty(),
        reference_doc(&spec)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fraction-shard gaps keep the historical first line and gain the seed
/// ranges + commands below it.
#[test]
fn missing_fraction_shards_also_name_seed_ranges_and_commands() {
    let spec = spec(12, 9);
    let dir = scratch_dir("frac-gaps");
    let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("s{i}.ndjson"))).collect();
    for (i, path) in paths.iter().enumerate() {
        run_shard(&spec, i, 3, 1, path, None).unwrap();
    }
    let err = merge_paths(&[&paths[0], &paths[2]]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("missing shard(s) 1 of 3"), "{msg}");
    assert!(msg.contains("seeds 13..17 uncovered"), "{msg}");
    assert!(msg.contains("--shard 1/3"), "{msg}");

    // Partial merge of a fraction subset works and reports the hole.
    let report = merge_paths_partial(&[&paths[0], &paths[2]]).unwrap();
    assert_eq!(report.missing, vec![(13, 17)]);
    assert_eq!(report.merged.result.outcomes.len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exhausted retry budget degrades the campaign instead of spinning:
/// the summary names the unit, and the partial merge recovers every
/// record the dead attempts checkpointed.
#[test]
fn exhausted_retries_degrade_and_partial_merge_recovers_the_checkpoints() {
    let spec = spec(16, 77);
    let dir = scratch_dir("degraded");
    let opts = SuperviseOptions {
        units: 2,
        fault: Some(FaultPlan { kill_after: Some(3), ..FaultPlan::default() }),
        flush_every: 1, // every record durable, so the checkpoint is exact
        retry: RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_attempts: 1, // the faulted attempt is the only one
            jitter_seed: 5,
        },
        ..fast_opts("mortal", 5)
    };
    let summary = supervise(&dir, &spec, &opts).expect("degrades, not errors");
    assert!(!summary.complete);
    assert_eq!(summary.degraded.len(), 1, "{:?}", summary.degraded);
    assert_eq!(summary.degraded[0].attempts, 1);

    // The merge set is the enumerated units' files; the faulted one holds
    // a 3-record checkpoint, so the partial merge recovers 8 + 3 records
    // and names the missing tail exactly.
    let status = repwf_dist::status(&dir).unwrap();
    let files: Vec<PathBuf> =
        status.unit_status.iter().map(|u| dir.join(format!("{}.ndjson", u.unit.name()))).collect();
    let err = merge_paths(&files).unwrap_err();
    assert!(err.to_string().contains("incomplete"), "{err}");
    let report = merge_paths_partial(&files).unwrap();
    assert_eq!(report.merged.result.outcomes.len(), 11);
    let degraded_start = spec.seed_base + summary.degraded[0].offset as u64;
    assert_eq!(report.missing, vec![(degraded_start + 3, degraded_start + 8)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A straggler's unit is split at a seed boundary and the stolen upper
/// half merges seamlessly — the merged bytes cannot tell the cut.
#[test]
fn stragglers_are_resplit_and_the_merge_cannot_tell() {
    let spec = spec(24, 333);
    let reference = reference_doc(&spec);
    let dir = scratch_dir("resplit");
    let slow = SuperviseOptions {
        units: 1,
        split_min: 4,
        fault: Some(FaultPlan { slow_ms: 40, ..FaultPlan::default() }),
        flush_every: 2,
        ..fast_opts("slow", 11)
    };
    let fast = SuperviseOptions { units: 1, split_min: 4, flush_every: 2, ..fast_opts("fast", 11) };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| supervise(&dir, &spec, &slow));
        let b = scope.spawn(|| {
            // Let the straggler claim the single unit first.
            let lease = dir.join("leases").join("r0-24.lease");
            for _ in 0..2000 {
                if lease.exists() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            supervise(&dir, &spec, &fast)
        });
        (a.join().expect("slow worker"), b.join().expect("fast worker"))
    });
    let (a, b) = (a.expect("slow finishes"), b.expect("fast finishes"));
    assert!(a.complete && b.complete);
    assert!(
        !b.splits.is_empty() || !a.splits.is_empty(),
        "the idle worker should have split the straggler's unit"
    );
    assert!(a.files.len() > 1, "a split must yield multiple unit files: {:?}", a.files);
    assert_eq!(merged_doc(&a, &spec), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `status` reports per-unit standing without claiming anything.
#[test]
fn status_reports_units_records_and_leases() {
    let spec = spec(10, 55);
    let dir = scratch_dir("status");
    let opts = SuperviseOptions { units: 2, ..fast_opts("w", 3) };
    supervise(&dir, &spec, &opts).unwrap();
    let status = repwf_dist::status(&dir).unwrap();
    assert!(status.complete);
    assert_eq!(status.units, 2);
    assert_eq!(status.unit_status.len(), 2);
    for u in &status.unit_status {
        assert!(u.file_complete);
        assert_eq!(u.records, u.unit.eff);
        assert!(u.lease.is_none(), "released lease should be gone");
    }
    assert!(repwf_dist::status(Path::new("/nonexistent-repwf")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinned unit count outside the writer's `1..=count` range is refused
/// as corrupt by both readers (`status` and a supervising worker's adopt
/// path) instead of being enumerated unit by unit.
#[test]
fn out_of_range_pinned_unit_counts_are_corrupt() {
    let spec = spec(6, 77);
    let dir = scratch_dir("units");
    supervise(&dir, &spec, &SuperviseOptions { units: 2, ..fast_opts("w", 5) }).unwrap();
    let pin = dir.join("campaign.json");
    let text = std::fs::read_to_string(&pin).unwrap();
    assert!(text.contains("\"units\":2"), "{text}");
    for bad in ["0", "7", "18446744073709551615"] {
        std::fs::write(&pin, text.replace("\"units\":2", &format!("\"units\":{bad}"))).unwrap();
        let err = repwf_dist::status(&dir).unwrap_err();
        assert!(matches!(err, DistError::Corrupt { .. }), "status, units {bad}: {err}");
        assert!(err.to_string().contains("campaign.json"), "{err}");
        assert!(err.to_string().contains(&format!("\"units\" {bad} is outside 1..=6")), "{err}");
        let err = supervise(&dir, &spec, &fast_opts("v", 5)).unwrap_err();
        assert!(matches!(err, DistError::Corrupt { .. }), "supervise, units {bad}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_split_landing_behind_an_overshot_checkpoint_closes_with_a_valid_footer() {
    // Regression: giving the upper half of a re-split unit back truncates
    // the file with set_len, which does not move the write cursor — the
    // footer then landed past EOF behind a zero-filled gap, so the unit
    // reported "completed" while its file scanned as incomplete and the
    // final merge refused the directory.
    let spec = spec(16, 611);
    let dir = scratch_dir("overshoot");

    // A worker whose only attempt dies after flushing 6 of r0-8's
    // records (cadence 1, retry budget 1) leaves a 6-record checkpoint
    // and a degraded campaign.
    let mut faulty = fast_opts("faulty", 3);
    faulty.units = 2;
    faulty.flush_every = 1;
    faulty.retry.max_attempts = 1;
    faulty.fault = Some(FaultPlan { kill_after: Some(6), ..FaultPlan::default() });
    let degraded = supervise(&dir, &spec, &faulty).expect("worker survives its own fault");
    assert!(!degraded.complete);

    // A straggler split lands on the checkpointed unit while nobody owns
    // it: r0-8's effective length halves to 4, below its 6 durable
    // records.
    std::fs::write(dir.join("splits").join("r0-8.split"), b"").expect("plant split marker");

    // The next claimant must hand the overshoot back: truncate the file
    // to 4 records and close it with a footer that actually scans.
    let summary = supervise(&dir, &spec, &fast_opts("clean", 9)).expect("clean pass");
    let (manifest, outcomes) =
        repwf_dist::read_shard(&dir.join("r0-8.ndjson")).expect("early-closed unit file scans");
    assert_eq!(outcomes.len(), 4, "overshoot beyond the split point is given back");
    assert_eq!(manifest.plan.shard_count(), 8, "the manifest still declares the full unit");
    assert_eq!(merged_doc(&summary, &spec), reference_doc(&spec));
    let _ = std::fs::remove_dir_all(&dir);
}
