//! The four workloads: their inputs, one pass of each, and the check of
//! every pass's output.
//!
//! A *pass* is the workload's unit of work: one seed chunk of the strict
//! campaign, one full Table 2, one shard round trip, or one certified
//! solve of Example A under both models. Every pass is timed around the
//! library call alone; its check runs afterwards, outside the timer.

use repwf_core::fixtures::example_a;
use repwf_core::model::{CommModel, Instance};
use repwf_dist::{merge_paths, run_shard, CampaignSpec};
use repwf_gen::campaign::{
    engine_for_cap, run_campaign_batched, run_one_with, CampaignResult, Resolution,
    DEFAULT_CAMPAIGN_CAP,
};
use repwf_gen::table2::{run_row, table2_rows, RowResult, Table2Row};
use repwf_gen::{GenConfig, Range};
use repwf_map::exact::{solve, ExactOptions, ExactResult, ExactStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed of the pinned output checks and the default of `--seed`.
/// Table 2 at this base seed is `repwf table2 --full`.
pub const DEFAULT_SEED: u64 = 20_090_301;
/// Seeds per `campaign_reuse` pass: the 20k-draw default campaign runs as
/// five contiguous chunks of this size.
pub const CAMPAIGN_CHUNK: usize = 4000;
/// Shards per `shard_merge` round trip (of one campaign chunk).
pub const NUM_SHARDS: usize = 3;
/// Seeds per campaign pass compared with the per-instance oracle.
const ORACLE_SAMPLE: usize = 8;
/// Distance between the seed bases of two Table 2 passes: wider than the
/// `10_000_000 * row + 1_000_000 * size` offsets one table uses.
const TABLE2_STRIDE: u64 = 200_000_000;
/// TPN size cap of every campaign (the library default).
pub const CAP: usize = DEFAULT_CAMPAIGN_CAP;

/// Table 2 strict no-critical counts at [`DEFAULT_SEED`], in row order.
const PINNED_STRICT_NO_CRITICAL: [usize; 6] = [33, 12, 9, 4, 25, 15];
/// Certified optima of Example A: (model, period, search counters).
const PINNED_OPTIMA: [(CommModel, f64, ExactStats); 2] = [
    (
        CommModel::Strict,
        68.0,
        ExactStats {
            tasks: 28,
            nodes: 79_852,
            pruned: 43_983,
            evaluated: 20_443,
            infeasible: 0,
        },
    ),
    (
        CommModel::Overlap,
        67.0,
        ExactStats {
            tasks: 28,
            nodes: 129_325,
            pruned: 62_015,
            evaluated: 38_175,
            infeasible: 0,
        },
    ),
];
/// Leaves of Example A's ordered replica-assignment space.
const EXAMPLE_A_SPACE: u128 = 162_120;

/// A named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignReuse,
    Table2Paper,
    ShardMerge,
    MapExact,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignReuse,
        Workload::Table2Paper,
        Workload::ShardMerge,
        Workload::MapExact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignReuse => "campaign_reuse",
            Workload::Table2Paper => "table2_paper",
            Workload::ShardMerge => "shard_merge",
            Workload::MapExact => "map_exact",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs experiment campaigns (the coverage gauge
    /// applies to these).
    pub fn is_campaign(self) -> bool {
        self != Workload::MapExact
    }
}

/// The strict 2-stage, 7-processor family of Table 2 (comp 1, comm 5..10):
/// the default `repwf campaign` spec.
pub fn campaign_cfg() -> GenConfig {
    GenConfig {
        stages: 2,
        procs: 7,
        comp: Range::constant(1.0),
        comm: Range::new(5.0, 10.0),
    }
}

/// One sub-campaign of a pass: `count` experiments from `seed_base` on.
#[derive(Debug, Clone, Copy)]
pub struct SubCampaign {
    pub cfg: GenConfig,
    pub model: CommModel,
    pub seed_base: u64,
    pub count: usize,
}

/// Registry counters one pass added (all zero while telemetry is off).
pub type Counters = [u64; repwf_obs::NUM_COUNTERS];

/// Timing and outcome of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Wall seconds of the library calls (checks excluded).
    pub secs: f64,
    /// Results delivered: experiment outcomes, or certified optima.
    pub results: usize,
    /// Counters the library calls added.
    pub counters: Counters,
    /// The certified solves of a `map_exact` pass.
    pub exact: Vec<ExactResult>,
    /// `Err`, panic or failed check, if any.
    pub error: Option<String>,
}

/// Runs `f`, returning its value, its wall seconds and the registry
/// counters it added.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, Counters) {
    let before = repwf_obs::enabled().then(repwf_obs::snapshot);
    let t0 = Instant::now();
    let value = f();
    let secs = t0.elapsed().as_secs_f64();
    let mut counters = [0; repwf_obs::NUM_COUNTERS];
    if let Some(before) = before {
        let after = repwf_obs::snapshot();
        for (c, (a, b)) in counters
            .iter_mut()
            .zip(after.counters.iter().zip(&before.counters))
        {
            *c = a - b;
        }
    }
    (value, secs, counters)
}

/// A workload's built inputs.
pub struct Bench {
    pub workload: Workload,
    seed_root: u64,
    /// Shard files of `shard_merge` live here.
    dir: PathBuf,
    rows: Vec<Table2Row>,
    inst: Instance,
}

/// SplitMix64: spreads a small `--seed` over the seed space, leaving room
/// above it for the pass offsets.
fn seed_root(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 20
}

impl Bench {
    /// Builds the workload's inputs: the Table 2 specs, Example A, and an
    /// empty shard directory under `scratch`.
    pub fn new(workload: Workload, seed: u64, scratch: &Path) -> Result<Bench, String> {
        let dir = scratch.join(workload.name());
        if workload == Workload::ShardMerge {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(Bench {
            workload,
            seed_root: seed_root(seed),
            dir,
            rows: table2_rows(),
            inst: example_a(),
        })
    }

    /// Example A, the input of `map_exact`.
    pub fn example_a(&self) -> &Instance {
        &self.inst
    }

    /// Seed base of measured pass `k` (a pure function of `--seed` and `k`).
    pub fn base(&self, k: u64) -> u64 {
        match self.workload {
            Workload::Table2Paper => self.seed_root + k * TABLE2_STRIDE,
            _ => self.seed_root + k * CAMPAIGN_CHUNK as u64,
        }
    }

    /// The sub-campaigns of measured pass `k`, in the order the pass runs
    /// them (empty for `map_exact`).
    pub fn sub_campaigns(&self, k: u64) -> Vec<SubCampaign> {
        let base = self.base(k);
        match self.workload {
            Workload::CampaignReuse | Workload::ShardMerge => vec![SubCampaign {
                cfg: campaign_cfg(),
                model: CommModel::Strict,
                seed_base: base,
                count: CAMPAIGN_CHUNK,
            }],
            // Mirrors `run_row` at scale 1: sizes split the row's count
            // evenly, size `k` of row `i` starts at `base + 10M·i + 1M·k`.
            Workload::Table2Paper => {
                let mut subs = Vec::new();
                for (i, row) in self.rows.iter().enumerate() {
                    let per_size = row.paper_count / row.sizes.len();
                    for (k, &(stages, procs)) in row.sizes.iter().enumerate() {
                        subs.push(SubCampaign {
                            cfg: GenConfig {
                                stages,
                                procs,
                                comp: row.comp,
                                comm: row.comm,
                            },
                            model: row.model,
                            seed_base: base + 10_000_000 * i as u64 + 1_000_000 * k as u64,
                            count: per_size,
                        });
                    }
                }
                subs
            }
            Workload::MapExact => Vec::new(),
        }
    }

    /// The warm-up pass of set-up: runs at [`DEFAULT_SEED`], where the
    /// pinned outputs are checked.
    pub fn warm_up(&self, threads: usize) -> PassOut {
        self.guarded(DEFAULT_SEED, threads, true)
    }

    /// Measured pass `k` on `threads` workers.
    pub fn pass(&self, k: u64, threads: usize) -> PassOut {
        self.guarded(self.base(k), threads, false)
    }

    /// Runs one pass at seed base `base`, turning panics into failures.
    fn guarded(&self, base: u64, threads: usize, pinned: bool) -> PassOut {
        let mut out = PassOut::default();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| {
            self.run(base, threads, pinned, &mut out)
        })) {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            out.error = Some(format!("panic: {msg}"));
        }
        out
    }

    /// One pass: the timed library calls, then the output check.
    fn run(&self, base: u64, threads: usize, pinned: bool, out: &mut PassOut) {
        let checked = match self.workload {
            Workload::CampaignReuse => {
                let cfg = campaign_cfg();
                let (res, secs, counters) = timed(|| {
                    run_campaign_batched(
                        &cfg,
                        CommModel::Strict,
                        CAMPAIGN_CHUNK,
                        base,
                        threads,
                        CAP,
                    )
                });
                (out.secs, out.counters, out.results) = (secs, counters, res.outcomes.len());
                check_campaign(&res, &cfg, base, CAMPAIGN_CHUNK)
            }
            Workload::Table2Paper => {
                let (results, secs, counters) = timed(|| {
                    self.rows
                        .iter()
                        .enumerate()
                        .map(|(i, row)| {
                            run_row(row, 1.0, base + 10_000_000 * i as u64, threads, CAP)
                        })
                        .collect::<Vec<_>>()
                });
                let total = results.iter().map(|r| r.total).sum();
                (out.secs, out.counters, out.results) = (secs, counters, total);
                check_table2(&results, pinned)
            }
            Workload::ShardMerge => {
                let spec = shard_spec(base);
                self.fresh_shard_paths().and_then(|paths| {
                    let (merged, secs, counters) = timed(|| round_trip(&spec, &paths, threads));
                    (out.secs, out.counters) = (secs, counters);
                    let merged = merged?;
                    out.results = merged.result.outcomes.len();
                    let reference =
                        run_campaign_batched(&spec.cfg, spec.model, spec.count, base, threads, CAP);
                    check_merged(&merged, &reference, &spec)
                })
            }
            Workload::MapExact => {
                let (results, secs, counters) = timed(|| {
                    PINNED_OPTIMA
                        .iter()
                        .map(|&(model, _, _)| {
                            let opts = ExactOptions {
                                model,
                                threads,
                                ..ExactOptions::default()
                            };
                            solve(&self.inst.pipeline, &self.inst.platform, &opts)
                        })
                        .collect::<Result<Vec<_>, _>>()
                });
                (out.secs, out.counters) = (secs, counters);
                results.map_err(|e| e.to_string()).and_then(|results| {
                    out.results = results.len();
                    let checked = check_exact(&results, &PINNED_OPTIMA);
                    out.exact = results;
                    checked
                })
            }
        };
        out.error = checked.err();
    }

    /// The shard file paths of one round trip, with any earlier files
    /// removed.
    pub fn fresh_shard_paths(&self) -> Result<Vec<PathBuf>, String> {
        (0..NUM_SHARDS)
            .map(|i| {
                let path = self.dir.join(format!("shard-{i}.ndjson"));
                match std::fs::remove_file(&path) {
                    Ok(()) => Ok(path),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(path),
                    Err(e) => Err(format!("{}: {e}", path.display())),
                }
            })
            .collect()
    }

    /// Removes the shard directory.
    pub fn cleanup(&self) {
        if self.workload == Workload::ShardMerge {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// The campaign one `shard_merge` round trip covers.
pub fn shard_spec(base: u64) -> CampaignSpec {
    CampaignSpec {
        cfg: campaign_cfg(),
        model: CommModel::Strict,
        count: CAMPAIGN_CHUNK,
        seed_base: base,
        cap: CAP,
    }
}

/// Writes the campaign as [`NUM_SHARDS`] shard files and merges them back.
pub fn round_trip(
    spec: &CampaignSpec,
    paths: &[PathBuf],
    threads: usize,
) -> Result<repwf_dist::MergedCampaign, String> {
    for (i, path) in paths.iter().enumerate() {
        run_shard(spec, i, paths.len(), threads, path, None).map_err(|e| e.to_string())?;
    }
    merge_paths(paths).map_err(|e| e.to_string())
}

/// A campaign pass: one exact outcome per seed in order, no period below
/// `M_ct`, and a sample of outcomes bit-equal to the per-instance oracle
/// `run_one_with`.
pub fn check_campaign(
    res: &CampaignResult,
    cfg: &GenConfig,
    base: u64,
    count: usize,
) -> Result<(), String> {
    if res.outcomes.len() != count {
        return Err(format!("{} outcomes for {count} seeds", res.outcomes.len()));
    }
    for (k, o) in res.outcomes.iter().enumerate() {
        if o.seed != base + k as u64 {
            return Err(format!(
                "outcome {k} has seed {}, expected {}",
                o.seed,
                base + k as u64
            ));
        }
        if o.resolution != Resolution::Exact {
            return Err(format!("seed {} fell back to the simulator", o.seed));
        }
        if !(o.period.is_finite() && o.period >= o.mct * (1.0 - 1e-9)) {
            return Err(format!(
                "seed {}: period {} below M_ct {}",
                o.seed, o.period, o.mct
            ));
        }
    }
    let mut engine = engine_for_cap(CAP);
    for j in 0..ORACLE_SAMPLE.min(count) {
        let k = j * count / ORACLE_SAMPLE.min(count);
        let got = &res.outcomes[k];
        let want = run_one_with(cfg, CommModel::Strict, base + k as u64, &mut engine);
        let same = got.seed == want.seed
            && got.num_paths == want.num_paths
            && got.resolution == want.resolution
            && got.mct.to_bits() == want.mct.to_bits()
            && got.period.to_bits() == want.period.to_bits();
        if !same {
            return Err(format!(
                "seed {}: {got:?} differs from the oracle {want:?}",
                want.seed
            ));
        }
    }
    Ok(())
}

/// A Table 2 pass: every row complete and exact; at the default seed, the
/// pinned no-critical counts.
pub fn check_table2(results: &[RowResult], pinned: bool) -> Result<(), String> {
    if results.len() != 12 {
        return Err(format!("{} rows, expected 12", results.len()));
    }
    let mut strict = Vec::new();
    for (i, r) in results.iter().enumerate() {
        if r.total != r.row.paper_count {
            return Err(format!(
                "row {i}: {} experiments, expected {}",
                r.total, r.row.paper_count
            ));
        }
        if r.simulated != 0 {
            return Err(format!(
                "row {i}: {} experiments fell back to the simulator",
                r.simulated
            ));
        }
        if r.no_critical > r.total || !(r.max_gap_pct.is_finite() && r.max_gap_pct >= 0.0) {
            return Err(format!("row {i}: inconsistent aggregates {r:?}"));
        }
        match r.row.model {
            CommModel::Strict => strict.push(r.no_critical),
            CommModel::Overlap if pinned && r.no_critical != 0 => {
                return Err(format!(
                    "overlap row {i}: {} no-critical, pinned 0",
                    r.no_critical
                ));
            }
            CommModel::Overlap => {}
        }
    }
    if pinned && strict != PINNED_STRICT_NO_CRITICAL {
        return Err(format!(
            "strict no-critical counts {strict:?}, pinned {PINNED_STRICT_NO_CRITICAL:?}"
        ));
    }
    Ok(())
}

/// A shard round trip: the merge equals the in-process campaign, outcomes
/// and aggregates both.
pub fn check_merged(
    merged: &repwf_dist::MergedCampaign,
    reference: &CampaignResult,
    spec: &CampaignSpec,
) -> Result<(), String> {
    if merged.spec != *spec || merged.num_shards != NUM_SHARDS {
        return Err(format!(
            "merged {} shards of {:?}",
            merged.num_shards, merged.spec
        ));
    }
    if merged.result != *reference {
        return Err("merged outcomes differ from the in-process campaign".to_string());
    }
    if merged.accum != reference.accum() {
        return Err("merged aggregates differ from the in-process campaign".to_string());
    }
    Ok(())
}

/// An exact pass: the `pinned` optima of Example A, bit for bit, with
/// their search counters and the space size.
pub fn check_exact(
    results: &[ExactResult],
    pinned: &[(CommModel, f64, ExactStats)],
) -> Result<(), String> {
    if results.len() != pinned.len() {
        return Err(format!(
            "{} solves, expected {}",
            results.len(),
            pinned.len()
        ));
    }
    for (res, &(model, optimum, stats)) in results.iter().zip(pinned) {
        let period = res.best.as_ref().map(|(_, p)| *p);
        if period.map(f64::to_bits) != Some(optimum.to_bits()) {
            return Err(format!("{model}: optimum {period:?}, pinned {optimum}"));
        }
        if res.stats != stats || res.space != Some(EXAMPLE_A_SPACE) {
            return Err(format!(
                "{model}: counters {:?} over space {:?}, pinned {stats:?} over {EXAMPLE_A_SPACE}",
                res.stats, res.space
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory inside the package, one per test.
    fn scratch(test: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".perfbench_tmp")
            .join(format!("test-{test}-{}", std::process::id()))
    }

    /// Changes one digit in the middle of a file.
    fn corrupt_one_digit(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = (bytes.len() / 2..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit())
            .expect("a digit to corrupt");
        bytes[at] = if bytes[at] == b'9' {
            b'0'
        } else {
            bytes[at] + 1
        };
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn perturbed_outcome_fails_the_campaign_check() {
        let (cfg, base, count) = (campaign_cfg(), 7, 400);
        let mut res = run_campaign_batched(&cfg, CommModel::Strict, count, base, 2, CAP);
        assert_eq!(check_campaign(&res, &cfg, base, count), Ok(()));
        let period = &mut res.outcomes[0].period;
        *period = f64::from_bits(period.to_bits() + 1);
        let err = check_campaign(&res, &cfg, base, count)
            .expect_err("a perturbed outcome must fail the check");
        assert!(err.contains("differs from the oracle"), "{err}");
    }

    #[test]
    fn corrupted_shard_byte_fails_the_round_trip() {
        let dir = scratch("corrupt");
        let bench = Bench::new(Workload::ShardMerge, 1, &dir).unwrap();
        let spec = shard_spec(bench.base(0));
        let paths = bench.fresh_shard_paths().unwrap();
        let merged = round_trip(&spec, &paths, 2);
        corrupt_one_digit(&paths[1]);
        let corrupted = merge_paths(&paths);
        bench.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = dir.parent().map(std::fs::remove_dir);

        let reference =
            run_campaign_batched(&spec.cfg, spec.model, spec.count, spec.seed_base, 2, CAP);
        assert_eq!(check_merged(&merged.unwrap(), &reference, &spec), Ok(()));
        let err = corrupted
            .expect_err("a corrupted shard must fail the merge")
            .to_string();
        assert!(err.contains("checksum") || err.contains("corrupt"), "{err}");
    }

    #[test]
    fn wrong_pinned_optimum_fails_the_exact_check() {
        let results: Vec<ExactResult> = PINNED_OPTIMA
            .iter()
            .map(|&(_, period, stats)| ExactResult {
                best: Some((example_a().mapping, period)),
                stats,
                space: Some(EXAMPLE_A_SPACE),
            })
            .collect();
        assert_eq!(check_exact(&results, &PINNED_OPTIMA), Ok(()));
        let mut wrong = PINNED_OPTIMA;
        wrong[0].1 += 1.0;
        let err = check_exact(&results, &wrong).unwrap_err();
        assert!(err.contains("pinned 69"), "{err}");

        let mut off = results.clone();
        off[1].stats.evaluated += 1;
        assert!(
            check_exact(&off, &PINNED_OPTIMA).is_err(),
            "counters are pinned too"
        );
    }

    #[test]
    fn table2_pins_the_default_seed_counts() {
        let strict = PINNED_STRICT_NO_CRITICAL.iter();
        let mut results: Vec<RowResult> = table2_rows()
            .into_iter()
            .zip(std::iter::repeat_n(0, 6).chain(strict.copied()))
            .map(|(row, no_critical)| RowResult {
                total: row.paper_count,
                row,
                no_critical,
                max_gap_pct: 1.0,
                simulated: 0,
            })
            .collect();
        assert_eq!(check_table2(&results, true), Ok(()));
        results[6].no_critical += 1;
        assert!(check_table2(&results, true).is_err());
        assert_eq!(
            check_table2(&results, false),
            Ok(()),
            "other seeds are not pinned"
        );
        results[0].simulated = 1;
        assert!(
            check_table2(&results, false).is_err(),
            "no draw may fall back to the simulator"
        );
    }
}
