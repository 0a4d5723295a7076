//! The exact merger: shard files → the unsharded campaign result.
//!
//! Two kinds of input tile a campaign's seed range:
//!
//! * **fraction shards** (`--shard I/N`): indices must be exactly
//!   `0..N`, each exactly once — diagnosed by index, as always;
//! * **range shards** (supervisor claim units, `--range OFF+LEN`):
//!   arbitrary contiguous slices, possibly early-closed after a
//!   re-split — diagnosed by **coverage**: the covered spans must tile
//!   `0..count` with no gap and no overlap.
//!
//! Either way a failed validation names the *exact uncovered seed
//! ranges* and a ready-to-run command per gap. [`merge_paths_partial`]
//! (the `--allow-partial` path) degrades instead of refusing: it merges
//! every valid record — including the checkpoint prefix of an
//! incomplete shard — and reports the missing ranges explicitly, so a
//! degraded campaign still yields its partial statistics plus a precise
//! work list. Corrupt files (checksum, interior damage) are refused in
//! both modes; partial means *missing data tolerated*, never *bad data
//! accepted*.

use crate::manifest::{model_name, CampaignSpec};
use crate::DistError;
use repwf_gen::campaign::{CampaignAccum, CampaignResult, ExperimentOutcome};
use std::collections::BTreeMap;
use std::path::Path;

/// Most missing shard indices one diagnosis lists by name.
const MAX_LISTED_GAPS: usize = 256;

/// A merged campaign: the spec every shard agreed on, the concatenated
/// outcomes, and the recombined associative aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCampaign {
    /// The campaign all shards belong to.
    pub spec: CampaignSpec,
    /// How many shard files merged into it.
    pub num_shards: usize,
    /// Outcomes in seed order — exactly what the unsharded
    /// [`repwf_gen::run_spec`] returns for `spec` (on a partial merge,
    /// the covered subsequence of it).
    pub result: CampaignResult,
    /// Aggregates merged shard-by-shard through
    /// [`CampaignAccum::merge`] — bit-identical to `result.accum()`
    /// (asserted in debug builds) because every fold is associative.
    pub accum: CampaignAccum,
}

/// Result of a coverage-tolerant merge ([`merge_paths_partial`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Everything that merged.
    pub merged: MergedCampaign,
    /// Uncovered seed ranges `[start, end)`, empty when the merge is in
    /// fact complete.
    pub missing: Vec<(u64, u64)>,
}

/// Reads, validates and merges a set of shard files **exactly**.
///
/// Guarantees on success: the shards share one campaign spec bitwise,
/// every shard is complete with a matching checksum, and the
/// concatenated outcomes cover seeds `seed_base..seed_base+count` with no
/// gap or duplicate. Anything else is a diagnosed [`DistError`] — a
/// merge never silently drops or deduplicates data.
///
/// The merged result is **bit-identical** to the unsharded campaign: the
/// outcome list is byte-for-byte the one `run_spec` produces (each
/// outcome is a pure function of its seed, transported as exact bit
/// patterns), and the aggregates recombine associatively.
pub fn merge_paths<P: AsRef<Path>>(paths: &[P]) -> Result<MergedCampaign, DistError> {
    merge_core(paths, false).map(|report| {
        debug_assert!(report.missing.is_empty());
        report.merged
    })
}

/// [`merge_paths`] with **missing coverage tolerated**: incomplete
/// shards contribute their validated checkpoint prefix, uncovered
/// ranges are reported instead of refused. Corruption and manifest
/// mismatches still fail.
pub fn merge_paths_partial<P: AsRef<Path>>(paths: &[P]) -> Result<MergeReport, DistError> {
    merge_core(paths, true)
}

/// Renders the campaign's command-line flags, so coverage diagnostics
/// can print ready-to-run resume commands.
pub(crate) fn campaign_flags(spec: &CampaignSpec) -> String {
    let range_text = |r: repwf_gen::Range| {
        if r.lo == r.hi {
            format!("{}", r.lo)
        } else {
            format!("{}..{}", r.lo, r.hi)
        }
    };
    format!(
        "--stages {} --procs {} --comp {} --comm {} --count {} --seed {} --cap {} --model {}",
        spec.cfg.stages,
        spec.cfg.procs,
        range_text(spec.cfg.comp),
        range_text(spec.cfg.comm),
        spec.count,
        spec.seed_base,
        spec.cap,
        model_name(spec.model),
    )
}

/// One gap diagnosis line: the exact seed range plus the command that
/// computes exactly the missing slice.
fn gap_line(spec: &CampaignSpec, offset: usize, end: usize) -> String {
    let len = end - offset;
    format!(
        "  seeds {}..{} uncovered — run: repwf campaign {} --range {offset}+{len} \
         --out r{offset}-{len}.ndjson",
        spec.seed_base + offset as u64,
        spec.seed_base + end as u64,
        campaign_flags(spec),
    )
}

fn merge_core<P: AsRef<Path>>(paths: &[P], allow_partial: bool) -> Result<MergeReport, DistError> {
    if paths.is_empty() {
        return Err(DistError::ShardSet("no shard files given".to_string()));
    }
    // Phase 1 — read every file and parse only its manifest line: all
    // set-level problems (mismatched campaign, duplicate or missing
    // indices) are diagnosed from the headers alone, before paying the
    // record-by-record parse of even one large shard.
    let mut files: Vec<(String, String, crate::manifest::ShardManifest)> =
        Vec::with_capacity(paths.len());
    for path in paths {
        let path = path.as_ref();
        let name = path.display().to_string();
        let text = crate::shard::read_text(path, &name)?;
        let manifest = crate::shard::manifest_of(&text, &name)?;
        files.push((name, text, manifest));
    }

    let (first_path, _, first_manifest) = &files[0];
    for (path, _, manifest) in &files[1..] {
        if let Some(diff) = first_manifest.campaign_mismatch(manifest) {
            return Err(DistError::ManifestMismatch {
                path: path.clone(),
                reason: format!("disagrees with {first_path} on {diff}"),
            });
        }
    }
    let spec = first_manifest.spec;

    // Index bookkeeping applies to the classic all-fraction, exact case:
    // shard indices are the crisper diagnosis when they exist, and the
    // historical messages stay stable for scripts that grep them.
    let all_fraction = files.iter().all(|(_, _, m)| m.plan.range_slice().is_none());
    if all_fraction && !allow_partial {
        let num_shards = first_manifest.plan.num_shards;
        // Keyed by index, not sized by `num_shards`: a manifest may
        // declare any count, and only the files given are here.
        let mut slot_of_index: BTreeMap<usize, usize> = BTreeMap::new();
        for (slot, (path, _, manifest)) in files.iter().enumerate() {
            let index = manifest.plan.shard_index;
            if let Some(&previous) = slot_of_index.get(&index) {
                return Err(DistError::ShardSet(format!(
                    "duplicate shard {index}/{num_shards}: {} and {path}",
                    files[previous].0
                )));
            }
            slot_of_index.insert(index, slot);
        }
        let unlisted = num_shards - slot_of_index.len();
        let missing: Vec<usize> = (0..num_shards)
            .filter(|index| !slot_of_index.contains_key(index))
            .take(MAX_LISTED_GAPS)
            .collect();
        if !missing.is_empty() {
            let unlisted = unlisted - missing.len();
            // The historical one-line diagnosis, now followed by the
            // exact seed ranges and the command that fills each gap.
            let mut msg = format!(
                "missing shard(s) {}{} of {num_shards}",
                missing.iter().map(ToString::to_string).collect::<Vec<_>>().join(", "),
                if unlisted > 0 { format!(" and {unlisted} more") } else { String::new() },
            );
            for index in missing {
                let plan = crate::ShardPlan::new(spec.seed_base, spec.count, index, num_shards)?;
                msg.push('\n');
                msg.push_str(&format!(
                    "  seeds {}..{} uncovered — run: repwf campaign {} --shard \
                     {index}/{num_shards} --out shard{index}.ndjson",
                    plan.seed_start(),
                    plan.seed_end(),
                    campaign_flags(&spec),
                ));
            }
            return Err(DistError::ShardSet(msg));
        }
    }

    // Phase 2 — full validation of every file (records, seed contiguity,
    // footer, checksum), collecting each file's covered span.
    struct Cover {
        slot: usize,
        offset: usize,
        take: usize,
    }
    let mut covers: Vec<Cover> = Vec::with_capacity(files.len());
    let mut outcomes_of: Vec<Vec<ExperimentOutcome>> = Vec::with_capacity(files.len());
    for (slot, (name, text, manifest)) in files.iter().enumerate() {
        let scan = crate::shard::scan(text, name)?;
        if !scan.complete && !allow_partial {
            let plan = &manifest.plan;
            let resume = match plan.range_slice() {
                Some((offset, len)) => format!(
                    "repwf campaign {} --range {offset}+{len} --out {name}",
                    campaign_flags(&spec)
                ),
                None => format!(
                    "repwf campaign {} --shard {}/{} --out {name}",
                    campaign_flags(&spec),
                    plan.shard_index,
                    plan.num_shards
                ),
            };
            return Err(DistError::ShardSet(format!(
                "{name} is incomplete ({} of {} records, no valid footer) — finish it with: \
                 {resume}\n  (or merge what exists with --allow-partial)",
                scan.outcomes.len(),
                plan.shard_count(),
            )));
        }
        covers.push(Cover {
            slot,
            offset: manifest.plan.shard_offset(),
            take: scan.outcomes.len(),
        });
        outcomes_of.push(scan.outcomes);
    }
    covers.sort_by_key(|c| (c.offset, c.slot));

    // Phase 3 — walk the covers in offset order and require (exact) or
    // report (partial) a perfect tiling of `0..count`.
    let mut outcomes: Vec<ExperimentOutcome> =
        Vec::with_capacity(outcomes_of.iter().map(Vec::len).sum());
    let mut accum = CampaignAccum::new();
    let mut missing: Vec<(usize, usize)> = Vec::new();
    let mut expected = 0usize;
    for cover in &covers {
        let name = &files[cover.slot].0;
        if cover.offset > expected {
            missing.push((expected, cover.offset));
            expected = cover.offset;
        }
        let end = cover.offset + cover.take;
        if cover.offset < expected {
            // Overlap. Every record is a pure function of its seed, so
            // overlapping files carry identical bytes and trimming is
            // sound — but an *exact* merge refuses: overlap means the
            // shard set is not the tiling it claims to be.
            if !allow_partial {
                return Err(DistError::ShardSet(format!(
                    "overlapping coverage: {name} begins at seed {} but seeds up to {} are \
                     already covered",
                    spec.seed_base + cover.offset as u64,
                    spec.seed_base + expected as u64,
                )));
            }
            if end <= expected {
                continue; // fully redundant file
            }
        }
        let skip = expected - cover.offset;
        let mut file_accum = CampaignAccum::new();
        for outcome in &outcomes_of[cover.slot][skip..] {
            file_accum.push(outcome);
        }
        accum.merge(&file_accum);
        outcomes.extend_from_slice(&outcomes_of[cover.slot][skip..]);
        expected = end;
    }
    if expected < spec.count {
        missing.push((expected, spec.count));
    }
    if !missing.is_empty() && !allow_partial {
        let total: usize = missing.iter().map(|(s, e)| e - s).sum();
        let mut msg = format!("coverage incomplete: {total} of {} experiments missing", spec.count);
        for &(start, end) in &missing {
            msg.push('\n');
            msg.push_str(&gap_line(&spec, start, end));
        }
        return Err(DistError::ShardSet(msg));
    }

    debug_assert!(allow_partial || outcomes.len() == spec.count);
    debug_assert!(outcomes.windows(2).all(|w| w[0].seed < w[1].seed));
    let result = CampaignResult { outcomes };
    debug_assert_eq!(accum, result.accum(), "shard-merged aggregates must be exact");
    Ok(MergeReport {
        merged: MergedCampaign { spec, num_shards: files.len(), result, accum },
        missing: missing
            .into_iter()
            .map(|(s, e)| (spec.seed_base + s as u64, spec.seed_base + e as u64))
            .collect(),
    })
}
