//! The elastic, coordinator-free campaign supervisor.
//!
//! [`supervise`] runs one **worker loop** against a shared campaign
//! directory; run it from as many processes, threads or hosts as you
//! like — there is no coordinator, no network protocol, and no shared
//! state beyond a directory of files, yet the campaign runs to
//! completion across worker deaths, stragglers and retries, and the
//! final merge is **byte-identical** to the unsharded single-process
//! run.
//!
//! # The protocol, entirely in files
//!
//! The campaign's seed range is split into contiguous **units**. A unit
//! named `r<offset>-<len>` owns the campaign slice `offset..offset+len`
//! and materializes as up to four files:
//!
//! ```text
//! campaign.json            pinned spec + unit count (first worker writes
//!                          it atomically; later workers verify and adopt)
//! r128-64.ndjson           the unit's NDJSON shard file (checkpointed)
//! leases/r128-64.lease     the active claim (mtime = heartbeat)
//! done/r128-64.done        completion marker: {"covered":N}, fsynced
//! splits/r128-64.split     re-split marker for the *level* len=64
//! ```
//!
//! * **Claiming** — a worker claims a free unit by atomically creating
//!   its lease file ([`crate::lease`]); exactly one claimant wins.
//! * **Death** — a worker that stops heartbeating goes stale after
//!   `lease_timeout`; the next claimant takes the lease over (fenced by
//!   an atomic per-attempt tombstone link) and **resumes from the dead
//!   worker's checkpoint**
//!   — completed records are validated and kept, never recomputed.
//! * **Retry budget** — takeovers are gated by bounded exponential
//!   backoff with deterministic seeded jitter ([`crate::lease::RetryPolicy`]);
//!   after `max_attempts` a unit is reported **degraded** instead of
//!   retried forever.
//! * **Re-splitting** — when a worker runs out of claimable work while a
//!   straggler still holds a large unit, it creates a **split marker**
//!   for the straggler's current effective length `l`. The marker is
//!   atomically created (`create_new`), and the split point `offset +
//!   l/2` is a pure function of the range, so racing thieves agree. The
//!   straggler's unit shrinks to `l/2` (it truncates any overshoot at
//!   its next chunk boundary and closes early), and the upper half
//!   becomes a brand-new claimable unit. Sound because units are
//!   contiguous seed ranges and the campaign aggregates are associative:
//!   the merged bytes cannot tell how the range was cut.
//! * **Completion** — after the footer is fsynced the worker writes the
//!   unit's **done marker** carrying the covered record count, then
//!   releases the lease.
//!
//! # The split/done race (Dekker via `create_new`)
//!
//! A thief may split a unit in the same instant its owner completes it.
//! Both sides create their artifact first and read the other's second:
//! the thief creates the split marker then reads the done marker; the
//! owner writes the done marker then (implicitly, at enumeration time)
//! sees the split marker. A split marker at level `l` is **void** iff
//! the unit's done marker covers more than `l/2` seeds — in that case
//! the upper half is already durably covered and no child unit exists.
//! Because unit enumeration ([`enumerate_units`]) applies the void rule
//! from the same durable files on every worker, all workers agree on
//! the unit set without talking to each other. A thief that claimed a
//! child before the void became visible re-enumerates, finds its unit
//! gone, and abandons the orphan file (wasted work, never wrong bytes:
//! the final merge takes exactly the enumerated units).
//!
//! # Determinism
//!
//! Record bytes are pure functions of `(spec, seed)`, so no failure
//! history changes them. Fault injection ([`crate::fault`]) is seeded and
//! the backoff schedule is a pure function of `(policy, offset,
//! attempt)`, so an entire chaos run — kills, takeovers, retries,
//! splits — is reproducible from its seeds, and the run summary echoes
//! the exact backoff gates it applied.

use crate::fault::FaultPlan;
use crate::lease::{self, Lease, LeaseInfo, LeaseProgress, RetryPolicy};
use crate::manifest::{CampaignSpec, ShardManifest};
use crate::shard::{open_checkpoint, outcome_line, ShardRunOptions};
use crate::DistError;
use repwf_gen::campaign::{run_spec, ExperimentOutcome};
use repwf_gen::Topology;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Knobs of one supervisor worker. `Default` is tuned for local
/// multi-process runs; fleet runs mostly raise `lease_timeout`.
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Worker identity recorded in leases (diagnostics only).
    /// Empty → `host-<pid>`.
    pub owner: String,
    /// Compute threads for this worker's experiments.
    pub threads: usize,
    /// Number of initial claim units. The first worker to create
    /// `campaign.json` pins it; later workers adopt the pinned value.
    /// 0 → 8 (clamped to the experiment count).
    pub units: usize,
    /// Heartbeat staleness threshold: a lease older than this is dead.
    /// Must comfortably exceed the worst-case chunk duration
    /// (`flush_every` records), since workers heartbeat once per chunk.
    pub lease_timeout: Duration,
    /// Retry gating (backoff base/cap, max attempts, jitter seed).
    pub retry: RetryPolicy,
    /// Flush cadence of the shard writer (0 → default; also the chunk
    /// size between heartbeats and re-split checks).
    pub flush_every: usize,
    /// Injected fault, fired on this worker's **first fresh claim**
    /// (attempt 1) only — retries and takeovers run clean, so a chaos
    /// run recovers instead of dying identically forever.
    pub fault: Option<FaultPlan>,
    /// Units with effective length below this are never split.
    /// 0 → twice the flush cadence.
    pub split_min: usize,
    /// Idle wait between directory scans when nothing is claimable.
    pub poll: Duration,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            owner: String::new(),
            threads: 1,
            units: 0,
            lease_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            flush_every: 0,
            fault: None,
            split_min: 0,
            poll: Duration::from_millis(25),
        }
    }
}

/// How one claim ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The unit completed (footer + done marker durable).
    Completed,
    /// The lease was taken over mid-run; this worker stopped writing.
    Lost,
    /// An injected fault fired (the message names it).
    Faulted(String),
}

/// One claim this worker made, with the deterministic retry context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimReport {
    /// Unit slice start within the campaign.
    pub offset: usize,
    /// Declared unit length (the file may cover less after re-splits).
    pub declared: usize,
    /// Claim generation (1 = fresh, >1 = takeover of a dead claim).
    pub attempt: u32,
    /// Whether this claim took over a stale or failed lease.
    pub takeover: bool,
    /// The backoff gate that applied before this claim (zero for fresh
    /// claims) — a pure function of `(retry policy, offset, attempt-1)`,
    /// so the whole schedule is reproducible from the seeds.
    pub backoff: Duration,
    /// Checkpoint records inherited from previous attempts.
    pub resumed: usize,
    /// Records computed by this claim.
    pub ran: usize,
    /// Final covered length when completed (≤ declared after re-splits).
    pub covered: usize,
    /// How the claim ended.
    pub outcome: ClaimOutcome,
}

/// A unit that ran out of retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedUnit {
    /// Unit slice start within the campaign.
    pub offset: usize,
    /// Seeds the unit still owes (effective length minus checkpointed
    /// records is unknown here; this is the declared remainder's slice).
    pub len: usize,
    /// Attempts burned.
    pub attempts: u32,
}

/// What one [`supervise`] worker did, and how the campaign stands.
#[derive(Debug, Clone)]
pub struct SuperviseSummary {
    /// This worker's identity.
    pub owner: String,
    /// The pinned unit count.
    pub units: usize,
    /// Every claim this worker made, in order.
    pub claims: Vec<ClaimReport>,
    /// Split markers this worker created: `(offset, level)`.
    pub splits: Vec<(usize, usize)>,
    /// Units out of retry budget (empty on a complete campaign).
    pub degraded: Vec<DegradedUnit>,
    /// Whether every unit is done (then `files` holds the merge set).
    pub complete: bool,
    /// The enumerated unit files in offset order, when complete —
    /// exactly the set to pass to [`crate::merge_paths`].
    pub files: Vec<PathBuf>,
}

/// One enumerated claim unit (pure function of the durable marker files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Slice start within the campaign.
    pub offset: usize,
    /// Declared length (the lease/file/marker namespace key).
    pub declared: usize,
    /// Effective length after honoring non-void split markers.
    pub eff: usize,
    /// Covered count from the done marker, when the unit is complete.
    pub done: Option<usize>,
}

impl Unit {
    /// Canonical name, the key of every file the unit owns.
    pub fn name(&self) -> String {
        format!("r{}-{}", self.offset, self.declared)
    }
}

fn file_path(dir: &Path, unit: &Unit) -> PathBuf {
    dir.join(format!("{}.ndjson", unit.name()))
}
fn lease_path(dir: &Path, unit: &Unit) -> PathBuf {
    dir.join("leases").join(format!("{}.lease", unit.name()))
}
fn done_path(dir: &Path, offset: usize, declared: usize) -> PathBuf {
    dir.join("done").join(format!("r{offset}-{declared}.done"))
}
fn split_path(dir: &Path, offset: usize, level: usize) -> PathBuf {
    dir.join("splits").join(format!("r{offset}-{level}.split"))
}

fn io_err(path: &Path, e: std::io::Error) -> DistError {
    DistError::Io(format!("{}: {e}", path.display()))
}

/// Reads a done marker's covered count, if the marker exists.
fn read_done(dir: &Path, offset: usize, declared: usize) -> Result<Option<usize>, DistError> {
    let path = done_path(dir, offset, declared);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    let doc = crate::json::parse(text.trim()).map_err(|e| DistError::Corrupt {
        path: path.display().to_string(),
        reason: format!("unreadable done marker: {e}"),
    })?;
    let covered = doc.get("covered").and_then(crate::json::JsonValue::as_u64).ok_or_else(|| {
        DistError::Corrupt {
            path: path.display().to_string(),
            reason: "done marker has no \"covered\" count".to_string(),
        }
    })?;
    Ok(Some(covered as usize))
}

/// Writes a unit's done marker durably. Completion must already be
/// durable in the unit file (fsynced footer) before this is called.
///
/// The marker is written to a private temp file and renamed into place:
/// the rename is atomic, so a concurrent [`enumerate_units`] either sees
/// no marker or the whole marker — never a half-written one (a
/// `create_new` + write would expose an empty marker between the two).
/// Concurrent completers (both sides of a fencing race) write identical
/// contents — `covered` restates the unit file's fsynced footer either
/// way — so last-rename-wins is indistinguishable from first.
/// A temp-file path next to `path`, unique per writer: worker threads
/// share the pid, so a process-wide sequence number keeps two
/// same-process publishers off each other's temp file.
fn tmp_sibling(path: &Path) -> PathBuf {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

fn write_done(dir: &Path, offset: usize, declared: usize, covered: usize) -> Result<(), DistError> {
    use std::io::Write as _;
    let path = done_path(dir, offset, declared);
    let tmp = tmp_sibling(&path);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(format!("{{\"covered\":{covered}}}\n").as_bytes())
        .map_err(|e| io_err(&tmp, e))?;
    file.sync_data().map_err(|e| io_err(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// Enumerates the campaign's units from the durable marker files: the
/// pinned initial partition, expanded by every **non-void** split marker
/// (see the module docs for the void rule). Every worker computes the
/// identical set from the same files.
pub fn enumerate_units(
    dir: &Path,
    seed_base: u64,
    count: usize,
    units: usize,
) -> Result<Vec<Unit>, DistError> {
    let mut queue: Vec<(usize, usize)> = (0..units)
        .map(|i| {
            let plan = crate::ShardPlan::new(seed_base, count, i, units)?;
            Ok((plan.shard_offset(), plan.shard_count()))
        })
        .collect::<Result<_, DistError>>()?;
    let mut out = Vec::new();
    while let Some((offset, declared)) = queue.pop() {
        let done = read_done(dir, offset, declared)?;
        let mut eff = declared;
        while eff >= 2 && split_path(dir, offset, eff).exists() && done.is_none_or(|c| c <= eff / 2)
        {
            queue.push((offset + eff / 2, eff - eff / 2));
            eff /= 2;
        }
        debug_assert!(done.is_none_or(|c| c == eff), "done covers exactly the effective slice");
        out.push(Unit { offset, declared, eff, done });
    }
    out.sort_by_key(|u| u.offset);
    Ok(out)
}

/// Pins (or adopts) the campaign spec and unit count in `campaign.json`.
/// The first worker creates the file atomically; every later worker
/// verifies its spec **bitwise** against the pinned one and adopts the
/// pinned unit count, so workers launched with divergent flags fail loud
/// instead of writing incompatible shards.
fn pin_campaign(dir: &Path, spec: &CampaignSpec, units: usize) -> Result<usize, DistError> {
    use std::io::Write as _;
    let path = dir.join("campaign.json");
    let line = ShardManifest::new(*spec, 0, 1)?.to_line();
    let body = format!("{line}\n{{\"kind\":\"supervise\",\"units\":{units}}}\n");
    // Publish via a private temp file + hard_link: the link is atomic
    // first-wins WITH full contents, so a worker that loses the pin race
    // never reads a half-written campaign file (create_new + write would
    // expose one between the two syscalls).
    let tmp = tmp_sibling(&path);
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(body.as_bytes()).map_err(|e| io_err(&tmp, e))?;
        file.sync_data().map_err(|e| io_err(&tmp, e))?;
    }
    let link = std::fs::hard_link(&tmp, &path);
    let _ = std::fs::remove_file(&tmp);
    match link {
        Ok(()) => return Ok(units),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
        Err(e) => return Err(io_err(&path, e)),
    }
    let name = path.display().to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
    let mut lines = text.lines();
    let pinned = ShardManifest::parse_line(lines.next().unwrap_or(""), &name)?;
    let ours = ShardManifest::new(*spec, 0, 1)?;
    if let Some(diff) = pinned.campaign_mismatch(&ours) {
        return Err(DistError::ManifestMismatch {
            path: name,
            reason: format!("this worker's flags vs the pinned campaign: {diff}"),
        });
    }
    pinned_units(lines.next().unwrap_or(""), spec.count, name)
}

/// The unit count of `campaign.json`'s pin line, checked against the
/// range the writer clamps to (`1..=max(count, 1)`): each unit becomes a
/// shard plan, so an out-of-range count from a damaged or foreign file is
/// refused as corrupt instead of enumerated.
fn pinned_units(line: &str, count: usize, name: String) -> Result<usize, DistError> {
    let doc = crate::json::parse(line.trim())
        .map_err(|e| DistError::Corrupt { path: name.clone(), reason: format!("pin line: {e}") })?;
    let units = doc.get("units").and_then(crate::json::JsonValue::as_u64).ok_or_else(|| {
        DistError::Corrupt { path: name.clone(), reason: "pin has no \"units\"".to_string() }
    })?;
    let max = count.max(1);
    match usize::try_from(units) {
        Ok(u) if (1..=max).contains(&u) => Ok(u),
        _ => Err(DistError::Corrupt {
            path: name,
            reason: format!("pinned \"units\" {units} is outside 1..={max}"),
        }),
    }
}

struct Worker<'a> {
    dir: &'a Path,
    spec: CampaignSpec,
    units: usize,
    owner: String,
    opts: &'a SuperviseOptions,
    /// The injected fault, consumed by the first fresh claim.
    fault_pending: Option<FaultPlan>,
    summary: SuperviseSummary,
}

/// Runs one supervisor worker loop against campaign directory `dir`
/// until the campaign completes or every unfinished unit is out of
/// retry budget. Safe (and intended) to run concurrently from many
/// processes and hosts sharing `dir`.
pub fn supervise(
    dir: &Path,
    spec: &CampaignSpec,
    opts: &SuperviseOptions,
) -> Result<SuperviseSummary, DistError> {
    for sub in ["leases", "done", "splits"] {
        std::fs::create_dir_all(dir.join(sub)).map_err(|e| io_err(&dir.join(sub), e))?;
    }
    let requested = if opts.units == 0 { 8 } else { opts.units };
    let units = pin_campaign(dir, spec, requested.clamp(1, spec.count.max(1)))?;
    let owner = if opts.owner.is_empty() {
        format!("worker-{}", std::process::id())
    } else {
        opts.owner.clone()
    };
    let mut worker = Worker {
        dir,
        spec: *spec,
        units,
        owner: owner.clone(),
        opts,
        fault_pending: opts.fault.clone(),
        summary: SuperviseSummary {
            owner,
            units,
            claims: Vec::new(),
            splits: Vec::new(),
            degraded: Vec::new(),
            complete: false,
            files: Vec::new(),
        },
    };
    worker.run()?;
    Ok(worker.summary)
}

impl Worker<'_> {
    fn run(&mut self) -> Result<(), DistError> {
        loop {
            let units =
                enumerate_units(self.dir, self.spec.seed_base, self.spec.count, self.units)?;
            let pending: Vec<&Unit> = units.iter().filter(|u| u.done.is_none()).collect();
            if pending.is_empty() {
                self.summary.complete = true;
                self.summary.degraded.clear();
                self.summary.files = units.iter().map(|u| file_path(self.dir, u)).collect();
                return Ok(());
            }

            // Pass 1 — claim work: a free unit, or a reclaimable stale
            // or failed lease past its backoff gate.
            let mut claimed = false;
            let mut degraded: Vec<DegradedUnit> = Vec::new();
            let mut busy: Vec<&Unit> = Vec::new();
            for &unit in &pending {
                match self.try_claim(unit)? {
                    Claimed::Ran => {
                        claimed = true;
                        break; // re-enumerate: the world changed
                    }
                    Claimed::Degraded(d) => degraded.push(d),
                    Claimed::Busy => busy.push(unit),
                    Claimed::Raced => {} // someone else got it; rescan
                }
            }
            if claimed {
                continue;
            }
            if degraded.len() == pending.len() {
                // Nothing left but exhausted units: report, don't spin.
                self.summary.degraded = degraded;
                self.summary.complete = false;
                return Ok(());
            }

            // Pass 2 — no claimable work, but live holders exist: split
            // the largest splittable straggler and rescan (its upper
            // half becomes a fresh unit).
            if self.try_split(&busy)? {
                continue;
            }
            std::thread::sleep(self.opts.poll);
        }
    }

    /// Attempts to claim and run one unit.
    fn try_claim(&mut self, unit: &Unit) -> Result<Claimed, DistError> {
        let lease_path = lease_path(self.dir, unit);
        let salt = self.opts.retry.jitter_seed ^ unit.offset as u64;
        let (lease, takeover, backoff) = match lease::inspect(&lease_path)? {
            None => match Lease::claim(&lease_path, &self.owner, 1, salt)? {
                Some(lease) => {
                    repwf_obs::counter_add(repwf_obs::CounterId::LeaseClaims, 1);
                    repwf_obs::event(
                        "lease_claim",
                        &[("offset", unit.offset as u64), ("len", unit.eff as u64)],
                    );
                    (lease, false, Duration::ZERO)
                }
                None => return Ok(Claimed::Raced),
            },
            Some(info) => {
                if info.exhausted(self.opts.lease_timeout, &self.opts.retry) {
                    return Ok(Claimed::Degraded(DegradedUnit {
                        offset: unit.offset,
                        len: unit.eff,
                        attempts: info.attempt,
                    }));
                }
                if !info.reclaimable(unit.offset, self.opts.lease_timeout, &self.opts.retry) {
                    return Ok(Claimed::Busy);
                }
                let backoff = self.opts.retry.backoff(unit.offset, info.attempt);
                match lease::take_over(&lease_path, &info, &self.owner, salt)? {
                    Some(lease) => {
                        // An observed failure re-run is a *retry*; stealing
                        // from a silently dead owner is a *takeover*.
                        repwf_obs::counter_add(
                            if info.failed {
                                repwf_obs::CounterId::LeaseRetries
                            } else {
                                repwf_obs::CounterId::LeaseTakeovers
                            },
                            1,
                        );
                        repwf_obs::event(
                            if info.failed { "lease_retry" } else { "lease_takeover" },
                            &[
                                ("offset", unit.offset as u64),
                                ("attempt", u64::from(lease.attempt)),
                            ],
                        );
                        (lease, true, backoff)
                    }
                    None => return Ok(Claimed::Raced),
                }
            }
        };
        let attempt = lease.attempt;
        let fault = if attempt == 1 { self.fault_pending.take() } else { None };
        let mut report = ClaimReport {
            offset: unit.offset,
            declared: unit.declared,
            attempt,
            takeover,
            backoff,
            resumed: 0,
            ran: 0,
            covered: 0,
            outcome: ClaimOutcome::Completed,
        };
        match self.run_unit(unit, &lease, fault.as_ref(), &mut report) {
            Ok(()) => {
                lease.release()?;
            }
            Err(DistError::Fault(msg)) => {
                report.outcome = ClaimOutcome::Faulted(msg);
                lease.mark_failed()?;
            }
            Err(e) => {
                // Real failure: mark the lease failed so the retry gate
                // skips the staleness timeout, then surface the error.
                let _ = lease.mark_failed();
                return Err(e);
            }
        }
        self.summary.claims.push(report);
        Ok(Claimed::Ran)
    }

    /// Runs one claimed unit to completion: resume the checkpoint, then
    /// chunked compute with a heartbeat and re-split check per chunk.
    fn run_unit(
        &self,
        unit: &Unit,
        lease: &Lease,
        fault: Option<&FaultPlan>,
        report: &mut ClaimReport,
    ) -> Result<(), DistError> {
        let started = std::time::Instant::now();
        let manifest = ShardManifest::new_range(self.spec, unit.offset, unit.declared)?;
        let file = file_path(self.dir, unit);
        let opts = ShardRunOptions { flush_every: self.opts.flush_every, fault: None };
        let cadence = opts.cadence();
        let checkpoint = open_checkpoint(&manifest, &file, cadence, true)?;
        let mut writer = checkpoint.writer;
        let mut written = checkpoint.outcomes.len();
        report.resumed = written;
        drop(checkpoint.outcomes);

        if checkpoint.complete {
            // A previous owner died between the fsynced footer and the
            // done marker: just finish the bookkeeping.
            report.covered = written;
            return write_done(self.dir, unit.offset, unit.declared, written);
        }

        let mut ran = 0usize;
        loop {
            let eff = self.effective_len(unit.offset, unit.declared)?;
            if written > eff {
                // A split landed behind us: give the upper half back.
                writer.truncate_to(eff)?;
                written = eff;
            }
            if written >= eff {
                break;
            }
            let chunk = cadence.min(eff - written);
            let outcomes = self.compute_chunk(
                manifest.plan.seed_start() + written as u64,
                chunk,
                fault.map_or(0, |f| f.slow_ms),
            );
            for outcome in &outcomes {
                if let Some(f) = fault {
                    if f.kill_after == Some(ran) {
                        let line = outcome_line(outcome);
                        let torn_len = f.torn.min(line.len().saturating_sub(1));
                        let torn = (torn_len > 0).then(|| &line.as_bytes()[..torn_len]);
                        let flushed = writer.kill(torn)?;
                        if f.process_exit {
                            std::process::exit(crate::fault::KILL_EXIT_CODE);
                        }
                        report.ran = ran;
                        return Err(DistError::Fault(format!(
                            "injected kill after {ran} records ({flushed} flushed)"
                        )));
                    }
                }
                writer.append(outcome)?;
                written += 1;
                ran += 1;
            }
            writer.flush()?;
            report.ran = ran;
            repwf_obs::counter_add(repwf_obs::CounterId::LeaseHeartbeats, 1);
            repwf_obs::event(
                "lease_heartbeat",
                &[("offset", unit.offset as u64), ("records", written as u64)],
            );
            let progress = LeaseProgress {
                records: written as u64,
                start_records: report.resumed as u64,
                elapsed_ms: started.elapsed().as_millis() as u64,
            };
            if !lease.heartbeat_progress(progress)? {
                return Err(DistError::Fault(format!(
                    "lease for {} taken over mid-run; stopped writing",
                    unit.name()
                )));
            }
        }

        let corrupt = fault.is_some_and(|f| f.corrupt_footer);
        writer.finish(
            written < unit.declared,
            if corrupt { crate::shard::FOOTER_CORRUPTION_XOR } else { 0 },
        )?;
        if corrupt {
            // Simulate dying between the (damaged) footer and the done
            // marker: the next claimant quarantines the file and reruns.
            report.ran = ran;
            return Err(DistError::Fault("injected corrupt footer".to_string()));
        }
        write_done(self.dir, unit.offset, unit.declared, written)?;
        report.ran = ran;
        report.covered = written;
        Ok(())
    }

    /// The unit's current effective length: its declared length halved
    /// once per split marker along the chain. (No void check: a unit
    /// being run has no done marker yet.)
    fn effective_len(&self, offset: usize, declared: usize) -> Result<usize, DistError> {
        let mut eff = declared;
        while eff >= 2 && split_path(self.dir, offset, eff).exists() {
            eff /= 2;
        }
        Ok(eff)
    }

    /// Computes `chunk` outcomes from `seed_start`, in seed order, on
    /// this worker's threads.
    fn compute_chunk(&self, seed_start: u64, chunk: usize, slow_ms: u64) -> Vec<ExperimentOutcome> {
        let spec = CampaignSpec { count: chunk, seed_base: seed_start, ..self.spec };
        run_spec(&spec, &Topology::chain(spec.cfg.stages), self.opts.threads, |_| {
            if slow_ms > 0 {
                std::thread::sleep(Duration::from_millis(slow_ms));
            }
        })
        .outcomes
    }

    /// Splits the largest busy unit whose effective length allows it.
    /// Returns whether a marker was created.
    fn try_split(&mut self, busy: &[&Unit]) -> Result<bool, DistError> {
        let split_min = if self.opts.split_min == 0 {
            2 * ShardRunOptions { flush_every: self.opts.flush_every, fault: None }.cadence()
        } else {
            self.opts.split_min
        };
        let Some(victim) = busy.iter().filter(|u| u.eff >= split_min).max_by_key(|u| u.eff) else {
            return Ok(false);
        };
        let path = split_path(self.dir, victim.offset, victim.eff);
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => {
                // Dekker step 2: the marker is down; if the owner's done
                // marker meanwhile covers past the split point, the
                // marker is void and enumeration will ignore it — either
                // way the next rescan computes the truth.
                repwf_obs::counter_add(repwf_obs::CounterId::LeaseSplits, 1);
                repwf_obs::event(
                    "lease_split",
                    &[("offset", victim.offset as u64), ("len", victim.eff as u64)],
                );
                self.summary.splits.push((victim.offset, victim.eff));
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(io_err(&path, e)),
        }
    }
}

enum Claimed {
    /// Claimed and ran a unit (in whatever way it ended).
    Ran,
    /// Unit is out of retry budget.
    Degraded(DegradedUnit),
    /// Unit is held by a live (or not-yet-reclaimable) lease.
    Busy,
    /// Lost a claim race; the directory changed under us.
    Raced,
}

/// One unit's standing, as reported by [`status`].
#[derive(Debug, Clone)]
pub struct UnitStatus {
    /// The unit.
    pub unit: Unit,
    /// Records durable in the unit file (validated prefix), with the
    /// file's completeness.
    pub records: usize,
    /// Whether the file carries a valid footer.
    pub file_complete: bool,
    /// The current lease, if any.
    pub lease: Option<LeaseInfo>,
}

/// A point-in-time scan of a supervised campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The pinned campaign.
    pub spec: CampaignSpec,
    /// The pinned unit count.
    pub units: usize,
    /// Per-unit standing, in offset order.
    pub unit_status: Vec<UnitStatus>,
    /// Whether every unit is done.
    pub complete: bool,
}

/// Scans a supervised campaign directory without claiming anything
/// (the `repwf dist status` command).
pub fn status(dir: &Path) -> Result<CampaignStatus, DistError> {
    let path = dir.join("campaign.json");
    let name = path.display().to_string();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| DistError::Io(format!("{name}: {e} (not a supervised campaign dir?)")))?;
    let mut lines = text.lines();
    let pinned = ShardManifest::parse_line(lines.next().unwrap_or(""), &name)?;
    let spec = pinned.spec;
    let units = pinned_units(lines.next().unwrap_or(""), spec.count, name)?;
    let enumerated = enumerate_units(dir, spec.seed_base, spec.count, units)?;
    let mut unit_status = Vec::with_capacity(enumerated.len());
    for unit in enumerated {
        let file = file_path(dir, &unit);
        let (records, file_complete) = match std::fs::read_to_string(&file) {
            Ok(text) => {
                let file_name = file.display().to_string();
                match crate::shard::scan(&text, &file_name) {
                    Ok(scan) => (scan.outcomes.len(), scan.complete),
                    Err(_) => (0, false), // corrupt counts as nothing durable
                }
            }
            Err(_) => (0, false),
        };
        let lease = lease::inspect(&lease_path(dir, &unit))?;
        unit_status.push(UnitStatus { unit, records, file_complete, lease });
    }
    let complete = unit_status.iter().all(|u| u.unit.done.is_some());
    Ok(CampaignStatus { spec, units, unit_status, complete })
}
