//! Lease files: coordination-free claims over campaign seed ranges.
//!
//! The supervisor has no coordinator process — workers coordinate purely
//! through a shared directory (local disk, NFS, anything with atomic
//! `create_new`, `rename` and `hard_link`). A worker **claims** a range
//! unit by atomically creating its lease file (`O_CREAT|O_EXCL`: exactly
//! one winner); it **heartbeats** by rewriting the lease in place (the
//! file's mtime is the heartbeat timestamp); a lease whose mtime is older
//! than the configured timeout is **stale** and may be taken over.
//! Takeover is fenced by a per-attempt tombstone planted with an atomic
//! `hard_link` — the link fails with `AlreadyExists` once any thief has
//! planted it, so of several racing thieves exactly one proceeds — and it
//! **replaces** the condemned lease in place (tmp + rename, the path is
//! never unoccupied) with a fresh lease, attempt counter bumped.
//!
//! **Backoff.** Retries are gated by bounded exponential backoff with
//! deterministic seeded jitter (see [`RetryPolicy`]): a range on attempt
//! `a` is reclaimable only `timeout + backoff(a)` after its last
//! heartbeat (`backoff(a)` alone if the previous owner *marked* the lease
//! failed — an observed death needs no silent-death grace). Once
//! `attempt >= max_attempts` the range is never retaken automatically and
//! is reported **degraded**.
//!
//! **Fencing is best-effort.** Each lease carries a claim token; the
//! owner verifies the token before heartbeating or flushing, so a worker
//! that lost its lease stops writing at the next check rather than
//! racing its replacement indefinitely. A residual window remains (the
//! check and the subsequent write are not one atomic step); if both
//! parties do write, the damage is *detected* — the shard scan's seed
//! contiguity and checksum validation refuse the file — never silently
//! merged. Pick `timeout` well above the flush cadence so the window is
//! never entered in practice.

use crate::fault::splitmix64;
use crate::json::{parse, JsonValue};
use crate::DistError;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Retry gating: bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base delay of the exponential schedule (attempt 1 → `base`).
    pub base: Duration,
    /// Ceiling of the exponential schedule.
    pub cap: Duration,
    /// Attempts after which a range is degraded instead of retried.
    pub max_attempts: u32,
    /// Seed of the deterministic jitter (`splitmix64` over
    /// `seed ^ range_start ^ attempt`), so a chaos run's whole backoff
    /// schedule is reproducible from the run's seed.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(250),
            cap: Duration::from_secs(30),
            max_attempts: 4,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt + 1` may claim a range
    /// that died on `attempt`: `min(base · 2^(attempt−1), cap)` plus
    /// deterministic jitter in `[0, base)`. Pure function of
    /// `(policy, range_start, attempt)` — every worker computes the same
    /// gate, and the run summary can echo the exact schedule.
    pub fn backoff(&self, range_start: usize, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self.base.saturating_mul(1 << shift).min(self.cap);
        let jitter_ns =
            splitmix64(self.jitter_seed ^ (range_start as u64) ^ (u64::from(attempt) << 48))
                % self.base.as_nanos().max(1) as u64;
        exp + Duration::from_nanos(jitter_ns)
    }
}

/// Checkpoint progress an owner publishes with its heartbeats, so `repwf
/// dist status` can report per-unit throughput without touching (or even
/// being able to read) the unit files mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseProgress {
    /// Records in the unit file at the last heartbeat.
    pub records: u64,
    /// Records already present when this attempt claimed the unit (a
    /// resumed checkpoint) — throughput counts only this attempt's work.
    pub start_records: u64,
    /// Milliseconds this attempt has been running at the last heartbeat.
    pub elapsed_ms: u64,
}

impl LeaseProgress {
    /// Records per second written by the current attempt
    /// (`(records − start_records) / elapsed`); `None` until the attempt
    /// has run long enough to measure (≥ 1ms) and written something.
    pub fn records_per_sec(&self) -> Option<f64> {
        let done = self.records.saturating_sub(self.start_records);
        if self.elapsed_ms == 0 || done == 0 {
            return None;
        }
        Some(done as f64 * 1000.0 / self.elapsed_ms as f64)
    }
}

/// A decoded lease file (someone else's claim, observed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Claimant identifier (informational, e.g. `host:pid`).
    pub owner: String,
    /// Claim generation: 1 on first claim, +1 per takeover.
    pub attempt: u32,
    /// Fencing token of the current claim.
    pub token: u64,
    /// Whether the owner marked the claim failed before exiting (an
    /// observed death: reclaimable after backoff alone, no timeout).
    pub failed: bool,
    /// Age of the last heartbeat.
    pub age: Duration,
    /// Checkpoint progress published with the last heartbeat; `None` on
    /// leases that have not heartbeated progress yet (fresh claims, or
    /// files written by older workers — the fields are parsed leniently).
    pub progress: Option<LeaseProgress>,
}

impl LeaseInfo {
    /// Whether this lease may be taken over now under `policy` and
    /// `timeout`: dead long enough (or marked failed) *and* past the
    /// attempt's backoff gate *and* not exhausted.
    pub fn reclaimable(&self, range_start: usize, timeout: Duration, policy: &RetryPolicy) -> bool {
        if self.attempt >= policy.max_attempts {
            return false;
        }
        let gate = if self.failed {
            policy.backoff(range_start, self.attempt)
        } else {
            timeout + policy.backoff(range_start, self.attempt)
        };
        self.age >= gate
    }

    /// Whether the range is out of retry budget (stale or failed, but
    /// never to be retaken automatically).
    pub fn exhausted(&self, timeout: Duration, policy: &RetryPolicy) -> bool {
        self.attempt >= policy.max_attempts && (self.failed || self.age >= timeout)
    }
}

/// A lease this worker holds.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    /// Claimant identifier recorded in the file.
    pub owner: String,
    /// Claim generation of this hold.
    pub attempt: u32,
    token: u64,
}

fn lease_body(
    owner: &str,
    attempt: u32,
    token: u64,
    failed: bool,
    progress: Option<LeaseProgress>,
) -> String {
    // Owner ids are short host:pid strings; escape just enough that any
    // input still yields a parseable line.
    let owner: String = owner
        .chars()
        .map(|c| match c {
            '"' | '\\' => '_',
            c if (c as u32) < 0x20 => '_',
            c => c,
        })
        .collect();
    let progress = match progress {
        Some(p) => format!(
            ",\"records\":{},\"start_records\":{},\"elapsed_ms\":{}",
            p.records, p.start_records, p.elapsed_ms
        ),
        None => String::new(),
    };
    format!(
        "{{\"owner\":\"{owner}\",\"attempt\":{attempt},\"token\":{token},\"failed\":{failed}{progress}}}\n"
    )
}

fn io_err(path: &Path, e: std::io::Error) -> DistError {
    DistError::Io(format!("{}: {e}", path.display()))
}

/// Mints a fencing token. The process id and a process-wide counter are
/// mixed in so two workers in one process (or one worker re-claiming)
/// can never mint equal tokens for the same attempt — token equality is
/// what `still_owned` fencing rests on.
fn fresh_token(token_salt: u64, attempt: u32) -> u64 {
    static CLAIM_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = CLAIM_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    splitmix64(
        token_salt
            ^ u64::from(std::process::id())
            ^ (u64::from(attempt) << 32)
            ^ seq.rotate_left(17),
    )
}

impl Lease {
    /// Atomically claims `path` (`create_new`): `Ok(Some)` on the win,
    /// `Ok(None)` when someone else holds it.
    pub fn claim(
        path: &Path,
        owner: &str,
        attempt: u32,
        token_salt: u64,
    ) -> Result<Option<Lease>, DistError> {
        use std::io::Write as _;
        let token = fresh_token(token_salt, attempt);
        let mut file = match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(None),
            Err(e) => return Err(io_err(path, e)),
        };
        file.write_all(lease_body(owner, attempt, token, false, None).as_bytes())
            .map_err(|e| io_err(path, e))?;
        Ok(Some(Lease { path: path.to_path_buf(), owner: owner.to_string(), attempt, token }))
    }

    /// Installs a fresh claim **over** an existing (condemned) lease by
    /// atomic rename. Unlike [`Lease::claim`] the path is never left
    /// unoccupied, so no concurrent claimant can observe a bare path
    /// mid-takeover; the previous owner, if somehow still alive, fails
    /// its next token check and stops.
    fn replace(
        path: &Path,
        owner: &str,
        attempt: u32,
        token_salt: u64,
    ) -> Result<Lease, DistError> {
        use std::io::Write as _;
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let token = fresh_token(token_salt, attempt);
        let tmp = path.with_extension(format!(
            "newlease-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(lease_body(owner, attempt, token, false, None).as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        Ok(Lease { path: path.to_path_buf(), owner: owner.to_string(), attempt, token })
    }

    /// Refreshes the heartbeat (rewrites the lease, bumping its mtime)
    /// after verifying this worker still owns it. `Ok(false)` = the lease
    /// was taken over (or removed): stop writing to the range.
    pub fn heartbeat(&self) -> Result<bool, DistError> {
        if !self.still_owned()? {
            return Ok(false);
        }
        self.rewrite(false, None)
    }

    /// [`Lease::heartbeat`] that also publishes checkpoint progress for
    /// `repwf dist status` throughput reporting.
    pub fn heartbeat_progress(&self, progress: LeaseProgress) -> Result<bool, DistError> {
        if !self.still_owned()? {
            return Ok(false);
        }
        self.rewrite(false, Some(progress))
    }

    /// Marks the claim failed (observed death) so the retry gate skips
    /// the staleness timeout. Ownership loss is not an error here — the
    /// range is someone else's problem already.
    pub fn mark_failed(&self) -> Result<(), DistError> {
        if self.still_owned()? {
            self.rewrite(true, None)?;
        }
        Ok(())
    }

    /// Releases the lease after successful completion (the done marker,
    /// written first, is what records completion — the lease file is just
    /// noise once it exists). Already-stolen leases release as a no-op.
    pub fn release(self) -> Result<(), DistError> {
        if self.still_owned()? {
            match std::fs::remove_file(&self.path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&self.path, e)),
            }
        }
        Ok(())
    }

    /// Whether the file at the lease path still carries this claim's
    /// token.
    pub fn still_owned(&self) -> Result<bool, DistError> {
        match read_lease_text(&self.path)? {
            Some((info, _)) => Ok(info.token == self.token),
            None => Ok(false),
        }
    }

    fn rewrite(&self, failed: bool, progress: Option<LeaseProgress>) -> Result<bool, DistError> {
        use std::io::Write as _;
        // Plain in-place rewrite (no tmp+rename): a rename would recreate
        // the path even after a thief removed it, resurrecting a dead
        // claim. With open(existing-only), losing the race surfaces as
        // NotFound = ownership lost.
        let mut file = match std::fs::OpenOptions::new().write(true).open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(io_err(&self.path, e)),
        };
        let body = lease_body(&self.owner, self.attempt, self.token, failed, progress);
        file.set_len(0).map_err(|e| io_err(&self.path, e))?;
        file.write_all(body.as_bytes()).map_err(|e| io_err(&self.path, e))?;
        Ok(true)
    }
}

fn read_lease_text(path: &Path) -> Result<Option<(LeaseInfo, SystemTime)>, DistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, e)),
    };
    // The lease can vanish (released, or cleared by a takeover) between
    // the read above and this stat — that is a no-lease observation, not
    // an error.
    let mtime = match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, e)),
    };
    // A lease caught mid-rewrite parses as corrupt (a cut inside a
    // non-ASCII owner is not even UTF-8); treat it as a live claim of
    // unknown shape (age 0) rather than failing the scan — the next
    // heartbeat makes it readable again.
    let parsed = std::str::from_utf8(&bytes).ok().and_then(|text| parse(text.trim()).ok());
    let info = match parsed {
        Some(doc) => {
            // Progress fields are optional (plain heartbeats and leases
            // written by older workers omit them): require all three
            // before reporting any.
            let progress = match (
                doc.get("records").and_then(JsonValue::as_u64),
                doc.get("start_records").and_then(JsonValue::as_u64),
                doc.get("elapsed_ms").and_then(JsonValue::as_u64),
            ) {
                (Some(records), Some(start_records), Some(elapsed_ms)) => {
                    Some(LeaseProgress { records, start_records, elapsed_ms })
                }
                _ => None,
            };
            LeaseInfo {
                owner: doc
                    .get("owner")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("<unreadable>")
                    .to_string(),
                attempt: doc.get("attempt").and_then(JsonValue::as_u64).unwrap_or(1) as u32,
                token: doc.get("token").and_then(JsonValue::as_u64).unwrap_or(0),
                failed: matches!(doc.get("failed"), Some(JsonValue::Bool(true))),
                age: Duration::ZERO,
                progress,
            }
        }
        None => LeaseInfo {
            owner: "<unreadable>".to_string(),
            attempt: 1,
            token: 0,
            failed: false,
            age: Duration::ZERO,
            progress: None,
        },
    };
    Ok(Some((info, mtime)))
}

/// Reads the lease at `path`, if any, with its heartbeat age.
pub fn inspect(path: &Path) -> Result<Option<LeaseInfo>, DistError> {
    Ok(read_lease_text(path)?.map(|(mut info, mtime)| {
        info.age = SystemTime::now().duration_since(mtime).unwrap_or(Duration::ZERO);
        info
    }))
}

/// A takeover that died between planting its tombstone and installing
/// the replacement lease is recovered only once the tombstone is at
/// least this old — a live winner completes the two steps within
/// microseconds, so an old tombstone with the condemned lease still in
/// place can only mean the thief is gone.
const TAKEOVER_RECOVERY_GRACE: Duration = Duration::from_secs(5);

/// Takes over a reclaimable lease: atomically plants a per-attempt
/// tombstone (`<path>.tomb-<attempt>`, a hard link to the condemned
/// lease), then **replaces** the condemned lease in place with a fresh
/// `attempt + 1` claim via tmp + rename. `Ok(None)` = lost the race.
///
/// Two invariants carry the safety argument:
///
/// * The tombstone is planted with `hard_link`, NOT `rename`: rename
///   overwrites an existing tombstone, so a thief acting on stale
///   [`LeaseInfo`] could move the *winning thief's fresh lease* into the
///   tombstone and claim the freed path — two live owners of one unit.
///   `hard_link` fails with `AlreadyExists` once any thief has planted
///   the attempt's tombstone, so exactly one takeover per attempt
///   proceeds.
/// * The path is never unoccupied mid-takeover: the condemned lease is
///   replaced by rename, not removed and re-claimed, so no concurrent
///   worker can observe a bare path and slip in a fresh attempt-1 claim
///   (which would reset the retry budget and sidestep the backoff gate).
pub fn take_over(
    path: &Path,
    stale: &LeaseInfo,
    new_owner: &str,
    token_salt: u64,
) -> Result<Option<Lease>, DistError> {
    take_over_with_grace(path, stale, new_owner, token_salt, TAKEOVER_RECOVERY_GRACE)
}

fn take_over_with_grace(
    path: &Path,
    stale: &LeaseInfo,
    new_owner: &str,
    token_salt: u64,
    grace: Duration,
) -> Result<Option<Lease>, DistError> {
    let tomb = path.with_file_name(format!(
        "{}.tomb-{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("lease"),
        stale.attempt,
    ));
    match std::fs::hard_link(path, &tomb) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            // The attempt's tombstone exists: a racing thief won (the
            // common case — concede), or a thief died between planting
            // the tombstone and replacing the lease. Tombstone and
            // condemned lease were one inode, so the condemned claim is
            // still in place iff path and tombstone hold the same bytes;
            // the age gate rules out a live winner mid-takeover.
            let meta = match std::fs::metadata(&tomb) {
                Ok(m) => m,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(io_err(&tomb, e)),
            };
            let age = meta
                .modified()
                .ok()
                .and_then(|t| SystemTime::now().duration_since(t).ok())
                .unwrap_or(Duration::ZERO);
            if age < grace {
                return Ok(None);
            }
            let tomb_bytes = match std::fs::read(&tomb) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(io_err(&tomb, e)),
            };
            match std::fs::read(path) {
                Ok(cur) if cur == tomb_bytes => {}
                Ok(_) => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(io_err(path, e)),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, e)),
    }
    Lease::replace(path, new_owner, stale.attempt + 1, token_salt).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "repwf-lease-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claim_is_exclusive_and_release_frees() {
        let path = dir().join("r0-10.lease");
        let _ = std::fs::remove_file(&path);
        let lease = Lease::claim(&path, "w1", 1, 7).unwrap().expect("first claim wins");
        assert!(Lease::claim(&path, "w2", 1, 8).unwrap().is_none(), "second claim loses");
        let info = inspect(&path).unwrap().expect("lease readable");
        assert_eq!((info.owner.as_str(), info.attempt, info.failed), ("w1", 1, false));
        assert!(lease.heartbeat().unwrap());
        lease.release().unwrap();
        assert!(inspect(&path).unwrap().is_none());
        assert!(Lease::claim(&path, "w2", 1, 8).unwrap().is_some());
    }

    fn tomb_of(path: &std::path::Path, attempt: u32) -> std::path::PathBuf {
        path.with_file_name(format!(
            "{}.tomb-{attempt}",
            path.file_name().and_then(|n| n.to_str()).unwrap(),
        ))
    }

    #[test]
    fn takeover_fences_the_old_owner() {
        let path = dir().join("r10-10.lease");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tomb_of(&path, 1));
        let old = Lease::claim(&path, "dead", 1, 1).unwrap().unwrap();
        let stale = inspect(&path).unwrap().unwrap();
        let new = take_over(&path, &stale, "thief", 2).unwrap().expect("rename wins");
        assert_eq!(new.attempt, 2);
        // The dead owner notices at its next heartbeat and stops.
        assert!(!old.heartbeat().unwrap());
        assert!(old.release().is_ok(), "stolen lease releases as a no-op");
        assert!(inspect(&path).unwrap().unwrap().owner == "thief");
        // Losing thief: the lease file is gone from under the takeover.
        assert!(take_over(&path.with_extension("gone"), &stale, "late", 3).unwrap().is_none());
    }

    #[test]
    fn a_thief_with_stale_info_cannot_steal_the_winners_fresh_lease() {
        let path = dir().join("r30-10.lease");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tomb_of(&path, 1));
        let old = Lease::claim(&path, "dead", 1, 1).unwrap().unwrap();
        old.mark_failed().unwrap();
        let stale = inspect(&path).unwrap().unwrap();
        let winner = take_over(&path, &stale, "w", 2).unwrap().expect("first thief wins");
        // The second thief still holds the pre-takeover LeaseInfo. A
        // rename-planted tombstone would move the winner's fresh lease
        // into the tombstone here and hand the freed path to the loser —
        // two live owners appending to one unit file.
        assert!(
            take_over(&path, &stale, "loser", 3).unwrap().is_none(),
            "a thief acting on condemned-attempt info must lose",
        );
        assert!(winner.heartbeat().unwrap(), "winner's lease is untouched");
        assert_eq!(inspect(&path).unwrap().unwrap().owner, "w");
    }

    #[test]
    fn a_half_finished_takeover_is_recoverable() {
        let path = dir().join("r40-10.lease");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tomb_of(&path, 1));
        let old = Lease::claim(&path, "dead", 1, 1).unwrap().unwrap();
        old.mark_failed().unwrap();
        let stale = inspect(&path).unwrap().unwrap();
        // Simulate a thief that died between planting the tombstone and
        // replacing the lease: the tombstone exists, hard-linked to the
        // still-condemned lease. Grace zero stands in for the tombstone
        // having aged past TAKEOVER_RECOVERY_GRACE.
        std::fs::hard_link(&path, tomb_of(&path, 1)).unwrap();
        let heir = take_over_with_grace(&path, &stale, "heir", 4, Duration::ZERO)
            .unwrap()
            .expect("recovery finishes the dead thief's takeover");
        assert_eq!(heir.attempt, 2);
        assert_eq!(inspect(&path).unwrap().unwrap().owner, "heir");
    }

    #[test]
    fn mark_failed_round_trips_and_gates_on_backoff_only() {
        let path = dir().join("r20-10.lease");
        let _ = std::fs::remove_file(&path);
        let lease = Lease::claim(&path, "w1", 2, 9).unwrap().unwrap();
        lease.mark_failed().unwrap();
        let info = inspect(&path).unwrap().unwrap();
        assert!(info.failed);
        let policy = RetryPolicy { base: Duration::ZERO, ..RetryPolicy::default() };
        // Zero base → zero backoff → failed leases reclaim immediately,
        // while a live (non-failed) lease still waits out the timeout.
        assert!(info.reclaimable(20, Duration::from_secs(3600), &policy));
        let live = LeaseInfo { failed: false, ..info.clone() };
        assert!(!live.reclaimable(20, Duration::from_secs(3600), &policy));
        // Exhaustion: at max_attempts a failed lease is degraded, not
        // reclaimable.
        let worn = LeaseInfo { attempt: policy.max_attempts, ..info };
        assert!(!worn.reclaimable(20, Duration::from_secs(3600), &policy));
        assert!(worn.exhausted(Duration::from_secs(3600), &policy));
    }

    #[test]
    fn heartbeat_progress_round_trips_and_derives_throughput() {
        let path = dir().join("r50-10.lease");
        let _ = std::fs::remove_file(&path);
        let lease = Lease::claim(&path, "w1", 1, 11).unwrap().unwrap();
        assert!(
            inspect(&path).unwrap().unwrap().progress.is_none(),
            "fresh claim publishes no progress"
        );
        let p = LeaseProgress { records: 120, start_records: 20, elapsed_ms: 4000 };
        assert!(lease.heartbeat_progress(p).unwrap());
        let info = inspect(&path).unwrap().unwrap();
        assert_eq!(info.progress, Some(p));
        assert_eq!(p.records_per_sec(), Some(25.0));
        // No records yet, or no measurable time: no rate (never a NaN/inf).
        let idle = LeaseProgress { records: 20, start_records: 20, elapsed_ms: 4000 };
        assert_eq!(idle.records_per_sec(), None);
        let instant = LeaseProgress { records: 50, start_records: 0, elapsed_ms: 0 };
        assert_eq!(instant.records_per_sec(), None);
        // A plain heartbeat keeps the lease valid but drops the snapshot.
        assert!(lease.heartbeat().unwrap());
        assert!(inspect(&path).unwrap().unwrap().progress.is_none());
        lease.release().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_monotone_in_expectation() {
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
            max_attempts: 10,
            jitter_seed: 42,
        };
        for attempt in 1..10 {
            let a = policy.backoff(17, attempt);
            let b = policy.backoff(17, attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            let exp = policy.base.saturating_mul(1 << (attempt - 1)).min(policy.cap);
            assert!(a >= exp && a < exp + policy.base, "attempt {attempt}: {a:?}");
        }
        assert_ne!(policy.backoff(17, 3), policy.backoff(18, 3), "jitter varies by range");
    }
}
