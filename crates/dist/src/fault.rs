//! Deterministic fault injection for the distributed campaign machinery.
//!
//! Every recovery path in this crate — checkpoint resume, stale-lease
//! takeover, retry with backoff, partial merge — exists because real
//! fleets kill workers, tear writes and corrupt files. Testing those
//! paths with *real* nondeterministic failures would make CI flaky and
//! bugs unreproducible, so faults are injected instead, and the injection
//! is **fully deterministic**: a [`FaultPlan`] is either written out
//! explicitly (`kill-after=7,torn=12`) or derived from a seed
//! ([`FaultPlan::seeded`]), and the same plan always produces the same
//! disk state. The shard worker picks its plan up from the `REPWF_FAULT`
//! environment variable ([`FaultPlan::from_env`]), which is how the CI
//! `chaos-smoke` job kills a real subprocess at a chosen record count.
//!
//! A fault plan can express, independently or combined:
//!
//! * `kill-after=K` — die after appending `K` records *in this run*
//!   (resumed checkpoint records don't count). The writer's unflushed
//!   buffer vanishes, exactly as under SIGKILL.
//! * `torn=B` — leave the first `B` bytes of the next record's line
//!   behind when dying (a half-written line for resume to truncate).
//! * `slow=MS` — sleep `MS` milliseconds per record: a straggler, for
//!   exercising the supervisor's re-split path.
//! * `corrupt-footer` — finish the file but XOR the footer checksum,
//!   so the merge/resume validation must catch it.
//! * `exit` — on kill, terminate the *process* with
//!   [`KILL_EXIT_CODE`] instead of returning [`DistError::Fault`]
//!   (subprocess chaos tests vs in-process property tests).

use crate::DistError;

/// Exit code of a worker process dying to an injected `kill-after` fault
/// in `exit` mode — distinct from real error exits so chaos harnesses
/// can tell "fault fired as planned" from "worker actually broke".
pub const KILL_EXIT_CODE: i32 = 86;

/// Environment variable the shard worker reads its fault plan from.
pub const FAULT_ENV: &str = "REPWF_FAULT";

/// A deterministic fault-injection plan. See the [module docs](self)
/// for the semantics of each knob. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Die after this many records appended by the current run.
    /// `None` (or a count the run never reaches) injects no kill.
    pub kill_after: Option<usize>,
    /// Bytes of the next record's line to leave torn behind on kill
    /// (clamped to the line length minus its newline; 0 = clean kill).
    pub torn: usize,
    /// Per-record sleep in milliseconds (straggler injection).
    pub slow_ms: u64,
    /// Flip the footer checksum on finish.
    pub corrupt_footer: bool,
    /// On kill, exit the process with [`KILL_EXIT_CODE`] instead of
    /// returning [`DistError::Fault`].
    pub process_exit: bool,
}

impl FaultPlan {
    /// Parses the `REPWF_FAULT` syntax: comma-separated
    /// `kill-after=K`, `torn=B`, `slow=MS`, `corrupt-footer`, `exit`.
    pub fn parse(raw: &str) -> Result<FaultPlan, DistError> {
        let bad = |what: &str| {
            DistError::Plan(format!(
                "invalid fault plan {raw:?}: {what} (expected e.g. \
                 \"kill-after=7,torn=12,exit\")"
            ))
        };
        let mut plan = FaultPlan::default();
        for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some(("kill-after", k)) => {
                    plan.kill_after =
                        Some(k.parse().map_err(|_| bad("kill-after needs an integer"))?);
                }
                Some(("torn", b)) => {
                    plan.torn = b.parse().map_err(|_| bad("torn needs an integer"))?;
                }
                Some(("slow", ms)) => {
                    plan.slow_ms = ms.parse().map_err(|_| bad("slow needs milliseconds"))?;
                }
                None if part == "corrupt-footer" => plan.corrupt_footer = true,
                None if part == "exit" => plan.process_exit = true,
                _ => return Err(bad(&format!("unknown directive {part:?}"))),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from the `REPWF_FAULT` environment variable;
    /// `Ok(None)` when the variable is unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, DistError> {
        match std::env::var(FAULT_ENV) {
            Ok(raw) if raw.trim().is_empty() => Ok(None),
            Ok(raw) => FaultPlan::parse(&raw).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Renders the plan back in [`FaultPlan::parse`] syntax (for spawning
    /// worker subprocesses with an inherited plan).
    pub fn to_directive(&self) -> String {
        let mut parts = Vec::new();
        if let Some(k) = self.kill_after {
            parts.push(format!("kill-after={k}"));
        }
        if self.torn > 0 {
            parts.push(format!("torn={}", self.torn));
        }
        if self.slow_ms > 0 {
            parts.push(format!("slow={}", self.slow_ms));
        }
        if self.corrupt_footer {
            parts.push("corrupt-footer".to_string());
        }
        if self.process_exit {
            parts.push("exit".to_string());
        }
        parts.join(",")
    }

    /// Derives a deterministic kill plan from a seed: the kill lands
    /// uniformly in `0..=records` (hitting `records` means the run
    /// completes — "no fault" stays in the sample space on purpose), and
    /// roughly half the kills leave a torn line behind. Property tests
    /// sweep the seed to cover the whole kill-point space reproducibly.
    pub fn seeded(seed: u64, records: usize) -> FaultPlan {
        let r0 = splitmix64(seed);
        let r1 = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
        FaultPlan {
            kill_after: Some((r0 % (records as u64 + 1)) as usize),
            torn: if r1 & 1 == 1 { (r1 >> 1) as usize % 40 + 1 } else { 0 },
            slow_ms: 0,
            corrupt_footer: false,
            process_exit: false,
        }
    }
}

/// SplitMix64 — the statelessly seedable mixer used for deterministic
/// jitter and fault derivation (same construction the generator crate
/// uses to split seeds).
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_to_directive() {
        for raw in ["kill-after=7", "kill-after=0,torn=12,exit", "slow=5", "corrupt-footer", ""] {
            let plan = FaultPlan::parse(raw).unwrap();
            assert_eq!(FaultPlan::parse(&plan.to_directive()).unwrap(), plan, "{raw:?}");
        }
        assert_eq!(
            FaultPlan::parse("kill-after=3, torn=2 , exit").unwrap(),
            FaultPlan { kill_after: Some(3), torn: 2, process_exit: true, ..FaultPlan::default() }
        );
    }

    #[test]
    fn bad_directives_are_rejected_with_the_raw_text() {
        for bad in ["kill-after=x", "torn=", "slow=fast", "explode", "kill=3"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(matches!(err, DistError::Plan(_)), "{bad}: {err}");
            assert!(err.to_string().contains("invalid fault plan"), "{bad}: {err}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_the_kill_space() {
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a, b);
        let kills: std::collections::BTreeSet<usize> =
            (0..400).map(|s| FaultPlan::seeded(s, 10).kill_after.unwrap()).collect();
        assert_eq!(kills.len(), 11, "all of 0..=10 should appear: {kills:?}");
    }
}
