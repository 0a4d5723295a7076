//! `repwf-obs` — zero-overhead structured telemetry for the repwf stack.
//!
//! Three layers, all dependency-free:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]): thread-local RAII guards timing a
//!   named phase on a monotonic clock.
//! * **Counters/histograms** ([`CounterId`], [`MetricsSnapshot`]): a typed
//!   registry sharded per worker thread (lock-free relaxed atomics on the hot
//!   path) whose snapshots merge associatively and commutatively — the same
//!   discipline as `CampaignAccum`.
//! * **Trace sink**: an NDJSON file (`repwf-trace/v1`) with one record per
//!   span/event and an FNV-checksummed footer, written and read through
//!   [`ndjson`], the flat-record codec `repwf_dist::shard` uses too.
//!
//! **Overhead policy.** Telemetry is off by default; every instrumentation
//! site reduces to a single relaxed atomic load (`enabled()`) returning
//! `false`. Enabling metrics (`--metrics`) activates the sharded registry;
//! installing a trace sink (`--trace FILE`) additionally writes NDJSON
//! records. Telemetry *observes, never perturbs*: it must not change a single
//! output byte of any command at any thread count — the CLI test suite pins
//! that invariant.

mod metrics;
pub mod ndjson;
pub mod report;
mod sink;
mod span;

pub use metrics::{
    bucket_of, snapshot, CounterId, MetricsSnapshot, SpanId, SpanStat, NUM_BUCKETS, NUM_COUNTERS,
    NUM_SPANS,
};
pub use ndjson::Checksum;
pub use span::{thread_id, SpanGuard};

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether any telemetry (metrics or tracing) is active. The only cost every
/// instrumentation site pays when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether an NDJSON trace sink is installed.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Activate the metrics registry (idempotent; process-wide).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Nanoseconds since the process telemetry epoch (first `enable`).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Add `n` to a counter. A no-op (one relaxed load) unless telemetry is on.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    if enabled() {
        metrics::add(id, n);
    }
}

/// Open a timed span; the returned guard records on drop. Inert (and
/// allocation-free) when telemetry is off.
#[inline]
pub fn span(id: SpanId) -> SpanGuard {
    span::start(id)
}

/// Open a timed span by variant name: `let _s = repwf_obs::span!(TpnBuild);`.
#[macro_export]
macro_rules! span {
    ($v:ident) => {
        $crate::span($crate::SpanId::$v)
    };
}

/// Emit a structured point event (e.g. a supervisor lease transition) to the
/// trace. No-op unless a sink is installed; extra fields are u64s (store f64s
/// as bit patterns per the format rule).
pub fn event(name: &'static str, fields: &[(&'static str, u64)]) {
    if tracing() {
        sink::record_event(name, thread_id(), now_ns(), fields);
    }
}

/// Install an NDJSON trace sink at `path` and enable telemetry. The header
/// record names `command` so `trace report` can label its output.
pub fn install_trace(path: &Path, command: &str) -> io::Result<()> {
    enable();
    sink::install(path, command)?;
    TRACING.store(true, Ordering::SeqCst);
    Ok(())
}

/// Flush the metrics snapshot into the trace (counter/spanstat records) and
/// write the checksummed footer. Idempotent: a second call is a no-op.
/// Call after the command span has dropped so its record reaches the file.
pub fn finish_trace() -> io::Result<()> {
    if !TRACING.swap(false, Ordering::SeqCst) {
        return Ok(());
    }
    sink::finish(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrip_validates() {
        let dir = std::env::temp_dir().join(format!("repwf_obs_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ndjson");
        install_trace(&path, "selftest").unwrap();
        {
            let _outer = span!(Command);
            let _inner = span!(Solve);
            counter_add(CounterId::CsrBuilds, 2);
            event("lease_claim", &[("unit", 7), ("attempt", 1)]);
        }
        finish_trace().unwrap();

        let rep = report::read_trace(&path).unwrap();
        assert_eq!(rep.command, "selftest");
        assert!(rep.phases.iter().any(|p| p.name == "command" && p.count == 1));
        assert!(rep.phases.iter().any(|p| p.name == "solve" && p.count == 1));
        assert!(rep.events.iter().any(|(n, c)| n == "lease_claim" && *c == 1));
        // Counters are cumulative across the test process; ≥ what we added.
        let csr =
            rep.counters.iter().find(|(n, _)| n == "csr_builds").map(|(_, v)| *v).unwrap_or(0);
        assert!(csr >= 2, "csr_builds counter missing from flush: {csr}");

        // Corrupting any checksummed byte must fail validation.
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.iter().position(|&b| b == b'(').unwrap_or(40);
        bytes[flip] ^= 0x01;
        let bad = dir.join("bad.ndjson");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(report::read_trace(&bad).is_err());

        // A truncated trace (no footer) must fail validation too.
        let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        let trunc = dir.join("trunc.ndjson");
        std::fs::write(&trunc, truncated).unwrap();
        let err = report::read_trace(&trunc).unwrap_err();
        assert!(err.contains("footer"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_span_is_inert() {
        // Cannot assert the global flag is off (other tests in this process
        // may have enabled it), but an inert guard must never underflow the
        // depth counter or panic — exercised by dropping guards in both
        // states.
        let g = span(SpanId::Mct);
        drop(g);
    }
}
