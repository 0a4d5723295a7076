//! Progress lines on stderr, kept off the hot path.
//!
//! A `\r` progress line per outcome costs more than the outcome itself
//! when stderr is a pipe: a 20 000-draw campaign wrote about 1 MB of them.
//! A [`Throttle`] lets a line through only when stderr is a terminal, at
//! most once per [`Throttle::PERIOD_MS`] plus the final line, so a
//! redirected run writes none at all. Summary lines are not progress and
//! are printed as before.

use std::io::IsTerminal as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Decides which progress updates are printed (see the module docs).
/// Shared by reference, so outcome sinks and shard callbacks on any
/// worker can ask it.
pub struct Throttle {
    on: bool,
    start: Instant,
    /// Milliseconds since `start` before which no further line is due.
    next_ms: AtomicU64,
}

impl Throttle {
    /// Milliseconds between two progress lines.
    pub const PERIOD_MS: u64 = 100;

    /// A throttle that prints only if stderr is a terminal.
    pub fn new() -> Self {
        Throttle { on: std::io::stderr().is_terminal(), start: Instant::now(), next_ms: 0.into() }
    }

    /// Whether the update for `done` of `total` should be printed: the
    /// final one always, any other when a period has passed since the
    /// last printed line.
    pub fn due(&self, done: usize, total: usize) -> bool {
        if !self.on {
            return false;
        }
        if done >= total {
            return true;
        }
        let now = self.start.elapsed().as_millis() as u64;
        // Relaxed: the value orders nothing but progress lines, and a lost
        // race only skips one of them.
        let next = self.next_ms.load(Ordering::Relaxed);
        now >= next
            && self
                .next_ms
                .compare_exchange(next, now + Self::PERIOD_MS, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}
