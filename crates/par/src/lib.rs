//! **repwf-par** — a small work-stealing parallel-map executor.
//!
//! The experiment campaigns of `repwf-gen` are embarrassingly parallel but
//! heavily *imbalanced*: one experiment may solve in microseconds with the
//! polynomial algorithm while its neighbour falls back to a 20 000-data-set
//! simulation. A static partition of the seed space therefore leaves cores
//! idle; this crate provides the work-stealing `par_map` that replaced the
//! original hand-rolled scoped-thread loops.
//!
//! # Design
//!
//! * Each worker owns a deque of *index ranges*. Work starts evenly
//!   partitioned; a worker takes single indices from the **back** of its own
//!   deque and, when empty, steals **half of the front range** of a victim —
//!   the classic split-task scheme (cf. rayon / Bobpp's deterministic
//!   partitioning), implemented here with `std` mutexes because tasks are
//!   coarse (µs–ms each).
//! * Results are keyed by index: the output `Vec` is in input order and
//!   **bit-identical for every thread count**, provided the mapped closure
//!   derives all randomness from its index (the campaign engine seeds one
//!   RNG per experiment).
//! * No `unsafe`, no dependencies; scoped threads keep borrows alive.
//!
//! ```
//! let squares = repwf_par::par_map(4, 100, |i| i * i);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A half-open index range `[start, end)` owned by a worker deque.
type Span = (usize, usize);

/// Number of hardware threads (fallback 4 when undetectable).
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Applies `f` to every index in `0..n` on `threads` workers with work
/// stealing, returning the results in index order.
///
/// The result is independent of `threads` and of the stealing schedule as
/// long as `f` itself is a pure function of its index.
pub fn par_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_init(threads, n, || (), |(), i| f(i))
}

/// [`par_map`] with **per-worker state**: every worker thread calls
/// `init()` once at startup and hands the resulting value to each of its
/// `f(&mut state, index)` invocations.
///
/// This is how the campaign engine keeps one `PeriodEngine` arena per
/// worker: the expensive scratch buffers are created `threads` times
/// instead of `n` times, stay thread-local (no `Send` bound on `S`), and
/// follow the work wherever stealing moves it.
///
/// Determinism caveat: the state makes it possible for `f` to depend on
/// which indices a worker saw previously. If results must be independent
/// of the thread count and stealing schedule, `f(&mut s, i)` has to be a
/// pure function of `i` — state may cache *allocations*, not *answers*.
pub fn par_map_init<T, S, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    // Even initial partition: worker w starts with one contiguous span.
    let mut deques: Vec<Mutex<VecDeque<Span>>> = Vec::with_capacity(threads);
    let (chunk, rem) = (n / threads, n % threads);
    let mut start = 0;
    for w in 0..threads {
        let len = chunk + usize::from(w < rem);
        let mut deque = VecDeque::with_capacity(4);
        if len > 0 {
            deque.push_back((start, start + len));
        }
        deques.push(Mutex::new(deque));
        start += len;
    }
    debug_assert_eq!(start, n);

    // First panic payload of any worker; re-raised on the caller's thread.
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let aborted = AtomicBool::new(false);
    let deques = &deques;
    let panic = &panic;
    let aborted = &aborted;
    let f = &f;

    let init = &init;
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w, threads, deques, panic, aborted, n, init, f)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("par_map worker died")).collect()
    });

    if let Some(payload) = panic.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, v) in part {
            debug_assert!(out[i].is_none(), "index {i} computed twice");
            out[i] = Some(v);
        }
    }
    out.into_iter().map(|o| o.expect("all indices computed")).collect()
}

#[allow(clippy::too_many_arguments)]
fn worker<T, S, I, F>(
    me: usize,
    threads: usize,
    deques: &[Mutex<VecDeque<Span>>],
    panic: &Mutex<Option<Box<dyn std::any::Any + Send>>>,
    aborted: &AtomicBool,
    n: usize,
    init: &I,
    f: &F,
) -> Vec<(usize, T)>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut state = init();
    let mut local: Vec<(usize, T)> = Vec::with_capacity(n / threads + 2);
    // Termination needs no idle spinning: remainder spans are re-queued
    // under the same lock acquisition that pops them, and only a deque's
    // owner pushes into it, so work never hides outside every deque for
    // longer than a thief's own re-queue. When both pop and steal come up
    // empty the visible work is gone and this worker can leave; whoever
    // holds the last spans drains them before leaving too.
    while !aborted.load(Ordering::Acquire) {
        let Some(i) = pop_own(&deques[me]).or_else(|| steal(me, threads, deques)) else {
            break;
        };
        match catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
            Ok(v) => local.push((i, v)),
            Err(payload) => {
                panic.lock().expect("panic slot poisoned").get_or_insert(payload);
                aborted.store(true, Ordering::Release);
                break;
            }
        }
    }
    local
}

/// Takes one index from the back of the worker's own deque.
fn pop_own(deque: &Mutex<VecDeque<Span>>) -> Option<usize> {
    let mut q = deque.lock().expect("deque poisoned");
    let (a, b) = q.pop_back()?;
    if a + 1 < b {
        q.push_back((a + 1, b));
    }
    Some(a)
}

/// Steals half of the front span of the first non-empty victim; the stolen
/// remainder goes to the thief's own deque.
fn steal(me: usize, threads: usize, deques: &[Mutex<VecDeque<Span>>]) -> Option<usize> {
    for k in 1..threads {
        let victim = (me + k) % threads;
        let stolen = {
            let mut q = deques[victim].lock().expect("deque poisoned");
            match q.pop_front() {
                Some((a, b)) if b - a > 1 => {
                    let mid = a + (b - a) / 2;
                    q.push_front((mid, b)); // victim keeps the back half
                    Some((a, mid))
                }
                other => other,
            }
        };
        if let Some((a, b)) = stolen {
            if a + 1 < b {
                deques[me].lock().expect("deque poisoned").push_back((a + 1, b));
            }
            return Some(a);
        }
    }
    None
}

/// Runs `tasks` tasks on `threads` work-stealing workers, where task `t`
/// yields a batch of `(output index, value)` pairs, and streams the values
/// to an **in-order consumer**: `consume(i, &value_i)` fires for every
/// output index in strictly increasing order (0, 1, 2, … `n − 1`) as soon
/// as the contiguous prefix of values is complete, while later tasks are
/// still running. Every index in `0..n` must be produced by exactly one
/// task; the indices of one task may lie anywhere in the range.
///
/// This is the primitive behind the seed-ordered campaign runner of
/// `repwf-gen`: a task is a chunk of same-shape seeds scattered over the
/// campaign's range, yet a shard streams outcomes to an append-only
/// NDJSON file **in seed order** regardless of the work-stealing
/// schedule, so a killed process always leaves a valid, resumable prefix
/// on disk.
///
/// Each finished task hands its whole batch to a reorder buffer (one slot
/// per output index) guarded by a mutex; `consume` runs under that lock,
/// so it sees indices in order even when called from different worker
/// threads — keep it short (an append or a fold, not a solve). The
/// returned `Vec` is in output-index order. A panicking task fails the
/// whole call, as in [`par_map_init`].
pub fn par_map_init_ordered<T, S, I, F, C>(
    threads: usize,
    tasks: usize,
    n: usize,
    init: I,
    f: F,
    consume: C,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Vec<(usize, T)> + Sync,
    C: FnMut(usize, &T) + Send,
{
    struct Reorder<T, C> {
        slots: Vec<Option<T>>,
        /// First index not yet handed to `consume`.
        next: usize,
        consume: C,
    }
    let reorder = Mutex::new(Reorder { slots: (0..n).map(|_| None).collect(), next: 0, consume });
    par_map_init(threads, tasks, init, |state, t| {
        let batch = f(state, t);
        let mut guard = reorder.lock().expect("reorder buffer poisoned");
        let Reorder { slots, next, consume } = &mut *guard;
        for (i, v) in batch {
            assert!(slots[i].is_none(), "output index {i} produced twice");
            slots[i] = Some(v);
        }
        while let Some(Some(v)) = slots.get(*next) {
            consume(*next, v);
            *next += 1;
        }
    });
    let r = reorder.into_inner().expect("reorder buffer poisoned");
    r.slots.into_iter().map(|o| o.expect("every output index produced")).collect()
}

/// [`par_map_init`] followed by a **sequential fold in index order** on
/// the calling thread: `fold(acc, i, result_i)` sees index 0, then 1, …
/// regardless of the work-stealing schedule or the thread count.
///
/// This is the deterministic-partitioning primitive of the exact
/// branch-and-bound search (`repwf_map::exact`, after Bobpp's
/// statically-numbered subtree scheme): the search tree is split into
/// tasks numbered *before* execution, each task's result is a pure
/// function of its index (per-worker state caches allocations, never
/// answers), and the incumbent merge — which need not be commutative,
/// e.g. "first error wins" or "lexicographic tie-break against the
/// current best" — happens here, in a fixed order. The folded value is
/// therefore bit-identical at 1, 2, or N workers.
pub fn par_map_init_reduce<T, S, I, F, A, R>(
    threads: usize,
    n: usize,
    init: I,
    f: F,
    acc: A,
    mut fold: R,
) -> A
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    R: FnMut(A, usize, T) -> A,
{
    par_map_init(threads, n, init, f)
        .into_iter()
        .enumerate()
        .fold(acc, |acc, (i, v)| fold(acc, i, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_state_initialized_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = par_map_init(
            4,
            64,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new() // per-worker scratch
            },
            |scratch, i| {
                scratch.clear();
                scratch.extend(0..=i);
                scratch.iter().sum::<usize>()
            },
        );
        assert_eq!(out, (0..64).map(|i| i * (i + 1) / 2).collect::<Vec<_>>());
        let created = inits.load(Ordering::SeqCst);
        assert!(created <= 4, "one state per worker, got {created}");
    }

    #[test]
    fn matches_serial_map() {
        let serial: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(threads, 1000, |i| i * 3 + 1), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(par_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(8, 1, |i| i + 5), vec![5]);
        assert_eq!(par_map(1, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn imbalanced_work_completes() {
        // Front-loaded work forces stealing from the first worker's span.
        let out = par_map(4, 64, |i| {
            if i < 8 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc & 1
            } else {
                i as u64 & 1
            }
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn ordered_consume_sees_indices_in_order() {
        // Task t owns the scattered indices t, t + TASKS, t + 2·TASKS, …
        // (handed over in reverse), and front-loaded imbalance makes late
        // tasks finish first — the consumer must still observe 0, 1, 2, …
        // and every index exactly once.
        const TASKS: usize = 7;
        const N: usize = 97;
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let out = par_map_init_ordered(
                threads,
                TASKS,
                N,
                || (),
                |(), t| {
                    if t < 2 {
                        let mut acc = 0u64;
                        for k in 0..100_000u64 {
                            acc = acc.wrapping_add(k ^ t as u64);
                        }
                        std::hint::black_box(acc);
                    }
                    (t..N).step_by(TASKS).rev().map(|i| (i, i * 2)).collect()
                },
                |i, &v| {
                    assert_eq!(v, i * 2);
                    seen.push(i);
                },
            );
            assert_eq!(out, (0..N).map(|i| i * 2).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(seen, (0..N).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn ordered_consume_handles_empty_and_tiny_inputs() {
        let mut calls = 0;
        let out: Vec<usize> =
            par_map_init_ordered(4, 0, 0, || (), |(), _| Vec::new(), |_, _| calls += 1);
        assert!(out.is_empty());
        assert_eq!(calls, 0);
        let out = par_map_init_ordered(
            4,
            1,
            1,
            || (),
            |(), t| vec![(t, t + 9)],
            |i, &v| {
                assert_eq!((i, v), (0, 9));
            },
        );
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn ordered_task_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_init_ordered(
                4,
                10,
                10,
                || (),
                |(), t| {
                    assert!(t != 6, "boom in task {t}");
                    vec![(t, t)]
                },
                |_, _| {},
            )
        });
        let payload = caught.expect_err("a task panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("panic message");
        assert!(message.contains("boom in task 6"), "{message}");
    }

    #[test]
    fn reduce_with_noncommutative_fold_is_thread_count_independent() {
        // String concatenation is order-sensitive: only an index-ordered
        // fold gives the same answer at every thread count.
        let reference: String = (0..40).map(|i| format!("[{i}]")).collect();
        for threads in [1, 2, 4, 16] {
            let folded = par_map_init_reduce(
                threads,
                40,
                || (),
                |(), i| {
                    if i % 7 == 0 {
                        // Imbalance to provoke out-of-order completion.
                        std::hint::black_box((0..50_000u64).sum::<u64>());
                    }
                    format!("[{i}]")
                },
                String::new(),
                |mut acc, i, s| {
                    assert_eq!(s, format!("[{i}]"));
                    acc.push_str(&s);
                    acc
                },
            );
            assert_eq!(folded, reference, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map(32, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn closure_panic_propagates() {
        // A panicking task must fail the whole par_map loudly (not hang).
        let caught = std::panic::catch_unwind(|| {
            par_map(4, 100, |i| {
                assert!(i != 57, "boom at {i}");
                i
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        let message = payload.downcast_ref::<String>().expect("panic message");
        assert!(message.contains("boom at 57"), "{message}");
    }
}
