//! Deterministic data-parallel execution helpers.
//!
//! Every parallel kernel in the workspace partitions its *output* into
//! contiguous row chunks and computes each chunk with exactly the same
//! per-row loop as the serial path. Because no two threads ever combine
//! partial sums — each output element is produced by one thread running
//! the serial per-element recurrence — results are **bit-identical for
//! every thread count**, including 1. Reductions use a fixed block
//! partition (independent of thread count) with a sequential combine,
//! which gives the same guarantee.
//!
//! How many threads a piece of work gets is decided here and nowhere
//! else:
//! - a kernel hands [`par_rows`] its output and its operation count;
//!   below [`MIN_PARALLEL_WORK`] it runs on one thread, otherwise its
//!   rows split over [`current_threads`] parts;
//! - the training loop splits a batch's samples over
//!   `current_threads().min(batch length)` parts;
//! - both split with [`balanced_chunks`] and run the parts through
//!   [`fork_join`], which runs the first part on the calling thread and
//!   pins every part's kernels to one thread when there are two or
//!   more, so nested work never multiplies threads.
//!
//! [`fork_join`] hands later parts to one process-wide pool of helper
//! threads. Helpers are spawned the first time a call wants more than
//! the pool has, never exit, and park on a condition variable between
//! calls (they never spin). A call takes at most `current_threads() − 1`
//! of them, and only idle ones: a part no helper has taken runs on the
//! caller, so concurrent and nested calls never wait on each other.
//! Once the pool is warm a call allocates nothing.
//!
//! Thread-count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests, by [`fork_join`]'s parts and by serving's forward),
//! 2. the process-global count, set explicitly via
//!    [`set_global_threads`] or lazily from the `GCWC_THREADS`
//!    environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! `GCWC_THREADS=1` (or `with_threads(1, ..)`) runs the exact serial
//! path: no call takes a helper, so the pool never spawns one.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

/// Process-global resolved thread count; 0 = not yet resolved.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 = no override.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Parallel kernels only engage when a kernel has at least this many
/// f64 operations. On a 2-vCPU x86-64 host (release build, 2,000
/// samples per run, three runs) handing the second of two parts to a
/// pool thread and joining it costs 4.4–9.4 µs at p50 and 7.8–10.9 µs
/// at p90, against 37–42 µs at p50 for the scoped spawn the pool
/// replaced; a warm two-part [`fork_join`] over empty parts, which the
/// caller usually finishes before the helper wakes, costs 0.4–0.5 µs.
/// A two-way split of an n × n · n × n product still timed slower than
/// one thread there from this size up to 5.1 × 10⁵ multiply-adds
/// (n = 32: 5.5 µs at one thread, 12.4 µs at two; n = 80: 80 and
/// 93 µs), so the value is not too high; raising it changes which
/// kernels split on every workload and is left to a measured change.
/// Callers that run many small kernels, such as serving and training
/// workers, run them on one thread.
pub const MIN_PARALLEL_WORK: usize = 1 << 15;

/// Fixed block length for deterministic reductions. The block
/// partition — and therefore the rounding of the blockwise sum — never
/// depends on the thread count.
pub const REDUCE_BLOCK: usize = 4096;

fn env_or_available() -> usize {
    if let Ok(v) = std::env::var("GCWC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread count parallel kernels will use right now on this thread.
pub fn current_threads() -> usize {
    let over = THREAD_OVERRIDE.with(Cell::get);
    if over != 0 {
        return over;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    let resolved = env_or_available();
    // Benign race: every thread resolves the same value.
    GLOBAL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Sets the process-global thread count (`0` re-enables lazy
/// resolution from the environment). Thread-local overrides from
/// [`with_threads`] still take precedence.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the calling thread's kernel thread count pinned to
/// `n` (restored afterwards, panic-safe). Nested calls stack.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(previous);
    f()
}

/// Splits `slice` into at most `n` contiguous chunks of whole
/// `unit`-element units (rows) and yields each chunk with the index of
/// its first unit. Chunk lengths differ by at most one unit, longer
/// chunks first. `n` is clamped to the number of units, and an empty
/// slice yields one empty chunk.
pub fn balanced_chunks<T>(
    slice: &mut [T],
    unit: usize,
    n: usize,
) -> impl Iterator<Item = (usize, &mut [T])> {
    let units = slice.len().checked_div(unit).unwrap_or(0);
    debug_assert_eq!(units * unit, slice.len(), "slice is not a whole number of units");
    let n = n.clamp(1, units.max(1));
    let mut rest = slice;
    let mut next = 0usize;
    (0..n).map(move |k| {
        let len = units / n + usize::from(k < units % n);
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len * unit);
        rest = tail;
        next += len;
        (next - len, chunk)
    })
}

/// Runs `body` once per part and returns when every part has finished.
///
/// - No part: returns at once.
/// - One part: runs it on the calling thread, at the caller's kernel
///   thread count.
/// - Two or more: the first part runs on the calling thread. Up to
///   `current_threads() − 1` idle pool helpers (the module docs) take
///   later parts one at a time, and the caller runs every part no
///   helper has taken. Inside every part, the caller's included,
///   kernels run on one thread.
///
/// Every part runs even when another panics. The first panic caught
/// reaches the caller after every part has finished, with the caller's
/// thread count restored. Nothing is allocated once the pool has the
/// helpers the call may take.
pub fn fork_join<I, P, F>(parts: I, body: F)
where
    I: IntoIterator<Item = P>,
    I::IntoIter: Send,
    P: Send,
    F: Fn(P) + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return };
    let Some(second) = parts.next() else {
        body(first);
        return;
    };
    let later = parts.size_hint().1.map_or(usize::MAX, |n| n.saturating_add(1));
    let helpers = later.min(current_threads() - 1);
    let rest = Mutex::new(std::iter::once(second).chain(parts));
    let next = || rest.lock().unwrap_or_else(PoisonError::into_inner).next();
    let run = |part| catch_unwind(AssertUnwindSafe(|| body(part))).err();
    // Runs later parts until none is left, keeping the first panic.
    let work = || {
        let mut panic = None;
        while let Some(part) = next() {
            panic = panic.or(run(part));
        }
        panic
    };
    let on_caller = || {
        let panic = run(first);
        panic.or(work())
    };
    let panic = with_threads(1, || match helpers {
        0 => on_caller(),
        _ => POOL.share(helpers, &work, on_caller),
    });
    if let Some(panic) = panic {
        resume_unwind(panic);
    }
}

/// A caught panic's payload.
type Panic = Box<dyn Any + Send>;

/// Work a [`fork_join`] shares with the pool: runs parts until none is
/// left and returns the first panic it caught.
type Work<'a> = dyn Fn() -> Option<Panic> + Sync + 'a;

/// The helper threads behind [`fork_join`].
static POOL: Pool = Pool {
    state: Mutex::new(PoolState { helpers: 0, tickets: 0, jobs: Vec::new() }),
    posted: Condvar::new(),
    finished: Condvar::new(),
};

struct Pool {
    state: Mutex<PoolState>,
    /// Parked helpers wait here for an open seat.
    posted: Condvar,
    /// Callers wait here for the helpers on their job to finish.
    finished: Condvar,
}

struct PoolState {
    /// Helpers spawned so far; they never exit.
    helpers: usize,
    /// The last ticket handed to a job.
    tickets: u64,
    /// The jobs of the calls in flight. Only the posting call removes
    /// its job, so the vector's capacity is kept across calls.
    jobs: Vec<Job>,
}

/// One call's work, shared with the helpers that take a seat on it.
struct Job {
    ticket: u64,
    /// The caller's work with its lifetime erased ([`Pool::share`]).
    work: &'static Work<'static>,
    /// Seats no helper has taken yet.
    open: usize,
    /// Helpers running `work` now.
    running: usize,
    /// The first panic a helper's `work` returned or raised.
    panic: Option<Panic>,
}

impl PoolState {
    fn job(&mut self, ticket: u64) -> &mut Job {
        self.jobs
            .iter_mut()
            .find(|job| job.ticket == ticket)
            .expect("a job stays posted until its caller removes it")
    }
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // No code runs under this lock that can leave the state half
        // updated, so a poisoned lock's state is still whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `on_caller` on the calling thread while up to `helpers`
    /// pool threads run `work` with it, and returns the first panic
    /// either caught once every helper that took a seat has finished.
    /// Spawns the helpers the pool lacks.
    ///
    /// Helpers outlive every call, so the job they read holds `work`
    /// with its lifetime erased, the pool's one piece of unsafe code.
    /// It is sound because no helper can use `work` after this function
    /// returns or unwinds:
    /// - a helper only calls `work` after taking a seat on the job and
    ///   counting itself in `running`, under the pool lock;
    /// - this function closes the job's seats and waits, under the same
    ///   lock, until `running` is back to 0 before it removes the job;
    /// - nothing between posting and waiting can unwind: `on_caller`
    ///   runs inside `catch_unwind`, and the pool lock ignores poison.
    fn share(
        &self,
        helpers: usize,
        work: &Work<'_>,
        on_caller: impl FnOnce() -> Option<Panic>,
    ) -> Option<Panic> {
        // SAFETY: only the lifetime changes; the reference is used by
        // helpers holding a seat, which the wait below outlasts (see
        // the function's docs).
        let work = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
        let mut state = self.lock();
        state.tickets += 1;
        let ticket = state.tickets;
        state.jobs.push(Job { ticket, work, open: helpers, running: 0, panic: None });
        let spawn = helpers.saturating_sub(state.helpers);
        state.helpers += spawn;
        drop(state);
        for _ in 0..helpers - spawn {
            self.posted.notify_one();
        }
        for _ in 0..spawn {
            // A helper that cannot be spawned leaves its seat open;
            // the caller runs its parts.
            let spawned =
                std::thread::Builder::new().name("gcwc-pool".into()).spawn(|| POOL.help());
            if spawned.is_err() {
                self.lock().helpers -= 1;
            }
        }
        let panic = catch_unwind(AssertUnwindSafe(on_caller)).unwrap_or_else(Some);
        let mut state = self.lock();
        state.job(ticket).open = 0;
        while state.job(ticket).running > 0 {
            state = self.finished.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let at = state.jobs.iter().position(|job| job.ticket == ticket).expect("posted above");
        let job = state.jobs.swap_remove(at);
        drop(state);
        panic.or(job.panic)
    }

    /// A helper's life: take an open seat, run its work at one kernel
    /// thread, report, and park while no seat is open.
    fn help(&self) {
        THREAD_OVERRIDE.with(|c| c.set(1));
        let mut state = self.lock();
        loop {
            let Some(job) = state.jobs.iter_mut().find(|job| job.open > 0) else {
                state = self.posted.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.open -= 1;
            job.running += 1;
            let (ticket, work) = (job.ticket, job.work);
            drop(state);
            let panic = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(Some);
            state = self.lock();
            let job = state.job(ticket);
            job.running -= 1;
            job.panic = job.panic.take().or(panic);
            if job.running == 0 {
                self.finished.notify_all();
            }
        }
    }
}

/// Spawns `f` on a scoped thread of its own whose kernels run on one
/// thread: how sharded training places each shard.
pub fn spawn_pinned<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    scope.spawn(move || with_threads(1, f))
}

/// Runs `body(first_row, chunk)` over `out`, a row-major buffer of
/// `row_len`-element rows, for a kernel of `work` operations: on one
/// thread below [`MIN_PARALLEL_WORK`], otherwise split into
/// [`current_threads`] [`balanced_chunks`] run by [`fork_join`].
///
/// `body` must compute each row identically to the serial path; since
/// chunk boundaries fall only *between* rows, the result is then
/// bit-identical for every thread count.
pub fn par_rows<F>(out: &mut [f64], row_len: usize, work: usize, body: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let threads = if work < MIN_PARALLEL_WORK { 1 } else { current_threads() };
    fork_join(balanced_chunks(out, row_len, threads), |(start, chunk)| body(start, chunk));
}

/// Deterministic elementwise map: `dst[i] = f(src[i])`.
///
/// Parallelised over fixed-position chunks when the slice is large
/// enough; bitwise equal to the serial map at any thread count.
pub fn par_map(src: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64 + Sync) {
    assert_eq!(src.len(), dst.len(), "par_map length mismatch");
    par_rows(dst, 1, src.len(), |start, chunk| {
        for (k, d) in chunk.iter_mut().enumerate() {
            *d = f(src[start + k]);
        }
    });
}

/// Deterministic elementwise zip: `dst[i] = f(a[i], b[i])`.
pub fn par_zip(a: &[f64], b: &[f64], dst: &mut [f64], f: impl Fn(f64, f64) -> f64 + Sync) {
    assert_eq!(a.len(), b.len(), "par_zip length mismatch");
    assert_eq!(a.len(), dst.len(), "par_zip length mismatch");
    par_rows(dst, 1, a.len(), |start, chunk| {
        for (k, d) in chunk.iter_mut().enumerate() {
            *d = f(a[start + k], b[start + k]);
        }
    });
}

/// Deterministic blockwise reduction: `Σ f(x)` over fixed
/// [`REDUCE_BLOCK`]-element blocks, block partials combined in block
/// order. The float rounding depends only on the (fixed) block
/// partition, never on the thread count.
pub fn par_sum_map(xs: &[f64], f: impl Fn(f64) -> f64 + Sync) -> f64 {
    if xs.len() <= REDUCE_BLOCK {
        return xs.iter().map(|&x| f(x)).sum();
    }
    let n_blocks = xs.len().div_ceil(REDUCE_BLOCK);
    let mut partials = vec![0.0f64; n_blocks];
    par_rows(&mut partials, 1, xs.len(), |start, chunk| {
        for (k, p) in chunk.iter_mut().enumerate() {
            let lo = (start + k) * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(xs.len());
            *p = xs[lo..hi].iter().map(|&x| f(x)).sum();
        }
    });
    partials.iter().sum()
}

/// Deterministic blockwise sum of a slice (see [`par_sum_map`]).
pub fn par_sum(xs: &[f64]) -> f64 {
    par_sum_map(xs, |x| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn threads_resolution_prefers_override() {
        let ambient = current_threads();
        assert!(ambient >= 1);
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), ambient);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = current_threads();
        let result = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(current_threads(), before);
    }

    /// The thread counts the splitting tests run at; 64 exceeds the
    /// 13 rows they split, so the count must clamp to the rows.
    const THREAD_COUNTS: [usize; 6] = [1, 2, 3, 4, 7, 64];

    #[test]
    fn par_rows_covers_every_row_once() {
        let rows = 13;
        let row_len = 3;
        for threads in THREAD_COUNTS {
            let mut out = vec![0.0; rows * row_len];
            let parts = AtomicUsize::new(0);
            with_threads(threads, || {
                par_rows(&mut out, row_len, MIN_PARALLEL_WORK, |start, chunk| {
                    parts.fetch_add(1, Ordering::Relaxed);
                    for r in 0..chunk.len() / row_len {
                        for c in 0..row_len {
                            chunk[r * row_len + c] += ((start + r) * row_len + c) as f64;
                        }
                    }
                });
            });
            let expect: Vec<f64> = (0..rows * row_len).map(|i| i as f64).collect();
            assert_eq!(out, expect, "threads = {threads}");
            assert_eq!(parts.into_inner(), threads.min(rows), "parts at {threads} threads");
        }
    }

    #[test]
    fn par_rows_handles_degenerate_shapes() {
        for threads in THREAD_COUNTS {
            with_threads(threads, || {
                let mut empty: Vec<f64> = Vec::new();
                par_rows(&mut empty, 0, MIN_PARALLEL_WORK, |_, chunk| assert!(chunk.is_empty()));
                par_rows(&mut empty, 5, MIN_PARALLEL_WORK, |_, chunk| assert!(chunk.is_empty()));
                let mut one = vec![0.0];
                par_rows(&mut one, 1, MIN_PARALLEL_WORK, |start, chunk| {
                    assert_eq!(start, 0);
                    chunk[0] = 9.0;
                });
                assert_eq!(one, vec![9.0], "threads = {threads}");
            });
        }
    }

    #[test]
    fn balanced_chunks_put_longer_chunks_first() {
        for units in 0..20 {
            for n in 1..24 {
                let mut data: Vec<u32> = vec![0; units * 2];
                let chunks: Vec<(usize, usize)> = balanced_chunks(&mut data, 2, n)
                    .map(|(start, c)| (start, c.len() / 2))
                    .collect();
                assert_eq!(chunks.len(), n.min(units.max(1)), "{units} units, n = {n}");
                let mut next = 0;
                for &(start, len) in &chunks {
                    assert_eq!(start, next, "chunks are contiguous");
                    next += len;
                }
                assert_eq!(next, units, "chunks cover every unit");
                let lens: Vec<usize> = chunks.iter().map(|&(_, len)| len).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1]), "longer first: {lens:?}");
                assert!(lens[0] - lens[lens.len() - 1] <= 1, "balanced: {lens:?}");
            }
        }
    }

    #[test]
    fn fork_join_places_and_pins_its_parts() {
        let caller = std::thread::current().id();
        let seen = |parts: usize| {
            let log = Mutex::new(Vec::new());
            with_threads(5, || {
                fork_join(0..parts, |k| {
                    if k == 0 {
                        assert_eq!(
                            std::thread::current().id(),
                            caller,
                            "part 0 runs on the caller"
                        );
                    }
                    log.lock().unwrap().push((k, current_threads()));
                });
                assert_eq!(current_threads(), 5, "the caller's count is restored");
            });
            let mut log = log.into_inner().unwrap();
            log.sort_unstable();
            log
        };
        assert!(seen(0).is_empty());
        assert_eq!(seen(1), vec![(0, 5)], "one part keeps the ambient count");
        assert_eq!(seen(3), vec![(0, 1), (1, 1), (2, 1)], "every part runs at one thread");
    }

    #[test]
    fn fork_join_panics_after_the_other_parts_finish() {
        let before = current_threads();
        // Part 0, the caller's own, panics; the other parts wait for the
        // flag it sets first, then finish on a helper or on the caller.
        // At one thread the caller runs all three after its panic.
        for threads in [1, 3] {
            let unwinding = (Mutex::new(false), Condvar::new());
            let finished = AtomicUsize::new(0);
            let result = catch_unwind(|| {
                with_threads(threads, || {
                    fork_join(0..4, |k| {
                        let (flag, cv) = &unwinding;
                        if k == 0 {
                            *flag.lock().unwrap() = true;
                            cv.notify_all();
                            panic!("part 0 fails on the caller");
                        }
                        drop(cv.wait_while(flag.lock().unwrap(), |set| !*set).unwrap());
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                })
            });
            assert!(result.is_err(), "part 0's panic reaches the caller at {threads} threads");
            assert_eq!(finished.into_inner(), 3, "the other parts finished first at {threads}");
            assert_eq!(current_threads(), before, "the caller's count is restored");
        }
        // The caller's part waits for a pool thread to take a part; that
        // part panics. A concurrent test can hold every helper, and then
        // the caller runs every part itself and nothing panics: try again.
        let caller = std::thread::current().id();
        for _ in 0..100 {
            let taken = (Mutex::new(false), Condvar::new());
            let finished = AtomicUsize::new(0);
            let result = catch_unwind(|| {
                with_threads(2, || {
                    fork_join(0..4, |k| {
                        let (flag, cv) = &taken;
                        if std::thread::current().id() != caller {
                            let first = !std::mem::replace(&mut *flag.lock().unwrap(), true);
                            cv.notify_all();
                            if first {
                                panic!("part {k} fails on a pool thread");
                            }
                        } else if k == 0 {
                            let wait = std::time::Duration::from_secs(1);
                            drop(cv.wait_timeout_while(flag.lock().unwrap(), wait, |set| !*set));
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                })
            });
            assert_eq!(current_threads(), before, "the caller's count is restored");
            if !taken.0.into_inner().unwrap() {
                assert!(result.is_ok());
                assert_eq!(finished.into_inner(), 4);
                continue;
            }
            assert!(result.is_err(), "the pool thread's panic reaches the caller");
            assert_eq!(finished.into_inner(), 3, "the other parts finished first");
            let ran = AtomicUsize::new(0);
            with_threads(2, || {
                fork_join(0..4, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(ran.into_inner(), 4, "the next fork_join still runs every part");
            return;
        }
        panic!("no pool thread took a part in 100 calls");
    }

    #[test]
    fn fork_join_nested_in_a_part_runs_inline() {
        let runs = AtomicUsize::new(0);
        with_threads(3, || {
            fork_join(0..3, |_| {
                let here = std::thread::current().id();
                fork_join(0..3, |_| {
                    assert_eq!(
                        std::thread::current().id(),
                        here,
                        "a nested part runs on its caller"
                    );
                    runs.fetch_add(1, Ordering::Relaxed);
                });
            })
        });
        assert_eq!(runs.into_inner(), 9);
    }

    #[test]
    fn concurrent_fork_joins_run_every_part_once() {
        const CALLS: usize = 200;
        const PARTS: usize = 8;
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..2 * CALLS * PARTS).map(|_| AtomicUsize::new(0)).collect());
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|t| {
                let (runs, start) = (Arc::clone(&runs), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    with_threads(3, || {
                        for call in 0..CALLS {
                            fork_join(0..PARTS, |k| {
                                runs[(t * CALLS + call) * PARTS + k]
                                    .fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("both callers finish");
        }
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "every part ran exactly once");
    }

    #[test]
    fn par_map_and_zip_match_serial_bitwise() {
        let n = MIN_PARALLEL_WORK + 123;
        let a: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 1e-3).collect();
        let serial_map: Vec<f64> = a.iter().map(|&x| x.exp().ln_1p()).collect();
        let serial_zip: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y + y).collect();
        for threads in [1, 2, 4, 8] {
            let mut dst = vec![0.0; n];
            with_threads(threads, || par_map(&a, &mut dst, |x| x.exp().ln_1p()));
            assert_eq!(dst, serial_map, "map, threads = {threads}");
            with_threads(threads, || par_zip(&a, &b, &mut dst, |x, y| x * y + y));
            assert_eq!(dst, serial_zip, "zip, threads = {threads}");
        }
    }

    #[test]
    fn par_sum_is_thread_count_invariant() {
        // Long enough to cross `MIN_PARALLEL_WORK`, so the blocks split.
        let n = 8 * REDUCE_BLOCK + 17;
        let xs: Vec<f64> =
            (0..n).map(|i| ((i * 2_654_435_761) % 1_000) as f64 * 1e-3 - 0.4).collect();
        let reference = with_threads(1, || par_sum(&xs));
        for threads in [2, 3, 4, 8] {
            assert_eq!(with_threads(threads, || par_sum(&xs)).to_bits(), reference.to_bits());
        }
        let plain: f64 = xs.iter().sum();
        assert!((reference - plain).abs() < 1e-9);
    }

    #[test]
    fn par_sum_small_slices_match_plain_sum_exactly() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        assert_eq!(with_threads(8, || par_sum(&xs)).to_bits(), xs.iter().sum::<f64>().to_bits());
    }
}
