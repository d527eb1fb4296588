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
//! Thread-count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests, by [`fork_join`]'s parts and by serving's forward),
//! 2. the process-global count, set explicitly via
//!    [`set_global_threads`] or lazily from the `GCWC_THREADS`
//!    environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! `GCWC_THREADS=1` (or `with_threads(1, ..)`) runs the exact serial
//! path with zero thread spawns.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{Scope, ScopedJoinHandle};

/// Process-global resolved thread count; 0 = not yet resolved.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 = no override.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Parallel kernels only engage when a kernel has at least this many
/// f64 operations. A scoped spawn and join costs ≈ 35 µs at p50 and
/// ≈ 40 µs at p90 on an idle 2-vCPU x86-64 host (2,000 samples), more
/// under load, so a split just above this size loses time: callers
/// that run many small kernels, such as serving and training workers,
/// run them on one thread.
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
/// - Two or more: the first part runs on the calling thread and every
///   other part on a scoped thread of its own ([`spawn_pinned`]);
///   inside every part, the caller's included, kernels run on one
///   thread.
///
/// A panic in any part reaches the caller after the other parts have
/// finished, with the caller's thread count restored. Apart from the
/// spawns themselves nothing is allocated, and nothing at all with one
/// part.
pub fn fork_join<P, F>(parts: impl IntoIterator<Item = P>, body: F)
where
    P: Send,
    F: Fn(P) + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return };
    let Some(second) = parts.next() else {
        body(first);
        return;
    };
    std::thread::scope(|scope| {
        let body = &body;
        for part in std::iter::once(second).chain(parts) {
            spawn_pinned(scope, move || body(part));
        }
        with_threads(1, || body(first));
    });
}

/// Spawns `f` on a scoped thread of its own whose kernels run on one
/// thread: how [`fork_join`] places its second and later parts, and
/// how sharded training places each shard.
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
            let log = std::sync::Mutex::new(Vec::new());
            with_threads(5, || {
                fork_join(0..parts, |k| {
                    let here = std::thread::current().id();
                    log.lock().unwrap().push((k, current_threads(), here == caller));
                });
                assert_eq!(current_threads(), 5, "the caller's count is restored");
            });
            let mut log = log.into_inner().unwrap();
            log.sort_unstable();
            log
        };
        assert!(seen(0).is_empty());
        assert_eq!(seen(1), vec![(0, 5, true)], "one part keeps the ambient count");
        assert_eq!(seen(3), vec![(0, 1, true), (1, 1, false), (2, 1, false)]);
    }

    #[test]
    fn fork_join_panics_after_the_other_parts_finish() {
        use std::sync::{Condvar, Mutex};
        let before = current_threads();
        for panicking in [0, 2] {
            // The other parts finish only once the panicking part has
            // started to unwind.
            let unwinding = (Mutex::new(false), Condvar::new());
            let finished = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                with_threads(3, || {
                    fork_join(0..4, |k| {
                        let (flag, cv) = &unwinding;
                        if k == panicking {
                            *flag.lock().unwrap() = true;
                            cv.notify_all();
                            panic!("part {k} fails");
                        }
                        drop(cv.wait_while(flag.lock().unwrap(), |set| !*set).unwrap());
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                })
            });
            assert!(result.is_err(), "part {panicking}'s panic reaches the caller");
            assert_eq!(finished.into_inner(), 3, "the other parts finished first");
            assert_eq!(current_threads(), before, "the caller's count is restored");
        }
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
