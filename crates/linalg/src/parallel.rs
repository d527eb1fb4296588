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
//! Thread-count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests and by training workers to disable nested parallelism),
//! 2. the process-global count, set explicitly via
//!    [`set_global_threads`] or lazily from the `GCWC_THREADS`
//!    environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! `GCWC_THREADS=1` (or `with_threads(1, ..)`) runs the exact serial
//! path with zero thread spawns.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// pin themselves to one thread with [`with_threads`].
pub const MIN_PARALLEL_WORK: usize = 1 << 15;

/// Fixed block length for deterministic reductions. The block
/// partition — and therefore the rounding of the blockwise sum — never
/// depends on the thread count.
pub const REDUCE_BLOCK: usize = 4096;

/// A resolved thread count (always ≥ 1).
///
/// `Threads::auto()` follows the override → global → `GCWC_THREADS` →
/// `available_parallelism` chain; `Threads::fixed(n)` pins a count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// The ambient thread count (see module docs for resolution order).
    pub fn auto() -> Self {
        Threads(current_threads())
    }

    /// A pinned thread count (`0` is treated as "auto").
    pub fn fixed(n: usize) -> Self {
        if n == 0 {
            Self::auto()
        } else {
            Threads(n)
        }
    }

    /// The resolved count, ≥ 1.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}

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

/// Splits `out` (a row-major buffer of `row_len`-element rows) into at
/// most `threads` contiguous row chunks and runs
/// `body(first_row, chunk)` on each, one chunk per thread (the first
/// chunk runs on the calling thread).
///
/// `body` must compute each row identically to the serial path; since
/// chunk boundaries fall only *between* rows, the result is then
/// bit-identical for every thread count.
pub fn par_rows<F>(out: &mut [f64], row_len: usize, threads: usize, body: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    debug_assert_eq!(rows * row_len, out.len(), "buffer is not a whole number of rows");
    let threads = threads.clamp(1, rows.max(1));
    if threads == 1 {
        body(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let body = &body;
        let mut rest = out;
        let mut first_row = 0usize;
        let mut own: Option<(usize, &mut [f64])> = None;
        for t in 0..threads {
            let n_rows = rows / threads + usize::from(t < rows % threads);
            let (chunk, tail) = rest.split_at_mut(n_rows * row_len);
            rest = tail;
            let start = first_row;
            first_row += n_rows;
            if t == 0 {
                own = Some((start, chunk));
            } else {
                scope.spawn(move || body(start, chunk));
            }
        }
        let (start, chunk) = own.expect("threads >= 2 implies a first chunk");
        body(start, chunk);
    });
}

/// Deterministic elementwise map: `dst[i] = f(src[i])`.
///
/// Parallelised over fixed-position chunks when the slice is large
/// enough; bitwise equal to the serial map at any thread count.
pub fn par_map(src: &[f64], dst: &mut [f64], threads: usize, f: impl Fn(f64) -> f64 + Sync) {
    assert_eq!(src.len(), dst.len(), "par_map length mismatch");
    let threads = if src.len() < MIN_PARALLEL_WORK { 1 } else { threads };
    par_rows(dst, 1, threads, |start, chunk| {
        for (k, d) in chunk.iter_mut().enumerate() {
            *d = f(src[start + k]);
        }
    });
}

/// Deterministic elementwise zip: `dst[i] = f(a[i], b[i])`.
pub fn par_zip(
    a: &[f64],
    b: &[f64],
    dst: &mut [f64],
    threads: usize,
    f: impl Fn(f64, f64) -> f64 + Sync,
) {
    assert_eq!(a.len(), b.len(), "par_zip length mismatch");
    assert_eq!(a.len(), dst.len(), "par_zip length mismatch");
    let threads = if a.len() < MIN_PARALLEL_WORK { 1 } else { threads };
    par_rows(dst, 1, threads, |start, chunk| {
        for (k, d) in chunk.iter_mut().enumerate() {
            *d = f(a[start + k], b[start + k]);
        }
    });
}

/// Deterministic blockwise reduction: `Σ f(x)` over fixed
/// [`REDUCE_BLOCK`]-element blocks, block partials combined in block
/// order. The float rounding depends only on the (fixed) block
/// partition, never on the thread count.
pub fn par_sum_map(xs: &[f64], threads: usize, f: impl Fn(f64) -> f64 + Sync) -> f64 {
    if xs.len() <= REDUCE_BLOCK {
        return xs.iter().map(|&x| f(x)).sum();
    }
    let n_blocks = xs.len().div_ceil(REDUCE_BLOCK);
    let mut partials = vec![0.0f64; n_blocks];
    let threads = if xs.len() < MIN_PARALLEL_WORK { 1 } else { threads };
    par_rows(&mut partials, 1, threads, |start, chunk| {
        for (k, p) in chunk.iter_mut().enumerate() {
            let lo = (start + k) * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(xs.len());
            *p = xs[lo..hi].iter().map(|&x| f(x)).sum();
        }
    });
    partials.iter().sum()
}

/// Deterministic blockwise sum of a slice (see [`par_sum_map`]).
pub fn par_sum(xs: &[f64], threads: usize) -> f64 {
    par_sum_map(xs, threads, |x| x)
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

    #[test]
    fn threads_fixed_zero_is_auto() {
        with_threads(4, || {
            assert_eq!(Threads::fixed(0).get(), 4);
            assert_eq!(Threads::fixed(2).get(), 2);
            assert_eq!(Threads::auto().get(), 4);
        });
    }

    #[test]
    fn par_rows_covers_every_row_once() {
        for threads in [1, 2, 3, 4, 7, 64] {
            let rows = 13;
            let row_len = 3;
            let mut out = vec![0.0; rows * row_len];
            par_rows(&mut out, row_len, threads, |start, chunk| {
                for r in 0..chunk.len() / row_len {
                    for c in 0..row_len {
                        chunk[r * row_len + c] += ((start + r) * row_len + c) as f64;
                    }
                }
            });
            let expect: Vec<f64> = (0..rows * row_len).map(|i| i as f64).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        par_rows(&mut empty, 0, 4, |_, chunk| assert!(chunk.is_empty()));
        par_rows(&mut empty, 5, 4, |_, chunk| assert!(chunk.is_empty()));
        let mut one = vec![0.0];
        par_rows(&mut one, 1, 8, |start, chunk| {
            assert_eq!(start, 0);
            chunk[0] = 9.0;
        });
        assert_eq!(one, vec![9.0]);
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
            par_map(&a, &mut dst, threads, |x| x.exp().ln_1p());
            assert_eq!(dst, serial_map, "map, threads = {threads}");
            par_zip(&a, &b, &mut dst, threads, |x, y| x * y + y);
            assert_eq!(dst, serial_zip, "zip, threads = {threads}");
        }
    }

    #[test]
    fn par_sum_is_thread_count_invariant() {
        let n = 3 * REDUCE_BLOCK + 17;
        let xs: Vec<f64> =
            (0..n).map(|i| ((i * 2_654_435_761) % 1_000) as f64 * 1e-3 - 0.4).collect();
        let reference = par_sum(&xs, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(par_sum(&xs, threads).to_bits(), reference.to_bits());
        }
        let plain: f64 = xs.iter().sum();
        assert!((reference - plain).abs() < 1e-9);
    }

    #[test]
    fn par_sum_small_slices_match_plain_sum_exactly() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        assert_eq!(par_sum(&xs, 8).to_bits(), xs.iter().sum::<f64>().to_bits());
    }
}
