//! Cache-blocked (tiled) dense kernels and the rule that picks them.
//!
//! The scale sweep runs the CI network enlarged up to ×50 (8 600
//! edges). At that size the naive row-streaming matmul re-reads every
//! `rhs` row once per output row and keeps no operand in registers;
//! the tiled kernels here block the *output* into 4×8 register tiles
//! so each loaded `rhs` value is reused across 4 output rows and each
//! accumulator lives in a register for the whole `k` sweep.
//!
//! ## The bit-identity contract
//!
//! Every kernel in this workspace is `to_bits`-identical across thread
//! counts (see [`crate::parallel`]), and the tiled loops keep it: tiles
//! reorder only the `i`/`j` loops, **never** the `k`-accumulation order. Each output element is still
//! accumulated from `0.0` in ascending-`k` order, and the per-term
//! `a == 0.0` skip of the naive kernels is preserved verbatim (skipping
//! a term is *not* the same as adding `0.0 · b` when `b` is `inf`/`NaN`
//! or the accumulator is `-0.0`). Consequently naive and tiled results
//! are bit-identical for every input, and the choice between them is a
//! pure performance decision — `crates/linalg/tests/tiled_equivalence.rs`
//! is the contract's property-test net.
//!
//! ## Which loop runs
//!
//! One rule, from the product's size alone: a dense product with at
//! least [`TILED_MIN_WORK`] multiply-adds (`rows · k · cols`) runs
//! tiled and a smaller one runs naive. Both loops stay because each is
//! the faster one on some products: tiling pays on large products and
//! costs on small ones. The rule is not the best choice for every
//! shape — an `aᵀ · b` with a short inner dimension crosses the
//! threshold yet runs faster naive (DESIGN.md §15 has timings).

use crate::matrix::Matrix;

/// Which loop a dense product runs (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KernelTier {
    /// The straightforward row-streaming loops.
    Naive,
    /// Cache-blocked 4×8 register-tile kernels (same `k` order,
    /// bit-identical to [`KernelTier::Naive`]).
    Tiled,
}

/// Output-tile height: each tile accumulates 4 output rows at once.
pub const TILE_MR: usize = 4;
/// Output-tile width: each tile accumulates 8 output columns at once,
/// two f64×4 vector registers per row.
pub const TILE_NR: usize = 8;

/// A dense product runs tiled once it has at least this many
/// multiply-adds (`rows · k · cols`); below it the blocking
/// bookkeeping costs more than the reuse saves.
pub const TILED_MIN_WORK: usize = 1 << 15;

/// The loop a product with `work` multiply-adds runs.
pub(crate) fn resolve(work: usize) -> KernelTier {
    if work >= TILED_MIN_WORK {
        KernelTier::Tiled
    } else {
        KernelTier::Naive
    }
}

/// Instantiates a tiled chunk kernel twice — once for the baseline
/// target and once compiled with AVX2 enabled (runtime-detected) — and
/// defines the dispatching wrapper. The AVX2 copy is the *same scalar
/// Rust body*; the feature only widens the compiler's autovectorization
/// of the independent per-column lanes, so the operation order (and
/// therefore every bit of the result) is unchanged. Rust never
/// contracts `mul + add` into FMA, so enabling the feature cannot
/// change rounding either.
macro_rules! simd_dispatch {
    ($(#[$meta:meta])* $name:ident, $impl_name:ident, $avx_name:ident) => {
        $(#[$meta])*
        pub(crate) fn $name(a: &Matrix, b: &Matrix, start: usize, chunk: &mut [f64]) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 support was just confirmed at runtime.
                    unsafe {
                        return $avx_name(a, b, start, chunk);
                    }
                }
            }
            $impl_name(a, b, start, chunk)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx_name(a: &Matrix, b: &Matrix, start: usize, chunk: &mut [f64]) {
            $impl_name(a, b, start, chunk)
        }
    };
}

simd_dispatch!(
    /// Tiled body for one [`crate::parallel::par_rows`] chunk of
    /// `out = a · b` (`start` is the chunk's first output row).
    ///
    /// Blocks the chunk into [`TILE_MR`]×[`TILE_NR`] output tiles; each
    /// tile's accumulators start at `0.0` and sweep `k` in ascending
    /// order with the naive kernel's `a == 0.0` skip, so every element
    /// matches the serial loop bit-for-bit.
    matmul_nn_chunk,
    matmul_nn_chunk_impl,
    matmul_nn_chunk_avx2
);

/// L2-level blocking: row blocks of this many output rows sweep all
/// column panels before the next block starts, so a `rows × TILE_NR`
/// panel of `b` is re-read from cache, not memory, for every micro-tile
/// in the strip. Purely an `i`/`j` iteration reorder — `k` order within
/// each output element is untouched.
const STRIP_ROWS: usize = 128;

#[inline(always)]
fn matmul_nn_chunk_impl(a: &Matrix, b: &Matrix, start: usize, chunk: &mut [f64]) {
    let cols = b.cols();
    if cols == 0 {
        return;
    }
    let rows = chunk.len() / cols;
    let kk = a.cols();
    let mut s0 = 0;
    while s0 < rows {
        let strip = STRIP_ROWS.min(rows - s0);
        let mut j0 = 0;
        while j0 < cols {
            let nr = TILE_NR.min(cols - j0);
            let mut i0 = s0;
            while i0 < s0 + strip {
                let mr = TILE_MR.min(s0 + strip - i0);
                let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                if mr == TILE_MR && nr == TILE_NR {
                    let ar: [&[f64]; TILE_MR] = [
                        a.row(start + i0),
                        a.row(start + i0 + 1),
                        a.row(start + i0 + 2),
                        a.row(start + i0 + 3),
                    ];
                    for k in 0..kk {
                        let bq: &[f64; TILE_NR] =
                            b.row(k)[j0..j0 + TILE_NR].try_into().expect("tile width");
                        for (acc_r, a_row) in acc.iter_mut().zip(ar) {
                            let av = a_row[k];
                            if av == 0.0 {
                                continue;
                            }
                            for (o, &bv) in acc_r.iter_mut().zip(bq) {
                                *o += av * bv;
                            }
                        }
                    }
                } else {
                    for k in 0..kk {
                        let brow = &b.row(k)[j0..j0 + nr];
                        for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                            let av = a.row(start + i0 + r)[k];
                            if av == 0.0 {
                                continue;
                            }
                            for (o, &bv) in acc_r[..nr].iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(mr) {
                    let at = (i0 + r) * cols + j0;
                    chunk[at..at + nr].copy_from_slice(&acc_r[..nr]);
                }
                i0 += mr;
            }
            j0 += nr;
        }
        s0 += strip;
    }
}

simd_dispatch!(
    /// Tiled body for one chunk of `out = a · bᵀ` (`start` is the
    /// chunk's first output row; output columns index rows of `b`).
    ///
    /// Same contract as [`matmul_nn_chunk`]: ascending-`k` accumulation
    /// from `0.0` with the naive `a == 0.0` skip, bit-identical to
    /// [`Matrix::matmul_nt_into`]'s serial element loop.
    matmul_nt_chunk,
    matmul_nt_chunk_impl,
    matmul_nt_chunk_avx2
);

#[inline(always)]
fn matmul_nt_chunk_impl(a: &Matrix, b: &Matrix, start: usize, chunk: &mut [f64]) {
    let cols = b.rows();
    if cols == 0 {
        return;
    }
    let rows = chunk.len() / cols;
    let kk = a.cols();
    let mut i0 = 0;
    while i0 < rows {
        let mr = TILE_MR.min(rows - i0);
        let mut j0 = 0;
        while j0 < cols {
            let nr = TILE_NR.min(cols - j0);
            let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
            if mr == TILE_MR && nr == TILE_NR {
                let ar: [&[f64]; TILE_MR] = [
                    a.row(start + i0),
                    a.row(start + i0 + 1),
                    a.row(start + i0 + 2),
                    a.row(start + i0 + 3),
                ];
                let br: [&[f64]; TILE_NR] = [
                    b.row(j0),
                    b.row(j0 + 1),
                    b.row(j0 + 2),
                    b.row(j0 + 3),
                    b.row(j0 + 4),
                    b.row(j0 + 5),
                    b.row(j0 + 6),
                    b.row(j0 + 7),
                ];
                for k in 0..kk {
                    let bv = [
                        br[0][k], br[1][k], br[2][k], br[3][k], br[4][k], br[5][k], br[6][k],
                        br[7][k],
                    ];
                    for (acc_r, a_row) in acc.iter_mut().zip(ar) {
                        let av = a_row[k];
                        if av == 0.0 {
                            continue;
                        }
                        for (o, &b) in acc_r.iter_mut().zip(&bv) {
                            *o += av * b;
                        }
                    }
                }
            } else {
                for k in 0..kk {
                    for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                        let av = a.row(start + i0 + r)[k];
                        if av == 0.0 {
                            continue;
                        }
                        for (c, o) in acc_r[..nr].iter_mut().enumerate() {
                            *o += av * b.row(j0 + c)[k];
                        }
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate().take(mr) {
                let at = (i0 + r) * cols + j0;
                chunk[at..at + nr].copy_from_slice(&acc_r[..nr]);
            }
            j0 += nr;
        }
        i0 += mr;
    }
}

simd_dispatch!(
    /// Tiled body for one chunk of `out = aᵀ · b` (`start` is the
    /// chunk's first output row, i.e. the first *column* of `a` this
    /// chunk owns; `k` sweeps the rows of `a`/`b`).
    ///
    /// Same contract as [`matmul_nn_chunk`]: ascending-`k` accumulation
    /// from `0.0` with the naive `a == 0.0` skip, bit-identical to
    /// [`Matrix::matmul_tn_into`]'s serial loop.
    matmul_tn_chunk,
    matmul_tn_chunk_impl,
    matmul_tn_chunk_avx2
);

#[inline(always)]
fn matmul_tn_chunk_impl(a: &Matrix, b: &Matrix, start: usize, chunk: &mut [f64]) {
    let cols = b.cols();
    if cols == 0 {
        return;
    }
    let rows = chunk.len() / cols;
    let kk = a.rows();
    let mut s0 = 0;
    while s0 < rows {
        let strip = STRIP_ROWS.min(rows - s0);
        let mut j0 = 0;
        while j0 < cols {
            let nr = TILE_NR.min(cols - j0);
            let mut i0 = s0;
            while i0 < s0 + strip {
                let mr = TILE_MR.min(s0 + strip - i0);
                let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                if mr == TILE_MR && nr == TILE_NR {
                    for k in 0..kk {
                        let a_row = a.row(k);
                        let avs: &[f64; TILE_MR] = a_row[start + i0..start + i0 + TILE_MR]
                            .try_into()
                            .expect("tile height");
                        let bq: &[f64; TILE_NR] =
                            b.row(k)[j0..j0 + TILE_NR].try_into().expect("tile width");
                        for (acc_r, &av) in acc.iter_mut().zip(avs) {
                            if av == 0.0 {
                                continue;
                            }
                            for (o, &bv) in acc_r.iter_mut().zip(bq) {
                                *o += av * bv;
                            }
                        }
                    }
                } else {
                    for k in 0..kk {
                        let a_row = a.row(k);
                        let bq = &b.row(k)[j0..j0 + nr];
                        for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                            let av = a_row[start + i0 + r];
                            if av == 0.0 {
                                continue;
                            }
                            for (o, &bv) in acc_r[..nr].iter_mut().zip(bq) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(mr) {
                    let at = (i0 + r) * cols + j0;
                    chunk[at..at + nr].copy_from_slice(&acc_r[..nr]);
                }
                i0 += mr;
            }
            j0 += nr;
        }
        s0 += strip;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn messy(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Deterministic values with sign changes and exact zeros so the
        // zero-skip path is exercised.
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(j as u64)
                .wrapping_mul(1_442_695_040_888_963_407)
                .wrapping_add(seed);
            if h.is_multiple_of(7) {
                0.0
            } else {
                ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.0005) * 3.7
            }
        })
    }

    /// Runs a chunk `kernel` over an output of `rows × cols` in two
    /// chunks split at `rows / 2`, as `par_rows` hands them to two
    /// threads; the buffer starts as NaN so a missed element shows.
    fn chunked(rows: usize, cols: usize, kernel: impl Fn(usize, &mut [f64])) -> Vec<u64> {
        let mut out = vec![f64::NAN; rows * cols];
        let (head, tail) = out.split_at_mut(rows / 2 * cols);
        kernel(0, head);
        kernel(rows / 2, tail);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn resolve_picks_the_loop_by_work() {
        assert_eq!(resolve(0), KernelTier::Naive);
        assert_eq!(resolve(TILED_MIN_WORK - 1), KernelTier::Naive);
        assert_eq!(resolve(TILED_MIN_WORK), KernelTier::Tiled);
        assert_eq!(resolve(usize::MAX), KernelTier::Tiled);
    }

    #[test]
    fn tiled_matmul_bit_matches_naive_across_shapes() {
        // Sizes straddling the 4×8 tile: exact multiples, ragged tails,
        // and degenerate single rows/columns. All are below
        // TILED_MIN_WORK, so the public kernels run their naive loops.
        for (m, k, n) in
            [(1, 1, 1), (4, 8, 8), (5, 3, 9), (12, 16, 8), (13, 7, 17), (33, 12, 1), (1, 20, 31)]
        {
            assert!(m * k * n < TILED_MIN_WORK);
            let a = messy(m, k, 1);
            let b = messy(k, n, 2);
            let naive = a.matmul(&b);
            let tiled = chunked(m, n, |start, chunk| matmul_nn_chunk(&a, &b, start, chunk));
            assert_eq!(bits(&naive), tiled, "nn {m}x{k}x{n}");

            let c = messy(n, k, 4); // a(m,k) · c(n,k)ᵀ → (m,n)
            let mut naive = Matrix::filled(m, n, f64::NAN);
            a.matmul_nt_into(&c, &mut naive);
            let tiled = chunked(m, n, |start, chunk| matmul_nt_chunk(&a, &c, start, chunk));
            assert_eq!(bits(&naive), tiled, "nt {m}x{k}x{n}");

            let e = messy(m, n, 5); // a(m,k)ᵀ · e(m,n) → (k,n)
            let mut naive = Matrix::filled(k, n, f64::NAN);
            a.matmul_tn_into(&e, &mut naive);
            let tiled = chunked(k, n, |start, chunk| matmul_tn_chunk(&a, &e, start, chunk));
            assert_eq!(bits(&naive), tiled, "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_skip_is_preserved_for_non_finite_operands() {
        // Skipping a zero `a` term must remain a skip in the tiled
        // kernels: adding `0.0 · inf = NaN` would poison the element.
        // Nine rows split into chunks of 4 and 5, so both chunks run
        // full 4×8 tiles as well as ragged ones.
        let mut a = Matrix::zeros(9, 9);
        a[(0, 3)] = 2.0;
        a[(4, 8)] = -1.5;
        a[(8, 1)] = 0.5;
        let poison = |mut m: Matrix| {
            m[(0, 0)] = f64::INFINITY;
            m[(1, 1)] = f64::NAN;
            m[(2, 2)] = f64::NEG_INFINITY;
            m
        };
        let b = poison(messy(9, 10, 9));
        let naive = a.matmul(&b);
        let tiled = chunked(9, 10, |start, chunk| matmul_nn_chunk(&a, &b, start, chunk));
        assert_eq!(bits(&naive), tiled, "nn");
        assert!(naive[(1, 0)] == 0.0, "fully-skipped row stays exactly zero");

        let c = poison(messy(10, 9, 10)); // a · cᵀ
        let mut naive = Matrix::filled(9, 10, f64::NAN);
        a.matmul_nt_into(&c, &mut naive);
        let tiled = chunked(9, 10, |start, chunk| matmul_nt_chunk(&a, &c, start, chunk));
        assert_eq!(bits(&naive), tiled, "nt");

        let e = poison(messy(9, 10, 11)); // aᵀ · e
        let mut naive = Matrix::filled(9, 10, f64::NAN);
        a.matmul_tn_into(&e, &mut naive);
        let tiled = chunked(9, 10, |start, chunk| matmul_tn_chunk(&a, &e, start, chunk));
        assert_eq!(bits(&naive), tiled, "tn");
    }
}
