//! Property-test net for the tiled kernels' contract: whichever loop a
//! product's size picks, every public kernel must be `to_bits`-identical
//! to a hand-written reference loop in this file with the naive
//! kernel's exact accumulation order (ascending `k` from `0.0`,
//! skipping `a == 0.0` terms), at every thread count.
//!
//! The dense shapes sit on both sides of `TILED_MIN_WORK`, so each case
//! runs both the naive and the tiled loop. Above the threshold they
//! include 1-, 2- and 3-row products and column counts that are not a
//! multiple of the 8-wide tile. Every shape runs at 1 and 4 threads.

use gcwc_linalg::parallel::with_threads;
use gcwc_linalg::tile::TILED_MIN_WORK;
use gcwc_linalg::{CsrMatrix, Matrix};
use proptest::prelude::*;

/// `(rows, inner, cols)` of the dense products: below the threshold,
/// then at or above it.
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 9, 1),
    (7, 9, 7),
    (13, 7, 17),
    (2, 128, 127),
    (2, 128, 128),
    (1, 200, 171),
    (3, 100, 111),
    (4, 64, 130),
    (96, 9, 96),
    (171, 9, 171),
    (301, 9, 301),
    (33, 40, 29),
];
/// Node counts of the CSR cases.
const SIZES: [usize; 5] = [1, 7, 96, 171, 301];
const THREADS: [usize; 2] = [1, 4];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic matrix with sign changes and ~1/7 exact zeros so the
/// kernels' zero-skip path is exercised.
fn gen(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        let h = splitmix(&mut state);
        if h.is_multiple_of(7) {
            0.0
        } else {
            ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.0005) * 3.7
        }
    })
}

/// Banded sparse n×n matrix with irregular per-row nnz (0–3 entries).
fn gen_csr(n: usize, seed: u64) -> CsrMatrix {
    let mut state = seed;
    let mut triplets = Vec::new();
    for i in 0..n {
        for d in 0..(i % 4) {
            let col = (i + d * 5) % n;
            let h = splitmix(&mut state);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.1;
            if v != 0.0 {
                triplets.push((i, col, v));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, triplets)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Reference `a · b` with the naive kernel's accumulation order.
fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Reference `a · bᵀ` with the naive kernel's accumulation order.
fn ref_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                let av = a[(i, k)];
                if av == 0.0 {
                    continue;
                }
                acc += av * b[(j, k)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Reference `aᵀ · b` with the naive kernel's accumulation order.
fn ref_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        for i in 0..a.cols() {
            let av = a[(k, i)];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Reference sparse × dense in CSR entry order.
fn ref_csr_matmul(m: &CsrMatrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), rhs.cols());
    for i in 0..m.rows() {
        for (c, v) in m.row_entries(i) {
            for j in 0..rhs.cols() {
                out[(i, j)] += v * rhs[(c, j)];
            }
        }
    }
    out
}

#[test]
fn shapes_straddle_the_threshold() {
    let below = SHAPES.iter().filter(|&&(m, k, n)| m * k * n < TILED_MIN_WORK).count();
    assert!(below > 0 && below < SHAPES.len());
    assert!(SHAPES.contains(&(2, 128, 128)) && 2 * 128 * 128 == TILED_MIN_WORK);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn matmul_matches_reference(seed in 0u64..u64::MAX) {
        for (m, k, n) in SHAPES {
            let a = gen(m, k, seed);
            let b = gen(k, n, seed ^ 1);
            let reference = bits(&ref_matmul(&a, &b));
            for threads in THREADS {
                with_threads(threads, || {
                    prop_assert_eq!(bits(&a.matmul(&b)), reference.clone(), "{}x{}x{}", m, k, n);
                    let mut out = Matrix::filled(m, n, f64::NAN); // stale buffer
                    a.matmul_into(&b, &mut out);
                    prop_assert_eq!(bits(&out), reference.clone(), "into {}x{}x{}", m, k, n);
                    Ok(())
                })?;
            }
        }
    }

    #[test]
    fn matmul_nt_into_matches_reference(seed in 0u64..u64::MAX) {
        for (m, k, n) in SHAPES {
            let a = gen(m, k, seed);
            let c = gen(n, k, seed ^ 2);
            let reference = bits(&ref_matmul_nt(&a, &c));
            for threads in THREADS {
                let mut out = Matrix::filled(m, n, f64::NAN);
                with_threads(threads, || a.matmul_nt_into(&c, &mut out));
                prop_assert_eq!(bits(&out), reference.clone(), "{}x{}x{}", m, k, n);
            }
        }
    }

    #[test]
    fn matmul_tn_into_matches_reference(seed in 0u64..u64::MAX) {
        for (m, k, n) in SHAPES {
            // aᵀ·b with `a` of k × m, so the output has m rows.
            let a = gen(k, m, seed ^ 3);
            let b = gen(k, n, seed ^ 4);
            let reference = bits(&ref_matmul_tn(&a, &b));
            for threads in THREADS {
                let mut out = Matrix::filled(m, n, f64::NAN);
                with_threads(threads, || a.matmul_tn_into(&b, &mut out));
                prop_assert_eq!(bits(&out), reference.clone(), "{}x{}x{}", m, k, n);
            }
        }
    }

    #[test]
    fn csr_kernels_match_reference(seed in 0u64..u64::MAX) {
        for n in SIZES {
            let m = gen_csr(n, seed ^ 5);
            let rhs = gen(n, 8, seed ^ 6);
            let prev = gen(n, 8, seed ^ 7);
            let product = ref_csr_matmul(&m, &rhs);
            let reference = bits(&product);
            // The fused Chebyshev step is `2·(A·x) − prev`, elementwise.
            let step = bits(&Matrix::from_fn(n, 8, |i, j| product[(i, j)] * 2.0 - prev[(i, j)]));
            for threads in THREADS {
                let mut out = Matrix::filled(n, 8, f64::NAN);
                with_threads(threads, || m.matmul_dense_into(&rhs, &mut out));
                prop_assert_eq!(bits(&out), reference.clone(), "matmul_dense_into, n={}", n);
                with_threads(threads, || m.cheb_step_into(&rhs, &prev, &mut out));
                prop_assert_eq!(bits(&out), step.clone(), "cheb_step_into, n={}", n);
            }
        }
    }
}
