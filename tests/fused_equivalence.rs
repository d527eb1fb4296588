//! Fused/in-place vs. out-of-place equivalence suite.
//!
//! Every fused or `_into` kernel added for the zero-allocation hot path
//! promises *bit-identical* output to the out-of-place composition it
//! replaces — same per-element expression, same rounding order, same
//! thread partitioning. These properties pin that contract down for
//! random shapes, comparing `f64::to_bits` — not an epsilon — and they
//! write every `_into` destination through a stale NaN-filled buffer
//! first, so a kernel that merely *accumulates* instead of overwriting
//! fails loudly.
//!
//! Each property also runs under `GCWC_THREADS ∈ {1, 4}` (via
//! `with_threads`), extending the serial/parallel contract of
//! `parallel_equivalence.rs` to the fused paths.
//!
//! `matmul` and `matmul_dense` allocate and call their `_into` forms,
//! so those two `_into` kernels are compared with plain-loop references
//! instead. The CP-CNN forward kernels in `gcwc_nn::ops` (batched outer
//! product, 2-D convolution, 2-D max pooling) are serial; they are
//! compared with the plain one-output-at-a-time loops they replaced,
//! kept below as the reference, on inputs that include NaN, ±0, ±1e300
//! and −∞.

use gcwc_graph::{ChebyshevBasis, PolyBasis, RandomWalkBasis};
use gcwc_linalg::parallel::with_threads;
use gcwc_linalg::{BufferPool, CsrMatrix, Matrix};
use gcwc_nn::{ops, ConvSpec, PoolSpec};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Asserts bitwise equality of two matrices.
fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape(), "{} shape", what);
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} diverged: {} vs {}", what, x, y);
    }
    Ok(())
}

/// A stale destination buffer: NaN everywhere, so any element the
/// kernel fails to overwrite poisons the comparison.
fn stale(rows: usize, cols: usize) -> Matrix {
    Matrix::filled(rows, cols, f64::NAN)
}

/// Strategy: a random dense matrix with the given shape.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Deterministically zeroes ~half the entries and converts to CSR, so
/// empty rows and short rows both occur.
fn sparsify(m: &Matrix, keep: f64) -> CsrMatrix {
    let mut s = m.clone();
    for i in 0..s.rows() {
        for j in 0..s.cols() {
            if ((i * 31 + j * 17) % 97) as f64 / 97.0 > keep {
                s[(i, j)] = 0.0;
            }
        }
    }
    CsrMatrix::from_dense(&s)
}

/// Strategy: square sparse matrix + conforming dense operands
/// `(A : n×n, x : n×c, y : n×c)`.
fn sparse_triple() -> impl Strategy<Value = (CsrMatrix, Matrix, Matrix)> {
    (1usize..24, 1usize..40, 0.2f64..0.9).prop_flat_map(|(n, c, keep)| {
        (matrix(n, n), matrix(n, c), matrix(n, c))
            .prop_map(move |(a, x, y)| (sparsify(&a, keep), x, y))
    })
}

/// Reference `a · b`: each output row accumulated from zero in `k`
/// order, skipping `a`'s zero entries, like the naive kernel.
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

/// Reference sparse × dense: each output row accumulated from zero in
/// CSR entry order.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul_into` through a stale buffer matches the plain loop.
    #[test]
    fn matmul_into_matches_out_of_place(
        (a, b) in (1usize..24, 1usize..24, 1usize..24)
            .prop_flat_map(|(r, k, c)| (matrix(r, k), matrix(k, c))),
    ) {
        let legacy = ref_matmul(&a, &b);
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let mut out = stale(a.rows(), b.cols());
                a.matmul_into(&b, &mut out);
                assert_bits_eq(&out, &legacy, "matmul_into")
            })?;
        }
    }

    /// Fused transposed products `A·Bᵀ` and `Aᵀ·B` through stale
    /// buffers match transpose-then-multiply, including exact-zero
    /// entries (both kernels skip the same terms the plain kernel
    /// skips).
    #[test]
    fn matmul_nt_tn_match_transpose_composition(
        (a, b, d) in (1usize..24, 1usize..24, 1usize..24)
            .prop_flat_map(|(r, k, c)| (matrix(r, k), matrix(c, k), matrix(r, c))),
        zero_every in 2usize..7,
    ) {
        // Plant exact zeros so the skip paths are exercised.
        let a = Matrix::from_fn(a.rows(), a.cols(), |i, j| {
            if (i + j) % zero_every == 0 { 0.0 } else { a[(i, j)] }
        });
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let legacy = a.matmul(&b.transpose());
                let mut out = stale(a.rows(), b.rows());
                a.matmul_nt_into(&b, &mut out);
                assert_bits_eq(&out, &legacy, "matmul_nt_into")?;

                let legacy = a.transpose().matmul(&d);
                let mut out = stale(a.cols(), d.cols());
                a.matmul_tn_into(&d, &mut out);
                assert_bits_eq(&out, &legacy, "matmul_tn_into")
            })?;
        }
    }

    /// `map_into` and `zip_into` through stale buffers match `map` and
    /// the element-wise composition.
    #[test]
    fn map_and_zip_into_match_out_of_place(
        (a, b) in (1usize..24, 1usize..24).prop_flat_map(|(r, c)| (matrix(r, c), matrix(r, c))),
    ) {
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let legacy = a.map(|v| v.tanh());
                let mut out = stale(a.rows(), a.cols());
                a.map_into(&mut out, |v| v.tanh());
                assert_bits_eq(&out, &legacy, "map_into")?;

                let legacy = Matrix::from_fn(a.rows(), a.cols(), |i, j| {
                    a[(i, j)] * b[(i, j)] + a[(i, j)]
                });
                let mut out = stale(a.rows(), a.cols());
                a.zip_into(&b, &mut out, |x, y| x * y + x);
                assert_bits_eq(&out, &legacy, "zip_into")
            })?;
        }
    }

    /// `transpose_into`, `copy_from`, `add_assign`, and `scale_assign`
    /// match their out-of-place counterparts.
    #[test]
    fn elementwise_into_match_out_of_place(
        (a, b) in (1usize..24, 1usize..24).prop_flat_map(|(r, c)| (matrix(r, c), matrix(r, c))),
        s in -2.0f64..2.0,
    ) {
        let legacy = a.transpose();
        let mut out = stale(a.cols(), a.rows());
        a.transpose_into(&mut out);
        assert_bits_eq(&out, &legacy, "transpose_into")?;

        let mut out = stale(a.rows(), a.cols());
        out.copy_from(&a);
        assert_bits_eq(&out, &a, "copy_from")?;

        let legacy = &a + &b;
        let mut out = a.clone();
        out.add_assign(&b);
        assert_bits_eq(&out, &legacy, "add_assign")?;

        let legacy = a.scale(s);
        let mut out = a.clone();
        out.scale_assign(s);
        assert_bits_eq(&out, &legacy, "scale_assign")?;
    }

    /// `matmul_dense_into` through a stale buffer matches the plain
    /// loop, including empty CSR rows.
    #[test]
    fn csr_matmul_dense_into_matches_out_of_place((a, x, _) in sparse_triple()) {
        let legacy = ref_csr_matmul(&a, &x);
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let mut out = stale(a.rows(), x.cols());
                a.matmul_dense_into(&x, &mut out);
                assert_bits_eq(&out, &legacy, "matmul_dense_into")
            })?;
        }
    }

    /// Fused `axpby` matches the three-pass composition
    /// `α·(A·x) + β·y`.
    #[test]
    fn axpby_matches_composition(
        (a, x, y) in sparse_triple(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let legacy = &a.matmul_dense(&x).scale(alpha) + &y.scale(beta);
                let mut out = y.clone();
                a.axpby(alpha, &x, beta, &mut out);
                assert_bits_eq(&out, &legacy, "axpby")
            })?;
        }
    }

    /// Fused `cheb_step_into` through a stale buffer matches the
    /// three-pass composition `2·(A·x) − prev`.
    #[test]
    fn cheb_step_into_matches_composition((a, x, prev) in sparse_triple()) {
        for t in THREAD_COUNTS {
            with_threads(t, || {
                let legacy = &a.matmul_dense(&x).scale(2.0) - &prev;
                let mut out = stale(a.rows(), x.cols());
                a.cheb_step_into(&x, &prev, &mut out);
                assert_bits_eq(&out, &legacy, "cheb_step_into")
            })?;
        }
    }

    /// Fused `clenshaw_step` matches the composition
    /// `(b + s·(A·x)) − c2` for both scales the adjoint uses.
    #[test]
    fn clenshaw_step_matches_composition(
        (a, x, b) in sparse_triple(),
        c2 in (1usize..24, 1usize..40).prop_flat_map(|(r, c)| matrix(r, c)),
    ) {
        // Reshape c2 to match (proptest draws it independently).
        let c2 = Matrix::from_fn(a.rows(), x.cols(), |i, j| {
            c2[(i % c2.rows(), j % c2.cols())]
        });
        for s in [1.0, 2.0] {
            for t in THREAD_COUNTS {
                with_threads(t, || {
                    let legacy = &(&b + &a.matmul_dense(&x).scale(s)) - &c2;
                    let mut out = c2.clone();
                    a.clenshaw_step(&b, &x, s, &mut out);
                    assert_bits_eq(&out, &legacy, "clenshaw_step")
                })?;
            }
        }
    }

    /// Pooled Chebyshev forward (fused recurrence into pooled stale
    /// buffers) matches the tap-by-tap out-of-place recurrence.
    #[test]
    fn cheb_forward_pooled_matches_composition(
        (a, x, _) in sparse_triple(),
        k in 1usize..6,
    ) {
        let basis = ChebyshevBasis::from_adjacency(&a, k);
        let lt = basis.scaled_laplacian().clone();
        for t in THREAD_COUNTS {
            with_threads(t, || {
                // Out-of-place recurrence: T₀x = x, T₁x = L̃x,
                // T_k x = 2·L̃·T_{k−1}x − T_{k−2}x.
                let mut legacy: Vec<Matrix> = vec![x.clone()];
                if k >= 2 {
                    legacy.push(lt.matmul_dense(&x));
                }
                for i in 2..k {
                    let next = &lt.matmul_dense(&legacy[i - 1]).scale(2.0) - &legacy[i - 2];
                    legacy.push(next);
                }

                // Pooled path twice through the same pool, so the second
                // round reuses stale parked buffers.
                let mut pool = BufferPool::new();
                for round in 0..2 {
                    let mut taps = Vec::new();
                    basis.forward_pooled(&x, &mut pool, &mut taps);
                    prop_assert_eq!(taps.len(), k, "tap count");
                    for (i, (tap, want)) in taps.iter().zip(&legacy).enumerate() {
                        assert_bits_eq(tap, want, &format!("cheb tap {i} round {round}"))?;
                    }
                    for m in taps {
                        pool.give(m);
                    }
                }
                Ok(())
            })?;
        }
    }

    /// Pooled Chebyshev adjoint (fused Clenshaw) matches the
    /// out-of-place Clenshaw composition.
    #[test]
    fn cheb_adjoint_pooled_matches_composition(
        (a, x, _) in sparse_triple(),
        k in 1usize..6,
    ) {
        let basis = ChebyshevBasis::from_adjacency(&a, k);
        let lt = basis.scaled_laplacian().clone();
        // Cotangents: reuse x reshaped per tap with distinct values.
        let b: Vec<Matrix> = (0..k)
            .map(|i| x.map(|v| v + i as f64 * 0.125))
            .collect();
        for t in THREAD_COUNTS {
            with_threads(t, || {
                // Out-of-place Clenshaw mirror of adjoint_combine_pooled:
                // c_k = b_k + 2·L̃·c_{k+1} − c_{k+2}; result with s = 1.
                let legacy = if k == 1 {
                    b[0].clone()
                } else {
                    let (n, c) = b[0].shape();
                    let mut c_next = Matrix::zeros(n, c);
                    let mut c_next2 = Matrix::zeros(n, c);
                    for i in (1..k).rev() {
                        let new = &(&b[i] + &lt.matmul_dense(&c_next).scale(2.0)) - &c_next2;
                        c_next2 = std::mem::replace(&mut c_next, new);
                    }
                    &(&b[0] + &lt.matmul_dense(&c_next).scale(1.0)) - &c_next2
                };

                let mut pool = BufferPool::new();
                for round in 0..2 {
                    let out = basis.adjoint_combine_pooled(&b, &mut pool);
                    assert_bits_eq(&out, &legacy, &format!("cheb adjoint round {round}"))?;
                    assert_bits_eq(&basis.adjoint_combine(&b), &legacy, "cheb adjoint legacy")?;
                    pool.give(out);
                }
                Ok(())
            })?;
        }
    }

    /// Pooled random-walk forward/adjoint match the power-by-power
    /// out-of-place composition.
    #[test]
    fn random_walk_pooled_matches_composition(
        (a, x, _) in sparse_triple(),
        k in 1usize..6,
    ) {
        let basis = RandomWalkBasis::from_adjacency(&a, k);
        let p = basis.walk_matrix().clone();
        let pt = p.transpose();
        let b: Vec<Matrix> = (0..k)
            .map(|i| x.map(|v| v - i as f64 * 0.25))
            .collect();
        for t in THREAD_COUNTS {
            with_threads(t, || {
                // Forward: P⁰x … P^{K−1}x.
                let mut legacy: Vec<Matrix> = vec![x.clone()];
                for i in 1..k {
                    legacy.push(p.matmul_dense(&legacy[i - 1]));
                }
                let mut pool = BufferPool::new();
                let mut taps = Vec::new();
                basis.forward_pooled(&x, &mut pool, &mut taps);
                prop_assert_eq!(taps.len(), k, "tap count");
                for (i, (tap, want)) in taps.iter().zip(&legacy).enumerate() {
                    assert_bits_eq(tap, want, &format!("walk tap {i}"))?;
                }
                for m in taps {
                    pool.give(m);
                }

                // Adjoint Horner: s = b_{K−1}; s = Pᵀs + b_k.
                let mut want = b[k - 1].clone();
                for i in (0..k - 1).rev() {
                    want = &pt.matmul_dense(&want) + &b[i];
                }
                let out = basis.adjoint_combine_pooled(&b, &mut pool);
                assert_bits_eq(&out, &want, "walk adjoint")?;
                Ok(())
            })?;
        }
    }
}

// ----- CP-CNN forward kernels ----------------------------------------------

/// Reference batched outer product: one output element per step.
fn reference_batch_outer_into(col: &Matrix, rows: &Matrix, out: &mut Matrix) {
    assert_eq!(col.cols(), 1, "first operand must be a column vector");
    let (beta, n, m) = (col.rows(), rows.rows(), rows.cols());
    debug_assert_eq!(out.shape(), (n, beta * m), "output shape mismatch");
    for b in 0..n {
        for k in 0..beta {
            for j in 0..m {
                out[(b, k * m + j)] = col[(k, 0)] * rows[(b, j)];
            }
        }
    }
}

/// Reference `same`-padded convolution: one output at a time, every tap
/// tested against the map bounds.
fn reference_conv2d_forward_into(
    x: &Matrix,
    kernel: &Matrix,
    bias: &Matrix,
    spec: &ConvSpec,
    out: &mut Matrix,
) {
    let ConvSpec { batch, in_ch, out_ch, h, w, kh, kw } = *spec;
    assert_eq!(x.rows(), batch * in_ch, "conv input row mismatch");
    assert_eq!(x.cols(), h * w, "conv input col mismatch");
    assert_eq!(kernel.shape(), (out_ch, in_ch * kh * kw), "kernel shape mismatch");
    assert_eq!(bias.shape(), (1, out_ch), "bias shape mismatch");
    assert_eq!(out.shape(), (batch * out_ch, h * w), "conv output shape mismatch");
    let (ph0, pw0) = ((kh - 1) / 2, (kw - 1) / 2);
    for b in 0..batch {
        for oc in 0..out_ch {
            let orow = b * out_ch + oc;
            for i in 0..h {
                for j in 0..w {
                    let mut acc = bias[(0, oc)];
                    for ic in 0..in_ch {
                        let xrow = b * in_ch + ic;
                        for di in 0..kh {
                            let si = i as isize + di as isize - ph0 as isize;
                            if si < 0 || si >= h as isize {
                                continue;
                            }
                            for dj in 0..kw {
                                let sj = j as isize + dj as isize - pw0 as isize;
                                if sj < 0 || sj >= w as isize {
                                    continue;
                                }
                                let kcol = ic * kh * kw + di * kw + dj;
                                acc +=
                                    kernel[(oc, kcol)] * x[(xrow, si as usize * w + sj as usize)];
                            }
                        }
                    }
                    out[(orow, i * w + j)] = acc;
                }
            }
        }
    }
}

/// Reference max pooling: one window at a time through 2-D indexing.
fn reference_maxpool2d_forward_into(
    x: &Matrix,
    spec: &PoolSpec,
    out: &mut Matrix,
    argmax: &mut [usize],
) {
    let PoolSpec { batch, ch, h, w, ph, pw } = *spec;
    assert_eq!(x.rows(), batch * ch, "pool input row mismatch");
    assert_eq!(x.cols(), h * w, "pool input col mismatch");
    let (ho, wo) = (spec.out_h(), spec.out_w());
    assert_eq!(out.shape(), (batch * ch, ho * wo), "pool output shape mismatch");
    assert_eq!(argmax.len(), batch * ch * ho * wo, "argmax length mismatch");
    for r in 0..batch * ch {
        for oi in 0..ho {
            for oj in 0..wo {
                let mut best = f64::NEG_INFINITY;
                let mut best_idx = 0usize;
                for di in 0..ph {
                    for dj in 0..pw {
                        let idx = (oi * ph + di) * w + (oj * pw + dj);
                        if x[(r, idx)] > best {
                            best = x[(r, idx)];
                            best_idx = idx;
                        }
                    }
                }
                out[(r, oi * wo + oj)] = best;
                argmax[r * ho * wo + oi * wo + oj] = best_idx;
            }
        }
    }
}

/// Like [`assert_bits_eq`], except that a NaN matches any NaN. An
/// addition that meets two NaNs returns one of them, and which one
/// depends on the operand order the code generator picks (Rust leaves the
/// sign and payload of a NaN result unspecified): an optimised build that
/// folds an in-memory accumulator into the add can return the product's
/// `−NaN` (from `∞·0` or `∞ − ∞`) where the register accumulator returns
/// the input's `+NaN`. Every non-NaN output must still match bit for bit.
fn assert_bits_eq_nan_as_nan(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape(), "{} shape", what);
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{} diverged: {:#x} vs {:#x}",
            what,
            x.to_bits(),
            y.to_bits()
        );
    }
    Ok(())
}

/// Strategy: an entry that is often special — NaN, ±0, ±1e300, −∞ — or a
/// small integer (so pooling windows hold ties), otherwise uniform.
fn edge_value() -> impl Strategy<Value = f64> {
    (0usize..16, -2.0f64..2.0).prop_map(|(pick, v)| match pick {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => 1e300,
        4 => -1e300,
        5 => f64::NEG_INFINITY,
        6..=8 => v.round(),
        _ => v,
    })
}

/// Strategy: a `rows × cols` matrix of [`edge_value`] entries.
fn edge_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(edge_value(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a convolution spec with kernels up to 4×4 (odd and even, so
/// both leading and trailing padding occur) over maps up to 7×9, with
/// conforming `(x, kernel, bias)`.
fn conv_case() -> impl Strategy<Value = (ConvSpec, Matrix, Matrix, Matrix)> {
    ((1usize..4, 1usize..5, 1usize..6), (1usize..8, 1usize..10), (1usize..5, 1usize..5))
        .prop_flat_map(|((batch, in_ch, out_ch), (h, w), (kh, kw))| {
            let spec = ConvSpec { batch, in_ch, out_ch, h, w, kh, kw };
            (
                edge_matrix(batch * in_ch, h * w),
                edge_matrix(out_ch, in_ch * kh * kw),
                edge_matrix(1, out_ch),
            )
                .prop_map(move |(x, kernel, bias)| (spec, x, kernel, bias))
        })
}

/// Strategy: a pooling spec whose window need not divide the map, with a
/// conforming input.
fn pool_case() -> impl Strategy<Value = (PoolSpec, Matrix)> {
    (1usize..4, 1usize..5, 1usize..8, 1usize..10)
        .prop_flat_map(|(batch, ch, h, w)| {
            (1..h + 1, 1..w + 1).prop_map(move |(ph, pw)| PoolSpec { batch, ch, h, w, ph, pw })
        })
        .prop_flat_map(|spec| {
            edge_matrix(spec.batch * spec.ch, spec.h * spec.w).prop_map(move |x| (spec, x))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `conv2d_forward_into` through a stale buffer matches the
    /// reference loops bit for bit (NaN for NaN, see
    /// [`assert_bits_eq_nan_as_nan`]).
    #[test]
    fn conv2d_forward_matches_reference((spec, x, kernel, bias) in conv_case()) {
        let (rows, cols) = (spec.batch * spec.out_ch, spec.h * spec.w);
        let mut want = stale(rows, cols);
        reference_conv2d_forward_into(&x, &kernel, &bias, &spec, &mut want);
        let mut out = stale(rows, cols);
        ops::conv2d_forward_into(&x, &kernel, &bias, &spec, &mut out);
        assert_bits_eq_nan_as_nan(&out, &want, "conv2d_forward_into")?;
    }

    /// `maxpool2d_forward_into` through stale buffers matches the
    /// reference loops: same maxima bits and same argmax, so the strict
    /// `>` tie rule and the NaN and −∞ handling are pinned.
    #[test]
    fn maxpool2d_forward_matches_reference((spec, x) in pool_case()) {
        let (rows, cols) = (spec.batch * spec.ch, spec.out_h() * spec.out_w());
        let mut want = stale(rows, cols);
        let mut want_arg = vec![usize::MAX; rows * cols];
        reference_maxpool2d_forward_into(&x, &spec, &mut want, &mut want_arg);
        let mut out = stale(rows, cols);
        let mut arg = vec![usize::MAX; rows * cols];
        ops::maxpool2d_forward_into(&x, &spec, &mut out, &mut arg);
        assert_bits_eq(&out, &want, "maxpool2d_forward_into")?;
        prop_assert_eq!(arg, want_arg, "argmax");
    }

    /// `batch_outer_into` through a stale buffer matches the reference
    /// loops bit for bit.
    #[test]
    fn batch_outer_matches_reference(
        (col, rows) in (1usize..6, 1usize..8, 1usize..10)
            .prop_flat_map(|(beta, n, m)| (edge_matrix(beta, 1), edge_matrix(n, m))),
    ) {
        let shape = (rows.rows(), col.rows() * rows.cols());
        let mut want = stale(shape.0, shape.1);
        reference_batch_outer_into(&col, &rows, &mut want);
        let mut out = stale(shape.0, shape.1);
        ops::batch_outer_into(&col, &rows, &mut out);
        assert_bits_eq(&out, &want, "batch_outer_into")?;
    }
}
