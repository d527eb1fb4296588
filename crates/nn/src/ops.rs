//! Shared forward kernels used by both the autodiff [`crate::Tape`] and
//! the tape-free inference path in `gcwc-core`.
//!
//! Both callers must produce **bit-identical** results, so the
//! arithmetic lives here exactly once: the tape's builder methods and
//! the inference engine call the same functions in the same order.
//! Every helper writes into caller-provided buffers (typically drawn
//! from a [`gcwc_linalg::BufferPool`]) and allocates nothing.

use gcwc_linalg::Matrix;

use crate::tape::{ConvSpec, PoolSpec};

/// Row-wise numerically-stabilised softmax, in place.
pub fn softmax_rows_in_place(v: &mut Matrix) {
    for i in 0..v.rows() {
        let row = v.row_mut(i);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for t in row.iter_mut() {
            *t = (*t - max).exp();
            sum += *t;
        }
        for t in row.iter_mut() {
            *t /= sum;
        }
    }
}

/// Row-wise normalisation `y_ij = x_ij / (Σ_j x_ij + eps)`, in place.
pub fn normalize_rows_in_place(v: &mut Matrix, eps: f64) {
    for i in 0..v.rows() {
        let s: f64 = v.row(i).iter().sum::<f64>() + eps;
        for t in v.row_mut(i) {
            *t /= s;
        }
    }
}

/// Adds a `1 × c` bias row to every row of `v` in place.
pub fn add_row_broadcast_assign(v: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), v.cols(), "bias width mismatch");
    for i in 0..v.rows() {
        for (dst, src) in v.row_mut(i).iter_mut().zip(bias.row(0)) {
            *dst += src;
        }
    }
}

/// Accumulates one polynomial-convolution tap: for each group `g`,
/// `out[:, g·c_out..] += tx[:, g·c_in..] · θ` where `θ ∈ R^{c_in×c_out}`
/// is shared across groups. `out` must be zero-initialised before the
/// first tap; calling once per tap in basis order reproduces
/// `Σ_k M_k(graph)·x·θ_k` with the accumulation order fixed.
pub fn poly_conv_accumulate(tx: &Matrix, theta: &Matrix, out: &mut Matrix, groups: usize) {
    let c_in = theta.rows();
    let c_out = theta.cols();
    let n = tx.rows();
    assert_eq!(tx.cols(), groups * c_in, "tap width mismatch");
    assert_eq!(out.shape(), (n, groups * c_out), "output shape mismatch");
    for g in 0..groups {
        // out[:, g·c_out ..] += tx[:, g·c_in ..] · θ_k
        for i in 0..n {
            let tx_row = &tx.row(i)[g * c_in..(g + 1) * c_in];
            let out_row = &mut out.row_mut(i)[g * c_out..(g + 1) * c_out];
            for (ci, &a) in tx_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(theta.row(ci)) {
                    *o += a * b;
                }
            }
        }
    }
}

/// Gathers a group-major `n × (groups·c)` matrix into `groups` rows of
/// length `n·c` (row `g` is the row-major flattening of group `g`'s
/// `n × c` block). Every element of `out` is overwritten.
pub fn group_rows_into(x: &Matrix, groups: usize, out: &mut Matrix) {
    let (n, total) = x.shape();
    assert_eq!(total % groups, 0, "columns not divisible by groups");
    let c = total / groups;
    assert_eq!(out.shape(), (groups, n * c), "output shape mismatch");
    for g in 0..groups {
        let dst = out.row_mut(g);
        for i in 0..n {
            dst[i * c..(i + 1) * c].copy_from_slice(&x.row(i)[g * c..(g + 1) * c]);
        }
    }
}

/// Horizontally tiles `x` `times` times (`r × c` → `r × (times·c)`).
/// Every element of `out` is overwritten.
pub fn tile_cols_into(x: &Matrix, times: usize, out: &mut Matrix) {
    assert!(times >= 1, "tile count must be positive");
    let (r, c) = x.shape();
    assert_eq!(out.shape(), (r, c * times), "output shape mismatch");
    for i in 0..r {
        for t in 0..times {
            out.row_mut(i)[t * c..(t + 1) * c].copy_from_slice(x.row(i));
        }
    }
}

/// Batched outer product: for a column `p ∈ R^{β×1}` and rows
/// `Z ∈ R^{n×m}`, writes `n × (β·m)` where block row `b` is the
/// row-major flattening of `p · Z[b,·]`. Every element of `out` is
/// overwritten.
pub fn batch_outer_into(col: &Matrix, rows: &Matrix, out: &mut Matrix) {
    assert_eq!(col.cols(), 1, "first operand must be a column vector");
    let (beta, n, m) = (col.rows(), rows.rows(), rows.cols());
    assert_eq!(out.shape(), (n, beta * m), "output shape mismatch");
    let p = col.as_slice();
    for b in 0..n {
        let (z, dst) = (rows.row(b), out.row_mut(b));
        for k in 0..beta {
            for (o, &zj) in dst[k * m..(k + 1) * m].iter_mut().zip(z) {
                *o = p[k] * zj;
            }
        }
    }
}

/// Batched 2-D convolution with `same` zero padding and stride 1,
/// written into `out` (`(batch·out_ch) × (h·w)`, fully overwritten).
///
/// `x` is `(batch·in_ch) × (h·w)`; `kernel` is `out_ch × (in_ch·kh·kw)`;
/// `bias` is `1 × out_ch`.
///
/// Each output starts from its bias and adds its taps in `(ic, di, dj)`
/// order, visiting only taps inside the map (the zero padding is never
/// read). All `out_ch` channels of one position accumulate together, so
/// each input tap is loaded once per position rather than once per
/// channel.
pub fn conv2d_forward_into(
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
    let (hw, taps) = (h * w, in_ch * kh * kw);
    let (k, bias) = (kernel.as_slice(), bias.row(0));
    for b in 0..batch {
        let xb = &x.as_slice()[b * in_ch * hw..(b + 1) * in_ch * hw];
        let ob = &mut out.as_mut_slice()[b * out_ch * hw..(b + 1) * out_ch * hw];
        for i in 0..h {
            // Kernel rows `di` whose source row `i + di − ph0` is inside the map.
            let (di0, di1) = (ph0.saturating_sub(i), kh.min(h + ph0 - i));
            for j in 0..w {
                let (dj0, dj1) = (pw0.saturating_sub(j), kw.min(w + pw0 - j));
                let p = i * w + j;
                for oc in 0..out_ch {
                    ob[oc * hw + p] = bias[oc];
                }
                for ic in 0..in_ch {
                    for di in di0..di1 {
                        let src = ic * hw + (i + di - ph0) * w + j;
                        for dj in dj0..dj1 {
                            let xv = xb[src + dj - pw0];
                            let kcol = ic * kh * kw + di * kw + dj;
                            for oc in 0..out_ch {
                                ob[oc * hw + p] += k[oc * taps + kcol] * xv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Batched 2-D max pooling with stride = window (floor semantics);
/// writes the pooled maxima and argmax indices into caller-provided
/// buffers (every element of both is overwritten).
///
/// Within a window the first strict maximum wins (`>`), so ties keep the
/// earliest index and NaN inputs are never selected; a window with no
/// value above `-∞` reports `-∞` at index 0.
pub fn maxpool2d_forward_into(x: &Matrix, spec: &PoolSpec, out: &mut Matrix, argmax: &mut [usize]) {
    let PoolSpec { batch, ch, h, w, ph, pw } = *spec;
    assert_eq!(x.rows(), batch * ch, "pool input row mismatch");
    assert_eq!(x.cols(), h * w, "pool input col mismatch");
    let (ho, wo) = (spec.out_h(), spec.out_w());
    assert_eq!(out.shape(), (batch * ch, ho * wo), "pool output shape mismatch");
    assert_eq!(argmax.len(), batch * ch * ho * wo, "argmax length mismatch");
    for r in 0..batch * ch {
        let (src, dst) = (x.row(r), out.row_mut(r));
        let arg = &mut argmax[r * ho * wo..(r + 1) * ho * wo];
        for oi in 0..ho {
            for oj in 0..wo {
                let mut best = f64::NEG_INFINITY;
                let mut best_idx = 0usize;
                for di in 0..ph {
                    let start = (oi * ph + di) * w + oj * pw;
                    for (idx, &v) in (start..).zip(&src[start..start + pw]) {
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                dst[oi * wo + oj] = best;
                arg[oi * wo + oj] = best_idx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_matches_manual() {
        let mut v = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        softmax_rows_in_place(&mut v);
        assert!((v.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[(0, 2)] > v[(0, 1)] && v[(0, 1)] > v[(0, 0)]);
    }

    #[test]
    fn normalize_rows_matches_manual() {
        let mut v = Matrix::from_rows(&[&[1.0, 3.0]]);
        normalize_rows_in_place(&mut v, 0.0);
        assert_eq!(v, Matrix::from_rows(&[&[0.25, 0.75]]));
    }

    #[test]
    fn tile_then_group_roundtrip_shapes() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut tiled = Matrix::zeros(2, 6);
        tile_cols_into(&x, 3, &mut tiled);
        assert_eq!(&tiled.row(0)[4..6], &[1.0, 2.0]);
        let mut grouped = Matrix::zeros(3, 4);
        group_rows_into(&tiled, 3, &mut grouped);
        // Each group's block equals x flattened row-major.
        for g in 0..3 {
            assert_eq!(grouped.row(g), &[1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn batch_outer_known_values() {
        let col = Matrix::from_rows(&[&[2.0], &[3.0]]);
        let rows = Matrix::from_rows(&[&[1.0, 10.0], &[5.0, 7.0]]);
        let mut out = Matrix::zeros(2, 4);
        batch_outer_into(&col, &rows, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[2.0, 20.0, 3.0, 30.0], &[10.0, 14.0, 15.0, 21.0]]));
    }

    #[test]
    fn poly_conv_accumulate_single_group_is_matmul() {
        let tx = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 0.0]]);
        let theta = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        let mut out = Matrix::zeros(2, 2);
        poly_conv_accumulate(&tx, &theta, &mut out, 1);
        assert!(out.approx_eq(&tx.matmul(&theta), 1e-12));
    }

    // A destination one column too wide would otherwise keep stale values
    // in its extra column; the shape checks must fire in release builds.

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn poly_conv_accumulate_rejects_wide_output() {
        let (tx, theta) = (Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        poly_conv_accumulate(&tx, &theta, &mut Matrix::zeros(2, 3), 1);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn group_rows_into_rejects_wide_output() {
        group_rows_into(&Matrix::zeros(2, 6), 3, &mut Matrix::zeros(3, 5));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn tile_cols_into_rejects_wide_output() {
        tile_cols_into(&Matrix::zeros(2, 2), 3, &mut Matrix::zeros(2, 7));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn batch_outer_into_rejects_wide_output() {
        batch_outer_into(&Matrix::zeros(2, 1), &Matrix::zeros(2, 2), &mut Matrix::zeros(2, 5));
    }
}
