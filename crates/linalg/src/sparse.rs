//! Compressed sparse row (CSR) matrices.
//!
//! Graph Laplacians and Chebyshev recursions over them are sparse: a road
//! edge graph has a handful of neighbours per edge, so applying `T_k(L̃)`
//! as sparse matrix–vector products turns the graph convolution from
//! `O(n²)` into `O(|A|)` per filter tap. Only the operations the models
//! need are implemented.

use crate::matrix::Matrix;

/// A sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Row-product accumulators up to this width (2 KiB) live on the stack
/// inside the fused kernels (`axpby`, `clenshaw_step`); wider rows fall
/// back to a heap buffer. Feature widths in this codebase are bounded
/// by `groups × channels` (≤ 128 for HIST-8 with 8 groups), so the hot
/// path never allocates.
const ACC_STACK_COLS: usize = 256;

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Zero-valued entries are dropped.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for (r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            if v != 0.0 {
                per_row[r].push((c, v));
            }
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for entries in &mut per_row {
            entries.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < entries.len() {
                let c = entries[k].0;
                let mut v = 0.0;
                while k < entries.len() && entries[k].0 == c {
                    v += entries[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Converts a dense matrix into CSR form, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(m.rows(), m.cols(), triplets)
    }

    /// The `n × n` identity in CSR form.
    pub fn identity(n: usize) -> Self {
        Self::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0)))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| self.row_entries(i).map(move |(c, v)| (i, c, v)))
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// Reads the entry at `(i, j)` (zero when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_entries(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Sparse matrix × dense vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        let mut out = vec![0.0; self.rows];
        crate::parallel::par_rows(&mut out, 1, self.nnz(), |start, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = self.row_entries(start + k).map(|(c, x)| x * v[c]).sum();
            }
        });
        out
    }

    /// Sparse × dense matrix product, returning a dense matrix; uses
    /// the ambient thread count (see [`crate::parallel`]) and
    /// [`CsrMatrix::matmul_dense_into`].
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.matmul_dense_into(rhs, &mut out);
        out
    }

    /// Sparse × dense product into an existing `rows × rhs.cols`
    /// buffer (fully overwritten; a stale pooled buffer is fine).
    ///
    /// Output rows are partitioned into contiguous per-thread chunks,
    /// and each row is zeroed, then accumulated in CSR entry order by
    /// the exact serial loop, so the result is bit-identical for every
    /// thread count.
    pub fn matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows(), "matmul shape mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols()), "matmul_dense_into shape mismatch");
        let cols = rhs.cols();
        let work = self.nnz() * cols.max(1);
        crate::parallel::par_rows(out.as_mut_slice(), cols, work, |start, chunk| {
            for (r, dst) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let row = start + r;
                dst.fill(0.0);
                for (c, v) in self.row_entries(row) {
                    let src = rhs.row(c);
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += v * s;
                    }
                }
            }
        });
    }

    /// Fused sparse product-and-update `y ← α·(A·x) + β·y` in one pass.
    ///
    /// Bit-identical to the composition
    /// `&A.matmul_dense(&x).scale(α) + &y.scale(β)`: the row product is
    /// accumulated from `0.0` in CSR entry order exactly like
    /// [`CsrMatrix::matmul_dense`], then each element performs the same
    /// two roundings (`α·acc`, `+ β·y`) the composition performs.
    pub fn axpby(&self, alpha: f64, x: &Matrix, beta: f64, y: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "axpby shape mismatch");
        assert_eq!(y.shape(), (self.rows, x.cols()), "axpby output shape mismatch");
        let cols = x.cols();
        let work = self.nnz() * cols.max(1);
        crate::parallel::par_rows(y.as_mut_slice(), cols, work, |start, chunk| {
            // Stack accumulator for the common narrow case keeps the
            // steady-state training step heap-allocation-free.
            let mut stack = [0.0f64; ACC_STACK_COLS];
            let mut heap = Vec::new();
            let acc: &mut [f64] = if cols <= ACC_STACK_COLS {
                &mut stack[..cols]
            } else {
                heap.resize(cols, 0.0);
                &mut heap
            };
            for (r, dst) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let row = start + r;
                acc.fill(0.0);
                for (c, v) in self.row_entries(row) {
                    let src = x.row(c);
                    for (d, &s) in acc.iter_mut().zip(src) {
                        *d += v * s;
                    }
                }
                for (d, &a) in dst.iter_mut().zip(acc.iter()) {
                    *d = alpha * a + beta * *d;
                }
            }
        });
    }

    /// Fused Chebyshev recurrence step `out ← 2·(A·x) − prev` in one
    /// pass (`A` is the scaled Laplacian `L̃` in the ChebNet use).
    ///
    /// Bit-identical to `&A.matmul_dense(&x).scale(2.0) - &prev`: the
    /// row product accumulates from `0.0` in CSR entry order, then each
    /// element computes `acc·2.0 − prev` — the exact roundings of the
    /// three-pass composition, in one pass with zero temporaries.
    pub fn cheb_step_into(&self, x: &Matrix, prev: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "cheb_step shape mismatch");
        assert_eq!(prev.shape(), (self.rows, x.cols()), "cheb_step prev shape mismatch");
        assert_eq!(out.shape(), (self.rows, x.cols()), "cheb_step output shape mismatch");
        let cols = x.cols();
        let work = self.nnz() * cols.max(1);
        crate::parallel::par_rows(out.as_mut_slice(), cols, work, |start, chunk| {
            for (r, dst) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let row = start + r;
                dst.fill(0.0);
                for (c, v) in self.row_entries(row) {
                    let src = x.row(c);
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += v * s;
                    }
                }
                let p_row = prev.row(row);
                for (d, &p) in dst.iter_mut().zip(p_row) {
                    *d = *d * 2.0 - p;
                }
            }
        });
    }

    /// Fused Clenshaw adjoint step `c2 ← (b + s·(A·x)) − c2` in place.
    ///
    /// One pass of the Clenshaw recurrence used by the Chebyshev
    /// adjoint: with `s = 2.0` this is `c_k = b_k + 2L̃c_{k+1} − c_{k+2}`
    /// updating the `c_{k+2}` buffer in place (the caller then swaps
    /// buffers); `s = 1.0` gives the final combine. Bit-identical to
    /// `&(&b + &A.matmul_dense(&x).scale(s)) - &c2` — multiplying by
    /// `1.0` is exact in IEEE 754, so the `s = 1.0` case also matches
    /// the unscaled composition.
    pub fn clenshaw_step(&self, b: &Matrix, x: &Matrix, s: f64, c2: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "clenshaw shape mismatch");
        assert_eq!(b.shape(), (self.rows, x.cols()), "clenshaw b shape mismatch");
        assert_eq!(c2.shape(), b.shape(), "clenshaw c2 shape mismatch");
        let cols = x.cols();
        let work = self.nnz() * cols.max(1);
        crate::parallel::par_rows(c2.as_mut_slice(), cols, work, |start, chunk| {
            // Stack accumulator for the common narrow case keeps the
            // steady-state training step heap-allocation-free.
            let mut stack = [0.0f64; ACC_STACK_COLS];
            let mut heap = Vec::new();
            let acc: &mut [f64] = if cols <= ACC_STACK_COLS {
                &mut stack[..cols]
            } else {
                heap.resize(cols, 0.0);
                &mut heap
            };
            for (r, dst) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let row = start + r;
                acc.fill(0.0);
                for (c, v) in self.row_entries(row) {
                    let src = x.row(c);
                    for (d, &sv) in acc.iter_mut().zip(src) {
                        *d += v * sv;
                    }
                }
                let b_row = b.row(row);
                for ((d, &a), &bv) in dst.iter_mut().zip(acc.iter()).zip(b_row) {
                    *d = (bv + s * a) - *d;
                }
            }
        });
    }

    /// Transpose (CSR → CSR of the transposed matrix).
    pub fn transpose(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(self.cols, self.rows, self.iter().map(|(r, c, v)| (c, r, v)))
    }

    /// Scales every stored entry by `s`.
    pub fn scale(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (i, j, v) in self.iter() {
            m[(i, j)] = v;
        }
        m
    }

    /// Sum of two sparse matrices of identical shape.
    pub fn add(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        CsrMatrix::from_triplets(self.rows, self.cols, self.iter().chain(rhs.iter()))
    }

    /// Row sums (degree vector when `self` is an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row_entries(i).map(|(_, v)| v).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 3 ]
        CsrMatrix::from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
    }

    #[test]
    fn from_triplets_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let m = CsrMatrix::from_triplets(1, 2, [(0, 0, 1.0), (0, 0, -1.0), (0, 1, 2.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn dense_roundtrip() {
        let d = Matrix::from_rows(&[&[0.0, 1.5], &[-2.0, 0.0]]);
        assert_eq!(CsrMatrix::from_dense(&d).to_dense(), d);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let v = [1.0, 10.0, 100.0];
        assert_eq!(m.matvec(&v), m.to_dense().matvec(&v));
    }

    #[test]
    fn matmul_dense_matches_dense() {
        let m = sample();
        let rhs = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.matmul_dense(&rhs), m.to_dense().matmul(&rhs));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn add_and_scale() {
        let m = sample();
        let two = m.add(&m);
        assert_eq!(two.to_dense(), m.to_dense().scale(2.0));
        assert_eq!(m.scale(2.0).to_dense(), two.to_dense());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = CsrMatrix::identity(4);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&v), v.to_vec());
    }

    #[test]
    fn row_sums_degree() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 3.0]);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_dense_into_matches_out_of_place() {
        let m = sample();
        let rhs = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0], &[-5.0, 0.1]]);
        let mut out = Matrix::filled(2, 2, f64::NAN); // stale buffer
        m.matmul_dense_into(&rhs, &mut out);
        // The product written out row by row in CSR entry order.
        let want = Matrix::from_rows(&[
            &[1.0 * 1.5 + 2.0 * -5.0, 1.0 * -2.0 + 2.0 * 0.1],
            &[3.0 * -5.0, 3.0 * 0.1],
        ]);
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    fn axpby_matches_composition() {
        let m = sample();
        let x = Matrix::from_rows(&[&[0.3, 1.0], &[-0.7, 2.0], &[1.1, -3.0]]);
        let y0 = Matrix::from_rows(&[&[5.0, -1.0], &[2.5, 0.5]]);
        let (alpha, beta) = (0.75, -1.25);
        let expect = &m.matmul_dense(&x).scale(alpha) + &y0.scale(beta);
        let mut y = y0.clone();
        m.axpby(alpha, &x, beta, &mut y);
        assert_eq!(bits(&y), bits(&expect));
    }

    #[test]
    fn cheb_step_into_matches_composition() {
        let m = sample();
        let x = Matrix::from_rows(&[&[0.3, 1.0], &[-0.7, 2.0], &[1.1, -3.0]]);
        let prev = Matrix::from_rows(&[&[0.9, -0.2], &[0.0, 7.0]]);
        let expect = &m.matmul_dense(&x).scale(2.0) - &prev;
        let mut out = Matrix::filled(2, 2, f64::NAN);
        m.cheb_step_into(&x, &prev, &mut out);
        assert_eq!(bits(&out), bits(&expect));
    }

    #[test]
    fn clenshaw_step_matches_composition() {
        let m = sample();
        let x = Matrix::from_rows(&[&[0.3, 1.0], &[-0.7, 2.0], &[1.1, -3.0]]);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let c2_0 = Matrix::from_rows(&[&[0.5, -0.5], &[0.125, 9.0]]);
        for s in [2.0, 1.0] {
            let expect = &(&b + &m.matmul_dense(&x).scale(s)) - &c2_0;
            let mut c2 = c2_0.clone();
            m.clenshaw_step(&b, &x, s, &mut c2);
            assert_eq!(bits(&c2), bits(&expect));
        }
    }
}
