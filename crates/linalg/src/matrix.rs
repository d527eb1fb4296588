//! Dense, row-major `f64` matrices.
//!
//! The GCWC models operate on small-to-medium dense matrices (weight
//! matrices are `n × m` with `n ≤ 8 600`, `m ≤ 8`), so a simple contiguous
//! `Vec<f64>` representation with explicit loops is both adequate and easy
//! to verify. All shape mismatches panic: in this codebase a shape error is
//! always a programming bug, never a data condition.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64` values.
///
/// ```
/// use gcwc_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (mostly for tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Builds a matrix where entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a single-column matrix from a slice.
    pub fn column(v: &[f64]) -> Self {
        Self::from_vec(v.len(), 1, v.to_vec())
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Self::from_vec(1, v.len(), v.to_vec())
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let start = i * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copies column `j` out into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Matrix product `self * rhs`, using the ambient thread count
    /// (see [`crate::parallel`]); see [`Matrix::matmul_into`].
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product computed into an existing `rows × rhs.cols`
    /// buffer (contents are fully overwritten, so a stale pooled buffer
    /// is fine), using the ambient thread count.
    ///
    /// Uses an ikj loop order so the inner loop streams over contiguous
    /// rows of both the output and `rhs` (see the perf-book guidance on
    /// cache-friendly access). Output rows are partitioned into
    /// contiguous chunks, one per thread, and every row is zeroed, then
    /// accumulated by the exact serial per-row loop — the result is
    /// bit-identical for every thread count.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into output shape mismatch");
        let cols = rhs.cols;
        let work = self.rows * self.cols * cols;
        let tier = crate::tile::resolve(work);
        crate::parallel::par_rows(&mut out.data, cols, work, |start, chunk| {
            if tier == crate::tile::KernelTier::Tiled {
                crate::tile::matmul_nn_chunk(self, rhs, start, chunk);
                return;
            }
            for (r, o_row) in chunk.chunks_mut(cols.max(1)).enumerate() {
                o_row.fill(0.0);
                let a_row = self.row(start + r);
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = rhs.row(k);
                    for (o, &b) in o_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        let mut out = vec![0.0; self.rows];
        crate::parallel::par_rows(&mut out, 1, self.rows * self.cols, |start, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = self.row(start + k).iter().zip(v).map(|(a, b)| a * b).sum();
            }
        });
        out
    }

    /// Applies `f` entrywise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        crate::parallel::par_map(&self.data, &mut out.data, f);
        out
    }

    /// Applies `f` entrywise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Applies `f` entrywise into an existing same-shape buffer
    /// (fully overwritten). Bit-identical to [`Matrix::map`].
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f64) -> f64 + Sync) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        crate::parallel::par_map(&self.data, &mut out.data, f);
    }

    /// Combines `self` and `rhs` entrywise into an existing buffer
    /// (fully overwritten). Bit-identical to [`Matrix::zip_with`].
    pub fn zip_into(&self, rhs: &Matrix, out: &mut Matrix, f: impl Fn(f64, f64) -> f64 + Sync) {
        assert_eq!(self.shape(), rhs.shape(), "zip_into shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_into output shape mismatch");
        crate::parallel::par_zip(&self.data, &rhs.data, &mut out.data, f);
    }

    /// Combines each entry with the matching entry of `rhs` in place:
    /// `self[i] = f(self[i], rhs[i])`. Each element is computed by the
    /// same expression as [`Matrix::zip_with`], so the result is
    /// bit-identical to the out-of-place version.
    pub fn zip_assign(&mut self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), rhs.shape(), "zip_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a = f(*a, b);
        }
    }

    /// Adds `rhs` elementwise in place (`self += rhs`); bit-identical
    /// to `&self + &rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        self.zip_assign(rhs, |a, b| a + b);
    }

    /// Scales every entry in place (`self *= s`); bit-identical to
    /// [`Matrix::scale`].
    pub fn scale_assign(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Overwrites `self` with the contents of a same-shape `src`.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Fused `self · rhsᵀ` into an existing buffer (fully overwritten;
    /// a stale pooled buffer is fine), without materialising `rhsᵀ`.
    ///
    /// Bit-identical to `self.matmul_into(&rhs.transpose(), out)`: for
    /// each output element the products `self[i,k] · rhs[j,k]` are
    /// accumulated from `0.0` in ascending-`k` order, skipping the same
    /// `self[i,k] == 0` terms the plain kernel skips, with the same
    /// work threshold and output-row partitioning. Both operands are
    /// read row-major, so this is also faster than transpose-then-
    /// multiply.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_nt shape mismatch: {:?} * {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(out.shape(), (self.rows, rhs.rows), "matmul_nt_into output shape mismatch");
        let cols = rhs.rows;
        let work = self.rows * self.cols * cols;
        let tier = crate::tile::resolve(work);
        crate::parallel::par_rows(&mut out.data, cols, work, |start, chunk| {
            if tier == crate::tile::KernelTier::Tiled {
                crate::tile::matmul_nt_chunk(self, rhs, start, chunk);
                return;
            }
            for (r, o_row) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let a_row = self.row(start + r);
                for (j, o) in o_row.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (&a, &b) in a_row.iter().zip(rhs.row(j)) {
                        if a == 0.0 {
                            continue;
                        }
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        });
    }

    /// Fused `selfᵀ · rhs` into an existing buffer (fully overwritten;
    /// a stale pooled buffer is fine), without materialising `selfᵀ`.
    ///
    /// Bit-identical to `self.transpose().matmul_into(&rhs, out)`: each
    /// output row `i` is zeroed, then accumulated with
    /// `out[i,·] += self[k,i] · rhs[k,·]` in ascending-`k` order,
    /// skipping the same `self[k,i] == 0` terms, with the same work
    /// threshold and output-row partitioning.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            rhs.rows,
            "matmul_tn shape mismatch: {:?}ᵀ * {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_tn_into output shape mismatch");
        let cols = rhs.cols;
        let work = self.rows * self.cols * cols;
        let tier = crate::tile::resolve(work);
        crate::parallel::par_rows(&mut out.data, cols, work, |start, chunk| {
            if tier == crate::tile::KernelTier::Tiled {
                crate::tile::matmul_tn_chunk(self, rhs, start, chunk);
                return;
            }
            chunk.fill(0.0);
            for k in 0..self.rows {
                let a_row = self.row(k);
                let b_row = rhs.row(k);
                for (i, o_row) in chunk.chunks_mut(cols.max(1)).enumerate() {
                    let a = a_row[start + i];
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in o_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
    }

    /// Transposes `self` into an existing `cols × rows` buffer (fully
    /// overwritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into shape mismatch");
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Entrywise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Combines two same-shape matrices entrywise with `f`.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64 + Sync) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_with shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        crate::parallel::par_zip(&self.data, &rhs.data, &mut out.data, f);
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of all entries.
    ///
    /// Computed blockwise over a fixed partition (see
    /// [`crate::parallel::par_sum`]) so the rounding never depends on
    /// the thread count.
    pub fn sum(&self) -> f64 {
        crate::parallel::par_sum(&self.data)
    }

    /// Mean of all entries (`NaN` for an empty matrix).
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Maximum entry (`-inf` for an empty matrix).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum entry (`inf` for an empty matrix).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::parallel::par_sum_map(&self.data, |x| x * x).sqrt()
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Returns `true` when row `i` is entirely zero.
    pub fn row_is_zero(&self, i: usize) -> bool {
        self.row(i).iter().all(|&x| x == 0.0)
    }

    /// Stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Concatenates `self` and `other` side by side (row counts must match).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Extracts the sub-matrix of the given rows (in the given order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Entrywise approximate equality within `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(&rhs.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:9.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "{}]", if self.cols > 12 { ", ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.row_is_zero(0));
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let v = [3.0, 4.0];
        let mv = a.matvec(&v);
        let mm = a.matmul(&Matrix::column(&v));
        assert_eq!(mv, mm.col(0));
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(-&a, Matrix::from_rows(&[&[-1.0, -2.0]]));
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.vstack(&b), Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(a.hstack(&b), Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.mean(), 1.5);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), -2.0);
        assert_eq!(m.row_sums(), vec![-1.0, 7.0]);
        assert!((m.frobenius_norm() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn finiteness_check() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_into_matches_out_of_place() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.3], &[0.0, 4.25, -1.25]]);
        let b = Matrix::from_rows(&[&[0.7, 2.0], &[-3.0, 0.125], &[9.0, -0.4]]);
        let mut out = Matrix::filled(2, 2, f64::NAN); // stale buffer
        a.matmul_into(&b, &mut out);
        // The product written out row by row in k order, skipping a's
        // zero entries.
        let want = Matrix::from_rows(&[
            &[1.5 * 0.7 + -2.0 * -3.0 + 0.3 * 9.0, 1.5 * 2.0 + -2.0 * 0.125 + 0.3 * -0.4],
            &[4.25 * -3.0 + -1.25 * 9.0, 4.25 * 0.125 + -1.25 * -0.4],
        ]);
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    fn in_place_family_matches_out_of_place() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.3, 4.25]]);
        let b = Matrix::from_rows(&[&[0.7, 2.0], &[-3.0, 0.125]]);

        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(bits(&c), bits(&(&a + &b)));

        let mut c = a.clone();
        c.scale_assign(-1.5);
        assert_eq!(bits(&c), bits(&a.scale(-1.5)));

        let mut c = a.clone();
        c.zip_assign(&b, |x, y| x * y);
        assert_eq!(bits(&c), bits(&a.zip_with(&b, |x, y| x * y)));

        let mut out = Matrix::filled(2, 2, f64::NAN);
        a.map_into(&mut out, |x| x.tanh());
        assert_eq!(bits(&out), bits(&a.map(|x| x.tanh())));

        let mut out = Matrix::filled(2, 2, f64::NAN);
        a.zip_into(&b, &mut out, |x, y| x - y);
        assert_eq!(bits(&out), bits(&a.zip_with(&b, |x, y| x - y)));

        let mut out = Matrix::filled(2, 2, f64::NAN);
        a.transpose_into(&mut out);
        assert_eq!(bits(&out), bits(&a.transpose()));

        let mut out = Matrix::filled(2, 2, f64::NAN);
        out.copy_from(&a);
        assert_eq!(bits(&out), bits(&a));
    }
}
