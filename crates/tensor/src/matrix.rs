//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single storage type of the library: vectors are
//! `n x 1` or `1 x n` matrices, scalars are `1 x 1`. Keeping one layout
//! (row-major, contiguous `Vec<f32>`) keeps every kernel cache-friendly and
//! trivially testable.

use crate::kernels;
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// The [`Default`] value is an empty `0 x 0` matrix with no allocation —
/// a placeholder for scratch buffers that are grown in place.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// The single value of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Returns the transposed matrix (tiled kernel).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] writing into a caller-provided `cols x rows`
    /// matrix (every element is overwritten).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into output shape mismatch"
        );
        kernels::transpose_blocked(&self.data, &mut out.data, self.rows, self.cols);
    }

    /// Reference transpose: the straightforward double loop, kept for
    /// differential testing and benchmarking against [`Self::transpose`].
    pub fn transpose_naive(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other` using the cache-blocked register-tile
    /// kernel ([`kernels::matmul_blocked`]).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Self::matmul`] accumulating into a caller-provided `out` matrix
    /// (`out += self * other`), enabling buffer reuse via the tape's
    /// matrix pool. `out` must already have shape `rows x other.cols`.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        kernels::matmul_blocked(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Reference matmul: i-k-j streaming loops with a zero-skip, kept for
    /// differential testing and benchmarking against [`Self::matmul`].
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * other^T` without materializing the transpose: `other`'s
    /// rows are packed into the panels of the one packed kernel family
    /// (see [`kernels`]).
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_b_into(other, &mut out);
        out
    }

    /// [`Self::matmul_transpose_b`] accumulating into a caller-provided
    /// `out` (`out += self * other^T`). `out` must already have shape
    /// `rows x other.rows`.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_transpose_b_into output shape mismatch"
        );
        kernels::matmul_transpose_b_blocked(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
            kernels::accumulate,
        );
    }

    /// Reference `self * other^T`: per-element row dots, kept for
    /// differential testing and benchmarking.
    pub fn matmul_transpose_b_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// `self^T * other` without materializing the transpose
    /// (`kernels::matmul_transpose_a_blocked`).
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transpose_a_into(other, &mut out);
        out
    }

    /// [`Self::matmul_transpose_a`] accumulating into a caller-provided
    /// `out` (`out += self^T * other`). `out` must already have shape
    /// `cols x other.cols`.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub(crate) fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_transpose_a_into output shape mismatch"
        );
        kernels::matmul_transpose_a_blocked(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            self.rows,
            other.cols,
        );
    }

    /// Reference `self^T * other`: k-outer streaming rank-1 updates, kept
    /// for differential testing and benchmarking.
    pub fn matmul_transpose_a_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix of pairwise squared Euclidean distances between the rows of
    /// `self` (`m x d`) and the rows of `other` (`n x d`):
    /// `out[i][j] = ||self_i - other_j||^2`, shape `m x n`.
    ///
    /// Uses the expansion `||x||^2 + ||y||^2 - 2 x.y` so the O(m.n.d)
    /// work runs through the packed `x * y^T` product and the row norms
    /// are computed once instead of per pair. Clamped at zero to absorb
    /// the expansion's floating-point cancellation.
    ///
    /// # Panics
    /// Panics if the row widths differ.
    pub fn pairwise_sq_dist(&self, other: &Matrix) -> Matrix {
        let mut x_norms = Vec::with_capacity(self.rows);
        self.row_sq_norms_into(&mut x_norms);
        let mut y_norms = Vec::with_capacity(other.rows);
        other.row_sq_norms_into(&mut y_norms);
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.pairwise_sq_dist_with_norms_into(other, &x_norms, &y_norms, &mut out);
        out
    }

    /// [`Self::pairwise_sq_dist`] into a caller-provided `out` of shape
    /// `rows x other.rows` (every element is overwritten), given the
    /// squared row norms of both operands (from
    /// [`Self::row_sq_norms_into`]): a caller that owns scratch buffers
    /// allocates only the product's pack panel here. The distance is
    /// formed as each register tile of `x * y^T` is stored.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub(crate) fn pairwise_sq_dist_with_norms_into(
        &self,
        other: &Matrix,
        x_norms: &[f32],
        y_norms: &[f32],
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "pairwise_sq_dist width mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(x_norms.len(), self.rows, "x_norms length mismatch");
        assert_eq!(y_norms.len(), other.rows, "y_norms length mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "pairwise_sq_dist output shape mismatch"
        );
        kernels::matmul_transpose_b_blocked(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
            |c, acc, i, j| {
                let xn = x_norms[i];
                for ((o, &dot), &yn) in c.iter_mut().zip(acc).zip(&y_norms[j..]) {
                    *o = (xn + yn - 2.0 * dot).max(0.0);
                }
            },
        );
    }

    /// Appends the squared L2 norm of every row to `out`.
    pub(crate) fn row_sq_norms_into(&self, out: &mut Vec<f32>) {
        kernels::row_sq_norms_into(&self.data, self.rows, self.cols, out);
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(self.len());
        self.map_into(f, &mut data);
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Appends `f` of every element to `out`, in row-major order.
    pub(crate) fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Vec<f32>) {
        out.extend(self.data.iter().map(|&x| f(x)));
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary combination with a same-shaped matrix.
    pub(crate) fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(self.len());
        self.zip_into(other, f, &mut data);
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Appends `f(self[i], other[i])` for every element to `out`, in
    /// row-major order.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn zip_into(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32, out: &mut Vec<f32>) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        out.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul_elem(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Matrix {
        self.map(|x| x * c)
    }

    /// `self += alpha * other`, in place (the BLAS `axpy` primitive).
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column vector (`rows x 1`) of per-row sums.
    pub fn sum_cols(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows);
        self.sum_cols_into(&mut data);
        Matrix::from_vec(self.rows, 1, data)
    }

    /// Appends the sum of every row to `out`.
    pub(crate) fn sum_cols_into(&self, out: &mut Vec<f32>) {
        out.extend((0..self.rows).map(|r| self.row(r).iter().sum::<f32>()));
    }

    /// Row vector (`1 x cols`) of per-column sums.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Adds every row of `self` onto the `1 x cols` row vector `out`
    /// (zero-filled for a plain sum).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "sum_rows_into output shape mismatch"
        );
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Largest absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Gathers `indices` rows into a new `indices.len() x cols` matrix.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        self.gather_rows_into(indices, &mut data);
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// Appends the `indices` rows to `out`, one after another.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub(crate) fn gather_rows_into(&self, indices: &[usize], out: &mut Vec<f32>) {
        for &src in indices {
            assert!(
                src < self.rows,
                "gather index {src} out of {} rows",
                self.rows
            );
            out.extend_from_slice(self.row(src));
        }
    }

    /// Horizontal concatenation `[self | other]` (same row count).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        let mut data = Vec::with_capacity(self.len() + other.len());
        self.concat_cols_into(other, &mut data);
        Matrix::from_vec(self.rows, self.cols + other.cols, data)
    }

    /// Appends the rows of `[self | other]` to `out`.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub(crate) fn concat_cols_into(&self, other: &Matrix, out: &mut Vec<f32>) {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        for r in 0..self.rows {
            out.extend_from_slice(self.row(r));
            out.extend_from_slice(other.row(r));
        }
    }

    /// Rowwise dot products of two same-shaped matrices: `n x 1` output.
    pub fn row_dot(&self, other: &Matrix) -> Matrix {
        let mut data = Vec::with_capacity(self.rows);
        self.row_dot_into(other, &mut data);
        Matrix::from_vec(self.rows, 1, data)
    }

    /// Appends the dot product of every pair of corresponding rows to
    /// `out`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn row_dot_into(&self, other: &Matrix, out: &mut Vec<f32>) {
        assert_eq!(self.shape(), other.shape(), "row_dot shape mismatch");
        out.extend((0..self.rows).map(|r| {
            self.row(r)
                .iter()
                .zip(other.row(r))
                .map(|(&a, &b)| a * b)
                .sum::<f32>()
        }));
    }

    /// True if every pair of elements differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub(crate) fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn construction_and_accessors() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 6);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        assert!(a
            .matmul_transpose_b(&b)
            .approx_eq(&a.matmul(&b.transpose()), 1e-6));
        let c = m(2, 4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert!(a
            .matmul_transpose_a(&c)
            .approx_eq(&a.transpose().matmul(&c), 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        m(2, 3, &[0.0; 6]).matmul(&m(2, 3, &[0.0; 6]));
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b), m(1, 3, &[5.0, 7.0, 9.0]));
        assert_eq!(b.sub(&a), m(1, 3, &[3.0, 3.0, 3.0]));
        assert_eq!(a.mul_elem(&b), m(1, 3, &[4.0, 10.0, 18.0]));
        assert_eq!(a.scale(2.0), m(1, 3, &[2.0, 4.0, 6.0]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        a.axpy(0.5, &m(1, 2, &[2.0, 4.0]));
        assert_eq!(a, m(1, 2, &[2.0, 3.0]));
    }

    #[test]
    fn reductions() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.sum_cols(), m(2, 1, &[6.0, 15.0]));
        assert_eq!(a.sum_rows(), m(1, 3, &[5.0, 7.0, 9.0]));
        assert_eq!(a.max_abs(), 6.0);
    }

    #[test]
    fn empty_matrix_mean_is_zero() {
        assert_eq!(Matrix::zeros(0, 3).mean(), 0.0);
    }

    #[test]
    fn gather_rows_picks_and_repeats() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, m(3, 2, &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "gather index")]
    fn gather_rows_rejects_out_of_bounds() {
        m(2, 2, &[0.0; 4]).gather_rows(&[5]);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.concat_cols(&b), m(2, 3, &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]));
    }

    #[test]
    fn broadcasts() {
        let mut a = m(2, 3, &[0.0; 6]);
        crate::ops::add_row_broadcast_assign(&mut a, &m(1, 3, &[1.0, 2.0, 3.0]));
        assert_eq!(a, m(2, 3, &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]));
        let mut a = m(2, 3, &[0.0; 6]);
        crate::ops::add_col_broadcast_assign(&mut a, &m(2, 1, &[1.0, 2.0]));
        assert_eq!(a, m(2, 3, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]));
    }

    #[test]
    fn row_dot_matches_manual() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.row_dot(&b), m(2, 1, &[17.0, 53.0]));
    }

    #[test]
    fn blocked_kernels_match_naive_references() {
        let a = Matrix::from_vec(5, 7, (0..35).map(|i| (i as f32) * 0.3 - 4.0).collect());
        let b = Matrix::from_vec(7, 9, (0..63).map(|i| 2.0 - (i as f32) * 0.17).collect());
        let bits = |m: Matrix| -> Vec<u32> { m.data.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(a.matmul(&b)), bits(a.matmul_naive(&b)));
        let bt = b.transpose();
        assert_eq!(
            bits(a.matmul_transpose_b(&bt)),
            bits(a.matmul_transpose_b_naive(&bt))
        );
        let at = a.transpose();
        assert_eq!(
            bits(at.matmul_transpose_a(&b)),
            bits(at.matmul_transpose_a_naive(&b))
        );
        assert_eq!(a.transpose(), a.transpose_naive());
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let mut out = Matrix::full(2, 2, 10.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, m(2, 2, &[11.0, 12.0, 13.0, 14.0]));
    }

    #[test]
    fn pairwise_sq_dist_matches_direct() {
        let x = m(3, 2, &[0.0, 0.0, 1.0, 1.0, -2.0, 0.5]);
        let y = m(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let d = x.pairwise_sq_dist(&y);
        for i in 0..3 {
            for j in 0..2 {
                let direct: f32 = x
                    .row(i)
                    .iter()
                    .zip(y.row(j))
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum();
                assert!((d.get(i, j) - direct).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn pairwise_sq_dist_overwrites_a_non_zero_output() {
        let x = m(3, 2, &[0.0, 0.0, 1.0, 1.0, -2.0, 0.5]);
        let y = m(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let (mut x_norms, mut y_norms) = (Vec::new(), Vec::new());
        x.row_sq_norms_into(&mut x_norms);
        y.row_sq_norms_into(&mut y_norms);
        let mut out = Matrix::full(3, 2, 7.5);
        x.pairwise_sq_dist_with_norms_into(&y, &x_norms, &y_norms, &mut out);
        assert_eq!(out, x.pairwise_sq_dist(&y));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.as_mut_slice()[1] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
