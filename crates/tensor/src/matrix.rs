//! Row-major dense `f32` matrix with shape-checked operations.

use serde::{Deserialize, Serialize};

use crate::num::{narrow_f32, usize_f32};
use crate::parallel;
use crate::stats::kahan_sum;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single tensor type used throughout the APTQ
/// reproduction; sequences of token activations are stored as
/// `(tokens × features)` matrices, weights as `(out × in)` or
/// `(in × out)` matrices depending on the call site (documented per use).
///
/// # Example
///
/// ```
/// use aptq_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f32]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing row-major storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(
            j < self.cols,
            "col index {j} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `values`.
    ///
    /// # Panics
    ///
    /// Panics on index or length mismatch.
    pub fn set_col(&mut self, j: usize, values: &[f32]) {
        assert!(
            j < self.cols,
            "col index {j} out of bounds for {} cols",
            self.cols
        );
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for i0 in (0..self.rows).step_by(B) {
            for j0 in (0..self.cols).step_by(B) {
                for i in i0..(i0 + B).min(self.rows) {
                    for j in j0..(j0 + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Matrix product `self × rhs` using a blocked, parallel kernel.
    ///
    /// Parallelizes over row bands with scoped threads when the output is large
    /// enough to amortize thread spawn cost.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: each output row is computed
    /// by exactly one thread with a fixed-order inner reduction, so the
    /// band split never regroups floating-point sums.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions differ ({}x{} × {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        parallel::matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Matrix product `self × rhs` written into a caller-provided
    /// buffer — the allocation-free core of [`Matrix::matmul`], exposed
    /// for hot paths that reuse one output buffer across calls.
    ///
    /// `out` is fully overwritten; its prior contents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out`'s shape is not
    /// `(self.rows(), rhs.cols())`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: same kernel as
    /// [`Matrix::matmul`], each output row reduced in a fixed order.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into: inner dimensions differ ({}x{} × {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into: output shape mismatch"
        );
        out.data.fill(0.0);
        parallel::matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Matrix product `selfᵀ × rhs`: [`Matrix::matmul`] on the
    /// transposed left operand, so each output element adds its `t`
    /// terms in ascending order and skips those whose `self` entry is
    /// exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: same kernel as
    /// [`Matrix::matmul`].
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: row counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.transpose().matmul(rhs)
    }

    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: column counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += a_row[k] * b_row[k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Matrix–vector product `self × v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "matvec: length mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self − rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Matrix {
        let data = self.data.iter().map(|&a| a * scalar).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scalar: f32) {
        for a in &mut self.data {
            *a *= scalar;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op: shape mismatch {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copies a contiguous block of rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: bad range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Copies a contiguous block of columns `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols: bad range {start}..{end}"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }

    /// Writes `block` into `self` starting at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Matrix) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "set_block: block {}x{} at ({row},{col}) exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            let dst = (row + i) * self.cols + col;
            self.data[dst..dst + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat: need at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut off = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "hcat: row count mismatch");
            out.set_block(0, off, p);
            off += p.cols;
        }
        out
    }

    /// Concatenates matrices vertically (same column count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vcat: need at least one part");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut off = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "vcat: column count mismatch");
            out.set_block(off, 0, p);
            off += p.rows;
        }
        out
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f32 {
        narrow_f32(self.frobenius_norm_sq_f64().sqrt())
    }

    /// Squared Frobenius norm, compensated in f64.
    pub fn frobenius_norm_sq(&self) -> f32 {
        narrow_f32(self.frobenius_norm_sq_f64())
    }

    fn frobenius_norm_sq_f64(&self) -> f64 {
        kahan_sum(self.data.iter().map(|&a| f64::from(a) * f64::from(a)))
    }

    /// Sum of all elements (compensated f64 accumulator).
    pub fn sum(&self) -> f32 {
        narrow_f32(kahan_sum(self.data.iter().map(|&a| f64::from(a))))
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / usize_f32(self.data.len())
        }
    }

    /// Maximum absolute element value (0 for an empty matrix).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &a| m.max(a.abs()))
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f32 {
        assert_eq!(self.rows, self.cols, "trace: matrix must be square");
        narrow_f32(kahan_sum((0..self.rows).map(|i| f64::from(self[(i, i)]))))
    }

    /// Returns the diagonal as a vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn diag(&self) -> Vec<f32> {
        assert_eq!(self.rows, self.cols, "diag: matrix must be square");
        (0..self.rows).map(|i| self[(i, i)]).collect()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let show_cols = row.len().min(8);
            write!(f, "  [")?;
            for (j, v) in row[..show_cols].iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:+.4}")?;
            }
            if show_cols < row.len() {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if show_rows < self.rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_into_matches_matmul_and_overwrites() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f32 - j as f32) * 0.7);
        let want = a.matmul(&b);
        let mut out = Matrix::filled(3, 5, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::identity(4).trace(), 4.0);
        assert_eq!(Matrix::filled(2, 2, 7.0).sum(), 28.0);
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f32 * 0.1);
        assert_eq!(a.matmul(&Matrix::identity(7)), a);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i + 1) * (j + 2)) as f32 * 0.03);
        let b = Matrix::from_fn(6, 5, |i, j| ((i * 5 + j) as f32).sin());
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.5);
        let b = Matrix::from_fn(6, 4, |i, j| (i + j) as f32 * 0.25);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(9, 13, |i, j| (i * 13 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = vec![1.0, 0.0, -1.0];
        assert_eq!(a.matvec(&v), vec![-2.0, -2.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 2.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, 8.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 10.0]);
        assert_eq!(a.scale(10.0).as_slice(), &[10.0, 20.0]);
    }

    #[test]
    fn slicing_and_blocks() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let r = a.slice_rows(1, 3);
        assert_eq!(r.shape(), (2, 4));
        assert_eq!(r[(0, 0)], 4.0);
        let c = a.slice_cols(2, 4);
        assert_eq!(c.shape(), (4, 2));
        assert_eq!(c[(0, 0)], 2.0);
        let mut z = Matrix::zeros(4, 4);
        z.set_block(1, 1, &Matrix::filled(2, 2, 9.0));
        assert_eq!(z[(1, 1)], 9.0);
        assert_eq!(z[(2, 2)], 9.0);
        assert_eq!(z[(0, 0)], 0.0);
        assert_eq!(z[(3, 3)], 0.0);
    }

    #[test]
    fn hcat_vcat_roundtrip() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let h = Matrix::hcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(0, 4)], 2.0);
        let c = Matrix::filled(1, 3, 3.0);
        let v = Matrix::vcat(&[&a, &c]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v[(2, 0)], 3.0);
    }

    #[test]
    fn norms_and_reductions() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((a.frobenius_norm_sq() - 25.0).abs() < 1e-6);
        assert_eq!(a.abs_max(), 4.0);
        assert_eq!(a.mean(), 3.5);
        assert!(a.all_finite());
        let mut b = a.clone();
        b[(0, 0)] = f32::NAN;
        assert!(!b.all_finite());
    }

    #[test]
    fn column_access() {
        let a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(a.col(1), vec![1.0, 3.0, 5.0]);
        let mut b = a.clone();
        b.set_col(0, &[9.0, 9.0, 9.0]);
        assert_eq!(b.col(0), vec![9.0, 9.0, 9.0]);
        assert_eq!(b.col(1), a.col(1));
    }

    #[test]
    fn display_is_nonempty_and_truncates() {
        let a = Matrix::zeros(20, 20);
        let s = format!("{a}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[test]
    fn large_parallel_matmul_matches_naive() {
        // Large enough to cross the parallel threshold.
        let a = Matrix::from_fn(130, 70, |i, j| ((i * 7 + j * 3) % 13) as f32 * 0.1 - 0.6);
        let b = Matrix::from_fn(70, 90, |i, j| ((i * 5 + j * 11) % 17) as f32 * 0.05 - 0.4);
        let c = a.matmul(&b);
        // Naive reference.
        for i in (0..130).step_by(17) {
            for j in (0..90).step_by(13) {
                let mut acc = 0.0f32;
                for k in 0..70 {
                    acc += a[(i, k)] * b[(k, j)];
                }
                assert!(
                    (c[(i, j)] - acc).abs() < 1e-3,
                    "({i},{j}): {} vs {acc}",
                    c[(i, j)]
                );
            }
        }
    }

    /// The outer-product `matmul_tn` body the kernel replaced, kept
    /// verbatim as its bit-exact oracle.
    fn matmul_tn_oracle(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.cols, rhs.cols);
        for t in 0..lhs.rows {
            let a_row = lhs.row(t);
            let b_row = rhs.row(t);
            for (i, &a) in a_row.iter().enumerate() {
                // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
                if a == 0.0 {
                    continue;
                }
                let o = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (j, &b) in b_row.iter().enumerate() {
                    o[j] += a * b;
                }
            }
        }
        out
    }

    /// Seeded entries with exact ±0.0 every `zero_every`-th entry and,
    /// when `specials` is set, NaN, ±inf and subnormals mixed in.
    fn special_operand(rows: usize, cols: usize, salt: usize, specials: bool) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let idx = i * cols + j;
            let h = idx.wrapping_mul(2_654_435_761).wrapping_add(salt * 131) % 1013;
            match h % 7 {
                0 => 0.0,
                1 => -0.0,
                _ if specials && h.is_multiple_of(41) => {
                    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -2e-39][h % 5]
                }
                _ => (h as f32) * 0.004 - 2.0,
            }
        })
    }

    #[test]
    fn matmul_tn_is_bit_identical_to_outer_product_oracle() {
        for (t, m, n) in [
            (64, 36, 36),
            (64, 80, 80),
            (64, 36, 80),
            (7, 5, 3),
            (33, 17, 1),
            (1, 9, 20),
            (0, 4, 4),
        ] {
            for specials in [false, true] {
                let a = special_operand(t, m, 1, specials);
                let b = special_operand(t, n, 2, specials);
                let got = a.matmul_tn(&b);
                let want = matmul_tn_oracle(&a, &b);
                assert_eq!(got.shape(), want.shape());
                for (k, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    // Any two NaNs match: a NaN's sign and payload are
                    // unspecified after arithmetic.
                    if x.is_nan() && y.is_nan() {
                        continue;
                    }
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{t}x{m}ᵀ·{t}x{n} specials={specials}: element {k}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
