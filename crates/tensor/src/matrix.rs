//! Dense row-major `f32` matrix.

use std::fmt;

use rand_chacha::rand_core::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::seed;

/// Error type for tensor operations.
///
/// Carries enough context to debug a shape mismatch without a debugger:
/// the operation name and the offending dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the named operation.
    ShapeMismatch {
        /// Operation that failed (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// An operation required a non-empty matrix but got zero rows/cols.
    Empty {
        /// Operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds.
    OutOfBounds {
        /// Operation that failed.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: shape mismatch {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::Empty { op } => write!(f, "{op}: empty matrix"),
            TensorError::OutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds {bound}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Dense row-major matrix of `f32`.
///
/// The only tensor type in the workspace. A "vector" is a `1 x n` matrix;
/// a batch of embeddings is a `batch x dim` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. Gaussian-ish entries derived
    /// deterministically from `label`.
    ///
    /// The entries are produced by a ChaCha8 stream seeded from
    /// [`seed::seed_from_label`], then shaped by a 4-sample Irwin–Hall sum
    /// (a cheap, branch-free normal approximation adequate for synthetic
    /// weights). The same `(label, rows, cols, std)` always produces the
    /// same bits on every platform — the determinism Table VIII relies on.
    pub fn seeded_gaussian(label: &str, rows: usize, cols: usize, std: f32) -> Self {
        let mut rng = ChaCha8Rng::from_seed(seed::seed_from_label(label));
        // Uniform f32 in [0, 1) from the top 24 bits of a ChaCha word.
        let mut uniform = move || (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            // Irwin-Hall(4) centered: sum of 4 U(0,1) has mean 2, var 1/3.
            let s: f32 = uniform() + uniform() + uniform() + uniform();
            let z = (s - 2.0) * 1.732_050_8; // scale to unit variance
            data.push(z * std);
        }
        Matrix { rows, cols, data }
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

    /// Element accessor. Panics on out-of-bounds (use in hot inner loops
    /// only with trusted indices).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Borrow a row as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `r >= rows`.
    pub fn row(&self, r: usize) -> crate::Result<&[f32]> {
        if r >= self.rows {
            return Err(TensorError::OutOfBounds {
                op: "row",
                index: r,
                bound: self.rows,
            });
        }
        Ok(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Mutable row slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> crate::Result<&mut [f32]> {
        if r >= self.rows {
            return Err(TensorError::OutOfBounds {
                op: "row_mut",
                index: r,
                bound: self.rows,
            });
        }
        Ok(&mut self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// The underlying row-major buffer.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the transpose.
    pub(crate) fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.at(c, r))
    }
}

/// Constructors and comparisons the crate's tests share.
#[cfg(test)]
impl Matrix {
    /// Creates a matrix from a row-major buffer of `rows * cols` values.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length");
        Matrix { rows, cols, data }
    }

    /// Creates an identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub(crate) fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Approximate equality within `eps`, for comparing
    /// mathematically-equal but differently-ordered computations.
    pub(crate) fn approx_eq(&self, other: &Matrix, eps: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= eps)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self.at(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.as_slice().len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.at(1, 2), 12.0);
    }

    #[test]
    fn seeded_gaussian_is_deterministic() {
        let a = Matrix::seeded_gaussian("x", 5, 7, 1.0);
        let b = Matrix::seeded_gaussian("x", 5, 7, 1.0);
        assert_eq!(a, b);
        let c = Matrix::seeded_gaussian("y", 5, 7, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_gaussian_respects_std() {
        let a = Matrix::seeded_gaussian("x", 50, 50, 1.0);
        let b = Matrix::seeded_gaussian("x", 50, 50, 0.5);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x * 0.5 - y).abs() < 1e-6);
        }
        // Sample std should be near 1 for 2500 samples.
        let n = a.as_slice().len() as f32;
        let mean = a.as_slice().iter().sum::<f32>() / n;
        let var = a.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        assert!((var.sqrt() - 1.0).abs() < 0.1, "std = {}", var.sqrt());
    }

    #[test]
    fn identity_and_transpose() {
        let id = Matrix::identity(4);
        assert_eq!(id, id.transposed());
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.at(2, 1), m.at(1, 2));
    }

    #[test]
    fn row_accessors_bounds_checked() {
        let m = Matrix::zeros(2, 3);
        assert!(m.row(1).is_ok());
        assert!(matches!(
            m.row(2),
            Err(TensorError::OutOfBounds {
                index: 2,
                bound: 2,
                ..
            })
        ));
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let mut b = a.clone();
        *b.at_mut(0, 0) = 1.0 + 1e-7;
        assert!(a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::seeded_gaussian("big", 20, 20, 1.0);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(format!("{e}"), "matmul: shape mismatch 2x3 vs 4x5");
    }
}
