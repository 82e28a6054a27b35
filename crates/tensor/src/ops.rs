//! Kernels used by the synthetic functional modules.
//!
//! All row-oriented: a `batch x dim` matrix holds one sample per row.
//! Every fallible operation validates shapes and returns
//! [`TensorError`] instead of panicking
//! (guideline C-VALIDATE).

use crate::{Matrix, Result, TensorError};

/// Matrix product `a * b`.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    // i-k-j loop order: streams through b's rows, cache-friendly for
    // row-major layout.
    for i in 0..m {
        for p in 0..k {
            let aip = a.at(i, p);
            if aip == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[p * n..(p + 1) * n];
            let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
    Ok(out)
}

/// Element-wise sum `a + b`.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless shapes are equal.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = a.clone();
    for (o, &v) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += v;
    }
    Ok(out)
}

/// Adds a `1 x dim` bias row to every row of `a`.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `bias` is `1 x a.cols()`.
pub fn add_bias(a: &Matrix, bias: &Matrix) -> Result<Matrix> {
    if bias.rows() != 1 || bias.cols() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias",
            lhs: a.shape(),
            rhs: bias.shape(),
        });
    }
    let mut out = a.clone();
    let n = a.cols();
    for r in 0..a.rows() {
        let row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        for (o, &b) in row.iter_mut().zip(bias.as_slice()) {
            *o += b;
        }
    }
    Ok(out)
}

/// Scales every element by `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    let mut out = a.clone();
    for v in out.as_mut_slice() {
        *v *= s;
    }
    out
}

/// GELU activation (tanh approximation), element-wise.
pub fn gelu(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for v in out.as_mut_slice() {
        let x = *v;
        let inner = 0.797_884_6 * (x + 0.044_715 * x * x * x);
        *v = 0.5 * x * (1.0 + inner.tanh());
    }
    out
}

/// ReLU activation, element-wise.
pub fn relu(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for v in out.as_mut_slice() {
        *v = v.max(0.0);
    }
    out
}

/// Row-wise layer normalization (zero mean, unit variance per row, eps
/// for stability). Rows of length zero are left untouched.
pub fn layer_norm(a: &Matrix) -> Matrix {
    const EPS: f32 = 1e-5;
    let mut out = a.clone();
    let n = a.cols();
    if n == 0 {
        return out;
    }
    for r in 0..a.rows() {
        let row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + EPS).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) * inv;
        }
    }
    out
}

/// Row-wise softmax with the usual max-subtraction for stability.
pub fn softmax(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    let n = a.cols();
    if n == 0 {
        return out;
    }
    for r in 0..a.rows() {
        let row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Normalizes each row to unit L2 norm. Zero rows stay zero.
pub fn l2_normalize(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    let n = a.cols();
    for r in 0..a.rows() {
        let row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    out
}

/// Cosine similarity between every row of `a` and every row of `b`:
/// output is `a.rows() x b.rows()`.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `a.cols() == b.cols()`.
pub fn cosine_similarity(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "cosine_similarity",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let an = l2_normalize(a);
    let bn = l2_normalize(b);
    matmul(&an, &bn.transposed())
}

/// Index of the maximum value in each row. Ties resolve to the lowest index.
///
/// # Errors
///
/// [`TensorError::Empty`] if the matrix has zero columns.
pub fn argmax_rows(a: &Matrix) -> Result<Vec<usize>> {
    if a.cols() == 0 {
        return Err(TensorError::Empty { op: "argmax_rows" });
    }
    let mut out = Vec::with_capacity(a.rows());
    for r in 0..a.rows() {
        let row = a.row(r)?;
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Mean over rows, producing a `1 x cols` matrix.
///
/// # Errors
///
/// [`TensorError::Empty`] if the matrix has zero rows.
pub fn mean_rows(a: &Matrix) -> Result<Matrix> {
    if a.rows() == 0 {
        return Err(TensorError::Empty { op: "mean_rows" });
    }
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            *out.at_mut(0, c) += a.at(r, c);
        }
    }
    let inv = 1.0 / a.rows() as f32;
    for v in out.as_mut_slice() {
        *v *= inv;
    }
    Ok(out)
}

/// Concatenates matrices with equal column counts by stacking rows.
///
/// # Errors
///
/// [`TensorError::Empty`] on an empty input list;
/// [`TensorError::ShapeMismatch`] if column counts differ.
pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
    let first = parts.first().ok_or(TensorError::Empty { op: "vstack" })?;
    let cols = first.cols();
    let mut data = Vec::new();
    let mut rows = 0;
    for p in parts {
        if p.cols() != cols {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: (rows, cols),
                rhs: p.shape(),
            });
        }
        data.extend_from_slice(p.as_slice());
        rows += p.rows();
    }
    Matrix::from_vec(rows, cols, data)
}

/// Concatenates matrices with equal row counts side-by-side.
///
/// # Errors
///
/// [`TensorError::Empty`] on an empty input list;
/// [`TensorError::ShapeMismatch`] if row counts differ.
pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
    let first = parts.first().ok_or(TensorError::Empty { op: "hstack" })?;
    let rows = first.rows();
    for p in parts {
        if p.rows() != rows {
            return Err(TensorError::ShapeMismatch {
                op: "hstack",
                lhs: first.shape(),
                rhs: p.shape(),
            });
        }
    }
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let mut offset = 0;
        for p in parts {
            let src = p.row(r)?;
            out.as_mut_slice()[r * cols + offset..r * cols + offset + src.len()]
                .copy_from_slice(src);
            offset += src.len();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::seeded_gaussian("mm", 4, 4, 1.0);
        let id = Matrix::identity(4);
        assert!(matmul(&a, &id).unwrap().approx_eq(&a, 1e-6));
        assert!(matmul(&id, &a).unwrap().approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn add_and_add_bias() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        let bias = m(1, 2, &[0.5, -0.5]);
        assert_eq!(
            add_bias(&a, &bias).unwrap().as_slice(),
            &[1.5, 1.5, 3.5, 3.5]
        );
        assert!(add_bias(&a, &m(1, 3, &[0.0; 3])).is_err());
        assert!(add(&a, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn gelu_relu_fixed_points() {
        let a = m(1, 3, &[-1.0, 0.0, 2.0]);
        let g = gelu(&a);
        assert!(g.at(0, 1).abs() < 1e-6);
        assert!((g.at(0, 2) - 1.954_5).abs() < 1e-3);
        assert!(g.at(0, 0) < 0.0 && g.at(0, 0) > -0.2);
        let r = relu(&a);
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn layer_norm_rows_have_zero_mean_unit_var() {
        let a = Matrix::seeded_gaussian("ln", 3, 64, 3.0);
        let n = layer_norm(&a);
        for r in 0..3 {
            let row = n.row(r).unwrap();
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = m(1, 3, &[1.0, 3.0, 2.0]);
        let s = softmax(&a);
        let sum: f32 = s.row(0).unwrap().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s.at(0, 1) > s.at(0, 2) && s.at(0, 2) > s.at(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = m(1, 4, &[0.0, 1.0, 2.0, 3.0]);
        let b = m(1, 4, &[100.0, 101.0, 102.0, 103.0]);
        assert!(softmax(&a).approx_eq(&softmax(&b), 1e-6));
    }

    #[test]
    fn l2_normalize_unit_rows_and_zero_rows() {
        let a = m(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        let n = l2_normalize(&a);
        assert!((n.at(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.at(0, 1) - 0.8).abs() < 1e-6);
        assert_eq!(n.row(1).unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_self_is_one() {
        let a = Matrix::seeded_gaussian("cos", 3, 16, 1.0);
        let c = cosine_similarity(&a, &a).unwrap();
        for r in 0..3 {
            assert!((c.at(r, r) - 1.0).abs() < 1e-5);
        }
        assert!(c.max_abs() <= 1.0 + 1e-5);
    }

    #[test]
    fn cosine_similarity_orthogonal_is_zero() {
        let a = m(1, 2, &[1.0, 0.0]);
        let b = m(1, 2, &[0.0, 1.0]);
        assert!(cosine_similarity(&a, &b).unwrap().at(0, 0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_of_ties() {
        let a = m(2, 3, &[1.0, 5.0, 5.0, 7.0, 2.0, 7.0]);
        assert_eq!(argmax_rows(&a).unwrap(), vec![1, 0]);
        assert!(argmax_rows(&Matrix::zeros(2, 0)).is_err());
    }

    #[test]
    fn mean_rows_averages() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mr = mean_rows(&a).unwrap();
        assert_eq!(mr.as_slice(), &[2.0, 3.0]);
        assert!(mean_rows(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn stack_operations() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let v = vstack(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = m(1, 1, &[9.0]);
        let h = hstack(&[&a, &m(1, 1, &[7.0]), &c]).unwrap();
        assert_eq!(h.as_slice(), &[1.0, 2.0, 7.0, 9.0]);
        assert!(vstack(&[]).is_err());
        assert!(hstack(&[&a, &b]).is_err());
    }

    #[test]
    fn scale_multiplies_everything() {
        let a = m(1, 3, &[1.0, -2.0, 3.0]);
        assert_eq!(scale(&a, -2.0).as_slice(), &[-2.0, 4.0, -6.0]);
    }
}
