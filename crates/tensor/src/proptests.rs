//! Property-based tests for the tensor kernels.

use proptest::prelude::*;

use crate::{ops, Matrix};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v))
    })
}

proptest! {
    #[test]
    fn matmul_associates_with_identity(m in arb_matrix(8)) {
        let id = Matrix::identity(m.cols());
        let out = ops::matmul(&m, &id).unwrap();
        prop_assert!(out.approx_eq(&m, 1e-4));
    }

    #[test]
    fn transpose_is_involutive(m in arb_matrix(8)) {
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn matmul_transpose_identity((a, b) in (arb_matrix(6), arb_matrix(6))) {
        // (A B)^T == B^T A^T whenever shapes line up; build B to match A.
        let b2 = Matrix::from_fn(a.cols(), b.rows(), |r, c| b.at(c % b.rows(), r % b.cols()));
        let ab_t = ops::matmul(&a, &b2).unwrap().transposed();
        let bt_at = ops::matmul(&b2.transposed(), &a.transposed()).unwrap();
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-3));
    }

    #[test]
    fn l2_normalized_rows_have_unit_or_zero_norm(m in arb_matrix(8)) {
        let n = ops::l2_normalize(&m);
        for r in 0..n.rows() {
            let norm: f32 = n.row(r).unwrap().iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!(norm < 1e-6 || (norm - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_similarity_bounded(m in arb_matrix(6)) {
        let c = ops::cosine_similarity(&m, &m).unwrap();
        prop_assert!(c.max_abs() <= 1.0 + 1e-4);
    }

    #[test]
    fn add_commutes((a, b) in (arb_matrix(6), arb_matrix(6))) {
        let b2 = Matrix::from_fn(a.rows(), a.cols(), |r, c| b.at(r % b.rows(), c % b.cols()));
        let x = ops::add(&a, &b2).unwrap();
        let y = ops::add(&b2, &a).unwrap();
        prop_assert!(x.approx_eq(&y, 1e-6));
    }

    #[test]
    fn argmax_within_bounds(m in arb_matrix(8)) {
        let idx = ops::argmax_rows(&m).unwrap();
        prop_assert_eq!(idx.len(), m.rows());
        prop_assert!(idx.iter().all(|&i| i < m.cols()));
    }

    #[test]
    fn seeded_gaussian_label_determinism(label in "[a-z]{1,12}", r in 1usize..6, c in 1usize..6) {
        let a = Matrix::seeded_gaussian(&label, r, c, 1.0);
        let b = Matrix::seeded_gaussian(&label, r, c, 1.0);
        prop_assert_eq!(a, b);
    }
}
