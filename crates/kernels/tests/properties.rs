//! Property-based tests over the kernel invariants that the rest of the
//! workspace relies on.

use matopt_kernels::{CooMatrix, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

/// Strategy producing a dense matrix with the given shape bounds.
fn dense(max_dim: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data))
    })
}

/// Strategy producing a compatible (A, B) multiply pair.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (DenseMatrix, DenseMatrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-5.0f64..5.0, m * k),
            prop::collection::vec(-5.0f64..5.0, k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    DenseMatrix::from_vec(m, k, a),
                    DenseMatrix::from_vec(k, n, b),
                )
            })
    })
}

fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_naive((a, b) in matmul_pair(40)) {
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        prop_assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn matmul_associativity(
        (m, k, n, p) in (1usize..12, 1usize..12, 1usize..12, 1usize..12),
        seed in 0u64..1000,
    ) {
        let mut rng = matopt_kernels::seeded_rng(seed);
        let a = matopt_kernels::random_dense_normal(m, k, &mut rng);
        let b = matopt_kernels::random_dense_normal(k, n, &mut rng);
        let c = matopt_kernels::random_dense_normal(n, p, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn transpose_involution(a in dense(40)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_of_product_is_reversed_product((a, b) in matmul_pair(16)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn add_commutes(a in dense(20), seed in 0u64..100) {
        let mut rng = matopt_kernels::seeded_rng(seed);
        let b = matopt_kernels::random_dense_normal(a.rows(), a.cols(), &mut rng);
        prop_assert!(a.add(&b).approx_eq(&b.add(&a), 0.0));
    }

    #[test]
    fn csr_round_trips(a in dense(30)) {
        // Threshold half the entries to zero so the matrix is actually sparse.
        let sparse_src = a.map(|v| if v > 0.0 { v } else { 0.0 });
        let csr = CsrMatrix::from_dense(&sparse_src);
        prop_assert!(csr.to_dense().approx_eq(&sparse_src, 0.0));
        let coo = CooMatrix::from_dense(&sparse_src);
        prop_assert!(coo.to_dense().approx_eq(&sparse_src, 0.0));
        prop_assert_eq!(csr.nnz(), coo.nnz());
    }

    #[test]
    fn csr_spmm_matches_dense((a, b) in matmul_pair(24)) {
        let sparse_a = a.map(|v| if v > 0.0 { v } else { 0.0 });
        let csr = CsrMatrix::from_dense(&sparse_a);
        prop_assert!(csr.matmul_dense(&b).approx_eq(&sparse_a.matmul(&b), 1e-10));
    }

    #[test]
    fn csr_transpose_matches_dense(a in dense(24)) {
        let csr = CsrMatrix::from_dense(&a);
        prop_assert!(csr.transpose().to_dense().approx_eq(&a.transpose(), 0.0));
    }

    #[test]
    fn tiling_round_trip(a in dense(40), tr in 1usize..12, tc in 1usize..12) {
        let mut blocks = Vec::new();
        for ti in 0..a.rows().div_ceil(tr) {
            for tj in 0..a.cols().div_ceil(tc) {
                blocks.push(((ti, tj), a.block(ti * tr, tj * tc, tr, tc)));
            }
        }
        let re = DenseMatrix::from_blocks(a.rows(), a.cols(), tr, tc, blocks);
        prop_assert!(re.approx_eq(&a, 0.0));
    }

    #[test]
    fn tiled_matmul_equals_flat_matmul(
        (m, k, n) in (2usize..20, 2usize..20, 2usize..20),
        tile in 1usize..8,
        seed in 0u64..100,
    ) {
        // The fundamental identity the whole system rests on: multiplying
        // tile-by-tile with a shuffle-join + SUM aggregation computes the
        // same product as a flat GEMM.
        let mut rng = matopt_kernels::seeded_rng(seed);
        let a = matopt_kernels::random_dense_normal(m, k, &mut rng);
        let b = matopt_kernels::random_dense_normal(k, n, &mut rng);
        let mut out = DenseMatrix::zeros(m, n);
        for ti in 0..m.div_ceil(tile) {
            for tj in 0..n.div_ceil(tile) {
                let mut acc: Option<DenseMatrix> = None;
                for tk in 0..k.div_ceil(tile) {
                    let ab = a
                        .block(ti * tile, tk * tile, tile, tile)
                        .matmul(&b.block(tk * tile, tj * tile, tile, tile));
                    acc = Some(match acc {
                        None => ab,
                        Some(prev) => prev.add(&ab),
                    });
                }
                out.set_block(ti * tile, tj * tile, &acc.unwrap());
            }
        }
        prop_assert!(out.approx_eq(&a.matmul(&b), 1e-9));
    }

    #[test]
    fn inverse_is_two_sided(n in 1usize..12, seed in 0u64..100) {
        // Diagonally dominant => invertible and well conditioned.
        let mut rng = matopt_kernels::seeded_rng(seed);
        let mut a = matopt_kernels::random_dense_normal(n, n, &mut rng);
        for i in 0..n {
            let v = a.get(i, i) + n as f64 * 4.0;
            a.set(i, i, v);
        }
        let inv = a.inverse().unwrap();
        let id = DenseMatrix::identity(n);
        prop_assert!(a.matmul(&inv).approx_eq(&id, 1e-8));
        prop_assert!(inv.matmul(&a).approx_eq(&id, 1e-8));
    }

    #[test]
    fn softmax_rows_are_distributions(a in dense(20)) {
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f64 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(s.row(r).iter().all(|v| *v >= 0.0));
        }
    }
}
