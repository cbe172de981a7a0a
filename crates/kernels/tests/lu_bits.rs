//! Bit-identity pin for the LU kernel: `lu_factor`'s elimination and
//! `lu_solve`'s substitutions run as row-slice updates, and every output
//! bit must equal the per-element loops this file keeps a copy of (same
//! order per element: `x − l·y` in ascending `r`, zero multipliers
//! skipped), on inputs that pivot and inputs whose multipliers are zero.

use matopt_kernels::{lu_factor, lu_solve, random_dense_normal, seeded_rng, DenseMatrix};

/// A test-local copy of the element-wise LU the crate shipped before it
/// worked on row slices: the reference every bit is pinned to.
mod per_element {
    use matopt_kernels::DenseMatrix;

    pub struct Lu {
        lu: DenseMatrix,
        perm: Vec<usize>,
    }

    pub fn factor(a: &DenseMatrix) -> Lu {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for r in col + 1..n {
                let v = lu.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            assert!(pivot_val >= 1e-12, "singular test input");
            if pivot_row != col {
                for c in 0..n {
                    let (x, y) = (lu.get(col, c), lu.get(pivot_row, c));
                    lu.set(col, c, y);
                    lu.set(pivot_row, c, x);
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu.get(col, col);
            for r in col + 1..n {
                let factor = lu.get(r, col) / pivot;
                lu.set(r, col, factor);
                if factor != 0.0 {
                    for c in col + 1..n {
                        let v = lu.get(r, c) - factor * lu.get(col, c);
                        lu.set(r, c, v);
                    }
                }
            }
        }
        Lu { lu, perm }
    }

    pub fn solve(f: &Lu, b: &DenseMatrix) -> DenseMatrix {
        let n = f.lu.rows();
        let k = b.cols();
        let mut x = DenseMatrix::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                x.set(i, j, b.get(f.perm[i], j));
            }
        }
        for i in 0..n {
            for r in 0..i {
                let l = f.lu.get(i, r);
                if l != 0.0 {
                    for j in 0..k {
                        let v = x.get(i, j) - l * x.get(r, j);
                        x.set(i, j, v);
                    }
                }
            }
        }
        for i in (0..n).rev() {
            for r in i + 1..n {
                let u = f.lu.get(i, r);
                if u != 0.0 {
                    for j in 0..k {
                        let v = x.get(i, j) - u * x.get(r, j);
                        x.set(i, j, v);
                    }
                }
            }
            let d = f.lu.get(i, i);
            for j in 0..k {
                x.set(i, j, x.get(i, j) / d);
            }
        }
        x
    }
}

fn bits(d: &DenseMatrix) -> Vec<u64> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

/// Three inputs of order `n`: a normal random matrix (pivots at most
/// steps), a sparse one with a heavy diagonal (many zero multipliers, no
/// pivoting), and a reversed-row one whose leading entries are small
/// (a swap at every step).
fn inputs(n: usize) -> Vec<(&'static str, DenseMatrix)> {
    let random = random_dense_normal(n, n, &mut seeded_rng(n as u64));
    let sparse = random.map(|v| if v > 1.0 { v } else { 0.0 });
    let sparse = DenseMatrix::from_fn(n, n, |i, j| {
        sparse.get(i, j) + if i == j { n as f64 } else { 0.0 }
    });
    let reversed = DenseMatrix::from_fn(n, n, |i, j| {
        let near_anti = if i + j == n - 1 { 4.0 } else { 0.0 };
        near_anti + 0.01 * random.get(i, j)
    });
    vec![
        ("random", random),
        ("sparse", sparse),
        ("reversed", reversed),
    ]
}

#[test]
fn inverse_is_bit_identical_to_the_per_element_loops() {
    for n in [1, 2, 7, 32, 96, 128] {
        for (what, a) in inputs(n) {
            let want = per_element::solve(&per_element::factor(&a), &DenseMatrix::identity(n));
            let got = a.inverse().expect("invertible");
            assert!(bits(&got) == bits(&want), "{what} n={n}: inverse bits");
        }
    }
}

#[test]
fn solve_with_many_right_hand_sides_is_bit_identical() {
    for n in [1, 2, 7, 32] {
        let b = random_dense_normal(n, 5, &mut seeded_rng(100 + n as u64));
        for (what, a) in inputs(n) {
            let want = per_element::solve(&per_element::factor(&a), &b);
            let got = lu_solve(&lu_factor(&a).expect("invertible"), &b);
            assert!(bits(&got) == bits(&want), "{what} n={n}: solve bits");
        }
    }
}
