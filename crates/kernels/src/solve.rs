//! LU factorization with partial pivoting, linear solves, and matrix
//! inversion.
//!
//! The `inv_single_local` atomic-computation implementation and the
//! sub-block inverses of the paper's two-level block-wise inverse
//! experiment (§8.2) bottom out here. The learned cost model also uses
//! [`lu_solve`] to solve its normal equations — the library dogfoods its
//! own kernels.

use crate::DenseMatrix;

/// Error raised when a matrix cannot be factorized/inverted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// The input was not square.
    NotSquare,
    /// A zero (or numerically negligible) pivot was encountered; the
    /// matrix is singular to working precision.
    Singular {
        /// Index of the failing pivot column.
        pivot: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "matrix is not square"),
            LuError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at column {pivot})")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// The result of an LU factorization with partial pivoting: `P·A = L·U`
/// stored compactly (unit-lower `L` below the diagonal, `U` on and above).
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    /// `perm[i]` is the row of the original matrix that ended up in row `i`.
    perm: Vec<usize>,
    /// Number of row swaps performed (parity of the permutation).
    swaps: usize,
}

impl LuFactors {
    /// Order of the factorized matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix, computed from the pivots.
    pub fn determinant(&self) -> f64 {
        let mut det = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..self.order() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

/// Numerical threshold below which a pivot is treated as zero.
const PIVOT_EPS: f64 = 1e-12;

/// Factorizes `a` as `P·A = L·U` with partial pivoting.
pub fn lu_factor(a: &DenseMatrix) -> Result<LuFactors, LuError> {
    if a.rows() != a.cols() {
        return Err(LuError::NotSquare);
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut swaps = 0usize;

    for col in 0..n {
        // Partial pivot: pick the largest magnitude entry in this column.
        let mut pivot_row = col;
        let mut pivot_val = lu.get(col, col).abs();
        for r in col + 1..n {
            let v = lu.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < PIVOT_EPS {
            return Err(LuError::Singular { pivot: col });
        }
        if pivot_row != col {
            swap_rows(&mut lu, col, pivot_row);
            perm.swap(col, pivot_row);
            swaps += 1;
        }
        // Eliminate below the pivot, one row-slice AXPY per row.
        let (done, below) = lu.data_mut().split_at_mut((col + 1) * n);
        let pivot_row = &done[col * n..];
        let pivot = pivot_row[col];
        for row in below.chunks_exact_mut(n) {
            let factor = row[col] / pivot;
            row[col] = factor;
            if factor != 0.0 {
                sub_scaled(&mut row[col + 1..], factor, &pivot_row[col + 1..]);
            }
        }
    }
    Ok(LuFactors { lu, perm, swaps })
}

/// `x -= a · y`, element by element.
fn sub_scaled(x: &mut [f64], a: f64, y: &[f64]) {
    for (xv, yv) in x.iter_mut().zip(y) {
        *xv -= a * yv;
    }
}

fn swap_rows(m: &mut DenseMatrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    let cols = m.cols();
    let data = m.data_mut();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (head, tail) = data.split_at_mut(hi * cols);
    head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
}

/// Solves `A · X = B` given the LU factors of `A`; `B` may have any
/// number of right-hand-side columns.
pub fn lu_solve(factors: &LuFactors, b: &DenseMatrix) -> DenseMatrix {
    let n = factors.order();
    assert_eq!(b.rows(), n, "rhs row count must match the matrix order");
    let k = b.cols();
    // Apply the permutation to the right-hand side.
    let mut x = DenseMatrix::zeros(n, k);
    for (i, row) in x.data_mut().chunks_exact_mut(k).enumerate() {
        row.copy_from_slice(b.row(factors.perm[i]));
    }
    let xd = x.data_mut();
    // Forward substitution with unit-lower L: row i less each earlier
    // row r scaled by L[i][r], in ascending r.
    for i in 0..n {
        let (done, rest) = xd.split_at_mut(i * k);
        for (r, &l) in factors.lu.row(i)[..i].iter().enumerate() {
            if l != 0.0 {
                sub_scaled(&mut rest[..k], l, &done[r * k..(r + 1) * k]);
            }
        }
    }
    // Back substitution with U: row i less each later row r scaled by
    // U[i][r], in ascending r, then divided by the pivot.
    for i in (0..n).rev() {
        let (head, later) = xd.split_at_mut((i + 1) * k);
        let xi = &mut head[i * k..];
        let u_row = factors.lu.row(i);
        for (r, &u) in u_row.iter().enumerate().skip(i + 1) {
            if u != 0.0 {
                sub_scaled(xi, u, &later[(r - i - 1) * k..(r - i) * k]);
            }
        }
        let d = u_row[i];
        for v in xi {
            *v /= d;
        }
    }
    x
}

impl DenseMatrix {
    /// Inverse via LU factorization with partial pivoting.
    ///
    /// # Errors
    /// Returns [`LuError`] when the matrix is non-square or singular.
    pub fn inverse(&self) -> Result<DenseMatrix, LuError> {
        let factors = lu_factor(self)?;
        Ok(lu_solve(&factors, &DenseMatrix::identity(self.rows())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_of_identity() {
        let i = DenseMatrix::identity(4);
        assert!(i.inverse().unwrap().approx_eq(&i, 1e-12));
    }

    #[test]
    fn inverse_known_2x2() {
        let a = DenseMatrix::from_vec(2, 2, vec![4.0, 7.0, 2.0, 6.0]);
        let inv = a.inverse().unwrap();
        let expect = DenseMatrix::from_vec(2, 2, vec![0.6, -0.7, -0.2, 0.4]);
        assert!(inv.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        // Diagonally-dominant matrices are well conditioned.
        let n = 24;
        let a = DenseMatrix::from_fn(n, n, |r, c| {
            if r == c {
                n as f64 + 1.0
            } else {
                ((r * 7 + c * 3) % 5) as f64 * 0.25
            }
        });
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).approx_eq(&DenseMatrix::identity(n), 1e-9));
        assert!(inv.matmul(&a).approx_eq(&DenseMatrix::identity(n), 1e-9));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(a.inverse(), Err(LuError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert_eq!(a.inverse().unwrap_err(), LuError::NotSquare);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let inv = a.inverse().unwrap();
        assert!(inv.approx_eq(&a, 1e-12)); // a permutation is its own inverse
    }

    #[test]
    fn determinant_from_pivots() {
        let a = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 2.0]);
        let f = lu_factor(&a).unwrap();
        assert!(crate::approx_eq(f.determinant(), 6.0, 1e-12));
        let swap = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(crate::approx_eq(
            lu_factor(&swap).unwrap().determinant(),
            -1.0,
            1e-12
        ));
    }

    #[test]
    fn lu_solve_multiple_rhs() {
        let a = DenseMatrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 8.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![2.0, 4.0, 8.0, 12.0, 16.0, 24.0]);
        let f = lu_factor(&a).unwrap();
        let x = lu_solve(&f, &b);
        let expect = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 2.0, 3.0, 2.0, 3.0]);
        assert!(x.approx_eq(&expect, 1e-12));
    }
}
