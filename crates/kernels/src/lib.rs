//! # matopt-kernels
//!
//! Local (single-node) dense and sparse linear-algebra kernels used by the
//! `matopt` distributed-matrix optimizer and its execution engine.
//!
//! The paper's prototype relies on BLAS (Intel MKL) for the innermost
//! compute. This environment has no BLAS available offline, so this crate
//! provides hand-written, cache-aware kernels:
//!
//! * [`DenseMatrix`] — row-major dense matrices with blocked GEMM,
//!   elementwise maps, reductions, row-wise softmax, and LU-based inverse.
//! * [`CsrMatrix`] / [`CooMatrix`] — compressed-sparse-row and coordinate
//!   formats with sparse–dense multiply, conversions, and sparse
//!   elementwise operations.
//! * Tiling helpers ([`DenseMatrix::block`], [`DenseMatrix::from_blocks`])
//!   used to chunk matrices into the physical layouts the optimizer
//!   reasons about.
//! * Deterministic random generation ([`random_dense_normal`],
//!   [`random_sparse_csr`]) for workloads.
//!
//! The kernels are deliberately dependency-light (only `rand` for data
//! generation) so the rest of the workspace can build on them without
//! pulling a numerical stack.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dense;
mod random;
mod solve;
mod sparse;

pub use dense::DenseMatrix;
pub use random::{random_dense_normal, random_sparse_csr, seeded_rng};
pub use solve::{lu_factor, lu_solve, LuError, LuFactors};
pub use sparse::{CooMatrix, CsrMatrix};

/// Tolerance-based float comparison used throughout the test-suites.
///
/// Returns `true` when `a` and `b` differ by at most `tol` in absolute
/// terms or `tol` in relative terms (whichever is looser), which is
/// appropriate for comparing results of re-associated floating-point
/// computations (e.g. a tiled matrix multiply versus a flat one).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(0.0, 0.0, 0.0));
    }

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(100.0, 100.0 + 1e-9, 1e-10));
        assert!(!approx_eq(100.0, 101.0, 1e-6));
    }

    #[test]
    fn approx_eq_small_values_use_absolute_floor() {
        // Near zero the `max(1.0)` scale makes the comparison absolute.
        assert!(approx_eq(1e-12, -1e-12, 1e-9));
    }
}
