//! # matopt-cost
//!
//! The cost model for annotated compute graphs (§7 of the paper):
//!
//! * [`CostModel`] — one linear map from the analytic feature vector
//!   (flops, network bytes, intermediate bytes, tuple counts, operator
//!   count) to seconds, with its coefficients from one of two sources:
//!   the [`matopt_core::Cluster`] rates ([`CostModel::analytical`],
//!   optionally with MatMul's flop rate shaped by a measured
//!   [`ThroughputCurve`] through [`CostModel::with_curve`]), or
//!   per-operation regressions fitted from installation-time benchmark
//!   measurements ([`CostModel::fit`]), exactly as the paper describes:
//!   "our implementation runs a set of benchmark computations for which
//!   it collects the running time, and then it uses the ...
//!   analytically-computed features along with those running times as
//!   input into a regression that is performed for each operation."
//! * [`plan_cost`] — the §4.3 plan objective `Cost(G') = Σ v.c + Σ e.c`.
//!
//! The regressions are solved with the LU factorization from
//! `matopt-kernels` — the library's own linear algebra.
//!
//! [`DriftMonitor`] closes the predict → measure → recalibrate loop:
//! it tracks per-plan measured/predicted runtime ratios and reports
//! when a deployed model's predictions have drifted out of band.
//!
//! [`ThroughputCurve`] is GFLOP/s of the packed GEMM kernel probed
//! across flop volumes; a model over it replaces the single-rate CPU
//! term with the shape-dependent throughput the machine was measured
//! at.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod curves;
mod drift;
mod model;
mod regression;

pub use curves::{ThroughputCurve, CURVE_FILE};
pub use drift::{DriftConfig, DriftEvent, DriftMonitor};
pub use model::{plan_cost, AnalyticalCostModel, CostKey, CostModel, CostSample};
pub use regression::{fit_ridge, LinearModel, N_FEATURES};
