//! # matopt-cost
//!
//! Cost models for annotated compute graphs (§7 of the paper):
//!
//! * [`AnalyticalCostModel`] — closed-form mapping from the analytic
//!   feature vector (flops, network bytes, intermediate bytes, tuple
//!   counts, operator count) to seconds, using the [`matopt_core::Cluster`]
//!   rates.
//! * [`LearnedCostModel`] — per-operation linear regressions fitted from
//!   installation-time benchmark measurements, exactly as the paper
//!   describes: "our implementation runs a set of benchmark computations
//!   for which it collects the running time, and then it uses the
//!   ... analytically-computed features along with those running times as
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
//! [`CurveCostModel`] consumes a [`ThroughputCurve`] — GFLOP/s of the
//! packed GEMM kernel probed across flop volumes — replacing the
//! single-rate CPU term with the shape-dependent throughput the
//! machine was measured at.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod curves;
mod drift;
mod faulty;
mod model;
mod regression;

pub use curves::{CurveCostModel, ThroughputCurve, CURVE_FILE};
pub use drift::{DriftConfig, DriftEvent, DriftMonitor};
pub use faulty::{expected_vertex_time, FaultAwareCostModel};
pub use model::{plan_cost, AnalyticalCostModel, CostKey, CostModel, CostSample, LearnedCostModel};
pub use regression::{fit_ridge, LinearModel, N_FEATURES};
