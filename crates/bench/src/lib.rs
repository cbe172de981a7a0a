//! # matopt-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§8) — see `figures` for the per-figure functions
//! and `src/bin/` for the runnable generators. `EXPERIMENTS.md` at the
//! workspace root records paper-vs-measured values for each.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;

pub use harness::{cell, format_opt, hms, AutoPlan, Env, FigTable, DEFAULT_BEAM};
