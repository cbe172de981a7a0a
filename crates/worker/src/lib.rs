//! # matopt-worker
//!
//! Supervised multi-process worker fleet for the matrix-implementation
//! engine: real crash domains behind the [`RemoteVertexExec`] seam.
//!
//! * [`proto`] — the checksummed all-u64-LE message protocol (the same
//!   framing idiom as spill streams and the plan cache);
//! * [`fleet`] — [`fleet::WorkerFleet`]: process spawning, heartbeat
//!   liveness, bounded jittered restart, lineage redispatch;
//! * [`chaos`] — the seeded SIGKILL harness asserting bit-exact sink
//!   equality against the serial in-process reference;
//! * [`signals`] — SIGTERM/SIGINT latching for graceful drains;
//! * the `matopt-workerd` binary — the per-process daemon the fleet
//!   forks.
//!
//! [`RemoteVertexExec`]: matopt_engine::RemoteVertexExec

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod fleet;
pub mod proto;
pub mod signals;

pub use chaos::{derive_schedule, run_schedule, ChaosReport, ChaosSchedule, KillEvent};
pub use fleet::{default_worker_bin, FleetConfig, FleetError, FleetStats, WorkerFleet};
pub use signals::{install_termination_handler, simulate_termination, termination_requested};
