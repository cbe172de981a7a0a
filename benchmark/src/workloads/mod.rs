//! The five closed-loop workloads.

pub mod exec;
pub mod fleet_exec;
pub mod plan_miss;
pub mod serve_mix;
