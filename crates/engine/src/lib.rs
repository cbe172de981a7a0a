//! # matopt-engine
//!
//! The distributed relational engine substrate the paper's prototype
//! runs on. The paper uses SimSQL and PlinyCompute on EC2 clusters;
//! neither is available here, so this crate provides both halves of the
//! substitution documented in `DESIGN.md`:
//!
//! * a **real executor** that runs annotated plans over concrete
//!   chunked relations ([`DistRelation`]) at laptop scale, with every
//!   implementation strategy executed at the chunk granularity its
//!   relational plan implies (tile shuffle joins, strip broadcasts,
//!   group-by SUM aggregations, blocked Gauss–Jordan rounds) and
//!   thread-parallel within chunk batches via the persistent
//!   `matopt-pool` work-stealing pool. One vertex step, two drivers:
//!   the pooled pipeline ([`execute_plan`]) runs an unbudgeted plan's
//!   independent vertices concurrently; the inline walk
//!   ([`execute_plan_serial`]) runs them in id order, and is also every
//!   run with a memory budget (spilling to scratch) and, under a fault
//!   policy or a sparsity-drift rule, [`execute_fault_tolerant`] and
//!   [`execute_adaptive`];
//! * an **analytic simulator** ([`simulate_plan`]) that evaluates the
//!   same plans at paper scale against the [`matopt_core::Cluster`]
//!   model, reproducing wall-clock estimates and the runtime "Fail"
//!   outcomes of §8.2–8.3;
//! * the **calibration harness** ([`collect_samples`]) that measures
//!   micro-benchmarks on the real executor to fit the learned cost
//!   model of §7.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod calibrate;
mod exec;
mod explain;
mod faults;
mod impl_exec;
mod recovery;
mod relplan;
mod schedule;
mod sim;
mod spill;
mod sql;
mod step;
mod train;
mod value;

pub use adaptive::{
    execute_adaptive, execute_adaptive_planned, AdaptiveConfig, AdaptiveError, AdaptiveOutcome,
    ReplanHook,
};
pub use calibrate::collect_samples;
pub use exec::{
    execute_plan, execute_plan_serial, execute_plan_with, reference_eval, reference_eval_all,
    ExecOptions, ExecOutcome, GovernorStats, HedgeConfig, RemoteVertexExec,
};
pub use explain::{
    explain_analyze, explain_analyze_with_faults, explain_plan, AnalyzedStep, ExplainStep,
    PlanAnalysis, PlanExplanation,
};
pub use faults::{parse_fault_spec, FaultEvent, FaultInjector, FaultKind};
pub use impl_exec::{execute_impl, ExecError};
pub use recovery::{execute_fault_tolerant, FtConfig, FtOutcome, InjectedFault, VertexRecovery};
pub use sim::{
    format_hms, simulate_plan, simulate_plan_traced, simulate_plan_with_recovery, FailReason,
    RecoverySimReport, SimOutcome, SimReport, SimStep,
};
pub use spill::{
    decode_relation, encode_relation, push_relation, relation_record_words, take_relation,
    SpillError, SpillManager, SpillTicket,
};
pub use sql::render_sql;
pub use step::{GovernorLease, SharedGovernor, SharedGovernorStats};
pub use train::{
    train, train_resumable, EpochHook, EpochPlanSource, EpochStats, TrainCheckpoint, TrainConfig,
    TrainError, TrainRun, TrainSpec,
};
pub use value::{Block, Chunk, DistRelation, ValueError};
