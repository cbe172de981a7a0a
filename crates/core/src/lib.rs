//! # matopt-core
//!
//! The formal model of *Automatic Optimization of Matrix Implementations
//! for Distributed Machine Learning and Linear Algebra* (Luo, Jankov,
//! Yuan, Jermaine — SIGMOD 2021):
//!
//! * [`MatrixType`] — the set `M` of matrix types (§3);
//! * [`PhysFormat`] / [`FormatCatalog`] — the set `P` of physical matrix
//!   implementations: single-tuple, strips, square tiles, relational
//!   triples, and CSR layouts (19 in the default catalog, §8.1);
//! * [`Op`] / [`OpKind`] — the set `A` of 16 atomic computations;
//! * [`OpImplDef`] / [`ImplRegistry`] — the set `I` of 38 atomic
//!   computation implementations, each with a type specification
//!   function over `(M × P)ⁿ` and analytic cost features (§7);
//! * [`Transform`] / [`TransformCatalog`] — the set `T` of 20 physical
//!   matrix transformations;
//! * [`ComputeGraph`] / [`Annotation`] — compute graphs and the
//!   annotation problem (§4);
//! * [`plan_features`] / [`validate`] — type-correctness checking and
//!   the per-plan feature decomposition that cost models consume.
//!
//! The optimizers live in `matopt-opt`, the cost models in
//! `matopt-cost`, and the executing/simulating engine in
//! `matopt-engine`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod annotate;
mod backoff;
mod canon;
mod cluster;
mod dot;
mod features;
mod format;
mod graph;
mod impls;
mod ops;
mod relplan;
mod resource;
mod transforms;
mod types;
mod wire;

pub use annotate::{plan_features, validate, PlanContext, PlanError, PlanFeatures};
pub use backoff::{mix_jitter, BackoffPolicy, SplitMix64};
pub use canon::{
    bulk_checksum, canonical_form, canonical_form_with, fnv1a_128, fnv1a_64, fnv1a_bytes,
    format_from_words, format_words, op_from_words, op_to_words, BulkChecksum, CanonicalForm,
};
pub use cluster::{Cluster, RecoveryPolicy};
pub use dot::{annotated_to_dot, graph_to_dot, training_to_dot, DiffRole};
pub use features::CostFeatures;
pub use format::{
    FormatCatalog, PhysFormat, DEFAULT_STRIP_SIZES, DEFAULT_TILE_SIDES, SPARSE_FORMAT_THRESHOLD,
};
pub use graph::{Annotation, BitSet, ComputeGraph, Node, NodeId, NodeKind, VertexChoice};
pub use impls::{ImplEval, ImplId, ImplRegistry, OpImplDef, Strategy};
pub use ops::{Op, OpKind, TypeError, ALL_OP_KINDS, PAPER_OP_KINDS};
pub use relplan::{key_cols, project_key, RelOp, RelPlan};
pub use resource::{default_scratch_dir, parse_byte_size};
pub use transforms::{Transform, TransformCatalog, TransformKind, ALL_TRANSFORM_KINDS};
pub use types::{MatrixType, DENSE_ENTRY_BYTES, SPARSE_ENTRY_BYTES, TRIPLE_ENTRY_BYTES};
pub use wire::{
    frame_bytes, push_bytes, push_mtype, write_atomic, write_frame, Frame, FrameReader, Framing,
    WireError, WordReader, WIRE_MAGIC, WIRE_MAX_BODY_WORDS,
};
