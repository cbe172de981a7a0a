//! One relational plan per implementation strategy, and with it the
//! type rule of every implementation.
//!
//! In the paper (§3, §2.1) an implementation is a type specification
//! plus a cost function, and SimSQL runs each one as a relational plan
//! over keyed chunks: joins, broadcasts, `SUM … GROUP BY`. Every such
//! plan is a short composition of a few operators (the Tensor
//! Relational Algebra view). [`RelPlan::new`] maps a [`Strategy`], its
//! op and its typed inputs to one of those operators *and* derives the
//! output format, or rejects the inputs (`⊥`). It is the only code that
//! does either: `OpImplDef::evaluate` prices the plan it returns (and
//! adds the cluster-dependent feasibility checks), the engine runs it
//! over chunks and refuses an output format it does not give, and the
//! SQL renderer prints it.

use crate::format::PhysFormat;
use crate::impls::Strategy;
use crate::ops::{Op, OpKind};
use crate::types::MatrixType;

/// The relational operators a strategy's plan is made of. Each applies
/// the plan's kernel: the vertex's op, at chunk granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// Chunk-local map over the one input; a transpose also swaps each
    /// chunk's key.
    Map,
    /// Co-partitioned join: each chunk meets the other input's chunk at
    /// the same key. Two one-tuple inputs make it local to one site; a
    /// COO side is first shuffled onto the other side's chunk grid.
    CoPartition,
    /// Broadcast join: the one-tuple input `side` is copied to every
    /// chunk of the other.
    Broadcast {
        /// Which input is broadcast.
        side: usize,
    },
    /// Cross join: every chunk of input 0 meets every chunk of input 1,
    /// each pair one output chunk, no aggregation.
    Cross,
    /// Join on the contraction index (input 0's column block equals
    /// input 1's row block), the products summed per output key.
    JoinSum {
        /// The smaller side is broadcast instead of both sides being
        /// shuffled on the contraction index.
        broadcast: bool,
    },
    /// Group-by `SUM` of per-chunk partials on the output format's key
    /// (a global `SUM` into one tuple when it has none).
    GroupSum,
    /// The tiles of each row band, grouped on `tileRow`, run the
    /// row-wise kernel across the band (its row-max and row-sum
    /// rounds), joined back to every tile.
    RowBands,
    /// Blocked Gauss–Jordan: one round of joins per diagonal pivot tile.
    PivotRounds,
}

/// One implementation strategy as a relational plan. It holds its input
/// formats inline, so building one allocates nothing: the optimizer
/// builds one per implementation and format combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelPlan {
    /// The operator.
    pub step: RelOp,
    /// The kernel the operator applies.
    pub op: Op,
    /// The output format the type rule derives.
    pub out: PhysFormat,
    inputs: [PhysFormat; 2],
}

impl RelPlan {
    /// The plan of `strategy` for `op` over `inputs`, whose output has
    /// type `out_type`; `None` (`⊥`) when the strategy cannot compute
    /// `op` or cannot take these input formats. A chunked output whose
    /// grid is one chunk is a single tuple (`SingleTuple`, or
    /// `CsrSingle` for CSR tiles): the engine cannot tell them apart.
    /// Whether the output fits a cluster is not part of the rule
    /// (`PhysFormat::feasible`).
    pub fn new(
        strategy: Strategy,
        op: Op,
        inputs: &[(MatrixType, PhysFormat)],
        out_type: &MatrixType,
    ) -> Option<RelPlan> {
        use OpKind as K;
        use PhysFormat as F;
        use RelOp as R;
        use Strategy as S;
        if inputs.len() != op.arity() {
            return None;
        }
        let a = inputs[0].1;
        // A unary op's second format is its first again, never read.
        let b = inputs[inputs.len() - 1].1;
        let (step, out) = match (strategy, op.kind(), a, b) {
            (S::MmSingleLocal, K::MatMul, F::SingleTuple, F::SingleTuple)
            | (S::MmCsrSingleSingle, K::MatMul, F::CsrSingle, F::SingleTuple) => {
                (R::CoPartition, F::SingleTuple)
            }
            (S::MmBcastSingleColstrip, K::MatMul, F::SingleTuple, F::ColStrip { .. }) => {
                (R::Broadcast { side: 0 }, b)
            }
            (S::MmRowstripBcastSingle, K::MatMul, F::RowStrip { .. }, F::SingleTuple) => {
                (R::Broadcast { side: 1 }, a)
            }
            // One output tile per strip pair: the catalog's tiles are
            // square, so the strips must be as wide as they are high.
            (
                S::MmRowstripColstripCross,
                K::MatMul,
                F::RowStrip { height },
                F::ColStrip { width },
            ) if height == width => (R::Cross, F::Tile { side: height }),
            (S::MmTileShuffle, K::MatMul, F::Tile { side }, F::Tile { side: sb })
            | (S::MmCsrTileTile, K::MatMul, F::CsrTile { side }, F::Tile { side: sb })
                if side == sb =>
            {
                (R::JoinSum { broadcast: false }, b)
            }
            (S::MmCooDenseShuffle, K::MatMul, F::Coo, F::Tile { .. }) => {
                (R::JoinSum { broadcast: false }, b)
            }
            (S::MmTileBcast, K::MatMul, F::Tile { side }, F::Tile { side: sb }) if side == sb => {
                (R::JoinSum { broadcast: true }, b)
            }
            (
                S::MmColstripRowstripOuter,
                K::MatMul,
                F::ColStrip { width },
                F::RowStrip { height },
            ) if width == height => (R::JoinSum { broadcast: false }, F::SingleTuple),
            (S::EwCopart, K::Add | K::Sub | K::Hadamard, _, _)
                if a == b && a.is_chunked_dense() =>
            {
                (R::CoPartition, a)
            }
            (S::EwSingleLocal, K::Add | K::Sub | K::Hadamard, F::SingleTuple, F::SingleTuple) => {
                (R::CoPartition, F::SingleTuple)
            }
            (S::AddCooDenseCopart, K::Add, F::Coo, _) if b.is_chunked_dense() => {
                (R::CoPartition, b)
            }
            (S::HadamardCsrDenseCopart, K::Hadamard, F::CsrTile { side }, F::Tile { side: sb })
                if side == sb =>
            {
                (R::CoPartition, a)
            }
            (S::BiasBcast, K::BroadcastAddRow, _, F::SingleTuple) if a.is_dense() => {
                (R::Broadcast { side: 1 }, a)
            }
            // Zero-preserving maps may run on sparse layouts; the others
            // need a dense one (their output is dense anyway).
            (S::UnaryMap, K::Relu | K::ReluGrad | K::Neg | K::ScalarMul, _, _) => (R::Map, a),
            (S::UnaryMap, K::Sigmoid | K::Exp, _, _) if a.is_dense() => (R::Map, a),
            (S::SoftmaxRowAligned, K::Softmax, F::SingleTuple | F::RowStrip { .. }, _)
            | (S::TransposeChunkwise, K::Transpose, F::SingleTuple | F::Tile { .. }, _)
            | (S::TransposeCoo, K::Transpose, F::Coo, _)
            | (S::TransposeCsrSingle, K::Transpose, F::CsrSingle | F::CsrTile { .. }, _)
            | (S::ReduceRowAligned, K::RowSums, F::SingleTuple | F::RowStrip { .. }, _)
            | (S::ReduceColAligned, K::ColSums, F::SingleTuple | F::ColStrip { .. }, _) => {
                (R::Map, a)
            }
            (S::SoftmaxTileTwoRound, K::Softmax, F::Tile { .. }, _) => (R::RowBands, a),
            (S::TransposeChunkwise, K::Transpose, F::RowStrip { height }, _) => {
                (R::Map, F::ColStrip { width: height })
            }
            (S::TransposeChunkwise, K::Transpose, F::ColStrip { width }, _) => {
                (R::Map, F::RowStrip { height: width })
            }
            (S::ReduceTileShuffle, K::RowSums, F::Tile { side }, _) => {
                (R::GroupSum, F::RowStrip { height: side })
            }
            (S::ReduceTileShuffle, K::ColSums, F::Tile { side }, _) => {
                (R::GroupSum, F::ColStrip { width: side })
            }
            (S::ReduceCoo, K::RowSums | K::ColSums, F::Coo, _)
            | (S::InvSingleLocal, K::Inverse, F::SingleTuple, _) => (R::Map, F::SingleTuple),
            (S::InvTileGaussJordan, K::Inverse, F::Tile { .. }, _) => (R::PivotRounds, a),
            (
                S::ReduceScalarLocal,
                K::SumAll | K::FrobeniusNorm,
                F::SingleTuple | F::CsrSingle | F::Coo,
                _,
            ) => (R::GroupSum, F::SingleTuple),
            (S::ReduceScalarTree, K::SumAll | K::FrobeniusNorm, _, _)
                if a.is_chunked_dense() || matches!(a, F::CsrTile { .. }) =>
            {
                (R::GroupSum, F::SingleTuple)
            }
            _ => return None,
        };
        let out = if out.is_chunked_dense() && out.num_tuples(out_type) <= 1.0 {
            F::SingleTuple
        } else if matches!(out, F::CsrTile { .. }) && out.num_tuples(out_type) <= 1.0 {
            F::CsrSingle
        } else {
            out
        };
        Some(RelPlan {
            step,
            op,
            out,
            inputs: [a, b],
        })
    }

    /// The formats of the inputs, in order.
    pub fn inputs(&self) -> &[PhysFormat] {
        &self.inputs[..self.op.arity()]
    }

    /// A transpose's map swaps each chunk's key.
    pub fn swaps_keys(&self) -> bool {
        self.step == RelOp::Map && self.op == Op::Transpose
    }

    /// The key columns the plan's aggregation groups by: `None` when it
    /// aggregates nothing, empty for a global `SUM` into one tuple.
    pub fn group_by(&self) -> Option<&'static [&'static str]> {
        match self.step {
            RelOp::JoinSum { .. } | RelOp::GroupSum => Some(key_cols(self.out)),
            RelOp::RowBands => Some(&["tileRow"]),
            _ => None,
        }
    }
}

/// Key columns of a relation in `format`: its chunk-grid coordinates,
/// or a COO triple's indices.
pub fn key_cols(format: PhysFormat) -> &'static [&'static str] {
    match format {
        PhysFormat::SingleTuple | PhysFormat::CsrSingle => &[],
        PhysFormat::RowStrip { .. } => &["tileRow"],
        PhysFormat::ColStrip { .. } => &["tileCol"],
        PhysFormat::Tile { .. } | PhysFormat::CsrTile { .. } => &["tileRow", "tileCol"],
        PhysFormat::Coo => &["rowIndex", "colIndex"],
    }
}

/// A chunk key restricted to the chunk-grid key columns of `format`:
/// the group a partial of that chunk sums into.
pub fn project_key(format: PhysFormat, (row, col): (u64, u64)) -> (u64, u64) {
    let has = |k| key_cols(format).contains(&k);
    (
        if has("tileRow") { row } else { 0 },
        if has("tileCol") { col } else { 0 },
    )
}
