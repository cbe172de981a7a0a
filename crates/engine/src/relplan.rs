//! One relational plan per implementation strategy.
//!
//! In the paper (§3, §2.1) an implementation is a type specification
//! plus a cost function, and SimSQL runs each one as a relational plan
//! over keyed chunks: joins, broadcasts, `SUM … GROUP BY`. Every such
//! plan is a short composition of a few operators (the Tensor
//! Relational Algebra view). [`RelPlan::new`] maps a [`Strategy`], its
//! op and its input and output formats to one of those operators;
//! [`crate::execute_impl`] runs the plan over chunks and
//! [`crate::render_sql`] prints it, so the run and the SQL cannot drift
//! apart. The output format is an input here: the type specification
//! (`OpImplDef::evaluate`) decides it, and the plan only keys its output
//! chunks by it.

use matopt_core::{Op, PhysFormat, Strategy};

/// The relational operators a strategy's plan is made of. Each applies
/// the plan's kernel: the vertex's op, at chunk granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelOp {
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

/// One implementation strategy as a relational plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RelPlan {
    /// The operator.
    pub step: RelOp,
    /// The kernel the operator applies.
    pub op: Op,
    /// The formats of the inputs, in order.
    pub inputs: Vec<PhysFormat>,
    /// The output format the type specification chose.
    pub out: PhysFormat,
}

impl RelPlan {
    /// The plan of `strategy` for `op` over inputs in `inputs`, writing
    /// `out`.
    pub fn new(strategy: Strategy, op: Op, inputs: &[PhysFormat], out: PhysFormat) -> Self {
        use Strategy as S;
        let step = match strategy {
            S::UnaryMap
            | S::SoftmaxRowAligned
            | S::TransposeChunkwise
            | S::TransposeCoo
            | S::TransposeCsrSingle
            | S::ReduceRowAligned
            | S::ReduceColAligned
            | S::ReduceCoo
            | S::InvSingleLocal => RelOp::Map,
            S::MmSingleLocal
            | S::MmCsrSingleSingle
            | S::EwCopart
            | S::EwSingleLocal
            | S::AddCooDenseCopart
            | S::HadamardCsrDenseCopart => RelOp::CoPartition,
            S::MmBcastSingleColstrip => RelOp::Broadcast { side: 0 },
            S::MmRowstripBcastSingle | S::BiasBcast => RelOp::Broadcast { side: 1 },
            S::MmRowstripColstripCross => RelOp::Cross,
            S::MmTileShuffle
            | S::MmCsrTileTile
            | S::MmCooDenseShuffle
            | S::MmColstripRowstripOuter => RelOp::JoinSum { broadcast: false },
            S::MmTileBcast => RelOp::JoinSum { broadcast: true },
            S::ReduceTileShuffle | S::ReduceScalarLocal | S::ReduceScalarTree => RelOp::GroupSum,
            S::SoftmaxTileTwoRound => RelOp::RowBands,
            S::InvTileGaussJordan => RelOp::PivotRounds,
        };
        RelPlan {
            step,
            op,
            inputs: inputs.to_vec(),
            out,
        }
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
pub(crate) fn key_cols(format: PhysFormat) -> &'static [&'static str] {
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
pub(crate) fn project_key(format: PhysFormat, (row, col): (u64, u64)) -> (u64, u64) {
    let has = |k| key_cols(format).contains(&k);
    (
        if has("tileRow") { row } else { 0 },
        if has("tileCol") { col } else { 0 },
    )
}
