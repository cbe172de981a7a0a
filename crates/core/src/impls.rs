//! Atomic computation implementations — the set `I` of the paper (§3):
//! concrete, costed algorithms for each atomic computation, each with a
//! type specification function over `(M × P)ⁿ` that returns the output
//! physical implementation or `⊥`.
//!
//! The prototype described in §8.1 ships 38 atomic computation
//! implementations; [`ImplRegistry::paper_default`] registers exactly
//! that many (a test pins the count and the names).

use crate::features::CostFeatures;
use crate::format::PhysFormat;
use crate::ops::{Op, OpKind};
use crate::relplan::RelPlan;
use crate::types::MatrixType;
use crate::Cluster;

/// Identifier of an implementation within an [`ImplRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImplId(pub u16);

impl ImplId {
    /// The registry index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The algorithmic strategy of an implementation: what join/compute
/// shape the relational engine runs for it. Several registry entries
/// share a strategy (e.g. `Add`/`Sub`/`Hadamard` each get their own
/// co-partitioned entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// single × single on one worker (plain local GEMM).
    MmSingleLocal,
    /// Broadcast a single-tuple LHS to every worker holding a column
    /// strip of the RHS (the fast path of the §2.1 motivating example).
    MmBcastSingleColstrip,
    /// Row strips of the LHS each multiply a broadcast single-tuple RHS.
    MmRowstripBcastSingle,
    /// Row strips × column strips cross join — no aggregation needed;
    /// produces one square tile per strip pair (requires equal strip
    /// sizes).
    MmRowstripColstripCross,
    /// tile × tile shuffle join on the contraction index plus a
    /// group-by SUM of partial products.
    MmTileShuffle,
    /// tile × tile broadcasting whichever side is smaller; output rows
    /// complete locally, no aggregation shuffle.
    MmTileBcast,
    /// Column strips of the LHS join row strips of the RHS on the strip
    /// index; each pair contributes a full-size outer product that a
    /// global SUM aggregates into one tuple.
    MmColstripRowstripOuter,
    /// CSR tiles × dense tiles shuffle join + group-by SUM.
    MmCsrTileTile,
    /// Local CSR single × dense single multiply.
    MmCsrSingleSingle,
    /// COO triples join dense tiles on the column index + group-by SUM —
    /// the pure relational matmul of the paper's introduction.
    MmCooDenseShuffle,
    /// Elementwise binary op over two identically-chunked dense
    /// relations, via a co-partitioned join.
    EwCopart,
    /// Elementwise binary op over two single-tuple matrices on one
    /// worker.
    EwSingleLocal,
    /// COO triples scatter-added into a dense chunked matrix.
    AddCooDenseCopart,
    /// CSR tiles ∘ dense tiles, preserving the sparse pattern.
    HadamardCsrDenseCopart,
    /// Broadcast a single-tuple row vector and add it to every chunk.
    BiasBcast,
    /// Chunk-local elementwise map, preserving the layout.
    UnaryMap,
    /// Row-wise softmax on a row-aligned layout (single or row strips).
    SoftmaxRowAligned,
    /// Row-wise softmax on tiles: two reduction rounds (row max, row
    /// sum) broadcast back to the tiles.
    SoftmaxTileTwoRound,
    /// Transpose by transposing each chunk and swapping its coordinates.
    TransposeChunkwise,
    /// Transpose COO triples by swapping indices (pipelined map).
    TransposeCoo,
    /// Transpose CSR payloads (single tuple or tiles) by re-bucketing
    /// each block and swapping its coordinates.
    TransposeCsrSingle,
    /// Row sums on a row-aligned layout (local per chunk).
    ReduceRowAligned,
    /// Column sums on a column-aligned layout (local per chunk).
    ReduceColAligned,
    /// Row/column sums over tiles: per-tile partial vectors shuffled to
    /// a group-by SUM.
    ReduceTileShuffle,
    /// Row/column sums over COO triples: group-by on one index.
    ReduceCoo,
    /// LU inverse of a single-tuple matrix on one worker.
    InvSingleLocal,
    /// Distributed blocked Gauss–Jordan over tiles (one relational
    /// round per pivot panel).
    InvTileGaussJordan,
    /// Whole-matrix scalar reduction (sum / Frobenius norm) of a
    /// one-tuple layout, locally on one worker.
    ReduceScalarLocal,
    /// Whole-matrix scalar reduction over a chunked layout: per-chunk
    /// partial scalars + a global SUM into one tuple.
    ReduceScalarTree,
}

/// One registered atomic computation implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpImplDef {
    /// Registry id.
    pub id: ImplId,
    /// Stable human-readable name (used in reports and EXPERIMENTS.md).
    pub name: &'static str,
    /// The atomic computation this implements (`i.a`).
    pub op: OpKind,
    /// The algorithmic strategy.
    pub strategy: Strategy,
}

/// The result of successfully type-checking an implementation against
/// concrete inputs: the output physical implementation plus the §7 cost
/// features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplEval {
    /// The output physical implementation `i.f(...)`.
    pub out_format: PhysFormat,
    /// Analytic cost features of running the implementation.
    pub features: CostFeatures,
    /// Estimated peak bytes needed on the most loaded worker.
    pub mem_per_worker: f64,
}

impl OpImplDef {
    /// The type specification + cost function `(M × P)ⁿ → P ∪ {⊥}` of
    /// §3, extended with the §7 features. Returns `None` (⊥) when the
    /// implementation cannot process the given input layouts or would
    /// exceed per-worker memory on `cluster`.
    pub fn evaluate(
        &self,
        op: &Op,
        inputs: &[(MatrixType, PhysFormat)],
        cluster: &Cluster,
    ) -> Option<ImplEval> {
        if op.kind() != self.op || inputs.len() != self.op.arity() {
            return None;
        }
        let out_type = op
            .output_type(&inputs.iter().map(|(m, _)| *m).collect::<Vec<_>>())
            .ok()?;
        self.evaluate_typed(op, inputs, &out_type, cluster)
    }

    /// [`OpImplDef::evaluate`] for a caller that already knows the
    /// output type, `op.output_type` of the input types: an optimizer
    /// trying every format combination of one vertex computes it once
    /// instead of once per combination and implementation.
    pub fn evaluate_typed(
        &self,
        op: &Op,
        inputs: &[(MatrixType, PhysFormat)],
        out_type: &MatrixType,
        cluster: &Cluster,
    ) -> Option<ImplEval> {
        if op.kind() != self.op || inputs.len() != self.op.arity() {
            return None;
        }
        let eval = analyze(self.strategy, op, inputs, out_type, cluster)?;
        if eval.mem_per_worker > cluster.worker_ram_bytes {
            return None;
        }
        Some(eval)
    }

    /// The output format only (`i.f`), or `None` for `⊥`.
    pub fn accepts(
        &self,
        op: &Op,
        inputs: &[(MatrixType, PhysFormat)],
        cluster: &Cluster,
    ) -> Option<PhysFormat> {
        self.evaluate(op, inputs, cluster).map(|e| e.out_format)
    }
}

/// Streaming working set of a partitioned, disk-backed operator: a few
/// chunks in flight, not whole partitions. Hadoop-style engines stream
/// tuples through joins and aggregations, so per-worker RAM pressure is
/// bounded by the chunk size (spill pressure is accounted separately
/// through `inter_bytes` against scratch space).
fn working_set(inputs: &[(MatrixType, PhysFormat)], out: PhysFormat, out_type: &MatrixType) -> f64 {
    let mut biggest: f64 = out.max_tuple_bytes(out_type);
    for (m, f) in inputs {
        biggest = biggest.max(f.max_tuple_bytes(m));
    }
    3.0 * biggest
}

/// The central strategy analysis: the strategy's relational plan
/// ([`RelPlan::new`]) accepts the inputs and derives the output format,
/// the output must fit `cluster`, and the feature formulas and memory
/// estimates price the plan.
#[allow(clippy::too_many_lines)]
fn analyze(
    strategy: Strategy,
    op: &Op,
    inputs: &[(MatrixType, PhysFormat)],
    out_type: &MatrixType,
    cluster: &Cluster,
) -> Option<ImplEval> {
    let out = RelPlan::new(strategy, *op, inputs, out_type)?.out;
    if !out.feasible(out_type, cluster) {
        return None;
    }
    let (am, af) = inputs[0];
    // The second input; a unary op's first again, never read.
    let (bm, bf) = inputs[inputs.len() - 1];
    let in_bytes_a = af.total_bytes(&am);
    let b_bytes = bf.total_bytes(&bm);
    let chunks_a = af.num_tuples(&am);
    let par_a = cluster.effective_workers(chunks_a);
    // Sparsity-aware FLOP counts belong to *sparse-format*
    // implementations only: a dense kernel (BLAS) does not skip zeros,
    // so dense strategies are charged the full dense FLOP count even
    // when the data happens to be sparse. This is what makes choosing a
    // sparse layout pay off in the optimizer (§7, Figure 12).
    // The plan checked `inputs.len() == op.arity()`, which is at most
    // two, so the FLOP count's input types fit on the stack.
    let sparse = inputs.iter().any(|(_, f)| f.is_sparse());
    let mut types = [am; 2];
    for (t, (m, _)) in types.iter_mut().zip(inputs) {
        *t = if sparse {
            *m
        } else {
            MatrixType::dense(m.rows, m.cols)
        };
    }
    let flops_total = op.flops(&types[..inputs.len()]);
    // Sparse layouts are charged per non-zero, dense ones per FLOP.
    let work = if af.is_sparse() {
        am.nnz()
    } else {
        flops_total
    };
    let out_dense_bytes = out_type.dense_bytes();
    let ws = || working_set(inputs, out, out_type);
    // A one-site strategy: no parallelism, no network beyond its inputs.
    let local = |local_flops, net_bytes, inter_bytes, tuples| CostFeatures {
        local_flops,
        net_bytes,
        inter_bytes,
        tuples,
        ops: 1.0,
        ..CostFeatures::zero()
    };
    // A partitioned strategy.
    let spread = |cpu_flops, net_bytes, inter_bytes, tuples, ops| CostFeatures {
        local_flops: 0.0,
        cpu_flops,
        net_bytes,
        inter_bytes,
        tuples,
        ops,
    };

    let (features, mem_per_worker) = match strategy {
        Strategy::MmSingleLocal | Strategy::MmCsrSingleSingle | Strategy::EwSingleLocal => (
            local(flops_total, b_bytes, out_dense_bytes, 3.0),
            in_bytes_a + b_bytes + out_dense_bytes,
        ),
        Strategy::MmBcastSingleColstrip => {
            let chunks_b = bf.num_tuples(&bm);
            let par = cluster.effective_workers(chunks_b);
            (
                spread(
                    flops_total / par,
                    in_bytes_a,
                    out_dense_bytes,
                    1.0 + chunks_b + out.num_tuples(out_type),
                    1.0,
                ),
                in_bytes_a + ws(),
            )
        }
        Strategy::MmRowstripBcastSingle => (
            spread(
                flops_total / par_a,
                b_bytes,
                out_dense_bytes,
                1.0 + chunks_a + out.num_tuples(out_type),
                1.0,
            ),
            b_bytes + ws(),
        ),
        Strategy::MmRowstripColstripCross => {
            let chunks_b = bf.num_tuples(&bm);
            let pairs = chunks_a * chunks_b;
            let par = cluster.effective_workers(pairs);
            let bcast = in_bytes_a.min(b_bytes);
            (
                spread(
                    flops_total / par,
                    bcast,
                    out_dense_bytes,
                    chunks_a + chunks_b + pairs,
                    1.0,
                ),
                bcast + ws(),
            )
        }
        Strategy::MmTileShuffle | Strategy::MmCsrTileTile | Strategy::MmCooDenseShuffle => {
            let s = bf.chunk_edge()? as f64;
            let row_chunks = (am.rows as f64 / s).ceil();
            let k_chunks = (am.cols as f64 / s).ceil();
            let col_chunks = (bm.cols as f64 / s).ceil();
            // Every (i, j, k) triple yields one partial tile that must
            // flow through the group-by aggregation. With a sparse LHS
            // each of its non-zeros contributes one scaled row of the
            // RHS, so the partial data is bounded by `nnz(A) x s`
            // values rather than fully dense tiles.
            let partial_count = row_chunks * col_chunks * k_chunks;
            let dense_partial_bytes = partial_count * s * s * crate::types::DENSE_ENTRY_BYTES;
            let partial_bytes = if af.is_sparse() {
                dense_partial_bytes.min(am.nnz() * s * crate::types::DENSE_ENTRY_BYTES)
            } else {
                dense_partial_bytes
            };
            let par = cluster.effective_workers(partial_count);
            let shuffle_total = in_bytes_a + b_bytes + partial_bytes;
            // Partial tiles spill to local scratch; a worker that cannot
            // hold its share of them crashes at runtime, so the plan is
            // infeasible (⊥) on this cluster.
            if partial_bytes / cluster.workers as f64 > cluster.worker_disk_bytes {
                return None;
            }
            (
                spread(
                    flops_total / par,
                    shuffle_total / cluster.workers as f64,
                    partial_bytes,
                    chunks_a + bf.num_tuples(&bm) + partial_count + out.num_tuples(out_type),
                    2.0,
                ),
                ws(),
            )
        }
        Strategy::MmTileBcast => {
            let bcast = in_bytes_a.min(b_bytes);
            let par = cluster.effective_workers(chunks_a.max(bf.num_tuples(&bm)));
            (
                spread(
                    flops_total / par,
                    bcast,
                    out_dense_bytes,
                    chunks_a + bf.num_tuples(&bm) + out.num_tuples(out_type),
                    1.0,
                ),
                bcast + ws(),
            )
        }
        Strategy::MmColstripRowstripOuter => {
            let k_chunks = chunks_a;
            let par = cluster.effective_workers(k_chunks);
            // Each strip pair contributes a full m×n outer-product
            // partial that the global SUM must combine.
            let partial_bytes = k_chunks * out_dense_bytes;
            (
                spread(
                    flops_total / par,
                    partial_bytes / par + out_dense_bytes,
                    partial_bytes,
                    chunks_a + bf.num_tuples(&bm) + k_chunks,
                    2.0,
                ),
                out_dense_bytes * 2.0 + ws(),
            )
        }
        Strategy::EwCopart => (
            spread(
                flops_total / par_a,
                in_bytes_a.min(b_bytes) / par_a,
                out_dense_bytes,
                chunks_a * 3.0,
                1.0,
            ),
            ws(),
        ),
        Strategy::AddCooDenseCopart => {
            let chunks_b = bf.num_tuples(&bm);
            let par = cluster.effective_workers(chunks_b);
            (
                spread(
                    am.nnz() / par,
                    in_bytes_a / par,
                    out_dense_bytes,
                    am.nnz() + chunks_b * 2.0,
                    1.0,
                ),
                ws(),
            )
        }
        Strategy::HadamardCsrDenseCopart => (
            spread(
                am.nnz() / par_a,
                in_bytes_a.min(b_bytes) / par_a,
                out_type.sparse_bytes(),
                chunks_a * 3.0,
                1.0,
            ),
            ws(),
        ),
        Strategy::BiasBcast => (
            spread(flops_total / par_a, b_bytes, 0.0, chunks_a * 2.0, 1.0),
            b_bytes + ws(),
        ),
        Strategy::UnaryMap => (spread(work / par_a, 0.0, 0.0, chunks_a, 1.0), ws()),
        Strategy::SoftmaxRowAligned | Strategy::ReduceRowAligned | Strategy::ReduceColAligned => {
            (spread(flops_total / par_a, 0.0, 0.0, chunks_a, 1.0), ws())
        }
        Strategy::SoftmaxTileTwoRound => {
            let col_chunks = (am.cols as f64 / af.chunk_edge()? as f64).ceil();
            // Row-max and row-sum vectors: one per tile column block.
            let reduce_bytes = 2.0 * am.rows as f64 * col_chunks * crate::types::DENSE_ENTRY_BYTES;
            (
                spread(
                    flops_total / par_a,
                    reduce_bytes / par_a,
                    reduce_bytes + out_dense_bytes,
                    chunks_a * 3.0,
                    3.0,
                ),
                ws(),
            )
        }
        Strategy::TransposeChunkwise => (
            spread(
                flops_total / par_a,
                in_bytes_a / par_a,
                out_dense_bytes,
                chunks_a * 2.0,
                1.0,
            ),
            ws(),
        ),
        Strategy::TransposeCoo => (
            spread(am.nnz() / cluster.workers as f64, 0.0, 0.0, am.nnz(), 1.0),
            ws(),
        ),
        Strategy::TransposeCsrSingle if af == PhysFormat::CsrSingle => {
            (local(am.nnz(), 0.0, 0.0, 1.0), in_bytes_a * 2.0)
        }
        // Tiled: per-block transpose + key swap (a shuffle).
        Strategy::TransposeCsrSingle => (
            spread(
                am.nnz() / par_a,
                in_bytes_a / par_a,
                out_type.sparse_bytes(),
                chunks_a * 2.0,
                1.0,
            ),
            ws(),
        ),
        Strategy::ReduceTileShuffle => {
            let partial_bytes =
                chunks_a * af.chunk_edge()? as f64 * crate::types::DENSE_ENTRY_BYTES;
            (
                spread(
                    flops_total / par_a,
                    partial_bytes / par_a,
                    partial_bytes,
                    chunks_a * 2.0,
                    2.0,
                ),
                ws(),
            )
        }
        Strategy::ReduceCoo => {
            let par = cluster.workers as f64;
            (
                spread(
                    am.nnz() / par,
                    in_bytes_a / par,
                    out_dense_bytes,
                    am.nnz(),
                    1.0,
                ),
                out_dense_bytes + ws(),
            )
        }
        Strategy::InvSingleLocal => (
            local(flops_total, 0.0, out_dense_bytes, 1.0),
            in_bytes_a * 3.0,
        ),
        Strategy::InvTileGaussJordan => {
            let side = af.chunk_edge()? as f64;
            let rounds = (am.rows as f64 / side).ceil();
            let panel_bytes = am.rows as f64 * side * crate::types::DENSE_ENTRY_BYTES;
            (
                // Each round re-scans every tile.
                spread(
                    flops_total / par_a,
                    rounds * panel_bytes,
                    rounds * panel_bytes,
                    rounds * chunks_a,
                    rounds,
                ),
                panel_bytes + ws(),
            )
        }
        Strategy::ReduceScalarLocal => (local(work, 0.0, 0.0, 1.0), ws()),
        Strategy::ReduceScalarTree => {
            // One partial scalar per chunk flows into the global SUM.
            let partial_bytes = chunks_a * crate::types::DENSE_ENTRY_BYTES;
            (
                spread(
                    work / par_a,
                    partial_bytes / par_a,
                    partial_bytes,
                    chunks_a + 1.0,
                    2.0,
                ),
                ws(),
            )
        }
    };
    Some(ImplEval {
        out_format: out,
        features,
        mem_per_worker,
    })
}

/// The registry of atomic computation implementations the optimizer
/// chooses from.
#[derive(Debug, Clone)]
pub struct ImplRegistry {
    impls: Vec<OpImplDef>,
}

impl ImplRegistry {
    /// The 38-implementation registry of the paper's prototype.
    pub fn paper_default() -> Self {
        use OpKind as O;
        use Strategy as S;
        let spec: &[(&'static str, OpKind, Strategy)] = &[
            // -- MatMul (10) --
            ("mm_single_local", O::MatMul, S::MmSingleLocal),
            (
                "mm_bcast_single_colstrip",
                O::MatMul,
                S::MmBcastSingleColstrip,
            ),
            (
                "mm_rowstrip_bcast_single",
                O::MatMul,
                S::MmRowstripBcastSingle,
            ),
            (
                "mm_rowstrip_colstrip_cross",
                O::MatMul,
                S::MmRowstripColstripCross,
            ),
            ("mm_tile_shuffle", O::MatMul, S::MmTileShuffle),
            ("mm_tile_bcast", O::MatMul, S::MmTileBcast),
            (
                "mm_colstrip_rowstrip_outer",
                O::MatMul,
                S::MmColstripRowstripOuter,
            ),
            ("mm_csrtile_tile", O::MatMul, S::MmCsrTileTile),
            ("mm_csrsingle_single", O::MatMul, S::MmCsrSingleSingle),
            ("mm_coo_dense_shuffle", O::MatMul, S::MmCooDenseShuffle),
            // -- Elementwise binary (6) --
            ("add_copart", O::Add, S::EwCopart),
            ("add_single_local", O::Add, S::EwSingleLocal),
            ("sub_copart", O::Sub, S::EwCopart),
            ("sub_single_local", O::Sub, S::EwSingleLocal),
            ("hadamard_copart", O::Hadamard, S::EwCopart),
            ("hadamard_single_local", O::Hadamard, S::EwSingleLocal),
            // -- Sparse elementwise (2) --
            ("add_coo_dense_copart", O::Add, S::AddCooDenseCopart),
            (
                "hadamard_csr_dense_copart",
                O::Hadamard,
                S::HadamardCsrDenseCopart,
            ),
            // -- Bias (1) --
            ("bias_bcast", O::BroadcastAddRow, S::BiasBcast),
            // -- Unary maps (6) --
            ("relu_map", O::Relu, S::UnaryMap),
            ("relu_grad_map", O::ReluGrad, S::UnaryMap),
            ("sigmoid_map", O::Sigmoid, S::UnaryMap),
            ("exp_map", O::Exp, S::UnaryMap),
            ("neg_map", O::Neg, S::UnaryMap),
            ("scalar_mul_map", O::ScalarMul, S::UnaryMap),
            // -- Softmax (2) --
            ("softmax_rowaligned", O::Softmax, S::SoftmaxRowAligned),
            ("softmax_tile_tworound", O::Softmax, S::SoftmaxTileTwoRound),
            // -- Transpose (3) --
            ("transpose_chunkwise", O::Transpose, S::TransposeChunkwise),
            ("transpose_coo", O::Transpose, S::TransposeCoo),
            ("transpose_csr", O::Transpose, S::TransposeCsrSingle),
            // -- Reductions (6) --
            ("rowsums_rowaligned", O::RowSums, S::ReduceRowAligned),
            ("rowsums_tile_shuffle", O::RowSums, S::ReduceTileShuffle),
            ("rowsums_coo", O::RowSums, S::ReduceCoo),
            ("colsums_colaligned", O::ColSums, S::ReduceColAligned),
            ("colsums_tile_shuffle", O::ColSums, S::ReduceTileShuffle),
            ("colsums_coo", O::ColSums, S::ReduceCoo),
            // -- Inverse (2) --
            ("inv_single_local", O::Inverse, S::InvSingleLocal),
            ("inv_tile_gauss_jordan", O::Inverse, S::InvTileGaussJordan),
        ];
        let impls = spec
            .iter()
            .enumerate()
            .map(|(i, (name, op, strategy))| OpImplDef {
                id: ImplId(i as u16),
                name,
                op: *op,
                strategy: *strategy,
            })
            .collect();
        ImplRegistry { impls }
    }

    /// [`ImplRegistry::paper_default`] plus the post-paper scalar
    /// reduction implementations ([`OpKind::SumAll`] /
    /// [`OpKind::FrobeniusNorm`]) that autodiff loss graphs need. The
    /// paper's 38 keep their ids and order; extensions are only ever
    /// appended, so any [`ImplId`] valid against `paper_default` is
    /// valid (and identical) here.
    pub fn extended() -> Self {
        use OpKind as O;
        use Strategy as S;
        let mut reg = Self::paper_default();
        for (name, op, strategy) in [
            ("sumall_local", O::SumAll, S::ReduceScalarLocal),
            ("sumall_tree", O::SumAll, S::ReduceScalarTree),
            ("frobenius_local", O::FrobeniusNorm, S::ReduceScalarLocal),
            ("frobenius_tree", O::FrobeniusNorm, S::ReduceScalarTree),
        ] {
            let id = ImplId(reg.impls.len() as u16);
            reg.impls.push(OpImplDef {
                id,
                name,
                op,
                strategy,
            });
        }
        reg
    }

    /// Number of registered implementations.
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }

    /// All implementations.
    pub fn all(&self) -> &[OpImplDef] {
        &self.impls
    }

    /// Look up by id.
    ///
    /// # Panics
    /// Panics when the id is not from this registry.
    pub fn get(&self, id: ImplId) -> &OpImplDef {
        &self.impls[id.index()]
    }

    /// Look up by name, if registered.
    pub fn by_name(&self, name: &str) -> Option<&OpImplDef> {
        self.impls.iter().find(|i| i.name == name)
    }

    /// The implementations of one atomic computation (`i.a = kind`).
    pub fn impls_for(&self, kind: OpKind) -> impl Iterator<Item = &OpImplDef> {
        self.impls.iter().filter(move |i| i.op == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> ImplRegistry {
        ImplRegistry::paper_default()
    }

    fn cl() -> Cluster {
        Cluster::simsql_like(10)
    }

    #[test]
    fn there_are_thirty_eight_implementations() {
        assert_eq!(reg().len(), 38);
    }

    #[test]
    fn names_are_unique() {
        let r = reg();
        let mut names: Vec<_> = r.all().iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 38);
    }

    #[test]
    fn every_atomic_computation_has_an_implementation() {
        // The paper's registry covers exactly the paper's op set; the
        // extended registry covers everything.
        let r = reg();
        for kind in crate::ops::PAPER_OP_KINDS {
            assert!(
                r.impls_for(kind).count() >= 1,
                "no implementation for {kind:?}"
            );
        }
        let e = ImplRegistry::extended();
        for kind in crate::ops::ALL_OP_KINDS {
            assert!(
                e.impls_for(kind).count() >= 1,
                "no extended implementation for {kind:?}"
            );
        }
    }

    #[test]
    fn extended_registry_appends_without_renumbering() {
        let base = reg();
        let ext = ImplRegistry::extended();
        assert_eq!(ext.len(), base.len() + 4);
        for (a, b) in base.all().iter().zip(ext.all()) {
            assert_eq!(a, b);
        }
        for extra in &ext.all()[base.len()..] {
            assert_eq!(extra.id, ext.by_name(extra.name).unwrap().id);
            assert!(matches!(extra.op, OpKind::SumAll | OpKind::FrobeniusNorm));
        }
    }

    #[test]
    fn scalar_reductions_accept_local_and_chunked_layouts() {
        let e = ImplRegistry::extended();
        let m = MatrixType::dense(20_000, 20_000);
        let local = e.by_name("sumall_local").unwrap();
        let tree = e.by_name("sumall_tree").unwrap();
        assert_eq!(
            local.accepts(&Op::SumAll, &[(m, PhysFormat::SingleTuple)], &cl()),
            Some(PhysFormat::SingleTuple)
        );
        assert_eq!(
            tree.accepts(&Op::SumAll, &[(m, PhysFormat::Tile { side: 1000 })], &cl()),
            Some(PhysFormat::SingleTuple)
        );
        // Wrong layout family for each strategy is ⊥.
        assert_eq!(
            local.accepts(&Op::SumAll, &[(m, PhysFormat::Tile { side: 1000 })], &cl()),
            None
        );
        assert_eq!(
            tree.accepts(&Op::SumAll, &[(m, PhysFormat::SingleTuple)], &cl()),
            None
        );
        // Sparse flavors work too, scaled by nnz.
        let sp = MatrixType::sparse(20_000, 20_000, 1e-4);
        let frob = e.by_name("frobenius_tree").unwrap();
        let eval = frob
            .evaluate(
                &Op::FrobeniusNorm,
                &[(sp, PhysFormat::CsrTile { side: 1000 })],
                &cl(),
            )
            .unwrap();
        assert_eq!(eval.out_format, PhysFormat::SingleTuple);
        assert!(eval.features.cpu_flops < 1e6);
    }

    #[test]
    fn matmul_has_ten_implementations() {
        assert_eq!(reg().impls_for(OpKind::MatMul).count(), 10);
    }

    #[test]
    fn tile_shuffle_accepts_matching_tiles_only() {
        let r = reg();
        let mm = r.by_name("mm_tile_shuffle").unwrap();
        let a = MatrixType::dense(20_000, 20_000);
        let b = MatrixType::dense(20_000, 20_000);
        let t1 = PhysFormat::Tile { side: 1000 };
        let t2 = PhysFormat::Tile { side: 2500 };
        assert_eq!(
            mm.accepts(&Op::MatMul, &[(a, t1), (b, t1)], &cl()),
            Some(t1)
        );
        assert_eq!(mm.accepts(&Op::MatMul, &[(a, t1), (b, t2)], &cl()), None);
        assert_eq!(
            mm.accepts(&Op::MatMul, &[(a, PhysFormat::SingleTuple), (b, t1)], &cl()),
            None
        );
    }

    #[test]
    fn wrong_op_kind_is_bottom() {
        let r = reg();
        let mm = r.by_name("mm_tile_shuffle").unwrap();
        let a = MatrixType::dense(4000, 4000);
        let t = PhysFormat::Tile { side: 1000 };
        assert_eq!(mm.accepts(&Op::Add, &[(a, t), (a, t)], &cl()), None);
    }

    #[test]
    fn broadcast_rejects_oversized_broadcast_side() {
        // Broadcasting a 100K × 100K (80 GB) single matrix exceeds the
        // 68 GB worker RAM and must be ⊥ — the paper's memory rule.
        let r = reg();
        let mm = r.by_name("mm_rowstrip_bcast_single").unwrap();
        let a = MatrixType::dense(100_000, 100_000);
        let b = MatrixType::dense(100_000, 100_000);
        let rs = PhysFormat::RowStrip { height: 100 };
        assert_eq!(
            mm.accepts(&Op::MatMul, &[(a, rs), (b, PhysFormat::SingleTuple)], &cl()),
            None
        );
        // A small broadcast side is fine.
        let b_small = MatrixType::dense(100_000, 100);
        assert!(mm
            .accepts(
                &Op::MatMul,
                &[(a, rs), (b_small, PhysFormat::SingleTuple)],
                &cl()
            )
            .is_some());
    }

    #[test]
    fn cross_join_requires_equal_strip_sizes() {
        let r = reg();
        let mm = r.by_name("mm_rowstrip_colstrip_cross").unwrap();
        let a = MatrixType::dense(10_000, 50_000);
        let b = MatrixType::dense(50_000, 10_000);
        let ok = mm.accepts(
            &Op::MatMul,
            &[
                (a, PhysFormat::RowStrip { height: 1000 }),
                (b, PhysFormat::ColStrip { width: 1000 }),
            ],
            &cl(),
        );
        assert_eq!(ok, Some(PhysFormat::Tile { side: 1000 }));
        let bad = mm.accepts(
            &Op::MatMul,
            &[
                (a, PhysFormat::RowStrip { height: 1000 }),
                (b, PhysFormat::ColStrip { width: 100 }),
            ],
            &cl(),
        );
        assert_eq!(bad, None);
    }

    #[test]
    fn degenerate_chunked_output_canonicalizes_to_single() {
        // 100-row strips of a 10000×100 LHS times a 100-wide RHS yield a
        // 10000×100 output... use a case where the tile grid collapses:
        // rowstrip(1000) × single where the output is 1000×50 — one
        // strip — must come back as SingleTuple.
        let r = reg();
        let mm = r.by_name("mm_rowstrip_bcast_single").unwrap();
        let a = MatrixType::dense(1000, 10_000);
        let b = MatrixType::dense(10_000, 50);
        // RowStrip{1000} on a 1000-row matrix is degenerate as an input
        // format, but the engine may still face it as an output shape;
        // here we use a 2-strip input so the input format is legal.
        let a2 = MatrixType::dense(2000, 10_000);
        let got = mm.accepts(
            &Op::MatMul,
            &[
                (a2, PhysFormat::RowStrip { height: 1000 }),
                (b, PhysFormat::SingleTuple),
            ],
            &cl(),
        );
        assert_eq!(got, Some(PhysFormat::RowStrip { height: 1000 }));
        let _ = a;
    }

    #[test]
    fn unary_map_respects_zero_preservation() {
        let r = reg();
        let relu = r.by_name("relu_map").unwrap();
        let sig = r.by_name("sigmoid_map").unwrap();
        let m = MatrixType::sparse(50_000, 50_000, 1e-4);
        let csr = PhysFormat::CsrTile { side: 1000 };
        assert_eq!(relu.accepts(&Op::Relu, &[(m, csr)], &cl()), Some(csr));
        assert_eq!(sig.accepts(&Op::Sigmoid, &[(m, csr)], &cl()), None);
        // Dense layout works for sigmoid.
        let dense = MatrixType::dense(50_000, 50_000);
        let tile = PhysFormat::Tile { side: 1000 };
        assert_eq!(
            sig.accepts(&Op::Sigmoid, &[(dense, tile)], &cl()),
            Some(tile)
        );
    }

    #[test]
    fn softmax_needs_row_alignment_or_two_rounds() {
        let r = reg();
        let aligned = r.by_name("softmax_rowaligned").unwrap();
        let tiled = r.by_name("softmax_tile_tworound").unwrap();
        let m = MatrixType::dense(10_000, 20_000);
        let rs = PhysFormat::RowStrip { height: 100 };
        let cs = PhysFormat::ColStrip { width: 100 };
        let tile = PhysFormat::Tile { side: 1000 };
        assert_eq!(aligned.accepts(&Op::Softmax, &[(m, rs)], &cl()), Some(rs));
        assert_eq!(aligned.accepts(&Op::Softmax, &[(m, cs)], &cl()), None);
        assert_eq!(tiled.accepts(&Op::Softmax, &[(m, tile)], &cl()), Some(tile));
        // The two-round tile softmax pays more relational operators.
        let fa = aligned
            .evaluate(&Op::Softmax, &[(m, rs)], &cl())
            .unwrap()
            .features;
        let ft = tiled
            .evaluate(&Op::Softmax, &[(m, tile)], &cl())
            .unwrap()
            .features;
        assert!(ft.ops > fa.ops);
    }

    #[test]
    fn transpose_chunkwise_swaps_strip_orientation() {
        let r = reg();
        let t = r.by_name("transpose_chunkwise").unwrap();
        let m = MatrixType::dense(10_000, 20_000);
        assert_eq!(
            t.accepts(
                &Op::Transpose,
                &[(m, PhysFormat::RowStrip { height: 100 })],
                &cl()
            ),
            Some(PhysFormat::ColStrip { width: 100 })
        );
        assert_eq!(
            t.accepts(
                &Op::Transpose,
                &[(m, PhysFormat::Tile { side: 1000 })],
                &cl()
            ),
            Some(PhysFormat::Tile { side: 1000 })
        );
    }

    #[test]
    fn reduce_impl_selection() {
        let r = reg();
        let m = MatrixType::dense(20_000, 20_000);
        let tile = PhysFormat::Tile { side: 1000 };
        let rows_tile = r.by_name("rowsums_tile_shuffle").unwrap();
        let got = rows_tile
            .accepts(&Op::RowSums, &[(m, tile)], &cl())
            .unwrap();
        // Output is a 20000×1 vector in 1000-row strips.
        assert_eq!(got, PhysFormat::RowStrip { height: 1000 });
        let rows_aligned = r.by_name("rowsums_rowaligned").unwrap();
        assert_eq!(
            rows_aligned.accepts(&Op::RowSums, &[(m, tile)], &cl()),
            None
        );
    }

    #[test]
    fn inverse_local_requires_memory() {
        let r = reg();
        let inv = r.by_name("inv_single_local").unwrap();
        let ok = MatrixType::dense(10_000, 10_000);
        assert!(inv
            .accepts(&Op::Inverse, &[(ok, PhysFormat::SingleTuple)], &cl())
            .is_some());
        let too_big = MatrixType::dense(80_000, 80_000); // 51 GB × 3 > 68 GB
        assert_eq!(
            inv.accepts(&Op::Inverse, &[(too_big, PhysFormat::SingleTuple)], &cl()),
            None
        );
    }

    #[test]
    fn tile_shuffle_intermediate_explosion_is_costed() {
        // The paper's Fig 1: tile × tile over a wide matrix creates a
        // huge number of partial tiles. Check the features expose it.
        let r = reg();
        let mm = r.by_name("mm_tile_shuffle").unwrap();
        let a = MatrixType::dense(20_000, 20_000);
        let c = MatrixType::dense(20_000, 200_000);
        let t = PhysFormat::Tile { side: 1000 };
        let eval = mm.evaluate(&Op::MatMul, &[(a, t), (c, t)], &cl()).unwrap();
        // 20 × 200 × 20 partial tiles of 8 MB each = 640 GB.
        assert!(eval.features.inter_bytes > 1e11);
        assert!(eval.features.tuples > 80_000.0);
        // A wide-enough output blows past the per-worker scratch space
        // and must be ⊥ on this cluster (the paper's runtime "Fail").
        let huge = MatrixType::dense(20_000, 1_000_000);
        assert_eq!(mm.accepts(&Op::MatMul, &[(a, t), (huge, t)], &cl()), None);
        // ...but is constructible when resources are lifted, which is
        // how baseline planners build plans that later fail in the
        // simulator.
        assert!(mm
            .accepts(
                &Op::MatMul,
                &[(a, t), (huge, t)],
                &cl().with_unlimited_resources()
            )
            .is_some());
    }

    #[test]
    fn coo_matmul_pays_per_triple_tuples() {
        let r = reg();
        let mm = r.by_name("mm_coo_dense_shuffle").unwrap();
        let a = MatrixType::sparse(10_000, 600_000, 1e-4);
        let b = MatrixType::dense(600_000, 4000);
        let eval = mm
            .evaluate(
                &Op::MatMul,
                &[(a, PhysFormat::Coo), (b, PhysFormat::Tile { side: 1000 })],
                &cl(),
            )
            .unwrap();
        assert!(eval.features.tuples >= a.nnz());
    }

    #[test]
    fn csr_matmul_flops_scale_with_sparsity() {
        let r = reg();
        let sparse_mm = r.by_name("mm_csrtile_tile").unwrap();
        let dense_mm = r.by_name("mm_tile_shuffle").unwrap();
        let a_sparse = MatrixType::sparse(10_000, 600_000, 1e-4);
        let a_dense = MatrixType::dense(10_000, 600_000);
        let b = MatrixType::dense(600_000, 4000);
        let t = PhysFormat::Tile { side: 1000 };
        let ct = PhysFormat::CsrTile { side: 1000 };
        let fs = sparse_mm
            .evaluate(&Op::MatMul, &[(a_sparse, ct), (b, t)], &cl())
            .unwrap()
            .features;
        let fd = dense_mm
            .evaluate(&Op::MatMul, &[(a_dense, t), (b, t)], &cl())
            .unwrap()
            .features;
        assert!(fs.cpu_flops < fd.cpu_flops / 100.0);
        assert!(fs.net_bytes < fd.net_bytes);
    }
}
