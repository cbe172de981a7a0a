//! Chunk-level execution of every atomic computation implementation
//! strategy. This is the runtime half of the set `I`: each
//! [`Strategy`] runs as its [`RelPlan`] (per-tile joins, strip
//! broadcasts, group-by aggregations) over real chunks, so that the
//! test-suite can verify that *every* type-correct annotation of a
//! graph computes identical numbers.

use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{project_key, MatrixType, NodeId, Op, PhysFormat, RelOp, RelPlan, Strategy};
use matopt_kernels::{CooMatrix, DenseMatrix, PackedOperand};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Errors during real execution.
///
/// Every vertex-scoped variant carries both the vertex id *and* its
/// graph label, so fault logs and chaos-test failures name the matrix
/// involved without a graph in hand (the `error_display_snapshots` test
/// pins the rendered strings).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A vertex lacked an annotation choice.
    MissingChoice {
        /// The unannotated compute vertex.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
    },
    /// The caller's input map has no relation for a source vertex.
    MissingInput {
        /// The source vertex id.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
    },
    /// A chunk-level kernel panicked; the panic was caught instead of
    /// aborting the process, so the fault-tolerant executor can retry.
    KernelPanic {
        /// The vertex being executed, once known (`execute_impl` callers
        /// attach it via [`ExecError::at_vertex`]).
        vertex: Option<NodeId>,
        /// The vertex's label, attached together with the id.
        label: Option<String>,
        /// The panic message.
        detail: String,
    },
    /// A vertex exhausted its retry budget under fault injection.
    RetryBudgetExhausted {
        /// The vertex that kept failing.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// Under a memory budget, a vertex cannot fit after spilling
    /// everything spillable: its inputs plus its output exceed the
    /// budget outright.
    MemBudgetInfeasible {
        /// The vertex that did not fit.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
        /// Bytes the vertex needs resident (inputs + estimated output).
        need: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// A worker process died more times than the fleet's restart
    /// budget while this vertex was dispatched to it, and no surviving
    /// worker could take the re-dispatch — the value is unrecoverable
    /// without operator intervention.
    WorkerLost {
        /// Fleet index of the worker whose crash domain took the work
        /// down.
        worker: u32,
        /// The vertex whose value was lost.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
    },
    /// A spilled buffer failed checksum or structural verification when
    /// reloaded from scratch.
    SpillCorrupted {
        /// The vertex whose spilled buffer failed verification.
        vertex: NodeId,
        /// The vertex's label in the compute graph.
        label: String,
        /// What the spill layer detected.
        detail: String,
    },
    /// The annotation asks a vertex for an output format that its
    /// implementation's type rule ([`RelPlan::new`]) does not give for
    /// the inputs it was handed, or the rule rejects those inputs:
    /// running it would return a relation labelled with a format it is
    /// not in.
    TypeRuleMismatch {
        /// The vertex being executed, once known (attached like a
        /// kernel panic's, via [`ExecError::at_vertex`]).
        vertex: Option<NodeId>,
        /// The vertex's label, attached together with the id.
        label: Option<String>,
        /// The implementation's strategy.
        strategy: Strategy,
        /// The formats of the inputs, in order.
        inputs: Vec<PhysFormat>,
        /// The output format the annotation asks for.
        requested: PhysFormat,
        /// The output format the rule gives; `None` when it rejects the
        /// inputs.
        derived: Option<PhysFormat>,
    },
    /// The runtime hit an inconsistency between the annotation and the
    /// data (should be impossible for validated plans).
    Internal(String),
}

impl ExecError {
    /// Attaches a vertex id and label to errors that are raised below
    /// the per-vertex loop (kernel panics and type-rule mismatches),
    /// leaving others as-is.
    #[must_use]
    pub fn at_vertex(mut self, v: NodeId, name: &str) -> Self {
        if let ExecError::KernelPanic { vertex, label, .. }
        | ExecError::TypeRuleMismatch { vertex, label, .. } = &mut self
        {
            if vertex.is_none() && label.is_none() {
                *vertex = Some(v);
                *label = Some(name.to_string());
            }
        }
        self
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingChoice { vertex, label } => {
                write!(f, "vertex {vertex} ({label:?}) has no annotation")
            }
            ExecError::MissingInput { vertex, label } => {
                write!(
                    f,
                    "no input relation provided for source vertex {vertex} ({label:?})"
                )
            }
            ExecError::KernelPanic {
                vertex,
                label,
                detail,
            } => match (vertex, label) {
                (Some(v), Some(l)) => {
                    write!(f, "kernel panicked at vertex {v} ({l:?}): {detail}")
                }
                (Some(v), None) => write!(f, "kernel panicked at vertex {v}: {detail}"),
                _ => write!(f, "kernel panicked: {detail}"),
            },
            ExecError::RetryBudgetExhausted {
                vertex,
                label,
                attempts,
            } => {
                write!(
                    f,
                    "vertex {vertex} ({label:?}) failed after {attempts} attempts, retry budget exhausted"
                )
            }
            ExecError::MemBudgetInfeasible {
                vertex,
                label,
                need,
                budget,
            } => {
                write!(
                    f,
                    "vertex {vertex} ({label:?}) needs {need} resident bytes but the memory budget is {budget} — infeasible even with everything else spilled"
                )
            }
            ExecError::WorkerLost {
                worker,
                vertex,
                label,
            } => {
                write!(
                    f,
                    "worker {worker} died beyond its restart budget executing vertex {vertex} ({label:?}) and no survivor could recompute it"
                )
            }
            ExecError::SpillCorrupted {
                vertex,
                label,
                detail,
            } => {
                write!(
                    f,
                    "spilled buffer of vertex {vertex} ({label:?}) failed verification on reload: {detail}"
                )
            }
            ExecError::TypeRuleMismatch {
                vertex,
                label,
                strategy,
                inputs,
                requested,
                derived,
            } => {
                match (vertex, label) {
                    (Some(v), Some(l)) => write!(f, "vertex {v} ({l:?}): ")?,
                    (Some(v), None) => write!(f, "vertex {v}: ")?,
                    _ => {}
                }
                let inputs: Vec<String> = inputs.iter().map(ToString::to_string).collect();
                let derived = derived.map_or_else(|| "⊥".to_string(), |d| d.to_string());
                write!(
                    f,
                    "{strategy:?} on [{}] gives {derived}, not the annotated {requested}",
                    inputs.join(", ")
                )
            }
            ExecError::Internal(m) => write!(f, "executor invariant violated: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

fn internal(msg: impl Into<String>) -> ExecError {
    ExecError::Internal(msg.into())
}

/// Ordered parallel index map on the shared work-stealing pool that
/// converts a caught worker panic into a recoverable
/// [`ExecError::KernelPanic`] (vertex attached upstream), so the
/// fault-tolerant executor can treat a bad chunk as a recoverable fault.
/// Jobs are `'static`, so closures capture `Arc` handles to the
/// relations they read.
fn par_map<R, F>(n: usize, f: F) -> Result<Vec<R>, ExecError>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    matopt_pool::Pool::global()
        .try_map(n, f)
        .map_err(|detail| ExecError::KernelPanic {
            vertex: None,
            label: None,
            detail,
        })
}

/// Executes one implementation strategy over concrete distributed
/// relations: builds the strategy's relational plan ([`RelPlan::new`])
/// from the inputs' types and formats, refuses an `out_format` other
/// than the one the plan derives, and runs the plan, emitting its
/// chunks in that format. Every executor (the walk, the pipeline, a
/// `matopt-workerd`) executes vertices through here, so none of them
/// can return a mislabelled relation.
///
/// Inputs are `Arc`-shared: identity edges are reference bumps, chunk
/// batches borrow their inputs through the `Arc` from pool jobs, and a
/// worker process hands over the relations it decoded without a copy.
///
/// # Errors
/// [`ExecError::TypeRuleMismatch`] when the type rule rejects the
/// inputs or derives another output format;
/// [`ExecError::Internal`] on annotation/data inconsistencies;
/// [`ExecError::KernelPanic`] when a pooled chunk kernel panics.
pub fn execute_impl(
    strategy: Strategy,
    op: &Op,
    inputs: &[Arc<DistRelation>],
    out_type: MatrixType,
    out_format: PhysFormat,
) -> Result<DistRelation, ExecError> {
    let plan = checked_plan(strategy, op, inputs, out_type, out_format)?;
    let mut out = DistRelation {
        mtype: out_type,
        format: out_format,
        chunks: Vec::new(),
    };
    out.chunks = run(&plan, inputs, &out)?;
    Ok(out)
}

/// The strategy's relational plan over `inputs`, when the type rule
/// derives exactly `out_format` from them. Checked before a vertex runs
/// anywhere: [`execute_impl`] runs the plan in-process, and the step
/// checks a remote vertex before it dispatches it.
///
/// # Errors
/// [`ExecError::TypeRuleMismatch`] (vertex not yet attached) when the
/// rule rejects the inputs or derives another output format.
pub(crate) fn checked_plan(
    strategy: Strategy,
    op: &Op,
    inputs: &[Arc<DistRelation>],
    out_type: MatrixType,
    out_format: PhysFormat,
) -> Result<RelPlan, ExecError> {
    let typed: Vec<(MatrixType, PhysFormat)> = inputs.iter().map(|r| (r.mtype, r.format)).collect();
    match RelPlan::new(strategy, *op, &typed, &out_type) {
        Some(plan) if plan.out == out_format => Ok(plan),
        derived => Err(ExecError::TypeRuleMismatch {
            vertex: None,
            label: None,
            strategy,
            inputs: typed.iter().map(|(_, f)| *f).collect(),
            requested: out_format,
            derived: derived.map(|p| p.out),
        }),
    }
}

/// Runs `plan` over `inputs`; `out` is the empty output relation, whose
/// chunk grid a contraction join keys its output by.
fn run(
    plan: &RelPlan,
    inputs: &[Arc<DistRelation>],
    out: &DistRelation,
) -> Result<Vec<Chunk>, ExecError> {
    let (op, a) = (plan.op, Arc::clone(&inputs[0]));
    match plan.step {
        RelOp::Map => {
            let swap = plan.swaps_keys();
            let chunks = par_map(a.chunks.len(), move |i| {
                let c = &a.chunks[i];
                let (row, col) = if swap { (c.col, c.row) } else { (c.row, c.col) };
                let block = kernel(op, &c.block)?;
                Ok(Chunk { row, col, block })
            })?;
            chunks.into_iter().collect()
        }
        RelOp::CoPartition => co_partition(op, a, Arc::clone(&inputs[1])),
        RelOp::Broadcast { side } => {
            broadcast(op, &inputs[side], Arc::clone(&inputs[1 - side]), side)
        }
        RelOp::Cross => cross(&a, &inputs[1]),
        RelOp::JoinSum { .. } => join_sum(a, Arc::clone(&inputs[1]), out),
        RelOp::GroupSum => group_sum(op, a, out.format),
        RelOp::RowBands => row_bands(op, a),
        RelOp::PivotRounds => pivot_rounds(&a),
    }
}

/// Co-partitioned join: each chunk of `a` with `b`'s chunk at the same
/// key, in `a`'s chunk order. A COO `a` is a bag of triples: they are
/// shuffled onto `b`'s chunk grid and added into a copy of every chunk
/// of `b`, in `b`'s order.
fn co_partition(
    op: Op,
    a: Arc<DistRelation>,
    b: Arc<DistRelation>,
) -> Result<Vec<Chunk>, ExecError> {
    let b_at = key_index(&b);
    if let Some(coo) = coo_block(&a) {
        if op != Op::Add {
            return Err(internal(format!("no {op:?} kernel for COO triples")));
        }
        let buckets = bucket_triples(coo, b.chunk_strides());
        if buckets.keys().any(|k| !b_at.contains_key(k)) {
            return Err(internal("dense side missing a grid chunk"));
        }
        return par_map(b.chunks.len(), move |i| {
            let c = &b.chunks[i];
            let mut d = c.block.as_dense().clone();
            for &(r, cc, v) in buckets.get(&(c.row, c.col)).into_iter().flatten() {
                d.set(r, cc, d.get(r, cc) + v);
            }
            dense_chunk(c.row, c.col, d)
        });
    }
    let chunks = par_map(a.chunks.len(), move |i| {
        let ac = &a.chunks[i];
        let bc = b_at
            .get(&(ac.row, ac.col))
            .map(|&x| &b.chunks[x])
            .ok_or_else(|| internal("co-partitioned join: no chunk at the same key"))?;
        let block = match (op, &ac.block, &bc.block) {
            (Op::MatMul, x, y) => Block::Dense(product(x, y)?),
            (Op::Hadamard, Block::Csr(x), Block::Dense(y)) => Block::Csr(x.hadamard_dense(y)),
            (_, Block::Dense(x), Block::Dense(y)) => Block::Dense(x.zip_with(y, binary_fn(op)?)),
            _ => return Err(internal(format!("no {op:?} kernel for these blocks"))),
        };
        Ok(Chunk {
            row: ac.row,
            col: ac.col,
            block,
        })
    })?;
    chunks.into_iter().collect()
}

/// Broadcast join: the one-tuple `one` meets every chunk of `many`, in
/// `many`'s chunk order. A product packs the broadcast matrix once per
/// vertex; a bias add slices the row vector under each chunk's columns.
fn broadcast(
    op: Op,
    one: &DistRelation,
    many: Arc<DistRelation>,
    side: usize,
) -> Result<Vec<Chunk>, ExecError> {
    let one = single_block(one)?;
    let dense_one = || match one {
        Block::Dense(d) => std::borrow::Cow::Borrowed(d),
        sparse => std::borrow::Cow::Owned(sparse.to_dense()),
    };
    match op {
        Op::MatMul => {
            let pack = if side == 0 {
                PackedOperand::lhs
            } else {
                PackedOperand::rhs
            };
            let packed = pack(&dense_one());
            par_map(many.chunks.len(), move |i| {
                let c = &many.chunks[i];
                let d = c.block.as_dense();
                let block = if side == 0 {
                    packed.matmul(&PackedOperand::rhs(d))
                } else {
                    PackedOperand::lhs(d).matmul(&packed)
                };
                dense_chunk(c.row, c.col, block)
            })
        }
        Op::BroadcastAddRow => {
            let bias = dense_one().into_owned();
            let (_, cw) = many.chunk_strides();
            par_map(many.chunks.len(), move |i| {
                let c = &many.chunks[i];
                let d = c.block.as_dense();
                let seg = bias.block(0, c.col as usize * cw, 1, d.cols());
                dense_chunk(c.row, c.col, d.add_row_broadcast(&seg))
            })
        }
        other => Err(internal(format!("no broadcast kernel for {other:?}"))),
    }
}

/// Cross join: every strip of `a` times every strip of `b`, each packed
/// once, output chunk `(a.row, b.col)` in `a`-major order.
fn cross(a: &Arc<DistRelation>, b: &Arc<DistRelation>) -> Result<Vec<Chunk>, ExecError> {
    let (ap, bp) = (
        pack_all(a, PackedOperand::lhs)?,
        pack_all(b, PackedOperand::rhs)?,
    );
    let keys: Vec<(u64, u64)> = a
        .chunks
        .iter()
        .flat_map(|ac| b.chunks.iter().map(move |bc| (ac.row, bc.col)))
        .collect();
    let nb = b.chunks.len();
    par_map(keys.len(), move |p| {
        let (row, col) = keys[p];
        dense_chunk(row, col, ap[p / nb].matmul(&bp[p % nb]))
    })
}

/// Join on the contraction index plus a group-by `SUM`: chunk `(i, j)`
/// of `out`'s grid, row-major, is `Σ_k a(i, k) × b(k, j)`, the first
/// product plus each later one in ascending `k`. Dense tiles are packed
/// once per vertex and CSR tiles multiply as they are. COO triples are
/// shuffled to their (row block, contraction block); each adds its
/// scaled row of `b`'s chunk into a zeroed output chunk.
fn join_sum(
    a: Arc<DistRelation>,
    b: Arc<DistRelation>,
    out: &DistRelation,
) -> Result<Vec<Chunk>, ExecError> {
    let (rs, cs) = out.chunk_strides();
    let ks = b.chunk_strides().0;
    let (rows, cols) = (out.mtype.rows as usize, out.mtype.cols as usize);
    let cells: Vec<(u64, u64)> = (0..rows.div_ceil(rs) as u64)
        .flat_map(|i| (0..cols.div_ceil(cs) as u64).map(move |j| (i, j)))
        .collect();
    let kb = (a.mtype.cols as usize).div_ceil(ks) as u64;
    let b_at = key_index(&b);
    if let Some(coo) = coo_block(&a) {
        let buckets = bucket_triples(coo, (rs, ks));
        return par_map(cells.len(), move |x| {
            let (i, j) = cells[x];
            let (h, w) = (
                rs.min(rows - i as usize * rs),
                cs.min(cols - j as usize * cs),
            );
            let mut acc = DenseMatrix::zeros(h, w);
            for k in 0..kb {
                let (Some(triples), Some(&bx)) = (buckets.get(&(i, k)), b_at.get(&(k, j))) else {
                    continue;
                };
                let bd = b.chunks[bx].block.as_dense();
                for &(r, c, v) in triples {
                    for (jj, bv) in bd.row(c).iter().enumerate() {
                        acc.set(r, jj, acc.get(r, jj) + v * bv);
                    }
                }
            }
            dense_chunk(i, j, acc)
        });
    }
    let a_at = key_index(&a);
    // A dense tile meets a whole row (or column) of the other side's
    // tiles: pack every tile once for the vertex, not once per product.
    let packed = if a.chunks.iter().all(|c| matches!(c.block, Block::Dense(_))) {
        Some((
            pack_all(&a, PackedOperand::lhs)?,
            pack_all(&b, PackedOperand::rhs)?,
        ))
    } else {
        None
    };
    let chunks = par_map(cells.len(), move |x| {
        let (i, j) = cells[x];
        let mut pairs = (0..kb).filter_map(|k| Some((*a_at.get(&(i, k))?, *b_at.get(&(k, j))?)));
        let acc = match &packed {
            Some((ap, bp)) => sum_of_products(pairs.map(|(ax, bx)| (&ap[ax], &bp[bx]))),
            None => pairs.try_fold(None, |acc: Option<DenseMatrix>, (ax, bx)| {
                let p = product(&a.chunks[ax].block, &b.chunks[bx].block)?;
                Ok::<_, ExecError>(Some(match acc {
                    None => p,
                    Some(mut s) => {
                        s.add_assign(&p);
                        s
                    }
                }))
            })?,
        };
        let acc = acc.ok_or_else(|| internal("contraction join: no chunk pair"))?;
        Ok(dense_chunk(i, j, acc))
    })?;
    chunks.into_iter().collect()
}

/// Group-by `SUM`: every chunk's partial (the kernel, in parallel),
/// added per key of the output format in ascending input-key order; the
/// groups come out in key order. A Frobenius norm takes its square root
/// once, on the total.
fn group_sum(op: Op, a: Arc<DistRelation>, out: PhysFormat) -> Result<Vec<Chunk>, ExecError> {
    let r = Arc::clone(&a);
    let partials = par_map(a.chunks.len(), move |i| kernel(op, &r.chunks[i].block))?;
    let mut keyed: Vec<_> = a
        .chunks
        .iter()
        .map(|c| (c.row, c.col))
        .zip(partials)
        .collect();
    keyed.sort_by_key(|(at, _)| *at);
    let mut groups: BTreeMap<(u64, u64), DenseMatrix> = BTreeMap::new();
    for (at, partial) in keyed {
        let p = into_dense(partial?)?;
        match groups.entry(project_key(out, at)) {
            Entry::Vacant(e) => {
                e.insert(p);
            }
            Entry::Occupied(mut e) => e.get_mut().add_assign(&p),
        }
    }
    let finish = op == Op::FrobeniusNorm;
    Ok(groups
        .into_iter()
        .map(|((row, col), d)| dense_chunk(row, col, if finish { d.map(f64::sqrt) } else { d }))
        .collect())
}

/// Row bands: each `tileRow`'s tiles, in ascending column order, are
/// assembled into one strip, the kernel runs across it, and the result
/// is split back into the same tiles, bands in ascending order.
fn row_bands(op: Op, a: Arc<DistRelation>) -> Result<Vec<Chunk>, ExecError> {
    let mut bands: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (x, c) in a.chunks.iter().enumerate() {
        bands.entry(c.row).or_default().push(x);
    }
    let mut bands: Vec<Vec<usize>> = bands.into_values().collect();
    for band in &mut bands {
        band.sort_by_key(|&x| a.chunks[x].col);
    }
    let done = par_map(bands.len(), move |bi| {
        let band: Vec<&Chunk> = bands[bi].iter().map(|&x| &a.chunks[x]).collect();
        let rows = band[0].block.rows();
        let mut strip = DenseMatrix::zeros(rows, band.iter().map(|c| c.block.cols()).sum());
        let mut off = 0;
        for c in &band {
            strip.set_block(0, off, c.block.as_dense());
            off += c.block.cols();
        }
        let strip = into_dense(kernel(op, &Block::Dense(strip))?)?;
        let mut off = 0;
        let tiles = band.iter().map(|c| {
            off += c.block.cols();
            dense_chunk(
                c.row,
                c.col,
                strip.block(0, off - c.block.cols(), rows, c.block.cols()),
            )
        });
        Ok::<_, ExecError>(tiles.collect::<Vec<_>>())
    })?;
    let mut chunks = Vec::new();
    for band in done {
        chunks.extend(band?);
    }
    Ok(chunks)
}

/// The blocked Gauss–Jordan inverse of a tiled matrix, tiles out in
/// row-major key order.
fn pivot_rounds(a: &DistRelation) -> Result<Vec<Chunk>, ExecError> {
    let side = a.chunk_strides().0;
    let mut tiles: BTreeMap<(u64, u64), DenseMatrix> = a
        .chunks
        .iter()
        .map(|c| ((c.row, c.col), c.block.as_dense().clone()))
        .collect();
    let nb = (a.mtype.rows as usize).div_ceil(side) as u64;
    block_gauss_jordan_inverse(&mut tiles, nb).map_err(internal)?;
    Ok(tiles
        .into_iter()
        .map(|((row, col), d)| dense_chunk(row, col, d))
        .collect())
}

/// In-place blocked Gauss–Jordan inversion over a tile map: one pivot
/// round per diagonal block, exactly the relational round structure the
/// cost model charges for.
fn block_gauss_jordan_inverse(
    tiles: &mut BTreeMap<(u64, u64), DenseMatrix>,
    nb: u64,
) -> Result<(), String> {
    for k in 0..nb {
        let pivot = tiles
            .get(&(k, k))
            .ok_or_else(|| "missing diagonal tile".to_string())?;
        let pivot_inv = pivot
            .inverse()
            .map_err(|e| format!("pivot block not invertible: {e}"))?;
        // Scale pivot row.
        for j in 0..nb {
            if j == k {
                continue;
            }
            if let Some(t) = tiles.get(&(k, j)) {
                tiles.insert((k, j), pivot_inv.matmul(t));
            }
        }
        // Eliminate the pivot column from every other row.
        for i in 0..nb {
            if i == k {
                continue;
            }
            let Some(aik) = tiles.get(&(i, k)).cloned() else {
                continue;
            };
            for j in 0..nb {
                if j == k {
                    continue;
                }
                if let Some(akj) = tiles.get(&(k, j)).cloned() {
                    let update = aik.matmul(&akj);
                    let cur = tiles
                        .get(&(i, j))
                        .cloned()
                        .unwrap_or_else(|| DenseMatrix::zeros(update.rows(), update.cols()));
                    tiles.insert((i, j), cur.sub(&update));
                }
            }
            tiles.insert((i, k), aik.matmul(&pivot_inv).neg());
        }
        tiles.insert((k, k), pivot_inv);
    }
    Ok(())
}

fn single_block(rel: &DistRelation) -> Result<&Block, ExecError> {
    match rel.chunks.as_slice() {
        [only] => Ok(&only.block),
        chunks => Err(internal(format!(
            "expected single-tuple relation, found {} chunks",
            chunks.len()
        ))),
    }
}

/// The triples of a COO relation, which is one tuple.
fn coo_block(rel: &DistRelation) -> Option<&CooMatrix> {
    match rel.chunks.as_slice() {
        [Chunk {
            block: Block::Coo(c),
            ..
        }] => Some(c),
        _ => None,
    }
}

/// COO triples keyed by the `(h, w)` chunk grid they fall in, with
/// chunk-local indices, in entry order.
type Buckets = HashMap<(u64, u64), Vec<(usize, usize, f64)>>;

fn bucket_triples(coo: &CooMatrix, (h, w): (usize, usize)) -> Buckets {
    let mut buckets = Buckets::new();
    for &(r, c, v) in coo.entries() {
        let key = ((r / h) as u64, (c / w) as u64);
        buckets.entry(key).or_default().push((r % h, c % w, v));
    }
    buckets
}

fn dense_chunk(row: u64, col: u64, d: DenseMatrix) -> Chunk {
    Chunk {
        row,
        col,
        block: Block::Dense(d),
    }
}

/// Where each chunk key of `rel` sits in its chunk list.
fn key_index(rel: &DistRelation) -> HashMap<(u64, u64), usize> {
    rel.chunks
        .iter()
        .enumerate()
        .map(|(x, c)| ((c.row, c.col), x))
        .collect()
}

fn into_dense(block: Block) -> Result<DenseMatrix, ExecError> {
    match block {
        Block::Dense(d) => Ok(d),
        _ => Err(internal("expected a dense block")),
    }
}

/// Every (dense) chunk of `rel` packed for `pack`'s side of a product,
/// in chunk order, so a chunk that meets several chunks of the other
/// side is packed once per vertex rather than once per product.
fn pack_all(
    rel: &Arc<DistRelation>,
    pack: fn(&DenseMatrix) -> PackedOperand,
) -> Result<Arc<Vec<PackedOperand>>, ExecError> {
    let r = Arc::clone(rel);
    par_map(rel.chunks.len(), move |i| {
        pack(r.chunks[i].block.as_dense())
    })
    .map(Arc::new)
}

/// `Σ a × b` over `pairs`, each product computed from 0.0 and added in
/// the order given with a rounding `+=` onto the first — the bits of a
/// per-pair `matmul` + `add_assign` fold, without an output matrix per
/// product. `None` for no pairs.
fn sum_of_products<'p>(
    mut pairs: impl Iterator<Item = (&'p PackedOperand, &'p PackedOperand)>,
) -> Option<DenseMatrix> {
    let (a, b) = pairs.next()?;
    let mut acc = a.matmul(b);
    let mut scratch = None;
    for (a, b) in pairs {
        let s = scratch.get_or_insert_with(|| DenseMatrix::zeros(acc.rows(), acc.cols()));
        a.matmul_into(b, s);
        acc.add_assign(s);
    }
    Some(acc)
}

/// `a × b` for a dense or CSR block `a` and a dense block `b`.
fn product(a: &Block, b: &Block) -> Result<DenseMatrix, ExecError> {
    match (a, b) {
        (Block::Dense(x), Block::Dense(y)) => Ok(x.matmul(y)),
        (Block::Csr(x), Block::Dense(y)) => Ok(x.matmul_dense(y)),
        _ => Err(internal(
            "a product takes a dense or CSR block times a dense one",
        )),
    }
}

/// The op's kernel on one block. For the scalar reductions it is the
/// block's partial, a sum or a sum of squares, that [`group_sum`] adds
/// up.
fn kernel(op: Op, block: &Block) -> Result<Block, ExecError> {
    Ok(match (op, block) {
        (Op::Transpose, Block::Dense(d)) => Block::Dense(d.transpose()),
        (Op::Transpose, Block::Csr(s)) => Block::Csr(s.transpose()),
        (Op::Transpose, Block::Coo(c)) => Block::Coo(c.transpose()),
        (Op::Softmax, Block::Dense(d)) => Block::Dense(d.softmax_rows()),
        (Op::RowSums, Block::Dense(d)) => Block::Dense(d.row_sums()),
        (Op::RowSums, Block::Coo(c)) => Block::Dense(c.row_sums()),
        (Op::ColSums, Block::Dense(d)) => Block::Dense(d.col_sums()),
        (Op::ColSums, Block::Coo(c)) => Block::Dense(c.col_sums()),
        (Op::Inverse, Block::Dense(d)) => Block::Dense(
            d.inverse()
                .map_err(|e| internal(format!("singular input: {e}")))?,
        ),
        (Op::SumAll | Op::FrobeniusNorm, b) => {
            let square = op == Op::FrobeniusNorm;
            let fold = |acc: f64, v: f64| if square { acc + v * v } else { acc + v };
            let partial = match b {
                Block::Dense(d) => d.data().iter().fold(0.0, |acc, v| fold(acc, *v)),
                Block::Csr(s) => s.iter().fold(0.0, |acc, (_, _, v)| fold(acc, v)),
                Block::Coo(c) => c.entries().iter().fold(0.0, |acc, (_, _, v)| fold(acc, *v)),
            };
            Block::Dense(DenseMatrix::from_vec(1, 1, vec![partial]))
        }
        (_, b) => {
            let f = elementwise(op)?;
            match b {
                Block::Dense(d) => Block::Dense(d.map(&*f)),
                Block::Csr(s) => Block::Csr(s.map_stored(&*f)),
                Block::Coo(c) => Block::Coo(CooMatrix::from_triples(
                    c.rows(),
                    c.cols(),
                    c.entries()
                        .iter()
                        .map(|&(r, cc, v)| (r, cc, f(v)))
                        .collect(),
                )),
            }
        }
    })
}

fn binary_fn(op: Op) -> Result<fn(f64, f64) -> f64, ExecError> {
    Ok(match op {
        Op::Add => |a, b| a + b,
        Op::Sub => |a, b| a - b,
        Op::Hadamard => |a, b| a * b,
        other => return Err(internal(format!("{other:?} is not elementwise-binary"))),
    })
}

fn elementwise(op: Op) -> Result<Box<dyn Fn(f64) -> f64>, ExecError> {
    Ok(match op {
        Op::Relu => Box::new(|v: f64| if v > 0.0 { v } else { 0.0 }),
        Op::ReluGrad => Box::new(|v: f64| if v > 0.0 { 1.0 } else { 0.0 }),
        Op::Sigmoid => Box::new(|v: f64| 1.0 / (1.0 + (-v).exp())),
        Op::Exp => Box::new(f64::exp),
        Op::Neg => Box::new(|v: f64| -v),
        Op::ScalarMul(alpha) => Box::new(move |v: f64| v * alpha),
        other => return Err(internal(format!("{other:?} is not a unary map"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the rendered form of every `ExecError` variant: each
    /// vertex-scoped error must name both the vertex id and its graph
    /// label.
    #[test]
    fn error_display_snapshots() {
        let v = NodeId(3);
        let cases: Vec<(ExecError, &str)> = vec![
            (
                ExecError::MissingChoice {
                    vertex: v,
                    label: "dW1".to_string(),
                },
                "vertex v3 (\"dW1\") has no annotation",
            ),
            (
                ExecError::MissingInput {
                    vertex: v,
                    label: "X".to_string(),
                },
                "no input relation provided for source vertex v3 (\"X\")",
            ),
            (
                ExecError::KernelPanic {
                    vertex: Some(v),
                    label: Some("dW1".to_string()),
                    detail: "boom".to_string(),
                },
                "kernel panicked at vertex v3 (\"dW1\"): boom",
            ),
            (
                ExecError::KernelPanic {
                    vertex: None,
                    label: None,
                    detail: "boom".to_string(),
                },
                "kernel panicked: boom",
            ),
            (
                ExecError::RetryBudgetExhausted {
                    vertex: v,
                    label: "dW1".to_string(),
                    attempts: 5,
                },
                "vertex v3 (\"dW1\") failed after 5 attempts, retry budget exhausted",
            ),
            (
                ExecError::MemBudgetInfeasible {
                    vertex: v,
                    label: "dW1".to_string(),
                    need: 4096,
                    budget: 1024,
                },
                "vertex v3 (\"dW1\") needs 4096 resident bytes but the memory budget is 1024 — infeasible even with everything else spilled",
            ),
            (
                ExecError::WorkerLost {
                    worker: 2,
                    vertex: v,
                    label: "dW1".to_string(),
                },
                "worker 2 died beyond its restart budget executing vertex v3 (\"dW1\") and no survivor could recompute it",
            ),
            (
                ExecError::SpillCorrupted {
                    vertex: v,
                    label: "dW1".to_string(),
                    detail: "stream checksum mismatch".to_string(),
                },
                "spilled buffer of vertex v3 (\"dW1\") failed verification on reload: stream checksum mismatch",
            ),
            (
                ExecError::TypeRuleMismatch {
                    vertex: Some(v),
                    label: Some("C".to_string()),
                    strategy: Strategy::MmRowstripColstripCross,
                    inputs: vec![
                        PhysFormat::RowStrip { height: 128 },
                        PhysFormat::ColStrip { width: 100 },
                    ],
                    requested: PhysFormat::Tile { side: 128 },
                    derived: None,
                },
                "vertex v3 (\"C\"): MmRowstripColstripCross on [rowstrip(128), colstrip(100)] gives ⊥, not the annotated tile(128)",
            ),
            (
                ExecError::TypeRuleMismatch {
                    vertex: None,
                    label: None,
                    strategy: Strategy::TransposeChunkwise,
                    inputs: vec![PhysFormat::RowStrip { height: 4 }],
                    requested: PhysFormat::RowStrip { height: 4 },
                    derived: Some(PhysFormat::ColStrip { width: 4 }),
                },
                "TransposeChunkwise on [rowstrip(4)] gives colstrip(4), not the annotated rowstrip(4)",
            ),
            (
                ExecError::Internal("oops".to_string()),
                "executor invariant violated: oops",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }
}
