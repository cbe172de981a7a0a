//! Chunk-level execution of every atomic computation implementation
//! strategy. This is the runtime half of the set `I`: each
//! [`Strategy`] is executed honestly at the granularity its relational
//! plan implies (per-tile joins, strip broadcasts, group-by
//! aggregations), so that the test-suite can verify that *every*
//! type-correct annotation of a graph computes identical numbers.

use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{MatrixType, NodeId, Op, OpKind, PhysFormat, Strategy};
use matopt_kernels::{CooMatrix, DenseMatrix, PackedOperand};
use std::collections::HashMap;
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
    /// The runtime hit an inconsistency between the annotation and the
    /// data (should be impossible for validated plans).
    Internal(String),
}

impl ExecError {
    /// Attaches a vertex id and label to errors that are raised below
    /// the per-vertex loop (currently kernel panics), leaving others
    /// as-is.
    #[must_use]
    pub fn at_vertex(self, v: NodeId, label: &str) -> Self {
        match self {
            ExecError::KernelPanic {
                vertex: None,
                label: None,
                detail,
            } => ExecError::KernelPanic {
                vertex: Some(v),
                label: Some(label.to_string()),
                detail,
            },
            other => other,
        }
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
/// relations, producing the output relation in `out_format`.
///
/// Inputs are `Arc`-shared: identity edges are reference bumps, chunk
/// batches borrow their inputs through the `Arc` from pool jobs, and a
/// worker process hands over the relations it decoded without a copy.
///
/// # Errors
/// [`ExecError::Internal`] on annotation/data inconsistencies;
/// [`ExecError::KernelPanic`] when a pooled chunk kernel panics.
pub fn execute_impl(
    strategy: Strategy,
    op: &Op,
    inputs: &[Arc<DistRelation>],
    out_type: MatrixType,
    out_format: PhysFormat,
) -> Result<DistRelation, ExecError> {
    let natural = run_strategy(strategy, op, inputs, out_type)?;
    let mut out = if natural.format == out_format {
        natural
    } else {
        natural
            .reformat(out_format)
            .map_err(|e| internal(format!("repackaging output: {e}")))?
    };
    out.mtype = out_type;
    Ok(out)
}

fn run_strategy(
    strategy: Strategy,
    op: &Op,
    inputs: &[Arc<DistRelation>],
    out_type: MatrixType,
) -> Result<DistRelation, ExecError> {
    use Strategy as S;
    match strategy {
        S::MmSingleLocal => {
            let a = single_dense(&inputs[0])?;
            let b = single_dense(&inputs[1])?;
            single_result(out_type, a.matmul(&b))
        }
        S::MmCsrSingleSingle => {
            let a = inputs[0]
                .chunks
                .first()
                .ok_or_else(|| internal("empty csr single"))?
                .block
                .as_csr()
                .clone();
            let b = single_dense(&inputs[1])?;
            single_result(out_type, a.matmul_dense(&b))
        }
        S::MmBcastSingleColstrip => {
            let a = single_packed(&inputs[0], PackedOperand::lhs)?;
            let b = Arc::clone(&inputs[1]);
            let chunks = par_map(b.chunks.len(), move |i| {
                let c = &b.chunks[i];
                Chunk {
                    row: 0,
                    col: c.col,
                    block: Block::Dense(a.matmul(&PackedOperand::rhs(c.block.as_dense()))),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[1].format,
                chunks,
            })
        }
        S::MmRowstripBcastSingle => {
            let b = single_packed(&inputs[1], PackedOperand::rhs)?;
            let a = Arc::clone(&inputs[0]);
            let chunks = par_map(a.chunks.len(), move |i| {
                let c = &a.chunks[i];
                Chunk {
                    row: c.row,
                    col: 0,
                    block: Block::Dense(PackedOperand::lhs(c.block.as_dense()).matmul(&b)),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::MmRowstripColstripCross => {
            let side = match inputs[0].format {
                PhysFormat::RowStrip { height } => height,
                _ => return Err(internal("cross join expects row strips")),
            };
            // Every strip meets every strip of the other side: pack
            // each once, then multiply the pairs.
            let (a, b) = (&inputs[0], &inputs[1]);
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
            let chunks = par_map(keys.len(), move |p| {
                let (row, col) = keys[p];
                Chunk {
                    row,
                    col,
                    block: Block::Dense(ap[p / nb].matmul(&bp[p % nb])),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: PhysFormat::Tile { side },
                chunks,
            })
        }
        S::MmTileShuffle | S::MmTileBcast | S::MmCsrTileTile => {
            tile_matmul(&inputs[0], &inputs[1], out_type)
        }
        S::MmColstripRowstripOuter => {
            // Co-partitioned join on the strip index; every pair is a
            // full-size outer product that the SUM aggregates.
            let mut acc = DenseMatrix::zeros(out_type.rows as usize, out_type.cols as usize);
            for a in &inputs[0].chunks {
                let b = inputs[1]
                    .chunk_at(a.col, 0)
                    .ok_or_else(|| internal("strip pair missing"))?;
                acc.add_assign(&a.block.as_dense().matmul(b.block.as_dense()));
            }
            single_result(out_type, acc)
        }
        S::MmCooDenseShuffle => {
            let coo = coo_of(&inputs[0])?;
            let side = match inputs[1].format {
                PhysFormat::Tile { side } => side as usize,
                _ => return Err(internal("coo matmul expects dense tiles")),
            };
            // Bucket the triples by the contraction block they join.
            let mut buckets: HashMap<u64, Vec<(usize, usize, f64)>> = HashMap::new();
            for (r, c, v) in coo.entries() {
                buckets
                    .entry((*c / side) as u64)
                    .or_default()
                    .push((*r, *c, *v));
            }
            let out_rows = out_type.rows as usize;
            let out_cols = out_type.cols as usize;
            let mut out = DenseMatrix::zeros(out_rows, out_cols);
            for b in &inputs[1].chunks {
                let Some(triples) = buckets.get(&b.row) else {
                    continue;
                };
                let bb = b.block.as_dense();
                let col_off = b.col as usize * side;
                let k_off = b.row as usize * side;
                for (r, c, v) in triples {
                    let brow = bb.row(c - k_off);
                    for (jj, bv) in brow.iter().enumerate() {
                        let cur = out.get(*r, col_off + jj);
                        out.set(*r, col_off + jj, cur + v * bv);
                    }
                }
            }
            let rel = DistRelation::from_dense(&out, PhysFormat::Tile { side: side as u64 })
                .map_err(|e| internal(e.to_string()))?;
            Ok(DistRelation {
                mtype: out_type,
                ..rel
            })
        }
        S::EwCopart | S::EwSingleLocal => {
            let f = binary_fn(op.kind())?;
            let a = Arc::clone(&inputs[0]);
            let b = Arc::clone(&inputs[1]);
            let rhs: HashMap<(u64, u64), usize> = b
                .chunks
                .iter()
                .enumerate()
                .map(|(x, c)| ((c.row, c.col), x))
                .collect();
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                let bc = &b.chunks[rhs[&(ac.row, ac.col)]];
                Chunk {
                    row: ac.row,
                    col: ac.col,
                    block: Block::Dense(ac.block.as_dense().zip_with(bc.block.as_dense(), f)),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::AddCooDenseCopart => {
            let coo = coo_of(&inputs[0])?;
            let (ch, cw) = inputs[1].chunk_strides();
            let mut chunks: Vec<Chunk> = inputs[1].chunks.clone();
            let index: HashMap<(u64, u64), usize> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| ((c.row, c.col), i))
                .collect();
            for (r, c, v) in coo.entries() {
                let key = ((*r / ch) as u64, (*c / cw) as u64);
                let i = *index
                    .get(&key)
                    .ok_or_else(|| internal("dense side missing a grid chunk"))?;
                let Block::Dense(d) = &mut chunks[i].block else {
                    return Err(internal("dense side expected"));
                };
                let (lr, lc) = (r % ch, c % cw);
                let cur = d.get(lr, lc);
                d.set(lr, lc, cur + v);
            }
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[1].format,
                chunks,
            })
        }
        S::HadamardCsrDenseCopart => {
            let a = Arc::clone(&inputs[0]);
            let b = Arc::clone(&inputs[1]);
            let rhs: HashMap<(u64, u64), usize> = b
                .chunks
                .iter()
                .enumerate()
                .map(|(x, c)| ((c.row, c.col), x))
                .collect();
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                let bc = &b.chunks[rhs[&(ac.row, ac.col)]];
                Chunk {
                    row: ac.row,
                    col: ac.col,
                    block: Block::Csr(ac.block.as_csr().hadamard_dense(bc.block.as_dense())),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::BiasBcast => {
            let bias = single_dense(&inputs[1])?;
            let (_, cw) = inputs[0].chunk_strides();
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                let d = ac.block.as_dense();
                let seg = bias.block(0, ac.col as usize * cw, 1, d.cols());
                Chunk {
                    row: ac.row,
                    col: ac.col,
                    block: Block::Dense(d.add_row_broadcast(&seg)),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::UnaryMap => {
            let f = unary_fn(op)?;
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                let block = match &ac.block {
                    Block::Dense(d) => Block::Dense(d.map(&*f)),
                    Block::Csr(s) => Block::Csr(s.map_stored(&*f)),
                    Block::Coo(c) => Block::Coo(CooMatrix::from_triples(
                        c.rows(),
                        c.cols(),
                        c.entries()
                            .iter()
                            .map(|(r, cc, v)| (*r, *cc, f(*v)))
                            .collect(),
                    )),
                };
                Chunk {
                    row: ac.row,
                    col: ac.col,
                    block,
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::SoftmaxRowAligned => {
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                Chunk {
                    row: ac.row,
                    col: ac.col,
                    block: Block::Dense(ac.block.as_dense().softmax_rows()),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: inputs[0].format,
                chunks,
            })
        }
        S::SoftmaxTileTwoRound => {
            // Round 1: per-band assembly of the row statistics; round 2:
            // normalize each tile. Semantically: softmax over each tile
            // row-band.
            let side = match inputs[0].format {
                PhysFormat::Tile { side } => side as usize,
                _ => return Err(internal("tiled softmax expects tiles")),
            };
            let mut bands: HashMap<u64, Vec<&Chunk>> = HashMap::new();
            for c in &inputs[0].chunks {
                bands.entry(c.row).or_default().push(c);
            }
            let mut chunks = Vec::new();
            for (i, mut band) in bands {
                band.sort_by_key(|c| c.col);
                let rows = band[0].block.rows();
                let total_cols: usize = band.iter().map(|c| c.block.cols()).sum();
                let mut strip = DenseMatrix::zeros(rows, total_cols);
                let mut off = 0;
                for c in &band {
                    strip.set_block(0, off, c.block.as_dense());
                    off += c.block.cols();
                }
                let sm = strip.softmax_rows();
                let mut off = 0;
                for c in &band {
                    chunks.push(Chunk {
                        row: i,
                        col: c.col,
                        block: Block::Dense(sm.block(0, off, rows, c.block.cols())),
                    });
                    off += c.block.cols();
                }
            }
            Ok(DistRelation {
                mtype: out_type,
                format: PhysFormat::Tile { side: side as u64 },
                chunks,
            })
        }
        S::TransposeChunkwise => {
            let out_fmt = match inputs[0].format {
                PhysFormat::SingleTuple => PhysFormat::SingleTuple,
                PhysFormat::Tile { side } => PhysFormat::Tile { side },
                PhysFormat::RowStrip { height } => PhysFormat::ColStrip { width: height },
                PhysFormat::ColStrip { width } => PhysFormat::RowStrip { height: width },
                _ => return Err(internal("chunkwise transpose expects dense")),
            };
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                Chunk {
                    row: ac.col,
                    col: ac.row,
                    block: Block::Dense(ac.block.as_dense().transpose()),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: out_fmt,
                chunks,
            })
        }
        S::TransposeCoo => {
            let coo = coo_of(&inputs[0])?;
            Ok(DistRelation {
                mtype: out_type,
                format: PhysFormat::Coo,
                chunks: vec![Chunk {
                    row: 0,
                    col: 0,
                    block: Block::Coo(coo.transpose()),
                }],
            })
        }
        S::TransposeCsrSingle => {
            let out_fmt = match inputs[0].format {
                PhysFormat::CsrSingle => PhysFormat::CsrSingle,
                PhysFormat::CsrTile { side } => PhysFormat::CsrTile { side },
                _ => return Err(internal("csr transpose expects a CSR layout")),
            };
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                Chunk {
                    row: ac.col,
                    col: ac.row,
                    block: Block::Csr(ac.block.as_csr().transpose()),
                }
            })?;
            Ok(DistRelation {
                mtype: out_type,
                format: out_fmt,
                chunks,
            })
        }
        S::ReduceRowAligned => {
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                Chunk {
                    row: ac.row,
                    col: 0,
                    block: Block::Dense(ac.block.as_dense().row_sums()),
                }
            })?;
            let format = match inputs[0].format {
                PhysFormat::SingleTuple => PhysFormat::SingleTuple,
                PhysFormat::RowStrip { height } => PhysFormat::RowStrip { height },
                _ => return Err(internal("row-aligned reduce expects row layout")),
            };
            Ok(DistRelation {
                mtype: out_type,
                format,
                chunks,
            })
        }
        S::ReduceColAligned => {
            let a = Arc::clone(&inputs[0]);
            let chunks: Vec<Chunk> = par_map(a.chunks.len(), move |i| {
                let ac = &a.chunks[i];
                Chunk {
                    row: 0,
                    col: ac.col,
                    block: Block::Dense(ac.block.as_dense().col_sums()),
                }
            })?;
            let format = match inputs[0].format {
                PhysFormat::SingleTuple => PhysFormat::SingleTuple,
                PhysFormat::ColStrip { width } => PhysFormat::ColStrip { width },
                _ => return Err(internal("col-aligned reduce expects column layout")),
            };
            Ok(DistRelation {
                mtype: out_type,
                format,
                chunks,
            })
        }
        S::ReduceTileShuffle => {
            let side = match inputs[0].format {
                PhysFormat::Tile { side } => side,
                _ => return Err(internal("tile reduce expects tiles")),
            };
            let row_wise = op.kind() == OpKind::RowSums;
            // Per-tile partials, then a group-by SUM on the kept index.
            let mut groups: HashMap<u64, DenseMatrix> = HashMap::new();
            for c in &inputs[0].chunks {
                let d = c.block.as_dense();
                let (key, partial) = if row_wise {
                    (c.row, d.row_sums())
                } else {
                    (c.col, d.col_sums())
                };
                groups
                    .entry(key)
                    .and_modify(|acc| *acc = acc.add(&partial))
                    .or_insert(partial);
            }
            let chunks: Vec<Chunk> = groups
                .into_iter()
                .map(|(k, block)| Chunk {
                    row: if row_wise { k } else { 0 },
                    col: if row_wise { 0 } else { k },
                    block: Block::Dense(block),
                })
                .collect();
            let format = if row_wise {
                PhysFormat::RowStrip { height: side }
            } else {
                PhysFormat::ColStrip { width: side }
            };
            Ok(DistRelation {
                mtype: out_type,
                format,
                chunks,
            })
        }
        S::ReduceCoo => {
            let coo = coo_of(&inputs[0])?;
            let block = if op.kind() == OpKind::RowSums {
                coo.row_sums()
            } else {
                coo.col_sums()
            };
            single_result(out_type, block)
        }
        S::InvSingleLocal => {
            let a = single_dense(&inputs[0])?;
            let inv = a
                .inverse()
                .map_err(|e| internal(format!("singular input: {e}")))?;
            single_result(out_type, inv)
        }
        S::InvTileGaussJordan => {
            let side = match inputs[0].format {
                PhysFormat::Tile { side } => side,
                _ => return Err(internal("tile inverse expects tiles")),
            };
            let mut tiles: HashMap<(u64, u64), DenseMatrix> = inputs[0]
                .chunks
                .iter()
                .map(|c| ((c.row, c.col), c.block.as_dense().clone()))
                .collect();
            let nb = (out_type.rows as f64 / side as f64).ceil() as u64;
            block_gauss_jordan_inverse(&mut tiles, nb).map_err(internal)?;
            let chunks = tiles
                .into_iter()
                .map(|((i, j), d)| Chunk {
                    row: i,
                    col: j,
                    block: Block::Dense(d),
                })
                .collect();
            Ok(DistRelation {
                mtype: out_type,
                format: PhysFormat::Tile { side },
                chunks,
            })
        }
        S::ReduceScalarLocal | S::ReduceScalarTree => {
            // Per-chunk partial scalars (sum, or sum of squares for the
            // Frobenius norm), then a global sum in canonical
            // (row, col) chunk order — upstream operators are free to
            // emit chunks in any arrangement, and the reduction must
            // produce the same bits regardless.
            let frob = op.kind() == OpKind::FrobeniusNorm;
            if !frob && op.kind() != OpKind::SumAll {
                return Err(internal(format!(
                    "{:?} is not a scalar reduction",
                    op.kind()
                )));
            }
            let rel = Arc::clone(&inputs[0]);
            let a = Arc::clone(&rel);
            let partials = par_map(a.chunks.len(), move |i| {
                let fold = |acc: f64, v: f64| if frob { acc + v * v } else { acc + v };
                match &a.chunks[i].block {
                    Block::Dense(d) => d.data().iter().fold(0.0, |acc, v| fold(acc, *v)),
                    Block::Csr(s) => s.iter().fold(0.0, |acc, (_, _, v)| fold(acc, v)),
                    Block::Coo(c) => c.entries().iter().fold(0.0, |acc, (_, _, v)| fold(acc, *v)),
                }
            })?;
            let mut keyed: Vec<((u64, u64), f64)> = rel
                .chunks
                .iter()
                .map(|c| (c.row, c.col))
                .zip(partials)
                .collect();
            keyed.sort_unstable_by_key(|(at, _)| *at);
            let total: f64 = keyed.iter().map(|(_, p)| p).sum();
            let mut scalar = DenseMatrix::zeros(1, 1);
            scalar.set(0, 0, if frob { total.sqrt() } else { total });
            single_result(out_type, scalar)
        }
    }
}

/// In-place blocked Gauss–Jordan inversion over a tile map: one pivot
/// round per diagonal block, exactly the relational round structure the
/// cost model charges for.
fn block_gauss_jordan_inverse(
    tiles: &mut HashMap<(u64, u64), DenseMatrix>,
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

fn single_dense(rel: &DistRelation) -> Result<DenseMatrix, ExecError> {
    single_block(rel).map(Block::to_dense)
}

/// The one block of a single-tuple relation, packed for `pack`'s side
/// of a product (densified first if it is sparse).
fn single_packed(
    rel: &DistRelation,
    pack: fn(&DenseMatrix) -> PackedOperand,
) -> Result<PackedOperand, ExecError> {
    Ok(match single_block(rel)? {
        Block::Dense(d) => pack(d),
        sparse => pack(&sparse.to_dense()),
    })
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

fn coo_of(rel: &DistRelation) -> Result<CooMatrix, ExecError> {
    match rel.chunks.first().map(|c| &c.block) {
        Some(Block::Coo(c)) => Ok(c.clone()),
        _ => Err(internal("expected COO relation")),
    }
}

fn single_result(out_type: MatrixType, d: DenseMatrix) -> Result<DistRelation, ExecError> {
    Ok(DistRelation {
        mtype: out_type,
        format: PhysFormat::SingleTuple,
        chunks: vec![Chunk {
            row: 0,
            col: 0,
            block: Block::Dense(d),
        }],
    })
}

/// Dense tile-based matmul (shuffle/broadcast share the same result):
/// join on the contraction index + group-by SUM per output tile.
fn tile_matmul(
    a: &Arc<DistRelation>,
    b: &Arc<DistRelation>,
    out_type: MatrixType,
) -> Result<DistRelation, ExecError> {
    let side = match (a.format, b.format) {
        (PhysFormat::Tile { side }, PhysFormat::Tile { side: s2 })
        | (PhysFormat::CsrTile { side }, PhysFormat::Tile { side: s2 })
            if side == s2 =>
        {
            side
        }
        _ => return Err(internal("tile matmul expects equal tile sides")),
    };
    let a = Arc::clone(a);
    let b = Arc::clone(b);
    let b_at: HashMap<(u64, u64), usize> = b
        .chunks
        .iter()
        .enumerate()
        .map(|(x, c)| ((c.row, c.col), x))
        .collect();
    let a_at: HashMap<(u64, u64), usize> = a
        .chunks
        .iter()
        .enumerate()
        .map(|(x, c)| ((c.row, c.col), x))
        .collect();
    // Output tile grid.
    let rows_b = (out_type.rows as f64 / side as f64).ceil() as u64;
    let cols_b = (out_type.cols as f64 / side as f64).ceil() as u64;
    let k_b = (a.mtype.cols as f64 / side as f64).ceil() as u64;
    let cells: Vec<(u64, u64)> = (0..rows_b)
        .flat_map(|i| (0..cols_b).map(move |j| (i, j)))
        .collect();
    // A dense tile meets a whole row (or column) of the other side's
    // tiles: pack every tile once for the vertex, not once per product.
    // A sparse left side multiplies its tiles as they are.
    let packed = if a.chunks.iter().all(|c| matches!(c.block, Block::Dense(_))) {
        Some((
            pack_all(&a, PackedOperand::lhs)?,
            pack_all(&b, PackedOperand::rhs)?,
        ))
    } else {
        None
    };
    let chunks: Vec<Chunk> = par_map(cells.len(), move |cell| {
        let (i, j) = cells[cell];
        let pairs = (0..k_b).filter_map(|k| Some((*a_at.get(&(i, k))?, *b_at.get(&(k, j))?)));
        let acc = match &packed {
            Some((ap, bp)) => sum_of_products(pairs.map(|(ax, bx)| (&ap[ax], &bp[bx]))),
            None => pairs
                .map(|(ax, bx)| {
                    let bd = b.chunks[bx].block.as_dense();
                    match &a.chunks[ax].block {
                        Block::Dense(d) => d.matmul(bd),
                        Block::Csr(s) => s.matmul_dense(bd),
                        Block::Coo(c) => c.to_dense().matmul(bd),
                    }
                })
                .reduce(|mut acc, partial| {
                    acc.add_assign(&partial);
                    acc
                }),
        };
        Chunk {
            row: i,
            col: j,
            block: Block::Dense(acc.expect("contraction dimension non-empty")),
        }
    })?;
    Ok(DistRelation {
        mtype: out_type,
        format: PhysFormat::Tile { side },
        chunks,
    })
}

fn binary_fn(kind: OpKind) -> Result<fn(f64, f64) -> f64, ExecError> {
    Ok(match kind {
        OpKind::Add => |a, b| a + b,
        OpKind::Sub => |a, b| a - b,
        OpKind::Hadamard => |a, b| a * b,
        other => return Err(internal(format!("{other:?} is not elementwise-binary"))),
    })
}

fn unary_fn(op: &Op) -> Result<Arc<dyn Fn(f64) -> f64 + Sync + Send>, ExecError> {
    Ok(match op {
        Op::Relu => Arc::new(|v: f64| if v > 0.0 { v } else { 0.0 }),
        Op::ReluGrad => Arc::new(|v: f64| if v > 0.0 { 1.0 } else { 0.0 }),
        Op::Sigmoid => Arc::new(|v: f64| 1.0 / (1.0 + (-v).exp())),
        Op::Exp => Arc::new(f64::exp),
        Op::Neg => Arc::new(|v: f64| -v),
        Op::ScalarMul(alpha) => {
            let a = *alpha;
            Arc::new(move |v: f64| v * a)
        }
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
                ExecError::Internal("oops".to_string()),
                "executor invariant violated: oops",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }
}
