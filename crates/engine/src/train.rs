//! Multi-epoch training driver over autodiff-derived update graphs.
//!
//! A training graph (built by `matopt-graphs`' `ffnn_training_graph`
//! or any autodiff pipeline) has the shape: parameter sources in,
//! updated-parameter sinks out, plus a 1×1 scalar loss sink. One epoch
//! is one adaptive execution of that graph; between epochs the updated
//! parameter relations are fed back as the next epoch's parameter
//! inputs. Because the graph — types, shapes, declared statistics — is
//! *identical* every epoch, the optimized annotation is too, so the
//! driver caches it: epoch 1 pays for the frontier DP, every later
//! epoch hands the cached plan straight to
//! [`crate::execute_adaptive_planned`]. The cache is invalidated by the
//! same signal the paper's §7 adaptivity uses — a mid-flight
//! re-optimization means the measured sparsity drifted off the plan's
//! assumptions. A drifted epoch *recalibrates*: the measured density of
//! every vertex is folded back into the graph's statistics
//! ([`matopt_core::ComputeGraph::with_measured_sparsities`]) and the
//! cache is re-warmed against the corrected graph, so the epoch after a
//! drift still hits the cache — and, because epoch-over-epoch
//! statistics are stable once observed, stays hit.
//!
//! Plan caching is a pure latency optimization: an uncached run re-runs
//! the (deterministic) optimizer on the identical corrected graph every
//! epoch and therefore executes the identical annotation, so cached and
//! uncached loss trajectories are *bit-exact* (asserted in tests).
//!
//! Checkpoints are a sequence of persisted frames
//! ([`matopt_core::Framing`]): a header frame (epochs done, losses,
//! calibrated statistics, parameter count) and one frame per live
//! parameter holding its relation record ([`crate::push_relation`] — the
//! same record the worker fleet ships across process boundaries), every
//! word under a frame checksum; a training run can be parked, the
//! process killed, and the run resumed bit-exactly.

use crate::adaptive::{execute_adaptive_planned, AdaptiveConfig, AdaptiveError, ReplanHook};
use crate::spill::{push_relation, take_relation};
use crate::value::DistRelation;
use matopt_core::{
    Annotation, ComputeGraph, FormatCatalog, FrameReader, Framing, NodeId, NodeKind, PlanContext,
    WireError, WordReader,
};
use matopt_cost::CostModel;
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

/// What to train: the derived joint forward+backward graph plus the
/// vertex ids the driver needs to thread state between epochs.
///
/// The driver is deliberately independent of `matopt-autodiff` — it
/// consumes any graph with this shape, however derived.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// The joint forward+backward+update graph.
    pub graph: ComputeGraph,
    /// Parameter *sources*, in a fixed order.
    pub params: Vec<NodeId>,
    /// Updated-parameter *sinks*, aligned with `params`.
    pub updated: Vec<NodeId>,
    /// The 1×1 scalar loss sink.
    pub loss: NodeId,
}

impl TrainSpec {
    /// Structural validation: aligned param/update pairs with matching
    /// shapes, a scalar loss, and every claimed sink actually a sink.
    ///
    /// # Errors
    /// [`TrainError::BadSpec`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), TrainError> {
        let bad = |message: String| Err(TrainError::BadSpec(message));
        if self.params.len() != self.updated.len() {
            return bad(format!(
                "{} params but {} updated sinks",
                self.params.len(),
                self.updated.len()
            ));
        }
        if self.params.is_empty() {
            return bad("no trainable parameters".into());
        }
        let sinks = self.graph.sinks();
        for (p, u) in self.params.iter().zip(self.updated.iter()) {
            if !matches!(self.graph.node(*p).kind, NodeKind::Source { .. }) {
                return bad(format!("parameter v{} is not a source", p.index()));
            }
            if !sinks.contains(u) {
                return bad(format!("updated v{} is not a sink", u.index()));
            }
            let (pt, ut) = (self.graph.node(*p).mtype, self.graph.node(*u).mtype);
            if (pt.rows, pt.cols) != (ut.rows, ut.cols) {
                return bad(format!(
                    "parameter v{} is {}x{} but its update v{} is {}x{}",
                    p.index(),
                    pt.rows,
                    pt.cols,
                    u.index(),
                    ut.rows,
                    ut.cols
                ));
            }
        }
        let lt = self.graph.node(self.loss).mtype;
        if (lt.rows, lt.cols) != (1, 1) {
            return bad(format!("loss v{} is not a 1x1 scalar", self.loss.index()));
        }
        if !sinks.contains(&self.loss) {
            return bad(format!("loss v{} is not a sink", self.loss.index()));
        }
        Ok(())
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs to run (resuming counts already-completed ones).
    pub epochs: usize,
    /// Adaptive-execution settings for each epoch.
    pub adaptive: AdaptiveConfig,
    /// Reuse the optimized annotation across epochs (invalidated on
    /// sparsity drift). Off = re-optimize every epoch; numerics are
    /// bit-identical either way.
    pub reuse_plans: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1,
            adaptive: AdaptiveConfig::default(),
            reuse_plans: true,
        }
    }
}

/// Where an epoch's annotation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPlanSource {
    /// The frontier DP ran this epoch (first epoch, caching disabled,
    /// or the cached plan was invalidated by drift).
    Optimized,
    /// The cached annotation from a previous epoch was reused.
    CacheHit,
}

/// Per-epoch record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Scalar loss read from the loss sink.
    pub loss: f64,
    /// Cache hit or fresh optimization.
    pub plan: EpochPlanSource,
    /// Estimated cost (seconds) of the annotation this epoch ran.
    pub plan_cost: f64,
    /// Seconds spent in the optimizer this epoch (0 on a drift-free
    /// cache hit; a drifted epoch pays here for re-warming the cache).
    pub opt_seconds: f64,
    /// Mid-flight re-optimizations (sparsity drift) this epoch.
    pub reoptimizations: usize,
    /// Whether this epoch's drift recalibrated the graph statistics.
    pub recalibrated: bool,
}

/// The whole run.
#[derive(Debug)]
pub struct TrainRun {
    /// One record per epoch, in order (resumed epochs carry loss-only
    /// records reconstructed from the checkpoint).
    pub epochs: Vec<EpochStats>,
    /// Final parameter values keyed by parameter *source* id.
    pub final_params: HashMap<NodeId, DistRelation>,
    /// Epochs served from the plan cache.
    pub cache_hits: usize,
    /// Cache invalidations forced by sparsity drift.
    pub cache_invalidations: usize,
}

impl TrainRun {
    /// The loss trajectory.
    #[must_use]
    pub fn losses(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.loss).collect()
    }

    /// True when the loss never increased between consecutive epochs.
    #[must_use]
    pub fn monotone_non_increasing(&self) -> bool {
        self.epochs.windows(2).all(|w| w[1].loss <= w[0].loss)
    }
}

/// Driver errors.
#[derive(Debug)]
pub enum TrainError {
    /// The spec violated a structural invariant.
    BadSpec(String),
    /// A required input relation was missing.
    MissingInput(NodeId),
    /// An epoch failed to optimize or execute.
    Epoch(usize, AdaptiveError),
    /// A checkpoint failed to decode.
    Checkpoint(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::BadSpec(m) => write!(f, "invalid training spec: {m}"),
            TrainError::MissingInput(v) => {
                write!(f, "no input relation for source v{}", v.index())
            }
            TrainError::Epoch(e, err) => write!(f, "epoch {e}: {err}"),
            TrainError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// A resumable snapshot: completed-epoch count, the loss trajectory so
/// far, and the live parameter relations.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Epochs completed before this snapshot.
    pub epoch: usize,
    /// Losses of those epochs, in order.
    pub losses: Vec<f64>,
    /// `(param source id, value)` pairs, in spec order.
    pub params: Vec<(NodeId, DistRelation)>,
    /// Calibrated per-vertex density statistics (empty until a drift
    /// recalibrates). Carried so a resumed run plans against the same
    /// statistics the original run had learned — and therefore executes
    /// the same annotations, bit-exactly.
    pub sparsities: Vec<f64>,
}

/// Checkpoint frames. `MATOPTCK` files (one unframed header whose only
/// checksums covered the relation payloads) fail on the magic.
const CKPT_FRAMING: Framing = Framing::persisted(b"MCKP0001");

/// The first frame: epoch, losses, statistics, parameter count.
const TAG_CKPT_HEADER: u64 = 1;
/// One per parameter after it: vertex id, relation record.
const TAG_CKPT_PARAM: u64 = 2;

impl TrainCheckpoint {
    /// Serializes the checkpoint as persisted frames: a header frame
    /// `[epoch, n_losses, losses…, n_sparsities, sparsities…, n_params]`
    /// and one `[vertex id, relation record]` frame per parameter — the
    /// record being the exact words the worker fleet ships over its
    /// sockets. Every word sits under a frame's FNV-1a, so a single
    /// torn byte anywhere fails [`TrainCheckpoint::decode`] instead of
    /// silently corrupting the trajectory or a parameter. A parameter
    /// must fit one frame ([`matopt_core::WIRE_MAX_BODY_WORDS`], 64 MiB).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut header = vec![self.epoch as u64, self.losses.len() as u64];
        header.extend(self.losses.iter().map(|l| l.to_bits()));
        header.push(self.sparsities.len() as u64);
        header.extend(self.sparsities.iter().map(|s| s.to_bits()));
        header.push(self.params.len() as u64);
        let mut out = CKPT_FRAMING.frame_bytes(TAG_CKPT_HEADER, &header);
        for (id, rel) in &self.params {
            let mut body = vec![id.index() as u64];
            push_relation(&mut body, rel);
            out.extend_from_slice(&CKPT_FRAMING.frame_bytes(TAG_CKPT_PARAM, &body));
        }
        out
    }

    /// Decodes [`TrainCheckpoint::encode`] bytes.
    ///
    /// # Errors
    /// [`TrainError::Checkpoint`] on a bad magic word, a frame that is
    /// torn or fails its checksum, a malformed body, a missing
    /// parameter frame, or bytes after the last one.
    pub fn decode(bytes: &[u8]) -> Result<Self, TrainError> {
        decode_checkpoint(bytes).map_err(TrainError::Checkpoint)
    }
}

/// The next frame's body, which must carry `tag`.
fn expect_frame(frames: &mut FrameReader<&[u8]>, tag: u64, what: &str) -> Result<Vec<u64>, String> {
    match frames.read_frame() {
        Ok(frame) if frame.tag == tag => Ok(frame.body),
        Ok(frame) => Err(format!("{what}: unexpected frame tag {}", frame.tag)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

fn decode_checkpoint(bytes: &[u8]) -> Result<TrainCheckpoint, String> {
    let mut frames = FrameReader::with_framing(CKPT_FRAMING, bytes);
    let header = expect_frame(&mut frames, TAG_CKPT_HEADER, "header")?;
    let mut r = WordReader::new(&header);
    let epoch = r.take_count("epoch", usize::MAX)?;
    let mut floats = |what: &str| -> Result<Vec<f64>, String> {
        let n = r.take_count(what, header.len())?;
        let bits = r.take_slice(n, what)?;
        Ok(bits.iter().map(|w| f64::from_bits(*w)).collect())
    };
    let losses = floats("losses")?;
    let sparsities = floats("calibrated statistics")?;
    // A parameter frame is at least its 32-byte header.
    let n_params = r.take_count("parameter count", bytes.len() / 32)?;
    r.finish()?;
    let mut params = Vec::with_capacity(n_params);
    for i in 0..n_params {
        let what = format!("parameter {i}");
        let body = expect_frame(&mut frames, TAG_CKPT_PARAM, &what)?;
        let mut r = WordReader::new(&body);
        let id =
            u32::try_from(r.take(&what)?).map_err(|_| format!("{what}: vertex id out of range"))?;
        let rel = take_relation(&mut r, &what)?;
        r.finish()?;
        params.push((NodeId(id), rel));
    }
    match frames.read_frame() {
        Err(WireError::Eof) => Ok(TrainCheckpoint {
            epoch,
            losses,
            params,
            sparsities,
        }),
        _ => Err("bytes after the last parameter frame".to_string()),
    }
}

/// Per-epoch observer: the epoch's stats plus a checkpoint capturing
/// the state *after* that epoch (save it, kill the process, resume with
/// [`train_resumable`] — bit-exact).
pub type EpochHook<'h> = &'h (dyn Fn(&EpochStats, &TrainCheckpoint) + 'h);

/// Runs the training loop from scratch. See [`train_resumable`].
///
/// # Errors
/// [`TrainError`] on an invalid spec, missing inputs, or a failed
/// epoch.
pub fn train(
    spec: &TrainSpec,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    config: &TrainConfig,
) -> Result<TrainRun, TrainError> {
    train_resumable(spec, inputs, ctx, catalog, model, config, None, None, None)
}

/// Runs (or resumes) the multi-epoch training loop.
///
/// `inputs` must hold a relation for every graph source: data, labels,
/// and *initial* parameters. With `resume`, the checkpoint's parameter
/// values override the initial ones and completed epochs are skipped.
/// `on_epoch` fires after every epoch with its stats and a resumable
/// checkpoint; `on_replan` forwards the adaptive executor's drift
/// signal (e.g. to poison an external plan cache).
///
/// # Errors
/// [`TrainError`] on an invalid spec, missing inputs, a corrupt
/// checkpoint, or a failed epoch.
#[allow(clippy::too_many_arguments)]
pub fn train_resumable(
    spec: &TrainSpec,
    inputs: &HashMap<NodeId, DistRelation>,
    ctx: &PlanContext<'_>,
    catalog: &FormatCatalog,
    model: &CostModel,
    config: &TrainConfig,
    resume: Option<&TrainCheckpoint>,
    on_epoch: Option<EpochHook<'_>>,
    on_replan: Option<ReplanHook<'_>>,
) -> Result<TrainRun, TrainError> {
    spec.validate()?;
    let mut cur: HashMap<NodeId, DistRelation> = HashMap::new();
    for s in spec.graph.sources() {
        let rel = inputs.get(&s).ok_or(TrainError::MissingInput(s))?;
        cur.insert(s, rel.clone());
    }

    let mut epochs: Vec<EpochStats> = Vec::new();
    let mut start = 0usize;
    let mut calibrated: Vec<f64> = Vec::new();
    if let Some(ck) = resume {
        if ck.losses.len() != ck.epoch {
            return Err(TrainError::Checkpoint(format!(
                "{} losses for {} completed epochs",
                ck.losses.len(),
                ck.epoch
            )));
        }
        if !ck.sparsities.is_empty() {
            if ck.sparsities.len() != spec.graph.len() {
                return Err(TrainError::Checkpoint(format!(
                    "{} calibrated densities for a {}-vertex graph",
                    ck.sparsities.len(),
                    spec.graph.len()
                )));
            }
            calibrated = ck.sparsities.clone();
        }
        for (id, rel) in &ck.params {
            if !spec.params.contains(id) {
                return Err(TrainError::Checkpoint(format!(
                    "v{} in checkpoint is not a spec parameter",
                    id.index()
                )));
            }
            cur.insert(*id, rel.clone());
        }
        start = ck.epoch;
        for (i, loss) in ck.losses.iter().enumerate() {
            epochs.push(EpochStats {
                epoch: i,
                loss: *loss,
                plan: EpochPlanSource::Optimized,
                plan_cost: 0.0,
                opt_seconds: 0.0,
                reoptimizations: 0,
                recalibrated: false,
            });
        }
    }

    let mut cur_graph = if calibrated.is_empty() {
        spec.graph.clone()
    } else {
        spec.graph.with_measured_sparsities(&calibrated)
    };
    let optimize = |graph: &ComputeGraph, epoch: usize| {
        frontier_dp_beam(
            graph,
            &OptContext::new(ctx, catalog, model),
            config.adaptive.beam,
        )
        .map_err(|e| TrainError::Epoch(epoch, AdaptiveError::Opt(e)))
    };
    let mut cached: Option<(Annotation, f64)> = None;
    let mut cache_hits = 0usize;
    let mut cache_invalidations = 0usize;
    for epoch in start..config.epochs {
        let (plan, plan_cost, source, mut opt_seconds) = match cached.take() {
            Some((plan, cost)) if config.reuse_plans => {
                cache_hits += 1;
                (plan, cost, EpochPlanSource::CacheHit, 0.0)
            }
            _ => {
                let t = Instant::now();
                let opt = optimize(&cur_graph, epoch)?;
                (
                    opt.annotation,
                    opt.cost,
                    EpochPlanSource::Optimized,
                    t.elapsed().as_secs_f64(),
                )
            }
        };

        let drifted = Cell::new(false);
        let hook = |v: NodeId| {
            drifted.set(true);
            if let Some(h) = on_replan {
                h(v);
            }
        };
        let outcome = execute_adaptive_planned(
            &cur_graph,
            &cur,
            ctx,
            catalog,
            model,
            config.adaptive,
            &plan,
            Some(&hook),
            &Obs::disabled(),
        )
        .map_err(|e| TrainError::Epoch(epoch, e))?;

        let recalibrated = drifted.get();
        if recalibrated {
            // The plan's statistics were wrong for this workload. Fold
            // the measured densities back into the graph and re-warm
            // the cache against the corrected statistics, so the *next*
            // epoch both hits the cache and stays drift-free.
            cache_invalidations += 1;
            calibrated = outcome.measured.clone();
            cur_graph = spec.graph.with_measured_sparsities(&calibrated);
            if config.reuse_plans {
                let t = Instant::now();
                let opt = optimize(&cur_graph, epoch)?;
                opt_seconds += t.elapsed().as_secs_f64();
                cached = Some((opt.annotation, opt.cost));
            }
        } else {
            cached = Some((plan, plan_cost));
        }

        let loss = scalar_of(&outcome.sinks[&spec.loss]);
        for (p, u) in spec.params.iter().zip(spec.updated.iter()) {
            cur.insert(*p, outcome.sinks[u].clone());
        }
        let stats = EpochStats {
            epoch,
            loss,
            plan: source,
            plan_cost,
            opt_seconds,
            reoptimizations: outcome.reoptimizations,
            recalibrated,
        };
        if let Some(h) = on_epoch {
            let ck = TrainCheckpoint {
                epoch: epoch + 1,
                losses: epochs
                    .iter()
                    .map(|e| e.loss)
                    .chain(std::iter::once(loss))
                    .collect(),
                params: spec.params.iter().map(|p| (*p, cur[p].clone())).collect(),
                sparsities: calibrated.clone(),
            };
            h(&stats, &ck);
        }
        epochs.push(stats);
    }

    let final_params = spec.params.iter().map(|p| (*p, cur[p].clone())).collect();
    Ok(TrainRun {
        epochs,
        final_params,
        cache_hits,
        cache_invalidations,
    })
}

fn scalar_of(rel: &DistRelation) -> f64 {
    rel.to_dense().get(0, 0)
}
