//! The multi-epoch training driver: loss goes down, the plan cache is
//! hit on every epoch after the first, every hit is the plan a fresh
//! optimization returns, and checkpoints resume bit-exactly.

use matopt_core::{
    Cluster, FormatCatalog, ImplRegistry, NodeId, NodeKind, PhysFormat, PlanContext,
};
use matopt_cost::CostModel;
use matopt_engine::{
    train, train_resumable, AdaptiveConfig, DistRelation, EpochPlanSource, TrainCheckpoint,
    TrainConfig, TrainError, TrainSpec,
};
use matopt_graphs::{ffnn_training_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;

fn catalog() -> FormatCatalog {
    FormatCatalog::new(vec![
        PhysFormat::SingleTuple,
        PhysFormat::Tile { side: 16 },
        PhysFormat::RowStrip { height: 16 },
    ])
}

/// Row-stochastic one-hot labels, so the softmax+cross-entropy gradient
/// seed `(A_out − Y)/batch` is the exact descent direction.
fn one_hot(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        m.set(r, (r * 7 + 3) % cols, 1.0);
    }
    m
}

fn spec_and_inputs(hidden: u64) -> (TrainSpec, HashMap<NodeId, DistRelation>) {
    let t = ffnn_training_graph(FfnnConfig::laptop(hidden)).expect("well-typed");
    let mut rng = seeded_rng(0xAD_1234);
    let mut inputs = HashMap::new();
    for (id, node) in t.graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let (r, c) = (node.mtype.rows as usize, node.mtype.cols as usize);
            let d = if id == t.y {
                one_hot(r, c)
            } else {
                // Small weights keep the softmax away from saturation.
                random_dense_normal(r, c, &mut rng).map(|v| v * 0.1)
            };
            inputs.insert(
                id,
                DistRelation::from_dense(&d, *format).expect("chunkable"),
            );
        }
    }
    let params: Vec<NodeId> = t.weights.iter().chain(t.biases.iter()).copied().collect();
    let updated: Vec<NodeId> = t
        .updated_weights
        .iter()
        .chain(t.updated_biases.iter())
        .copied()
        .collect();
    (
        TrainSpec {
            graph: t.graph,
            params,
            updated,
            loss: t.loss,
        },
        inputs,
    )
}

fn config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        adaptive: AdaptiveConfig {
            beam: 300,
            ..AdaptiveConfig::default()
        },
    }
}

fn run(
    spec: &TrainSpec,
    inputs: &HashMap<NodeId, DistRelation>,
    cfg: &TrainConfig,
) -> matopt_engine::TrainRun {
    let reg = ImplRegistry::extended();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
    train(
        spec,
        inputs,
        &ctx,
        &catalog(),
        &CostModel::analytical(),
        cfg,
    )
    .expect("training runs")
}

#[test]
fn loss_decreases_and_the_plan_cache_hits_every_later_epoch() {
    let (spec, inputs) = spec_and_inputs(8);
    let out = run(&spec, &inputs, &config(4));
    assert_eq!(out.epochs.len(), 4);
    assert!(
        out.monotone_non_increasing(),
        "full-batch GD must not increase the loss: {:?}",
        out.losses()
    );
    assert!(
        out.epochs[0].loss > out.epochs[3].loss,
        "four epochs must make real progress"
    );
    assert_eq!(out.epochs[0].plan, EpochPlanSource::Optimized);
    for e in &out.epochs[1..] {
        assert_eq!(e.plan, EpochPlanSource::CacheHit, "epoch {}", e.epoch);
        assert_eq!(
            e.reoptimizations, 0,
            "calibrated statistics must stay drift-free (epoch {})",
            e.epoch
        );
    }
    assert_eq!(out.cache_hits, 3);
    assert!(
        out.cache_invalidations <= 1,
        "at most the first epoch's drift may invalidate"
    );
}

/// Reusing a plan is exact because the optimizer is deterministic:
/// every cache-hit epoch runs, to the cost bit, the annotation a fresh
/// frontier DP of that epoch's graph (its statistics as calibrated so
/// far) returns.
#[test]
fn every_cache_hit_is_the_plan_a_fresh_optimization_returns() {
    let (spec, inputs) = spec_and_inputs(8);
    let reg = ImplRegistry::extended();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
    let (cat, model, cfg) = (catalog(), CostModel::analytical(), config(4));
    // The calibrated statistics each epoch starts from.
    let calibrated = std::cell::RefCell::new(Vec::new());
    let hits = std::cell::Cell::new(0);
    let check = |stats: &matopt_engine::EpochStats, ck: &TrainCheckpoint| {
        if stats.plan == EpochPlanSource::CacheHit {
            let graph = match calibrated.borrow().as_slice() {
                [] => spec.graph.clone(),
                seen => spec.graph.with_measured_sparsities(seen),
            };
            let fresh = frontier_dp_beam(
                &graph,
                &OptContext::new(&ctx, &cat, &model),
                cfg.adaptive.beam,
            )
            .expect("plans");
            assert_eq!(stats.annotation, fresh.annotation, "epoch {}", stats.epoch);
            assert_eq!(
                stats.plan_cost.to_bits(),
                fresh.cost.to_bits(),
                "epoch {}",
                stats.epoch
            );
            hits.set(hits.get() + 1);
        }
        *calibrated.borrow_mut() = ck.sparsities.clone();
    };
    let run = train_resumable(&spec, &inputs, &ctx, &cat, &model, &cfg, None, Some(&check))
        .expect("training runs");
    assert_eq!(hits.get(), 3);
    assert_eq!(run.cache_hits, 3);
}

#[test]
fn checkpoints_survive_the_wire_and_resume_bit_exactly() {
    let (spec, inputs) = spec_and_inputs(8);
    let reg = ImplRegistry::extended();
    let ctx = PlanContext::new(&reg, Cluster::simsql_like(4));
    let cat = catalog();

    // Full run, snapshotting (as wire bytes) after epoch 2.
    let snap: std::cell::RefCell<Option<Vec<u8>>> = std::cell::RefCell::new(None);
    let full = train_resumable(
        &spec,
        &inputs,
        &ctx,
        &cat,
        &CostModel::analytical(),
        &config(4),
        None,
        Some(&|stats, ck| {
            if stats.epoch == 1 {
                *snap.borrow_mut() = Some(ck.encode());
            }
        }),
    )
    .expect("full run");

    let bytes = snap.into_inner().expect("snapshot taken");
    let ck = TrainCheckpoint::decode(&bytes).expect("round trips");
    assert_eq!(ck.epoch, 2);
    assert_eq!(ck.losses.len(), 2);

    // Resume from the decoded checkpoint: the tail must be bit-exact.
    let resumed = train_resumable(
        &spec,
        &inputs,
        &ctx,
        &cat,
        &CostModel::analytical(),
        &config(4),
        Some(&ck),
        None,
    )
    .expect("resumed run");
    assert_eq!(resumed.epochs.len(), 4);
    let full_bits: Vec<u64> = full.losses().iter().map(|l| l.to_bits()).collect();
    let res_bits: Vec<u64> = resumed.losses().iter().map(|l| l.to_bits()).collect();
    assert_eq!(full_bits, res_bits, "resumed trajectory diverged");
    for p in &spec.params {
        let d = full.final_params[p]
            .to_dense()
            .frobenius_distance(&resumed.final_params[p].to_dense());
        assert_eq!(d, 0.0, "resumed parameters diverged");
    }
}

#[test]
fn corrupt_checkpoints_are_rejected_not_trusted() {
    let (spec, inputs) = spec_and_inputs(8);
    let out = run(&spec, &inputs, &config(1));
    let mut params: Vec<(NodeId, DistRelation)> = spec
        .params
        .iter()
        .map(|p| (*p, out.final_params[p].clone()))
        .collect();
    // One sparse parameter beside the dense ones.
    let sparse = DistRelation::from_dense(&one_hot(9, 5), PhysFormat::CsrSingle).expect("csr");
    params.push((NodeId(u32::MAX), sparse));
    let ck = TrainCheckpoint {
        epoch: 1,
        losses: out.losses(),
        params,
        sparsities: vec![0.5; spec.graph.len()],
    };
    let bytes = ck.encode();
    let back = TrainCheckpoint::decode(&bytes).expect("round trips");
    assert_eq!((back.epoch, &back.losses), (ck.epoch, &ck.losses));
    assert_eq!(back.sparsities, ck.sparsities);
    assert_eq!(back.params, ck.params);

    // Every proper prefix, every single-byte flip, and any suffix: the
    // header (epoch, losses, statistics, counts, vertex ids) is under a
    // checksum exactly like the relation payloads.
    for cut in 0..bytes.len() {
        assert!(
            TrainCheckpoint::decode(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    let mut dirty = bytes.clone();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x40] {
            dirty[i] ^= mask;
            assert!(
                TrainCheckpoint::decode(&dirty).is_err(),
                "flip {mask:#04x} at byte {i} of {} decoded",
                bytes.len()
            );
            dirty[i] ^= mask;
        }
    }
    for garbage in [&[0u8][..], &[0u8; 8], &bytes[..40]] {
        let mut padded = bytes.clone();
        padded.extend_from_slice(garbage);
        assert!(
            TrainCheckpoint::decode(&padded).is_err(),
            "{} trailing bytes accepted",
            garbage.len()
        );
    }

    // A parent-build checkpoint: the retired MATOPTCK magic, then its
    // header words. Refused on the magic, never partially decoded.
    let mut old = b"KCTPOTAM".to_vec();
    for word in [1u64, 1, 0, 0, 0.25f64.to_bits()] {
        old.extend_from_slice(&word.to_le_bytes());
    }
    match TrainCheckpoint::decode(&old) {
        Err(TrainError::Checkpoint(m)) => assert!(m.contains("bad magic"), "{m}"),
        other => panic!("old-format checkpoint: {other:?}"),
    }
}

#[test]
fn structural_spec_errors_are_caught_before_any_work() {
    let (spec, _) = spec_and_inputs(8);
    let mut no_params = spec.clone();
    no_params.params.clear();
    no_params.updated.clear();
    assert!(matches!(no_params.validate(), Err(TrainError::BadSpec(_))));

    let mut misaligned = spec.clone();
    misaligned.updated.pop();
    assert!(matches!(misaligned.validate(), Err(TrainError::BadSpec(_))));

    let mut non_scalar_loss = spec.clone();
    non_scalar_loss.loss = spec.updated[0];
    assert!(matches!(
        non_scalar_loss.validate(),
        Err(TrainError::BadSpec(_))
    ));

    // A compute vertex posing as a parameter source.
    let mut not_a_source = spec;
    not_a_source.params[0] = not_a_source.loss;
    assert!(matches!(
        not_a_source.validate(),
        Err(TrainError::BadSpec(_))
    ));
}
