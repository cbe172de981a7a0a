//! Resource-governor integration harness: memory budgets with
//! spill-to-disk backpressure and hedged straggler re-execution must
//! never change the numbers.
//!
//! Four properties are pinned here:
//!
//! 1. **Budget matrix** — a workload that peaks at `R` resident bytes
//!    when unbounded completes bit-identically under budgets of
//!    `0.75·R` and `0.5·R`, and the tight budget provably engages the
//!    spill path (`spills > 0`, `reloads > 0`).
//! 2. **Deadlock guard** — a budget too small for even a single
//!    minimal vertex fails fast with a structured
//!    [`ExecError::MemBudgetInfeasible`] naming the vertex, its need
//!    and the budget, instead of hanging or panicking.
//! 3. **Hedging** — with a seeded straggler schedule (one vertex
//!    delayed far past its prediction), a hedged run launches a
//!    duplicate, the duplicate wins, wall-clock beats the un-hedged
//!    run, and the sinks stay bit-identical (kernels are
//!    bit-deterministic, so first-completion-wins is safe).
//! 4. **Rotten scratch** — a spill file damaged between its write and
//!    its reload ends the run with a structured
//!    [`ExecError::SpillCorrupted`] naming the damaged vertex, never
//!    with different numbers and never with a panic.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecError, ExecOptions, HedgeConfig};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{AttrValue, Event, Obs, Sink, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use matopt_pool::Pool;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Workload {
    graph: matopt_core::ComputeGraph,
    annotation: matopt_core::Annotation,
    inputs: HashMap<matopt_core::NodeId, DistRelation>,
    registry: ImplRegistry,
}

fn ffnn_workload(hidden: u64) -> Workload {
    let registry = ImplRegistry::paper_default();
    let graph = ffnn_w2_update_graph(FfnnConfig::laptop(hidden))
        .expect("well-typed")
        .graph;
    let catalog = FormatCatalog::paper_default().dense_only();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(4));
    let model = CostModel::analytical();
    let annotation = frontier_dp_beam(&graph, &OptContext::new(&ctx, &catalog, &model), 400)
        .expect("optimizable")
        .annotation;
    let mut rng = seeded_rng(0x9A5);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(id, DistRelation::from_dense(&d, *format).unwrap());
        }
    }
    Workload {
        graph,
        annotation,
        inputs,
        registry,
    }
}

fn run(w: &Workload, options: ExecOptions) -> matopt_engine::ExecOutcome {
    execute_plan_with(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &w.registry,
        &Obs::disabled(),
        options,
    )
    .expect("run succeeds")
}

#[test]
fn budget_matrix_is_bit_exact_and_tight_budget_spills() {
    let w = ffnn_workload(24);
    let unbounded = run(&w, ExecOptions::default());
    let peak = unbounded.peak_resident_bytes;
    assert!(peak > 0, "unbounded run must report a resident peak");
    assert_eq!(unbounded.governor.spills, 0);

    for (tag, frac) in [("75%", 0.75f64), ("50%", 0.5)] {
        let budget = (peak as f64 * frac) as u64;
        let governed = run(
            &w,
            ExecOptions {
                mem_budget: Some(budget),
                ..Default::default()
            },
        );
        // Bit-exact sinks *and* retained intermediate values: spilled
        // buffers were rehydrated from scratch, checksum-verified.
        for (sink, rel) in &unbounded.sinks {
            assert_eq!(
                governed.sinks[sink].to_dense().data(),
                rel.to_dense().data(),
                "{tag}: sink {sink} differs under budget {budget}"
            );
        }
        assert_eq!(
            governed.values.len(),
            unbounded.values.len(),
            "{tag}: retained value sets differ"
        );
        for (v, rel) in &unbounded.values {
            assert_eq!(
                governed.values[v].to_dense().data(),
                rel.to_dense().data(),
                "{tag}: retained value {v} differs under budget {budget}"
            );
        }
        if frac == 0.5 {
            assert!(
                governed.governor.spills > 0,
                "50% budget ({budget} of {peak} peak) never spilled"
            );
            assert!(
                governed.governor.reloads > 0,
                "50% budget spilled but never reloaded"
            );
            assert!(governed.governor.spilled_bytes > 0);
        }
    }
}

#[test]
fn infeasible_budget_surfaces_vertex_need_and_budget() {
    let w = ffnn_workload(16);
    let err = execute_plan_with(
        &w.graph,
        &w.annotation,
        &w.inputs,
        &w.registry,
        &Obs::disabled(),
        ExecOptions {
            mem_budget: Some(64),
            ..Default::default()
        },
    )
    .expect_err("64 bytes cannot hold any vertex");
    match err {
        ExecError::MemBudgetInfeasible {
            vertex,
            need,
            budget,
            ..
        } => {
            assert_eq!(budget, 64);
            assert!(
                need > budget,
                "infeasible error must report need ({need}) above budget ({budget})"
            );
            assert!(
                w.graph.iter().any(|(id, _)| id == vertex),
                "reported vertex {vertex} is not in the graph"
            );
        }
        other => panic!("expected MemBudgetInfeasible, got {other}"),
    }
}

#[test]
fn hedged_run_beats_unhedged_straggler_and_stays_bit_exact() {
    if Pool::global().parallelism() < 2 {
        // A duplicate can never overtake the primary on one thread.
        return;
    }
    let w = ffnn_workload(16);
    let clean = run(&w, ExecOptions::default());

    // Delay one mid-graph compute vertex by 400ms (primary attempt
    // only — the injection hook models a straggling worker).
    let straggler = w
        .graph
        .iter()
        .find(|(_, n)| matches!(n.kind, NodeKind::Compute { .. }))
        .map(|(id, _)| id)
        .expect("graph has compute vertices");
    let mut delays = vec![0u64; w.graph.len()];
    delays[straggler.index()] = 400;
    let delays = Arc::new(delays);

    let t0 = Instant::now();
    let unhedged = run(
        &w,
        ExecOptions {
            straggler_delays_ms: Some(Arc::clone(&delays)),
            ..Default::default()
        },
    );
    let unhedged_secs = t0.elapsed().as_secs_f64();
    assert_eq!(unhedged.governor.hedges_launched, 0);

    let hedge = HedgeConfig {
        factor: 5.0,
        predicted_seconds: Some(Arc::new(vec![0.005; w.graph.len()])),
        min_deadline_ms: 1,
    };
    let t1 = Instant::now();
    let hedged = run(
        &w,
        ExecOptions {
            straggler_delays_ms: Some(Arc::clone(&delays)),
            hedge: Some(hedge),
            ..Default::default()
        },
    );
    let hedged_secs = t1.elapsed().as_secs_f64();

    assert!(
        hedged.governor.hedges_launched >= 1,
        "straggler never triggered a hedge"
    );
    assert!(
        hedged.governor.hedges_won >= 1,
        "hedged duplicate never won against a 400ms straggler"
    );
    assert!(
        hedged_secs < 0.75 * unhedged_secs,
        "hedging did not beat the straggler: hedged {hedged_secs:.3}s vs unhedged {unhedged_secs:.3}s"
    );
    for (sink, rel) in &clean.sinks {
        for (tag, out) in [("unhedged", &unhedged), ("hedged", &hedged)] {
            assert_eq!(
                out.sinks[sink].to_dense().data(),
                rel.to_dense().data(),
                "{tag}: sink {sink} differs from the clean run"
            );
        }
    }
}

/// Budgets compose with streaming retirement: with `retain_values:
/// false` *and* a budget, sinks still match and the governor only
/// spills what retirement hasn't already freed.
#[test]
fn budget_composes_with_streaming_retirement() {
    let w = ffnn_workload(24);
    let unbounded = run(&w, ExecOptions::default());
    let budget = (unbounded.peak_resident_bytes as f64 * 0.5) as u64;
    let governed = run(
        &w,
        ExecOptions {
            retain_values: false,
            mem_budget: Some(budget),
            ..Default::default()
        },
    );
    assert_eq!(governed.values.len(), governed.sinks.len());
    for (sink, rel) in &unbounded.sinks {
        assert_eq!(
            governed.sinks[sink].to_dense().data(),
            rel.to_dense().data(),
            "sink {sink} differs under streaming + budget"
        );
    }
}

fn bits(rel: &DistRelation) -> Vec<u64> {
    rel.to_dense().data().iter().map(|v| v.to_bits()).collect()
}

/// SplitMix64: the seeded schedule's only source of variety.
fn split_mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every `*.spill` file one level below `scratch` (the run's
/// `run-<pid>-<seq>` directory), with the sequence number in its name.
fn spill_files(scratch: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    for run in std::fs::read_dir(scratch).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(run.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = file.file_name().to_string_lossy().into_owned();
            let seq = name
                .strip_prefix('v')
                .and_then(|n| n.strip_suffix(".spill"));
            if let Some(seq) = seq.and_then(|n| n.parse().ok()) {
                found.push((seq, file.path()));
            }
        }
    }
    found
}

/// An event sink that damages one spill file of the run it watches.
/// The governor reports each spill from inside `do_spill`, under its
/// lock, right after the file is written — so the sink runs at exactly
/// the point the test is about (file on scratch, reload still to come)
/// without a sleep or a poll, and the newest file is the reported
/// vertex's.
struct Saboteur {
    scratch: PathBuf,
    /// Which spill of the run to damage (0-based).
    target: usize,
    seed: u64,
    seen: AtomicUsize,
    /// The vertex whose file was damaged.
    damaged: Arc<Mutex<Option<usize>>>,
}

impl Sink for Saboteur {
    fn record(&self, event: Event) {
        if event.subsystem != Subsystem::Sched
            || event.name != "spill"
            || self.seen.fetch_add(1, Ordering::SeqCst) != self.target
        {
            return;
        }
        let vertex = event.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Int(i) if *k == "vertex" => Some(*i as usize),
            _ => None,
        });
        let (_, path) = spill_files(&self.scratch)
            .into_iter()
            .max_by_key(|(seq, _)| *seq)
            .expect("a reported spill has a file");
        let mut bytes = std::fs::read(&path).expect("read spill file");
        let at = (split_mix(self.seed) % bytes.len() as u64) as usize;
        if self.seed & 1 == 0 {
            bytes[at] ^= 1 << (self.seed / 2 % 8);
        } else {
            bytes.truncate(at);
        }
        std::fs::write(&path, &bytes).expect("rewrite spill file");
        *self.damaged.lock().unwrap() = vertex;
    }
}

#[test]
fn rotten_spill_file_is_a_structured_error_never_wrong_numbers() {
    let w = ffnn_workload(24);
    let reference = run(&w, ExecOptions::default());
    let budget = reference.peak_resident_bytes / 2;
    let computes: Vec<usize> = w
        .graph
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Compute { .. }))
        .map(|(id, _)| id.index())
        .collect();
    let scratch_root = std::env::temp_dir().join(format!("matopt-rot-{}", std::process::id()));

    let (mut detected, mut clean) = (0, 0);
    for seed in 0..24u64 {
        let scratch = scratch_root.join(format!("seed-{seed}"));
        std::fs::create_dir_all(&scratch).expect("caller-owned scratch");
        let damaged = Arc::new(Mutex::new(None));
        let obs = Obs::new(Saboteur {
            scratch: scratch.clone(),
            target: (seed % 8) as usize,
            seed,
            seen: AtomicUsize::new(0),
            damaged: Arc::clone(&damaged),
        });
        // A run spills six to eight buffers, so targets 6 and 7 can
        // miss: those runs must simply be right. Every fourth seed
        // holds one consumer back, so buffers go cold on scratch while
        // it waits and come back through its admission.
        let mut delays = vec![0u64; w.graph.len()];
        if seed % 4 == 1 {
            delays[computes[(split_mix(seed) >> 32) as usize % computes.len()]] = 10;
        }
        let result = execute_plan_with(
            &w.graph,
            &w.annotation,
            &w.inputs,
            &w.registry,
            &obs,
            ExecOptions {
                mem_budget: Some(budget),
                scratch_dir: Some(scratch),
                straggler_delays_ms: Some(Arc::new(delays)),
                ..Default::default()
            },
        );
        let damaged = *damaged.lock().unwrap();
        match result {
            Err(ExecError::SpillCorrupted { vertex, detail, .. }) => {
                assert_eq!(
                    Some(vertex.index()),
                    damaged,
                    "seed {seed}: error names {vertex}, not the damaged vertex ({detail})"
                );
                detected += 1;
            }
            Err(other) => panic!("seed {seed}: expected SpillCorrupted or success, got {other}"),
            Ok(out) => {
                // Every value is retained, so every spilled buffer is
                // reloaded: a damaged one cannot have gone unread.
                assert_eq!(damaged, None, "seed {seed}: damage went unnoticed");
                for (sink, rel) in &reference.sinks {
                    assert_eq!(
                        bits(&out.sinks[sink]),
                        bits(rel),
                        "seed {seed}: sink {sink} differs from the unbudgeted run"
                    );
                }
                clean += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    assert!(
        detected >= 12,
        "only {detected} of 24 schedules hit the damaged file ({clean} ran clean)"
    );
}
