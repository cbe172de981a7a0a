//! Memory-governor integration harness: a budgeted run walks inline,
//! spilling cold buffers to scratch, and must never change the numbers.
//!
//! Four properties are pinned here:
//!
//! 1. **Budget matrix** — a workload that peaks at `R` resident bytes
//!    when unbounded completes bit-identically under budgets of
//!    `0.75·R` and `0.5·R`, and the tight budget provably engages the
//!    spill path (`spills > 0`, `reloads > 0`).
//! 2. **Infeasible budget** — a budget too small for a vertex's inputs
//!    plus its output fails fast with a structured
//!    [`ExecError::MemBudgetInfeasible`] naming the vertex, its need
//!    and the budget, instead of hanging or panicking.
//! 3. **Streaming retirement** — a budget composes with
//!    `retain_values: false`.
//! 4. **Rotten scratch** — a spill extent damaged between its write and
//!    its reload ends the run with a structured
//!    [`ExecError::SpillCorrupted`] naming the damaged vertex, never
//!    with different numbers and never with a panic.
//! 5. **Failed runs give back** — a run that fails mid-walk returns its
//!    extents to the store, so the next run spills where a run into a
//!    fresh store does.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, NodeKind, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_with, DistRelation, ExecError, ExecOptions};
use matopt_graphs::{ffnn_w2_update_graph, FfnnConfig};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::{AttrValue, Event, Obs, Sink, Subsystem};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// The spill store of `scratch`, reached through `/proc/self/fd`: it
/// is unlinked as soon as it is created, so this process's descriptor
/// is its only name.
fn open_store(scratch: &Path) -> File {
    for fd in std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .flatten()
    {
        let Ok(target) = std::fs::read_link(fd.path()) else {
            continue;
        };
        if target.starts_with(scratch) && target.to_string_lossy().ends_with(" (deleted)") {
            let store = File::options().read(true).write(true).open(fd.path());
            return store.expect("reopen the spill store");
        }
    }
    panic!("no spill store open under {}", scratch.display());
}

/// An integer attribute of an event.
fn int_attr(event: &Event, name: &str) -> Option<u64> {
    event.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Int(i) if *k == name => Some(*i as u64),
        _ => None,
    })
}

fn is_spill(event: &Event) -> bool {
    event.subsystem == Subsystem::Sched && event.name == "spill"
}

/// An event sink that damages the extent of one spill of the run it
/// watches. The governor reports each spill right after its extent is
/// written, on the walking thread — so the sink runs at exactly the
/// point the test is about (extent on scratch, reload still to come)
/// without a sleep or a poll, and the record names the extent.
struct Saboteur {
    scratch: PathBuf,
    /// Which spill of the run to damage (0-based).
    target: usize,
    seed: u64,
    seen: AtomicUsize,
    /// The vertex whose extent was damaged.
    damaged: Arc<Mutex<Option<usize>>>,
}

impl Sink for Saboteur {
    fn record(&self, event: Event) {
        if !is_spill(&event) || self.seen.fetch_add(1, Ordering::SeqCst) != self.target {
            return;
        }
        let offset = int_attr(&event, "offset").expect("a spill names its extent");
        let len = int_attr(&event, "stream_bytes").expect("a spill sizes its extent");
        let store = open_store(&self.scratch);
        let mut bytes = vec![0; len as usize];
        store
            .read_exact_at(&mut bytes, offset)
            .expect("read the extent");
        let at = (split_mix(self.seed) % len) as usize;
        if self.seed & 1 == 0 {
            let flipped = bytes[at] ^ 1 << (self.seed / 2 % 8);
            store
                .write_all_at(&[flipped], offset + at as u64)
                .expect("flip");
        } else {
            // Cut the extent short at `at`: the store ends there, and
            // whatever it held past the extent is written back, so the
            // cut part reads short or as a hole of zeros. A cut that
            // would drop only zero bytes moves back to the extent's
            // last non-zero byte, so it always changes what is read.
            let cut = if bytes[at..].iter().any(|&b| b != 0) {
                at
            } else {
                bytes
                    .iter()
                    .rposition(|&b| b != 0)
                    .expect("magic is not zero")
            } as u64;
            let end = store.metadata().expect("store length").len();
            let mut rest = vec![0; end.saturating_sub(offset + len) as usize];
            store
                .read_exact_at(&mut rest, offset + len)
                .expect("read past the extent");
            store.set_len(offset + cut).expect("truncate");
            store
                .write_all_at(&rest, offset + len)
                .expect("restore past the extent");
        }
        *self.damaged.lock().unwrap() = int_attr(&event, "vertex").map(|v| v as usize);
    }
}

#[test]
fn rotten_spill_file_is_a_structured_error_never_wrong_numbers() {
    let w = ffnn_workload(24);
    let reference = run(&w, ExecOptions::default());
    let budget = reference.peak_resident_bytes / 2;
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
        // A run that spills fewer than eight buffers leaves the high
        // targets unhit: those runs must simply be right.
        let result = execute_plan_with(
            &w.graph,
            &w.annotation,
            &w.inputs,
            &w.registry,
            &obs,
            ExecOptions {
                mem_budget: Some(budget),
                scratch_dir: Some(scratch),
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
        "only {detected} of 24 schedules hit the damaged extent ({clean} ran clean)"
    );
}

/// Collects the offset of every spill of the runs it watches.
struct Offsets(Arc<Mutex<Vec<u64>>>);

impl Sink for Offsets {
    fn record(&self, event: Event) {
        if is_spill(&event) {
            self.0
                .lock()
                .unwrap()
                .push(int_attr(&event, "offset").unwrap());
        }
    }
}

/// A run that fails mid-walk — out of budget after spilling, or on a
/// rotten extent — gives every extent back to its directory's store:
/// the next run's spills land exactly where a run into a fresh store
/// put them.
#[test]
fn a_run_that_fails_mid_walk_gives_its_extents_back() {
    let w = ffnn_workload(24);
    let peak = run(&w, ExecOptions::default()).peak_resident_bytes;
    let scratch = std::env::temp_dir().join(format!("matopt-failed-run-{}", std::process::id()));
    let governed = |budget: u64, sink: Obs| {
        let options = ExecOptions {
            mem_budget: Some(budget),
            scratch_dir: Some(scratch.clone()),
            ..Default::default()
        };
        execute_plan_with(
            &w.graph,
            &w.annotation,
            &w.inputs,
            &w.registry,
            &sink,
            options,
        )
    };
    let offsets = |budget: u64| {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let out = governed(budget, Obs::new(Offsets(Arc::clone(&seen))));
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (out.map(|o| o.governor.spills), seen)
    };
    let (clean, fresh) = offsets(peak / 2);
    assert!(clean.expect("clean run") > 0 && !fresh.is_empty());

    // Out of budget after spilling: the largest budget that fails
    // once the walk has spilled.
    let infeasible = (1..40)
        .rev()
        .map(|k| offsets(peak * k / 80))
        .find(|(out, seen)| {
            matches!(out, Err(ExecError::MemBudgetInfeasible { .. })) && !seen.is_empty()
        });
    assert!(infeasible.is_some(), "no budget fails after spilling");
    assert_eq!(offsets(peak / 2).1, fresh, "after an infeasible run");

    // A rotten extent.
    let damaged = Arc::new(Mutex::new(None));
    let rotten = governed(
        peak / 2,
        Obs::new(Saboteur {
            scratch: scratch.clone(),
            target: 0,
            seed: 0,
            seen: AtomicUsize::new(0),
            damaged: Arc::clone(&damaged),
        }),
    );
    assert!(
        matches!(rotten, Err(ExecError::SpillCorrupted { .. })),
        "{rotten:?}"
    );
    assert_eq!(offsets(peak / 2).1, fresh, "after a rotten extent");
    let _ = std::fs::remove_dir_all(&scratch);
}
