//! `serve_mix`: two closed-loop clients on one `PlanService` and one
//! `FrontDoor`, 96 % cache hits over a warmed hot set, 1 % small misses,
//! 3 % tenant-admitted executions.

use crate::fixtures::{ffnn_small_graph, make_inputs, sinks_match, SplitMix, BEAM};
use crate::harness::{timed, ObsConfig, OpRecord, SetupInfo, Workload};
use crate::trace::Tracer;
use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId};
use matopt_cost::AnalyticalCostModel;
use matopt_engine::{execute_plan_serial, DistRelation, ExecOutcome};
use matopt_obs::{MetricsRegistry, Obs, RingSink};
use matopt_serve::protocol::Json;
use matopt_serve::{
    respond, ExecRequest, FrontDoor, FrontDoorConfig, PlanService, ServeConfig, TenancyConfig,
    TenantConfig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
pub const HOT_LINES: usize = 64;
const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];
const INPUT_SETS: usize = 4;
/// The event ring `matopt serve` runs with.
const SERVE_RING_CAPACITY: usize = 8192;
/// Both clients run for one slice, then the oracle checks what they
/// received; a window is a whole number of slices.
const SLICE: Duration = Duration::from_millis(100);
const SCHEDULE_LEN: usize = 4096;
/// The hot set is the same for every `--seed` (so `plan_cost_s` repeats
/// exactly); the seed drives request order and matrix data.
pub const HOT_SET_SEED: u64 = 0x686f_7473_6574;
const WARMUP_SLICES: usize = 3;

const KIND_HIT: u8 = 0;
const KIND_MISS_SMALL: u8 = 1;
const KIND_EXEC: u8 = 2;

#[derive(Clone, Copy)]
enum Slot {
    /// `respond` over hot line `i`.
    Hit(usize),
    /// `respond` over a never-seen five-vertex graph.
    MissSmall,
    /// `FrontDoor::execute` on input set `i`.
    Exec(usize),
}

/// What the oracle needs to check one op after the slice.
enum Received {
    Line {
        text: String,
        source: &'static str,
    },
    Exec {
        set: usize,
        outcome: Option<Arc<ExecOutcome>>,
    },
}

struct Client {
    id: u64,
    schedule: Vec<Slot>,
    pos: usize,
    /// Counts this client's misses and executions, so every miss has
    /// never-seen dimensions and every execution a unique input key.
    unique: u64,
}

/// The shared, immutable part of an instance.
struct Shared {
    service: Arc<PlanService>,
    front: FrontDoor,
    hot: Vec<String>,
    exec_graph: ComputeGraph,
    input_sets: Vec<HashMap<NodeId, DistRelation>>,
    references: Vec<Vec<(NodeId, Vec<u64>)>>,
}

pub struct ServeMix {
    shared: Shared,
    clients: Vec<Client>,
    /// Sum of the hot set's plan costs, in line order.
    hot_cost: f64,
    stash: Vec<Received>,
    /// Failed checks reported on standard error so far (capped).
    complaints: u32,
    /// Plan-cache epoch at the last oracle pass, and whether that pass
    /// saw it change.
    epoch: u64,
    bumped_last_slice: bool,
}

/// One of the 32 explicit hot graphs: a few square sources and a seeded
/// run of unary/binary ops over earlier vertices, 5–12 vertices.
struct SmallGraph {
    n: u64,
    sources: usize,
    /// `(op, inputs)` with inputs indexing sources-then-ops.
    ops: Vec<(&'static str, Vec<usize>)>,
}

impl SmallGraph {
    fn seeded(rng: &mut SplitMix, n: u64) -> Self {
        let sources = 2 + rng.below(2) as usize;
        let vertices = 5 + rng.below(8) as usize;
        let mut ops = Vec::new();
        for i in sources..vertices {
            let pick = |rng: &mut SplitMix| rng.below(i as u64) as usize;
            let op =
                ["mm", "add", "hadamard", "relu", "transpose", "sigmoid"][rng.below(6) as usize];
            let inputs = if matches!(op, "mm" | "add" | "hadamard") {
                vec![pick(rng), pick(rng)]
            } else {
                vec![pick(rng)]
            };
            ops.push((op, inputs));
        }
        SmallGraph { n, sources, ops }
    }

    /// The request line; `perm[i]` is the position source `i` is listed
    /// at (the identity for a base graph, a shuffle for its relabeled
    /// twin, which must land on the same canonical fingerprint).
    fn line(&self, id: &str, perm: &[usize], prefix: &str) -> String {
        let mut listed = vec![0usize; self.sources];
        for (src, &at) in perm.iter().enumerate() {
            listed[at] = src;
        }
        let sources: Vec<String> = listed
            .iter()
            .map(|src| {
                format!(
                    "{{\"name\": \"{prefix}{src}\", \"rows\": {n}, \"cols\": {n}}}",
                    n = self.n
                )
            })
            .collect();
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(op, inputs)| {
                let ins: Vec<String> = inputs
                    .iter()
                    .map(|&i| if i < self.sources { perm[i] } else { i }.to_string())
                    .collect();
                format!("{{\"op\": \"{op}\", \"in\": [{}]}}", ins.join(", "))
            })
            .collect();
        format!(
            "{{\"id\": \"{id}\", \"graph\": {{\"sources\": [{}], \"ops\": [{}]}}}}",
            sources.join(", "),
            ops.join(", ")
        )
    }
}

/// The 64 hot request lines: 32 named workloads, 16 explicit graphs and
/// their 16 relabeled twins.
pub fn hot_lines(rng: &mut SplitMix) -> Vec<String> {
    let mut lines: Vec<String> = (0..32)
        .map(|i| {
            format!(
                "{{\"id\": \"w{i}\", \"workload\": \"ffnn-small:{}\"}}",
                8 + 2 * i
            )
        })
        .collect();
    for i in 0..16u64 {
        let g = SmallGraph::seeded(rng, 48 + 16 * i);
        let identity: Vec<usize> = (0..g.sources).collect();
        let mut perm = identity.clone();
        rng.shuffle(&mut perm);
        lines.push(g.line(&format!("g{i}"), &identity, "S"));
        lines.push(g.line(&format!("t{i}"), &perm, "relabeled"));
    }
    lines
}

/// A five-vertex request with dimensions no earlier request had.
pub fn miss_line(n: u64) -> String {
    format!(
        "{{\"id\": \"m{n}\", \"graph\": {{\"sources\": [{{\"rows\": {n}, \"cols\": {n}}}, \
         {{\"rows\": {n}, \"cols\": {n}}}], \"ops\": [{{\"op\": \"mm\", \"in\": [0, 1]}}, \
         {{\"op\": \"relu\", \"in\": [2]}}, {{\"op\": \"add\", \"in\": [3, 0]}}]}}}}"
    )
}

/// True when `text` is a well-formed `"status": "ok"` response whose
/// `source` is `source`.
pub fn line_ok(text: &str, source: &str) -> bool {
    Json::parse(text).is_ok_and(|doc| {
        doc.get("status").and_then(Json::as_str) == Some("ok")
            && doc.get("source").and_then(Json::as_str) == Some(source)
    })
}

/// The service as `matopt serve` runs it: ring-buffered events plus the
/// always-on metrics registry (or the traced pass's memory sink).
pub fn serve_service(obs: &ObsConfig) -> Arc<PlanService> {
    let product = Obs::with_metrics(
        Arc::new(RingSink::new(SERVE_RING_CAPACITY)),
        MetricsRegistry::new(),
    );
    Arc::new(PlanService::with_obs(
        ImplRegistry::extended(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(10),
        Box::new(AnalyticalCostModel),
        ServeConfig {
            beam: BEAM,
            ..ServeConfig::default()
        },
        obs.obs_or(product),
    ))
}

/// Tenancy on with default quotas, batching on, everything else the
/// front door's defaults.
pub fn front_door(service: &Arc<PlanService>) -> FrontDoor {
    FrontDoor::new(
        Arc::clone(service),
        FrontDoorConfig {
            tenancy: TenancyConfig::with_default(TenantConfig::default()),
            ..FrontDoorConfig::default()
        },
    )
}

impl ServeMix {
    pub fn setup(seed: u64, obs: &ObsConfig) -> (Self, SetupInfo) {
        let mut rng = SplitMix::new(seed ^ 0x7365_7276);
        let service = serve_service(obs);
        let front = front_door(&service);
        let hot = hot_lines(&mut SplitMix::new(HOT_SET_SEED));
        assert_eq!(hot.len(), HOT_LINES);
        // Warm the hot set; the answers' costs are the workload's plans.
        let hot_cost = hot
            .iter()
            .map(|line| {
                let resp = respond(&service, line);
                Json::parse(&resp)
                    .ok()
                    .filter(|d| d.get("status").and_then(Json::as_str) == Some("ok"))
                    .and_then(|d| d.get("cost")?.as_f64())
                    .unwrap_or_else(|| panic!("hot line does not plan: {line} -> {resp}"))
            })
            .sum();

        let (exec_graph, build_s) = timed(|| ffnn_small_graph(32));
        let planned = service.plan(&exec_graph).expect("ffnn-small:32 plans");
        let input_sets: Vec<_> = (0..INPUT_SETS as u64)
            .map(|i| make_inputs(&exec_graph, seed.wrapping_mul(131) + i))
            .collect();
        let references = input_sets
            .iter()
            .map(|inputs| {
                let out = execute_plan_serial(
                    &exec_graph,
                    &planned.plan.annotation,
                    inputs,
                    service.registry(),
                )
                .expect("serial reference runs");
                crate::fixtures::sink_bits(&exec_graph, &out)
            })
            .collect();

        let clients = (0..CLIENTS as u64)
            .map(|id| {
                let mut schedule: Vec<Slot> = (0..SCHEDULE_LEN)
                    .map(|i| match i * 100 / SCHEDULE_LEN {
                        0 => Slot::MissSmall,
                        1..=3 => Slot::Exec(i % INPUT_SETS),
                        _ => Slot::Hit(rng.below(HOT_LINES as u64) as usize),
                    })
                    .collect();
                rng.shuffle(&mut schedule);
                Client {
                    id,
                    schedule,
                    pos: 0,
                    unique: 0,
                }
            })
            .collect();

        let mut w = ServeMix {
            shared: Shared {
                service,
                front,
                hot,
                exec_graph,
                input_sets,
                references,
            },
            clients,
            hot_cost,
            stash: Vec::new(),
            complaints: 0,
            epoch: 0,
            bumped_last_slice: false,
        };
        let mut ops = Vec::new();
        for _ in 0..WARMUP_SLICES {
            w.round(&mut Tracer::off(), &mut ops);
            w.stash.clear();
        }
        w.epoch = w.shared.service.cache().epoch();
        obs.drain();
        (
            w,
            SetupInfo {
                graph_build_ms: build_s * 1e3,
            },
        )
    }
}

/// One client's slice: ops back to back until `deadline`.
fn run_client(
    shared: &Shared,
    client: &mut Client,
    deadline: Instant,
    tr: &mut Tracer,
) -> (Vec<OpRecord>, Vec<Received>) {
    let mut ops = Vec::with_capacity(8192);
    let mut received = Vec::with_capacity(8192);
    loop {
        let slot = client.schedule[client.pos % SCHEDULE_LEN];
        // Request generation, before the op's clock starts.
        let (fresh_line, key) = match slot {
            Slot::Hit(_) => (None, 0),
            Slot::MissSmall | Slot::Exec(_) => {
                client.unique += 1;
                let key = client.id << 40 | client.unique;
                (
                    matches!(slot, Slot::MissSmall)
                        .then(|| miss_line(2000 + 2 * client.unique + client.id)),
                    key,
                )
            }
        };
        tr.set_op((client.id + 1) << 40 | client.pos as u64);
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        client.pos += 1;
        match slot {
            Slot::Hit(_) | Slot::MissSmall => {
                let (line, kind, source) = match (slot, &fresh_line) {
                    (Slot::Hit(i), _) => (shared.hot[i].as_str(), KIND_HIT, "hit"),
                    (_, Some(line)) => (line.as_str(), KIND_MISS_SMALL, "miss"),
                    _ => unreachable!("a miss slot always has a fresh line"),
                };
                let tok = tr.begin("serve", "respond");
                let text = respond(&shared.service, line);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end(tok);
                ops.push(OpRecord { kind, ms, ok: true });
                received.push(Received::Line { text, source });
            }
            Slot::Exec(set) => {
                let req = ExecRequest {
                    tenant: TENANTS[(client.unique % TENANTS.len() as u64) as usize],
                    graph: &shared.exec_graph,
                    inputs: &shared.input_sets[set],
                    input_key: key,
                    deadline: None,
                };
                let tok = tr.begin("serve", "FrontDoor::execute");
                let resp = shared.front.execute(&req);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end(tok);
                ops.push(OpRecord {
                    kind: KIND_EXEC,
                    ms,
                    ok: resp.is_ok(),
                });
                received.push(Received::Exec {
                    set,
                    outcome: resp.ok().map(|r| r.outcome),
                });
            }
        }
    }
    (ops, received)
}

impl Workload for ServeMix {
    fn round(&mut self, tr: &mut Tracer, ops: &mut Vec<OpRecord>) -> f64 {
        let shared = &self.shared;
        let started = Instant::now();
        let deadline = started + SLICE;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let mut local = tr.fork(1 + client.id as u32);
                    scope.spawn(move || {
                        let out = run_client(shared, client, deadline, &mut local);
                        (out, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let measured = started.elapsed().as_secs_f64();
        for ((client_ops, received), local) in results {
            ops.extend(client_ops);
            self.stash.extend(received);
            tr.absorb(local);
        }
        measured
    }

    fn verify(&mut self, tr: &mut Tracer, ops: &mut [OpRecord], first: usize) {
        let tok = tr.begin("oracle", "parse+sinks_match");
        // The product's drift monitor may start a new cache epoch when
        // measured execution times wander (they do on a noisy box); every
        // hot line then legitimately misses once. Only in the slice of a
        // bump and the one after it may a hot line answer "miss".
        let epoch = self.shared.service.cache().epoch();
        let relearning = epoch != self.epoch || self.bumped_last_slice;
        self.bumped_last_slice = epoch != self.epoch;
        self.epoch = epoch;
        for (i, got) in self.stash.drain(..).enumerate() {
            let good = match &got {
                Received::Line { text, source } => {
                    line_ok(text, source)
                        || (relearning
                            && *source == "hit"
                            && (line_ok(text, "miss") || line_ok(text, "coalesced")))
                }
                Received::Exec { set, outcome } => outcome
                    .as_ref()
                    .is_some_and(|o| sinks_match(&self.shared.references[*set], &o.sinks)),
            };
            if !good && self.complaints < 5 {
                self.complaints += 1;
                match got {
                    Received::Line { text, source } => {
                        eprintln!(
                            "serve_mix: expected an ok answer with source {source}, got {text}"
                        )
                    }
                    Received::Exec { set, outcome } => eprintln!(
                        "serve_mix: execution on input set {set} {}",
                        if outcome.is_some() {
                            "differs from the serial walk"
                        } else {
                            "failed"
                        }
                    ),
                }
            }
            ops[first + i].ok &= good;
        }
        tr.end(tok);
    }

    fn limits_ms(&self) -> &'static [f64] {
        // plan ops 1 ms, exec ops 5 ms
        &[1.0, 1.0, 5.0]
    }

    fn plan_cost_s(&self) -> f64 {
        self.hot_cost
    }

    fn serial(&self) -> bool {
        false
    }
}
