//! Serve-layer integration: a [`FrontDoor`] backed by a real process
//! fleet. A worker SIGKILLed mid-execute must not change the served
//! answer, the death must reach the front door's breaker accounting,
//! a death storm that opens the breaker keeps later runs off the fleet,
//! and drain must wait for in-flight remote waves.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use matopt_core::{
    BackoffPolicy, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, NodeKind,
};
use matopt_cost::CostModel;
use matopt_engine::DistRelation;
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_serve::{
    BreakerConfig, BreakerState, ExecRequest, FrontDoor, FrontDoorConfig, PlanService, ServeConfig,
};
use matopt_worker::{FleetConfig, WorkerFleet};

fn service() -> Arc<PlanService> {
    Arc::new(PlanService::new(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        ServeConfig::default(),
    ))
}

fn workload(seed: u64) -> (ComputeGraph, HashMap<NodeId, DistRelation>) {
    let graph = matopt_serve::protocol::workload_graph("ffnn-small:16", &Cluster::simsql_like(4))
        .expect("workload builds");
    let mut rng = seeded_rng(seed);
    let mut inputs = HashMap::new();
    for (id, node) in graph.iter() {
        if let NodeKind::Source { format } = &node.kind {
            let d =
                random_dense_normal(node.mtype.rows as usize, node.mtype.cols as usize, &mut rng);
            inputs.insert(id, DistRelation::from_dense(&d, *format).unwrap());
        }
    }
    (graph, inputs)
}

fn fleet_config(workers: u32) -> FleetConfig {
    FleetConfig {
        workers,
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 8,
        restart: BackoffPolicy {
            base_ms: 5,
            cap_ms: 40,
            max_attempts: 6,
        },
        worker_bin: std::path::PathBuf::from(env!("CARGO_BIN_EXE_matopt-workerd")),
        obs: None,
        on_death: None,
        seed: 0xf207_7d00_2001,
    }
}

#[test]
fn front_door_over_fleet_survives_kill_and_reports_death() {
    let (graph, inputs) = workload(0xBEEF);

    // In-process reference through its own front door.
    let reference = {
        let front = FrontDoor::new(service(), FrontDoorConfig::default());
        let resp = front
            .execute(&ExecRequest {
                tenant: "ref",
                graph: &graph,
                inputs: &inputs,
                input_key: 1,
                deadline: None,
            })
            .expect("reference execute");
        resp.outcome.sinks.clone()
    };

    // Fleet-backed front door with the breaker wired to worker deaths.
    let front = Arc::new(FrontDoor::new(service(), FrontDoorConfig::default()));
    let mut cfg = fleet_config(2);
    let death_front = Arc::clone(&front);
    cfg.on_death = Some(Arc::new(move |_worker| death_front.record_worker_death()));
    let fleet = WorkerFleet::spawn(cfg).expect("fleet spawns");
    front.attach_remote(fleet.clone());

    // SIGKILL the worker that receives the second dispatch. Every compute
    // vertex stalls mid-result-frame, so whichever one that dispatch
    // carries, the kill lands while its reply is half written;
    // unstalled, an `ffnn-small:16` vertex replies in microseconds, the
    // kill races the result and the death goes unnoticed unless a later
    // dispatch happens to reach the victim.
    for (id, node) in graph.iter() {
        if !matches!(node.kind, NodeKind::Source { .. }) {
            fleet.stall_vertex(id.0, 40);
        }
    }
    fleet.kill_at_dispatch(1);

    let resp = front
        .execute(&ExecRequest {
            tenant: "acme",
            graph: &graph,
            inputs: &inputs,
            input_key: 1,
            deadline: None,
        })
        .expect("fleet-backed execute");

    assert_eq!(
        resp.outcome.sinks.len(),
        reference.len(),
        "sink sets differ"
    );
    for (id, rel) in &reference {
        let got = resp.outcome.sinks.get(id).expect("sink present");
        assert_eq!(
            got.to_dense(),
            rel.to_dense(),
            "sink {id:?} diverged from the in-process reference"
        );
    }

    let stats = front.stats();
    assert!(
        stats.worker_deaths > 0,
        "worker death never reached the front door"
    );
    assert!(fleet.stats().deaths > 0, "fleet recorded no deaths");

    // Drain waits for in-flight remote waves; with the request done it
    // completes promptly and further work is refused.
    assert!(
        front.drain_and_wait(Duration::from_secs(2)),
        "drain timed out"
    );
    assert!(front.is_draining());
    fleet.shutdown();
}

/// A worker-death storm opens the breaker, and the next request runs
/// in-process: degraded, bit-exact, and not one task reaches the fleet.
#[test]
fn an_open_breaker_keeps_requests_off_the_fleet() {
    let (graph, inputs) = workload(0xD1E5);
    let request = |input_key| ExecRequest {
        tenant: "acme",
        graph: &graph,
        inputs: &inputs,
        input_key,
        deadline: None,
    };
    let reference = FrontDoor::new(service(), FrontDoorConfig::default())
        .execute(&request(1))
        .expect("reference execute")
        .outcome
        .sinks
        .clone();

    // One death is a storm here, and the breaker stays open.
    let front = Arc::new(FrontDoor::new(
        service(),
        FrontDoorConfig {
            breaker: BreakerConfig {
                trip_threshold: 1,
                cooldown: Duration::from_secs(600),
                ..BreakerConfig::default()
            },
            ..FrontDoorConfig::default()
        },
    ));
    let mut cfg = fleet_config(2);
    let death_front = Arc::clone(&front);
    cfg.on_death = Some(Arc::new(move |_worker| death_front.record_worker_death()));
    let fleet = WorkerFleet::spawn(cfg).expect("fleet spawns");
    front.attach_remote(fleet.clone());
    for (id, node) in graph.iter() {
        if !matches!(node.kind, NodeKind::Source { .. }) {
            fleet.stall_vertex(id.0, 40);
        }
    }
    fleet.kill_at_dispatch(1);
    let storm = front.execute(&request(1)).expect("fleet-backed execute");
    assert!(!storm.degraded, "the storm run started on a closed breaker");
    assert_eq!(front.stats().breaker_state, BreakerState::Open);
    assert_eq!(front.stats().breaker.trips, 1);

    let tasks_ok = fleet.stats().tasks_ok;
    assert!(tasks_ok > 0, "the storm run never reached the fleet");
    let resp = front.execute(&request(2)).expect("degraded execute");
    assert!(resp.degraded, "open breaker must degrade");
    assert_eq!(
        fleet.stats().tasks_ok,
        tasks_ok,
        "a degraded run used the fleet"
    );
    assert_eq!(
        resp.outcome.sinks.len(),
        reference.len(),
        "sink sets differ"
    );
    for (id, rel) in &reference {
        assert_eq!(&resp.outcome.sinks[id], rel, "sink {id:?} diverged");
    }
    fleet.shutdown();
}
