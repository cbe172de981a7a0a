//! Front-door harness: quotas, batching, shedding, tenant budgets and
//! the shared pool, exercised end to end against real executions.

use matopt_core::{Cluster, ComputeGraph, FormatCatalog, ImplRegistry, NodeId, NodeKind};
use matopt_cost::CostModel;
use matopt_engine::{execute_plan_serial, execute_plan_with, DistRelation, ExecOptions};
use matopt_kernels::{random_dense_normal, seeded_rng};
use matopt_obs::Obs;
use matopt_serve::{
    ExecRequest, FrontDoor, FrontDoorConfig, PlanService, PlanSource, ServeConfig, ServeError,
    TenancyConfig, TenantConfig,
};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn service() -> Arc<PlanService> {
    Arc::new(PlanService::new(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        ServeConfig::default(),
    ))
}

fn workload(spec: &str, seed: u64) -> (ComputeGraph, HashMap<NodeId, DistRelation>) {
    let graph = matopt_serve::protocol::workload_graph(spec, &Cluster::simsql_like(4))
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

#[test]
fn batched_executions_share_one_run_and_stay_bit_exact() {
    const CLIENTS: usize = 8;
    let svc = service();
    let front = Arc::new(FrontDoor::new(
        Arc::clone(&svc),
        FrontDoorConfig {
            exec_concurrency: 1,
            ..FrontDoorConfig::default()
        },
    ));
    let (graph, inputs) = workload("ffnn-small:16", 0xBA7C);
    // A deliberately heavier run pins the single exec slot while the
    // batch forms behind it: coalescing then does not depend on how
    // fast the batched workload itself executes.
    let (heavy, heavy_inputs) = workload("ffnn-small:256", 0x41AD);

    // Unbatched reference: the served plan on the serial walk.
    let planned = svc.plan(&graph).expect("plan");
    let reference = execute_plan_serial(&graph, &planned.plan.annotation, &inputs, svc.registry())
        .expect("reference");

    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<_> = std::thread::scope(|scope| {
        let holder = {
            let front = Arc::clone(&front);
            let heavy = &heavy;
            let heavy_inputs = &heavy_inputs;
            scope.spawn(move || {
                front.execute(&ExecRequest {
                    tenant: "batch",
                    graph: heavy,
                    inputs: heavy_inputs,
                    input_key: 1,
                    deadline: None,
                })
            })
        };
        // Wait until the heavy run actually holds the slot.
        let t0 = Instant::now();
        while front.stats().flights == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(front.stats().flights > 0, "holder never took the slot");
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let front = Arc::clone(&front);
                let graph = &graph;
                let inputs = &inputs;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    front
                        .execute(&ExecRequest {
                            tenant: "batch",
                            graph,
                            inputs,
                            input_key: 42,
                            deadline: None,
                        })
                        .expect("execute succeeds")
                })
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        holder.join().unwrap().expect("holder finishes");
        responses
    });

    // Every response is bit-identical to the unbatched run.
    for resp in &responses {
        for (sink, rel) in &reference.sinks {
            assert_eq!(&resp.outcome.sinks[sink], rel, "sink {sink} diverged");
        }
    }
    let stats = front.stats();
    assert_eq!(stats.exec_requests, CLIENTS as u64 + 1);
    assert_eq!(stats.exec_ok, CLIENTS as u64 + 1);
    assert_eq!(
        stats.batched + stats.flights,
        CLIENTS as u64 + 1,
        "every request is either a flight leader or batched onto one"
    );
    assert!(
        stats.batched >= 1,
        "concurrent identical requests must coalesce at least once"
    );
    // Distinct input keys must NOT batch.
    let other = front
        .execute(&ExecRequest {
            tenant: "batch",
            graph: &graph,
            inputs: &inputs,
            input_key: 43,
            deadline: None,
        })
        .expect("execute succeeds");
    assert!(!other.batched, "different input key must run separately");
}

#[test]
fn quota_exhaustion_rejects_structurally_and_spares_other_tenants() {
    const NOISY: usize = 8;
    let svc = service();
    let tenancy = TenancyConfig::default().tenant(
        "noisy",
        TenantConfig {
            max_inflight: 1,
            ..TenantConfig::default()
        },
    );
    let front = Arc::new(FrontDoor::new(
        Arc::clone(&svc),
        FrontDoorConfig {
            tenancy,
            exec_concurrency: 1,
            ..FrontDoorConfig::default()
        },
    ));
    // Heavy enough that the 8 concurrent runs genuinely overlap: a
    // sub-millisecond workload can serialize through the quota gate
    // without ever tripping it.
    let (graph, inputs) = workload("ffnn-small:256", 0x900D);

    let barrier = Barrier::new(NOISY);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..NOISY)
            .map(|i| {
                let front = Arc::clone(&front);
                let graph = &graph;
                let inputs = &inputs;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    front.execute(&ExecRequest {
                        tenant: "noisy",
                        graph,
                        inputs,
                        input_key: i as u64,
                        deadline: None,
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::QuotaExceeded { tenant }) if tenant == "noisy"))
        .count();
    assert_eq!(ok + rejected, NOISY, "only ok or QuotaExceeded expected");
    assert!(ok >= 1, "quota of 1 admits at least one");
    assert!(
        rejected >= 1,
        "8 concurrent requests at quota 1 must reject"
    );

    // A well-behaved tenant is untouched by the noisy tenant's quota.
    front
        .execute(&ExecRequest {
            tenant: "polite",
            graph: &graph,
            inputs: &inputs,
            input_key: 99,
            deadline: None,
        })
        .expect("other tenant unaffected");

    let tenants = front.tenant_stats();
    let noisy = tenants.iter().find(|t| t.name == "noisy").expect("noisy");
    assert_eq!(noisy.quota_rejects, rejected as u64);
    assert_eq!(noisy.ok, ok as u64);
    assert_eq!(noisy.inflight, 0, "all in-flight slots returned");
}

#[test]
fn queued_work_past_deadline_is_shed() {
    let svc = service();
    let front = Arc::new(FrontDoor::new(
        Arc::clone(&svc),
        FrontDoorConfig {
            exec_concurrency: 1,
            ..FrontDoorConfig::default()
        },
    ));
    // Heavy enough that the holder is still running when the expired
    // request arrives behind it.
    let (graph, inputs) = workload("ffnn-small:256", 0xDEAD);

    std::thread::scope(|scope| {
        // Occupy the single slot with a real run.
        let holder = {
            let front = Arc::clone(&front);
            let graph = &graph;
            let inputs = &inputs;
            scope.spawn(move || {
                front.execute(&ExecRequest {
                    tenant: "busy",
                    graph,
                    inputs,
                    input_key: 1,
                    deadline: None,
                })
            })
        };
        // Wait until the slot is actually held.
        let t0 = Instant::now();
        while front.stats().flights == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(front.stats().flights > 0, "holder never took the slot");

        // A request whose deadline has already passed must be shed, not
        // queued behind the holder.
        let err = front
            .execute(&ExecRequest {
                tenant: "late",
                graph: &graph,
                inputs: &inputs,
                input_key: 2,
                deadline: Some(Instant::now() - Duration::from_millis(1)),
            })
            .expect_err("expired work must not run");
        assert_eq!(err, ServeError::DeadlineExceeded);
        holder.join().unwrap().expect("holder finishes");
    });
    let stats = front.stats();
    assert!(stats.shed >= 1, "shed counter must move: {stats:?}");
    let late = front
        .tenant_stats()
        .into_iter()
        .find(|t| t.name == "late")
        .expect("late tenant tracked");
    assert_eq!(late.shed, 1);
}

#[test]
fn drain_refuses_new_work_with_structured_error() {
    let svc = service();
    let front = FrontDoor::new(Arc::clone(&svc), FrontDoorConfig::default());
    let (graph, inputs) = workload("ffnn-small:16", 0xD0A1);
    front
        .execute(&ExecRequest {
            tenant: "t",
            graph: &graph,
            inputs: &inputs,
            input_key: 0,
            deadline: None,
        })
        .expect("pre-drain work runs");
    assert!(!front.is_draining());
    front.drain();
    assert!(front.is_draining());
    let err = front
        .execute(&ExecRequest {
            tenant: "t",
            graph: &graph,
            inputs: &inputs,
            input_key: 1,
            deadline: None,
        })
        .expect_err("post-drain work refused");
    assert_eq!(err, ServeError::Draining);
    assert_eq!(
        front.plan("t", &graph).expect_err("plan refused"),
        ServeError::Draining
    );
}

/// Only a model or cluster change invalidates a plan: however a served
/// plan's runs are timed, running it never starts a cache epoch, and
/// the next request for its graph is a hit.
#[test]
fn executing_a_cached_plan_never_invalidates_it() {
    let svc = service();
    let front = FrontDoor::new(Arc::clone(&svc), FrontDoorConfig::default());
    let (graph, inputs) = workload("ffnn-small:16", 0xCA5E);
    assert_eq!(svc.plan(&graph).expect("plan").source, PlanSource::Miss);
    let epoch = svc.cache().epoch();
    for key in 0..40 {
        let resp = front
            .execute(&ExecRequest {
                tenant: "steady",
                graph: &graph,
                inputs: &inputs,
                input_key: key,
                deadline: None,
            })
            .expect("executes");
        assert_eq!(resp.planned.source, PlanSource::Hit, "run {key}");
    }
    assert_eq!(svc.cache().epoch(), epoch);
    assert_eq!(svc.plan(&graph).expect("plan").source, PlanSource::Hit);
    assert_eq!(front.stats().exec_ok, 40);
}

/// The server's per-tenant books against what the clients saw: every
/// issued request lands in exactly one tally bucket on both sides, a
/// tenant flooding past its quota is rejected in its own books only,
/// and nothing is left in flight.
#[test]
fn tenant_books_reconcile_with_client_tallies_under_a_quota_flood() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 40;
    const HOG: &str = "hog";
    let tenancy = TenancyConfig::default().tenant(
        HOG,
        TenantConfig {
            max_inflight: 1,
            ..TenantConfig::default()
        },
    );
    let front = FrontDoor::new(
        service(),
        FrontDoorConfig {
            tenancy,
            ..FrontDoorConfig::default()
        },
    );
    let workloads: Vec<_> = (0..4u64)
        .map(|i| workload(&format!("ffnn-small:{}", 8 + 2 * i), 0x5EED + i))
        .collect();
    // Per client: [ok, quota-rejected, shed].
    let barrier = Barrier::new(CLIENTS);
    let tallies: Vec<[u64; 3]> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (front, workloads, barrier) = (&front, &workloads, &barrier);
                scope.spawn(move || {
                    // Half the clients speak for the hog and race for its
                    // one slot; the rest are one well-behaved tenant each.
                    let tenant = if client < CLIENTS / 2 {
                        HOG.to_string()
                    } else {
                        format!("tenant-{client}")
                    };
                    let mut tally = [0u64; 3];
                    barrier.wait();
                    for i in 0..PER_CLIENT {
                        let (graph, inputs) = &workloads[(client + i) % workloads.len()];
                        let outcome = if i % 4 == 0 {
                            // Unbatchable (unique key); the hog's are also
                            // impatient, so some are shed from the queue.
                            front
                                .execute(&ExecRequest {
                                    tenant: &tenant,
                                    graph,
                                    inputs,
                                    input_key: (client * PER_CLIENT + i) as u64,
                                    deadline: (tenant == HOG)
                                        .then(|| Instant::now() + Duration::from_millis(2)),
                                })
                                .map(|_| ())
                        } else {
                            front.plan(&tenant, graph).map(|_| ())
                        };
                        tally[match outcome {
                            Ok(()) => 0,
                            Err(ServeError::QuotaExceeded { .. }) => 1,
                            Err(ServeError::DeadlineExceeded) => 2,
                            Err(other) => panic!("{tenant}: unexpected {other:?}"),
                        }] += 1;
                    }
                    tally
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let [ok, quota, shed] = [0, 1, 2].map(|i| tallies.iter().map(|t| t[i]).sum::<u64>());
    assert_eq!(
        ok + quota + shed,
        (CLIENTS * PER_CLIENT) as u64,
        "every request is answered exactly once"
    );

    let tenants = front.tenant_stats();
    assert_eq!(tenants.len(), CLIENTS / 2 + 1);
    for t in &tenants {
        assert_eq!(t.inflight, 0, "{} still has work in flight", t.name);
        assert_eq!(t.errors, 0, "{} saw execution errors", t.name);
        assert_eq!(
            t.requests,
            t.ok + t.shed,
            "{}: admitted work settles as ok or shed",
            t.name
        );
        if t.name != HOG {
            assert_eq!(t.requests, PER_CLIENT as u64, "{}", t.name);
            assert_eq!(t.quota_rejects, 0, "{} paid for the hog", t.name);
        }
    }
    let sum = |f: fn(&matopt_serve::TenantStats) -> u64| tenants.iter().map(f).sum::<u64>();
    assert_eq!(sum(|t| t.ok), ok);
    assert_eq!(sum(|t| t.quota_rejects), quota);
    assert_eq!(sum(|t| t.shed), shed);
    assert!(quota > 0, "four clients on a quota of one must collide");
}

/// A served run is governed: under a tenant's `mem_bytes` one byte
/// below the unbounded walk's peak, and a shared pool of twice that
/// peak, a request runs the cached plan (no optimizer run), takes a
/// lease from the pool, spills to stay inside the tenant's budget (the
/// tighter of the two) and answers bit-exact sinks.
#[test]
fn a_served_run_keeps_the_cached_plan_the_tenant_budget_and_the_pool_lease() {
    let svc = service();
    let (graph, inputs) = workload("ffnn-small:16", 0x0BE2);
    let planned = svc.plan(&graph).expect("plan");
    // The inline walk a governed run takes, under a budget that never
    // binds.
    let reference = execute_plan_with(
        &graph,
        &planned.plan.annotation,
        &inputs,
        svc.registry(),
        &Obs::disabled(),
        ExecOptions {
            retain_values: false,
            mem_budget: Some(u64::MAX),
            ..ExecOptions::default()
        },
    )
    .expect("reference");
    let budget = reference.peak_resident_bytes - 1;
    let front = FrontDoor::new(
        Arc::clone(&svc),
        FrontDoorConfig {
            tenancy: TenancyConfig::with_default(TenantConfig {
                mem_bytes: Some(budget),
                ..TenantConfig::default()
            }),
            shared_pool_bytes: Some(2 * reference.peak_resident_bytes),
            ..FrontDoorConfig::default()
        },
    );
    let optimize_runs = svc.stats().optimize_runs;
    let resp = front
        .execute(&ExecRequest {
            tenant: "tight",
            graph: &graph,
            inputs: &inputs,
            input_key: 10,
            deadline: None,
        })
        .expect("governed service");
    assert_eq!(resp.planned.source, PlanSource::Hit);
    assert_eq!(svc.stats().optimize_runs, optimize_runs, "re-planned");
    let out = &resp.outcome;
    assert_eq!(out.sinks.len(), reference.sinks.len(), "sink set");
    for (sink, rel) in &reference.sinks {
        assert_eq!(&out.sinks[sink], rel, "sink {sink}");
    }
    assert!(
        out.peak_resident_bytes <= budget,
        "peak {} over the tenant budget {budget}",
        out.peak_resident_bytes
    );
    assert!(out.governor.spills > 0, "the tenant budget never bound");
    assert!(out.governor.lease_bytes > 0, "no lease was taken");
}
