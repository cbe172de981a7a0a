//! Cache persistence: `matopt plan --cache-dir` round trips through
//! `plans.mcache`, and a corrupted file degrades to cache misses —
//! never to a wrong plan.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry};
use matopt_cost::CostModel;
use matopt_serve::{PlanService, PlanSource, ServeConfig, CACHE_FILE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn service() -> PlanService {
    PlanService::new(
        ImplRegistry::paper_default(),
        FormatCatalog::paper_default().dense_only(),
        Cluster::simsql_like(4),
        CostModel::analytical(),
        ServeConfig::default(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "matopt-serve-persist-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workloads(cluster: &Cluster) -> Vec<matopt_core::ComputeGraph> {
    ["motivating", "ffnn-small:16", "ffnn-small:24"]
        .iter()
        .map(|spec| matopt_serve::protocol::workload_graph(spec, cluster).expect("builds"))
        .collect()
}

#[test]
fn warm_start_round_trips_plans() {
    let dir = temp_dir("roundtrip");
    let first = service();
    let graphs = workloads(&first.cluster());
    let planned: Vec<_> = first
        .plan(&graphs[0])
        .and_then(|a| Ok(vec![a, first.plan(&graphs[1])?, first.plan(&graphs[2])?]))
        .expect("plans succeed");
    assert_eq!(first.persist_to_dir(&dir).expect("persist"), 3);

    // A fresh process: same registry/cluster/model, cold cache.
    let second = service();
    let report = second.warm_from_dir(&dir).expect("warm");
    assert_eq!((report.loaded, report.corrupt), (3, 0));

    for (graph, original) in graphs.iter().zip(&planned) {
        let served = second.plan(graph).expect("plan succeeds");
        assert_eq!(served.source, PlanSource::Hit, "warm cache must hit");
        assert_eq!(served.fingerprint, original.fingerprint);
        assert_eq!(served.plan.cost, original.plan.cost);
        assert_eq!(
            format!("{:?}", served.plan.annotation),
            format!("{:?}", original.plan.annotation),
            "warmed annotation differs from the planned one"
        );
    }
    assert_eq!(second.stats().optimize_runs, 0, "no re-optimization");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_become_misses_not_wrong_plans() {
    let dir = temp_dir("corrupt");
    let first = service();
    let graphs = workloads(&first.cluster());
    for g in &graphs {
        first.plan(g).expect("plan succeeds");
    }
    first.persist_to_dir(&dir).expect("persist");

    // Flip one byte in the middle of the file (inside some entry body).
    let path = dir.join(CACHE_FILE);
    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write");

    let second = service();
    let report = second
        .warm_from_dir(&dir)
        .expect("warm tolerates corruption");
    assert!(report.corrupt >= 1, "the flipped entry must be flagged");
    assert!(report.loaded < 3, "the flipped entry must not load");

    // Every request is still answered correctly: surviving entries hit,
    // the damaged one re-plans, and costs match a trusted cold service.
    let reference = service();
    let mut misses = 0;
    for g in &graphs {
        let served = second.plan(g).expect("plan succeeds");
        let trusted = reference.plan(g).expect("plan succeeds");
        assert_eq!(served.plan.cost, trusted.plan.cost, "wrong plan served");
        if served.source == PlanSource::Miss {
            misses += 1;
        }
    }
    assert!(
        misses >= 1,
        "the corrupt entry should have forced a re-plan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_garbage_files_warm_to_empty() {
    let dir = temp_dir("garbage");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Garbage file: wrong magic.
    std::fs::write(dir.join(CACHE_FILE), b"not a cache file").expect("write");
    let s = service();
    let report = s.warm_from_dir(&dir).expect("tolerated");
    assert_eq!(report.loaded, 0);
    assert!(report.corrupt >= 1);

    // Missing file: clean empty warm.
    std::fs::remove_file(dir.join(CACHE_FILE)).expect("rm");
    let report = s.warm_from_dir(&dir).expect("missing file is fine");
    assert_eq!((report.loaded, report.corrupt), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_entries_respect_epochs() {
    // Plans persisted, then the cluster changes before warming: the
    // warm entries carry the *new* service's fingerprint space, so a
    // degraded-cluster request simply misses (different fingerprint)
    // rather than serving a plan costed for the old cluster.
    let dir = temp_dir("epochs");
    let first = service();
    let graphs = workloads(&first.cluster());
    first.plan(&graphs[0]).expect("plan");
    first.persist_to_dir(&dir).expect("persist");

    let second = service();
    second.degrade();
    second.warm_from_dir(&dir).expect("warm");
    let served = second.plan(&graphs[0]).expect("plan");
    assert_eq!(
        served.source,
        PlanSource::Miss,
        "old-cluster plan must not serve a degraded-cluster request"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
