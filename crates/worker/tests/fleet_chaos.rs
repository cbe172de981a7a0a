//! The kill harness: ≥64 seeded SIGKILL schedules against a real
//! multi-process fleet, every run asserted bit-identical to the serial
//! in-process reference — including schedules that kill a worker
//! mid-result-stream so the coordinator must reject a torn,
//! half-written frame by checksum rather than misdecode it.

use std::sync::Arc;
use std::time::Duration;

use matopt_core::BackoffPolicy;
use matopt_worker::{derive_schedule, run_schedule, ChaosReport, FleetConfig, WorkerFleet};

fn workerd_bin() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_BIN_EXE_matopt-workerd"))
}

fn test_config(workers: u32) -> FleetConfig {
    FleetConfig {
        workers,
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 8,
        restart: BackoffPolicy {
            base_ms: 5,
            cap_ms: 40,
            max_attempts: 6,
        },
        worker_bin: workerd_bin(),
        obs: None,
        seed: 0xfee7_0000_0001,
    }
}

/// The chaos soak: 64 seeded schedules, four workers each. Schedule
/// derivation guarantees mid-result-stream kills on every seed ≡ 0
/// (mod 3) and heartbeat-mute hangs on every seed ≡ 7 (mod 8).
#[test]
fn sixty_four_seeded_kill_schedules_stay_bit_exact() {
    let base = 0x5eed_0000u64;
    let mut reports: Vec<ChaosReport> = Vec::new();
    for i in 0..64 {
        let schedule = derive_schedule(base + i, 4);
        let report = run_schedule(&schedule, test_config(4))
            .unwrap_or_else(|e| panic!("schedule seed {:#x}: {e}", base + i));
        assert!(
            report.bit_exact,
            "schedule seed {:#x} ({}, {} kills, {} mid-stream) diverged from the serial reference",
            report.seed, report.workload, report.kills, report.mid_stream_kills
        );
        reports.push(report);
    }
    // The suite as a whole must have actually exercised the machinery:
    // real deaths, real mid-stream tears, real recoveries.
    let deaths: u64 = reports.iter().map(|r| r.deaths).sum();
    let mid_stream: usize = reports.iter().map(|r| r.mid_stream_kills).sum();
    let recovered: u64 = reports.iter().map(|r| r.restarts + r.redispatches).sum();
    // Some schedules arm a kill deeper than the victim's remaining
    // dispatch count, so not every armed kill fires; the floor still
    // demands that the large majority of schedules killed for real.
    assert!(deaths >= 48, "only {deaths} deaths across 64 schedules");
    assert!(
        mid_stream >= 21,
        "only {mid_stream} mid-stream kills; the torn-frame path is undertested"
    );
    assert!(recovered > 0, "no restarts or redispatches recorded");
    for r in &reports {
        println!(
            "recovered seed={:#x} workload={} kills={} mid_stream={} deaths={} \
             redispatches={} restarts={} bit_exact={}",
            r.seed,
            r.workload,
            r.kills,
            r.mid_stream_kills,
            r.deaths,
            r.redispatches,
            r.restarts,
            r.bit_exact
        );
    }
}

/// A worker that dies beyond its restart budget with no survivors must
/// yield the structured `WorkerLost` error — never hang, never panic.
#[test]
fn budget_exhaustion_is_structured_worker_lost() {
    use matopt_core::{MatrixType, NodeId, PhysFormat, Strategy};
    use matopt_engine::{DistRelation, ExecError, RemoteVertexExec};
    use matopt_kernels::DenseMatrix;

    let mut cfg = test_config(1);
    cfg.restart = BackoffPolicy {
        base_ms: 1,
        cap_ms: 4,
        max_attempts: 2,
    };
    let fleet = WorkerFleet::spawn(cfg).expect("fleet spawns");
    // Kill the lone worker on every dispatch it ever receives.
    for _ in 0..8 {
        fleet.kill_at_dispatch(0);
        let d = DenseMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let rel = Arc::new(DistRelation::from_dense(&d, PhysFormat::SingleTuple).unwrap());
        let result = fleet.execute_remote(
            NodeId(9),
            "doomed",
            Strategy::TransposeChunkwise,
            &matopt_core::Op::Transpose,
            &[rel],
            &[NodeId(1)],
            MatrixType {
                rows: 4,
                cols: 4,
                sparsity: 1.0,
            },
            PhysFormat::SingleTuple,
        );
        match result {
            Ok(_) => continue, // the kill raced the reply; rearm and retry
            Err(ExecError::WorkerLost {
                worker,
                vertex,
                label,
            }) => {
                assert_eq!(worker, 0);
                assert_eq!(vertex, NodeId(9));
                assert_eq!(label, "doomed");
                let msg = ExecError::WorkerLost {
                    worker,
                    vertex,
                    label,
                }
                .to_string();
                assert!(msg.contains("restart budget"), "{msg}");
                fleet.shutdown();
                return;
            }
            Err(other) => panic!("expected WorkerLost, got {other}"),
        }
    }
    panic!("kill-on-every-dispatch never exhausted the restart budget");
}

/// A muted heartbeat (simulated hang) must be detected by the monitor
/// and the worker declared dead even though its process is alive.
#[test]
fn heartbeat_silence_is_declared_death() {
    let fleet = WorkerFleet::spawn(test_config(2)).expect("fleet spawns");
    fleet.mute_heartbeats(1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if fleet.stats().heartbeat_deaths > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "monitor never declared the muted worker dead"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    fleet.shutdown();
}
