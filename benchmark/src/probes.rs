//! Per-layer probes for the traced pass: fixed work through one layer's
//! public functions at a time, timed from outside and spanned like the
//! workloads. Every traced run makes all of them, whichever workload it
//! traces, so the per-layer table is always complete.

use crate::fixtures::{
    exec_case, ffnn_small_graph, make_inputs, paper_graph, plan_checks_out, sinks_match, ExecCase,
    ExecEnv, SplitMix, BEAM, PAPER_FAMILIES,
};
use crate::harness::{sample_ms, timed, ObsConfig};
use crate::stats::{median, percentile, spearman};
use crate::trace::Tracer;
use crate::workloads::exec::{dense_cases, run_case, DENSE_ROUND};
use crate::workloads::fleet_exec::{remote_run, RemoteRun, WORKERS};
use crate::workloads::plan_miss::paper_service;
use crate::workloads::serve_mix::{
    front_door, hot_lines, line_ok, miss_line, serve_service, HOT_LINES,
};
use crate::Metrics;
use matopt_core::{
    validate, write_frame, Cluster, ComputeGraph, FormatCatalog, FrameReader, NodeKind, PlanContext,
};
use matopt_cost::{plan_cost, AnalyticalCostModel};
use matopt_engine::{
    decode_relation, encode_relation, execute_plan_serial, execute_plan_with, explain_plan,
    simulate_plan, ExecOptions, ExecOutcome, RemoteVertexExec,
};
use matopt_graphs::{ffnn_training_graph, FfnnConfig};
use matopt_kernels::DenseMatrix;
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, max_class_size, OptContext, Optimized};
use matopt_pool::Pool;
use matopt_serve::protocol::parse_request;
use matopt_serve::{fingerprint, respond, ExecRequest};
use matopt_worker::proto::{
    decode_result, decode_task, encode_result, encode_task, TaskInput, TaskSpec,
};
use matopt_worker::{FleetConfig, WorkerFleet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetition counts; `--quick` divides them.
struct Reps {
    quick: bool,
}

impl Reps {
    fn of(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(2)
        } else {
            full
        }
    }
}

/// Runs every layer's probes and appends their metrics.
pub fn run_all(m: &mut Metrics, tr: &mut Tracer, seed: u64, quick: bool, scratch: &Path) {
    let reps = Reps { quick };
    tr.set_op(0);
    let env = ExecEnv::new();
    let (cases, _) = dense_cases(&env, seed);
    // One enclosing span per layer group, so the trace shows what each
    // group of probes cost.
    let group = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut(&mut Tracer)| {
        let tok = tr.begin("probe", name);
        f(tr);
        tr.end(tok);
    };
    group(tr, "kernels", &mut |tr| kernels(m, tr, &reps));
    group(tr, "engine_schedule", &mut |tr| {
        engine_schedule(m, tr, &reps, &env, &cases)
    });
    group(tr, "engine_spill", &mut |tr| {
        engine_spill(m, tr, &reps, &env, &cases[0], scratch)
    });
    group(tr, "optimizer", &mut |tr| optimizer(m, tr, &reps));
    group(tr, "wire", &mut |tr| core_wire(m, tr, &reps, &cases[1]));
    group(tr, "serve", &mut |tr| serve(m, tr, &reps, seed));
    group(tr, "worker", &mut |tr| {
        worker(m, tr, &reps, &env, &cases, seed)
    });
    group(tr, "autodiff", &mut |tr| autodiff(m, tr, &reps));
}

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

fn gemm_gflops(n: usize, reps: usize, tr: &mut Tracer) -> f64 {
    let a = DenseMatrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
    let b = DenseMatrix::from_fn(n, n, |r, c| ((r * 17 + c * 3) % 11) as f64 - 5.0);
    black_box(a.matmul(&b));
    let ms = sample_ms(reps, || {
        tr.span("kernels", "DenseMatrix::matmul", || {
            black_box(black_box(&a).matmul(black_box(&b)));
        })
    });
    2.0 * (n as f64).powi(3) / (median(&ms) / 1e3) / 1e9
}

/// Peak multiply-add rate of the machine as the benchmark can reach it:
/// independent `mul_add` chains over a register-sized block, one thread
/// per core. The roofline denominator for `kernels.gemm_gflops.*`.
fn peak_gflops(threads: usize) -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 4_000_000;
    let run = || {
        let mut acc = [1.0f64; LANES];
        let (x, y) = (black_box(0.999_999_9f64), black_box(1e-9f64));
        for _ in 0..ITERS {
            for a in &mut acc {
                *a = a.mul_add(x, y);
            }
        }
        black_box(acc);
    };
    let best = (0..3)
        .map(|_| {
            timed(|| {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(run);
                    }
                })
            })
            .1
        })
        .fold(f64::INFINITY, f64::min);
    (2 * LANES * ITERS * threads) as f64 / best / 1e9
}

/// Triad bandwidth (`a = b + s·c`) over three 32 MB arrays — at least
/// four times any last-level cache this runs on — one slice per core.
fn mem_bw_gbs(threads: usize) -> f64 {
    const N: usize = 4 << 20;
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let chunk = N.div_ceil(threads);
    let best = (0..3)
        .map(|_| {
            timed(|| {
                std::thread::scope(|s| {
                    for ((a, b), c) in a
                        .chunks_mut(chunk)
                        .zip(b.chunks(chunk))
                        .zip(c.chunks(chunk))
                    {
                        s.spawn(move || {
                            let k = black_box(3.0);
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = b + k * c;
                            }
                        });
                    }
                })
            })
            .1
        })
        .fold(f64::INFINITY, f64::min);
    black_box(&a);
    (3 * N * 8) as f64 / best / 1e9
}

fn kernels(m: &mut Metrics, tr: &mut Tracer, reps: &Reps) {
    let threads = Pool::global().parallelism();
    let g512 = gemm_gflops(512, reps.of(24), tr);
    let g128 = gemm_gflops(128, reps.of(400), tr);
    let peak = peak_gflops(threads);
    m.put("kernels.gemm_gflops.512", g512, "GF/s");
    m.put("kernels.gemm_gflops.128", g128, "GF/s");
    m.put("kernels.peak_gflops_probe", peak, "GF/s");
    m.put("kernels.mem_bw_gbs_probe", mem_bw_gbs(threads), "GB/s");
    m.put("kernels.gemm_roofline_share", g512 / peak, "share");
}

// ---------------------------------------------------------------------
// engine: schedule, pool, cost-model residual
// ---------------------------------------------------------------------

/// Per-case samples of the pipelined executor.
struct CaseRuns {
    ms: Vec<f64>,
    outcomes: Vec<ExecOutcome>,
}

fn engine_schedule(
    m: &mut Metrics,
    tr: &mut Tracer,
    reps: &Reps,
    env: &ExecEnv,
    cases: &[ExecCase],
) {
    let rounds = reps.of(8);
    let mut runs: Vec<CaseRuns> = cases
        .iter()
        .map(|_| CaseRuns {
            ms: Vec::new(),
            outcomes: Vec::new(),
        })
        .collect();
    let mut round_wall = Vec::new();
    let mut round_pool = Vec::new();
    for _ in 0..rounds {
        let pool0 = Pool::global().stats();
        let mut wall = 0.0;
        for (idx, n) in DENSE_ROUND {
            for _ in 0..n {
                let (out, ms) = run_case(
                    env,
                    &cases[idx],
                    &Obs::disabled(),
                    ExecOptions::default(),
                    tr,
                );
                let out = out.expect("probe execution succeeds");
                assert!(sinks_match(&cases[idx].reference, &out.sinks));
                wall += ms;
                runs[idx].ms.push(ms);
                runs[idx].outcomes.push(out);
            }
        }
        round_wall.push(wall);
        round_pool.push(Pool::global().stats().since(&pool0));
        // One outcome per case is enough for the per-vertex numbers.
        for r in &mut runs {
            r.outcomes.truncate(3);
        }
    }
    for (case, r) in cases.iter().zip(&runs) {
        m.put(
            &format!("engine.exec_ms.{}", case.name),
            median(&r.ms),
            "ms",
        );
    }
    let small = &cases[3];
    m.put(
        "engine.us_per_vertex_small",
        median(&runs[3].ms) * 1e3 / small.graph.compute_count() as f64,
        "us",
    );

    // Per round: every case's per-run figure times its share of a round.
    let per_round = |f: &dyn Fn(&ExecOutcome) -> f64| -> f64 {
        DENSE_ROUND
            .iter()
            .map(|&(idx, n)| {
                let v: Vec<f64> = runs[idx].outcomes.iter().map(f).collect();
                median(&v) * n as f64
            })
            .sum()
    };
    m.put(
        "kernels.vertex_busy_ms",
        per_round(&|o| o.vertex_seconds.iter().sum::<f64>() * 1e3),
        "ms",
    );
    m.put(
        "engine.transform_ms",
        per_round(&|o| o.transform_seconds.iter().flatten().sum::<f64>() * 1e3),
        "ms",
    );
    m.put(
        "engine.peak_resident_mb",
        runs.iter()
            .flat_map(|r| &r.outcomes)
            .map(|o| o.peak_resident_bytes as f64 / 1e6)
            .fold(0.0, f64::max),
        "MB",
    );

    let wall_ms = median(&round_wall);
    let parallelism = Pool::global().parallelism() as f64;
    let busy_ms = median(
        &round_pool
            .iter()
            .map(|p| p.busy_seconds() * 1e3)
            .collect::<Vec<_>>(),
    );
    m.put(
        "pool.busy_share",
        busy_ms / (wall_ms * parallelism),
        "share",
    );
    m.put(
        "pool.tasks_per_round",
        median(
            &round_pool
                .iter()
                .map(|p| p.tasks as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    m.put(
        "pool.steals_per_round",
        median(
            &round_pool
                .iter()
                .map(|p| p.steals as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );

    // The serial walk over the same round, for the scheduler's net gain.
    let serial_ms = sample_ms(reps.of(3).min(3), || {
        for (idx, n) in DENSE_ROUND {
            for _ in 0..n {
                let c = &cases[idx];
                tr.span("engine", "execute_plan_serial", || {
                    black_box(
                        execute_plan_serial(&c.graph, &c.plan.annotation, &c.inputs, &env.registry)
                            .expect("serial walk runs"),
                    );
                });
            }
        }
    });
    m.put(
        "engine.serial_over_pipelined",
        median(&serial_ms) / wall_ms,
        "ratio",
    );

    // Predicted vs measured, per compute vertex over the four graphs:
    // the simulator validated against measurement.
    let ctx = env.ctx();
    let (mut predicted, mut measured) = (Vec::new(), Vec::new());
    for (case, r) in cases.iter().zip(&runs) {
        let explained = tr.span("engine", "explain_plan", || {
            explain_plan(&case.graph, &case.plan.annotation, &ctx, &env.model)
                .expect("plan explains")
        });
        for step in &explained.steps {
            let v = step.vertex.index();
            let secs: Vec<f64> = r
                .outcomes
                .iter()
                .map(|o| o.vertex_seconds[v] + o.transform_seconds[v].iter().sum::<f64>())
                .collect();
            predicted.push(step.impl_seconds + step.transform_seconds);
            measured.push(median(&secs));
        }
    }
    m.put("cost.rank_corr", spearman(&predicted, &measured), "rho");
    let ratios: Vec<f64> = predicted
        .iter()
        .zip(&measured)
        .filter(|(_, m)| **m > 0.0)
        .map(|(p, m)| p / m)
        .collect();
    m.put("cost.pred_over_meas_p50", median(&ratios), "ratio");
}

// ---------------------------------------------------------------------
// engine: governor + spill
// ---------------------------------------------------------------------

fn engine_spill(
    m: &mut Metrics,
    tr: &mut Tracer,
    reps: &Reps,
    env: &ExecEnv,
    case: &ExecCase,
    scratch: &Path,
) {
    let n = reps.of(8);
    std::fs::create_dir_all(scratch).expect("scratch directory inside the checkout");
    let free = |tr: &mut Tracer| {
        let (out, ms) = run_case(env, case, &Obs::disabled(), ExecOptions::default(), tr);
        (out.expect("unbudgeted run succeeds"), ms)
    };
    let (unbudgeted, _) = free(tr);
    let budget = unbudgeted.peak_resident_bytes / 2;
    let (mut free_ms, mut spill_ms, mut governed) = (Vec::new(), Vec::new(), Vec::new());
    // Interleaved, so drift hits both sides alike.
    for _ in 0..n {
        free_ms.push(free(tr).1);
        let options = ExecOptions {
            mem_budget: Some(budget),
            scratch_dir: Some(scratch.to_path_buf()),
            ..ExecOptions::default()
        };
        let (out, ms) = run_case(env, case, &Obs::disabled(), options, tr);
        let out = out.expect("budgeted run succeeds");
        assert!(sinks_match(&case.reference, &out.sinks));
        spill_ms.push(ms);
        governed.push(out.governor);
    }
    let _ = std::fs::remove_dir_all(scratch);
    let mean = |f: &dyn Fn(&matopt_engine::GovernorStats) -> u64| {
        governed.iter().map(f).sum::<u64>() as f64 / governed.len() as f64
    };
    let added_s = (median(&spill_ms) - median(&free_ms)) / 1e3;
    m.put(
        "engine.spill_slowdown",
        median(&spill_ms) / median(&free_ms),
        "ratio",
    );
    m.put("engine.spills_per_op", mean(&|g| g.spills), "count");
    m.put(
        "engine.spilled_mb_per_op",
        mean(&|g| g.spilled_bytes) / 1e6,
        "MB",
    );
    m.put("engine.reloads_per_op", mean(&|g| g.reloads), "count");
    m.put(
        "engine.admission_waits_per_op",
        mean(&|g| g.admission_waits),
        "count",
    );
    m.put(
        "engine.spill_mbs",
        mean(&|g| g.spilled_bytes + g.reloaded_bytes) / 1e6 / added_s,
        "MB/s",
    );

    // The codec alone, on the largest buffer the governor spilled.
    let spilled = governed
        .last()
        .map(|g| g.vertex_spills.clone())
        .unwrap_or_default();
    let largest = case
        .graph
        .iter()
        .map(|(id, _)| id)
        .filter(|id| spilled.get(id.index()).is_some_and(|s| *s > 0))
        .max_by_key(|id| unbudgeted.vertex_resident_bytes[id.index()]);
    let codec = largest
        .and_then(|id| unbudgeted.values.get(&id))
        .map_or(f64::NAN, |rel| {
            let bytes = rel.total_bytes();
            let ms = sample_ms(reps.of(16), || {
                let enc = tr.span("engine", "encode_relation", || encode_relation(rel));
                let dec = tr.span("engine", "decode_relation", || {
                    decode_relation(&enc, rel.mtype, rel.format)
                });
                black_box(dec.expect("round trip decodes"));
            });
            2.0 * bytes / 1e6 / (median(&ms) / 1e3)
        });
    m.put("engine.spill_codec_mbs", codec, "MB/s");
}

// ---------------------------------------------------------------------
// opt, cost, core (paper scale)
// ---------------------------------------------------------------------

fn optimizer(m: &mut Metrics, tr: &mut Tracer, reps: &Reps) {
    let registry = matopt_core::ImplRegistry::extended();
    let cluster = Cluster::simsql_like(10);
    let catalog = FormatCatalog::paper_default().dense_only();
    let model = AnalyticalCostModel;
    let ctx = PlanContext::new(&registry, cluster);
    let octx = OptContext::new(&ctx, &catalog, &model);

    // A size no workload round uses, so this is the DP's own time and
    // never a cache effect.
    let families: &[&str] = if reps.quick {
        &PAPER_FAMILIES[1..2]
    } else {
        &PAPER_FAMILIES
    };
    let mut plans: Vec<(ComputeGraph, Optimized)> = Vec::new();
    for family in PAPER_FAMILIES {
        let ms = if families.contains(&family) {
            let graph = paper_graph(family, 999);
            let (plan, s) = timed(|| {
                tr.span("opt", "frontier_dp_beam", || {
                    frontier_dp_beam(&graph, &octx, BEAM).expect("paper graph plans")
                })
            });
            plans.push((graph, plan));
            s * 1e3
        } else {
            f64::NAN
        };
        m.put(&format!("opt.frontier_dp_ms.{family}"), ms, "ms");
    }
    m.put(
        "opt.beam_truncated_total",
        plans.iter().map(|(_, p)| p.beam_truncated as f64).sum(),
        "count",
    );
    m.put(
        "opt.max_class_size_max",
        plans
            .iter()
            .map(|(g, _)| max_class_size(g) as f64)
            .fold(0.0, f64::max),
        "count",
    );
    m.put(
        "opt.plans_validated",
        plans
            .iter()
            .filter(|(g, p)| plan_checks_out(g, p, &ctx, &model))
            .count() as f64,
        "count",
    );

    let n = reps.of(20);
    let per_plan_us = |tr: &mut Tracer, layer, name, f: &dyn Fn(&ComputeGraph, &Optimized)| {
        let ms = sample_ms(n, || {
            for (g, p) in &plans {
                tr.span(layer, name, || f(g, p));
            }
        });
        median(&ms) * 1e3 / plans.len() as f64
    };
    m.put(
        "cost.plan_cost_us",
        per_plan_us(tr, "cost", "plan_cost", &|g, p| {
            black_box(plan_cost(g, &p.annotation, &ctx, &model).expect("re-costs"));
        }),
        "us",
    );
    m.put(
        "core.validate_us",
        per_plan_us(tr, "core", "validate", &|g, p| {
            validate(black_box(g), &p.annotation, &ctx).expect("validates");
        }),
        "us",
    );
    m.put(
        "core.fingerprint_us.paper",
        per_plan_us(tr, "core", "fingerprint", &|g, _| {
            black_box(fingerprint(g, &cluster, &catalog));
        }),
        "us",
    );
    m.put(
        "engine.sim_ms",
        per_plan_us(tr, "engine", "simulate_plan", &|g, p| {
            black_box(simulate_plan(g, &p.annotation, &ctx, &model).expect("simulates"));
        }) / 1e3,
        "ms",
    );

    // A hit right after a large miss, through the service.
    let service = paper_service(Obs::disabled());
    let hot = ffnn_small_graph(32);
    service.plan(&hot).expect("hot graph plans");
    let mut after = Vec::new();
    for (i, family) in families.iter().enumerate().take(2) {
        let graph = paper_graph(family, 998 - i as u64);
        tr.span("serve", "PlanService::plan", || {
            service.plan(&graph).expect("paper graph plans");
        });
        let t = Instant::now();
        tr.span("serve", "PlanService::plan(hit after miss)", || {
            black_box(service.plan(&hot).expect("hit"));
        });
        after.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put("serve.post_miss_hit_ms", median(&after), "ms");
}

fn core_wire(m: &mut Metrics, tr: &mut Tracer, reps: &Reps, case: &ExecCase) {
    // One 512² relation as the fleet frames it: words through
    // `write_frame`, back through `FrameReader`.
    let rel = case.inputs.values().next().expect("chain has sources");
    let body = encode_result(1, rel);
    let bytes = (body.len() * 8) as f64;
    let ms = sample_ms(reps.of(24), || {
        let mut buf = Vec::with_capacity(body.len() * 8 + 64);
        tr.span("core", "write_frame", || {
            write_frame(&mut buf, 3, &body).expect("in-memory write");
        });
        let frame = tr.span("core", "FrameReader::read_frame", || {
            FrameReader::new(buf.as_slice()).read_frame()
        });
        black_box(frame.expect("frame verifies"));
    });
    m.put(
        "core.wire_mbs",
        2.0 * bytes / 1e6 / (median(&ms) / 1e3),
        "MB/s",
    );

    let spec = TaskSpec {
        seq: 1,
        vertex: 7,
        label: "T1".into(),
        impl_id: 0,
        op: matopt_core::Op::MatMul,
        out_type: rel.mtype,
        out_format: rel.format,
        stall_ms: 0,
        inputs: vec![
            TaskInput::Inline {
                vertex: 0,
                rel: rel.clone(),
            },
            TaskInput::Inline {
                vertex: 1,
                rel: rel.clone(),
            },
        ],
    };
    let ms = sample_ms(reps.of(16), || {
        let task = tr.span("worker", "encode_task", || encode_task(&spec));
        black_box(tr.span("worker", "decode_task", || decode_task(&task))).expect("task decodes");
        let result = tr.span("worker", "encode_result", || encode_result(1, rel));
        black_box(tr.span("worker", "decode_result", || decode_result(&result)))
            .expect("result decodes");
    });
    // Three relations encoded and three decoded per iteration.
    m.put(
        "worker.proto_codec_mbs",
        6.0 * rel.total_bytes() / 1e6 / (median(&ms) / 1e3),
        "MB/s",
    );
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

fn serve(m: &mut Metrics, tr: &mut Tracer, reps: &Reps, seed: u64) {
    let obs = ObsConfig::new(false);
    let service = serve_service(&obs);
    let front = front_door(&service);
    let hot = hot_lines(&mut SplitMix::new(
        crate::workloads::serve_mix::HOT_SET_SEED,
    ));
    for line in &hot {
        respond(&service, line);
    }
    let cluster = service.cluster();
    let graphs: Vec<ComputeGraph> = hot
        .iter()
        .map(|l| parse_request(l, &cluster).expect("hot line parses").graph)
        .collect();
    let passes = reps.of(40);
    let per_line_us = |samples: &[f64]| median(samples) * 1e3 / HOT_LINES as f64;

    let parse = sample_ms(passes, || {
        for line in &hot {
            tr.span("serve", "parse_request", || {
                black_box(parse_request(line, &cluster).expect("parses"));
            });
        }
    });
    m.put("serve.parse_us", per_line_us(&parse), "us");
    let fp = sample_ms(passes, || {
        for g in &graphs {
            tr.span("core", "fingerprint", || black_box(service.fingerprint(g)));
        }
    });
    m.put("core.fingerprint_us", per_line_us(&fp), "us");
    let plan_hit = sample_ms(passes, || {
        for g in &graphs {
            tr.span("serve", "PlanService::plan", || {
                black_box(service.plan(g).expect("hit"));
            });
        }
    });
    m.put("serve.plan_hit_us", per_line_us(&plan_hit), "us");

    // Whole request lines, one sample each.
    let mut hit_us = Vec::new();
    for _ in 0..passes {
        for line in &hot {
            let t = Instant::now();
            let text = tr.span("serve", "respond", || respond(&service, line));
            hit_us.push(t.elapsed().as_secs_f64() * 1e6);
            debug_assert!(line_ok(&text, "hit"));
        }
    }
    m.put("serve.respond_hit_us", median(&hit_us), "us");
    m.put("serve.respond_hit_p99_us", percentile(&hit_us, 0.99), "us");
    let mut miss_us = Vec::new();
    for i in 0..reps.of(64) as u64 {
        let line = miss_line(1501 + 2 * i);
        let t = Instant::now();
        let text = tr.span("serve", "respond", || respond(&service, &line));
        miss_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(line_ok(&text, "miss"), "small miss failed: {text}");
    }
    m.put("serve.miss_small_us", median(&miss_us), "us");

    // Front-door executions against the same plan run directly.
    let graph = ffnn_small_graph(32);
    let planned = service.plan(&graph).expect("ffnn-small:32 plans");
    let inputs = make_inputs(&graph, seed.wrapping_mul(131));
    let n = reps.of(200);
    let (mut front_us, mut direct_us) = (Vec::new(), Vec::new());
    for i in 0..n as u64 {
        let req = ExecRequest {
            tenant: "tenant-0",
            graph: &graph,
            inputs: &inputs,
            input_key: 1 << 50 | i,
            deadline: None,
        };
        let t = Instant::now();
        let resp = tr.span("serve", "FrontDoor::execute", || front.execute(&req));
        front_us.push(t.elapsed().as_secs_f64() * 1e6);
        resp.expect("front-door execution succeeds");
        let t = Instant::now();
        let out = tr.span("engine", "execute_plan_with", || {
            execute_plan_with(
                &graph,
                &planned.plan.annotation,
                &inputs,
                service.registry(),
                &Obs::disabled(),
                ExecOptions::default(),
            )
        });
        direct_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(out.expect("direct execution succeeds"));
    }
    m.put("serve.front_exec_us", median(&front_us), "us");
    m.put("serve.front_exec_p99_us", percentile(&front_us, 0.99), "us");
    m.put(
        "serve.front_overhead_us",
        median(&front_us) - median(&direct_us),
        "us",
    );

    // Counters the product keeps, over everything this probe sent.
    let s = service.stats();
    let f = front.stats();
    m.put(
        "serve.hit_share",
        s.hits as f64 / s.requests as f64,
        "share",
    );
    m.put("serve.coalesced", s.coalesced as f64, "count");
    m.put(
        "serve.batched_share",
        f.batched as f64 / f.exec_requests.max(1) as f64,
        "share",
    );
    m.put(
        "serve.rejects",
        (s.admission_rejects + s.deadline_expired + f.quota_rejects + f.overloaded + f.shed) as f64,
        "count",
    );
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

fn worker(
    m: &mut Metrics,
    tr: &mut Tracer,
    reps: &Reps,
    env: &ExecEnv,
    cases: &[ExecCase],
    seed: u64,
) {
    let (chain, inverse) = (&cases[1], &cases[2]);
    let n = reps.of(5);
    let local_ms = |case: &ExecCase, tr: &mut Tracer| {
        median(&sample_ms(n.max(3), || {
            let (out, _) = run_case(env, case, &Obs::disabled(), ExecOptions::default(), tr);
            black_box(out.expect("local run succeeds"));
        }))
    };
    let remote = |case: &ExecCase, tr: &mut Tracer| -> Vec<RemoteRun> {
        (0..n)
            .map(|_| {
                let run = remote_run(env, case, &Obs::disabled(), None, tr);
                assert!(
                    run.sinks
                        .as_ref()
                        .is_some_and(|s| sinks_match(&case.reference, s)),
                    "{} differs from the serial walk on a fleet",
                    case.name
                );
                run
            })
            .collect()
    };
    // Median of one field over some runs.
    fn field<'a>(
        runs: impl IntoIterator<Item = &'a RemoteRun>,
        f: impl Fn(&RemoteRun) -> f64,
    ) -> f64 {
        median(&runs.into_iter().map(f).collect::<Vec<_>>())
    }

    let (chain_runs, inverse_runs) = (remote(chain, tr), remote(inverse, tr));
    let (chain_local, inverse_local) = (local_ms(chain, tr), local_ms(inverse, tr));
    let all: Vec<&RemoteRun> = chain_runs.iter().chain(&inverse_runs).collect();
    m.put(
        "worker.spawn_ms",
        field(all.iter().copied(), |r| r.spawn_ms),
        "ms",
    );
    m.put(
        "worker.shutdown_ms",
        field(all.iter().copied(), |r| r.shutdown_ms),
        "ms",
    );
    let chain_remote = field(&chain_runs, |r| r.exec_ms);
    let inverse_remote = field(&inverse_runs, |r| r.exec_ms);
    m.put("worker.remote_exec_ms.chain_512", chain_remote, "ms");
    m.put("worker.remote_exec_ms.inverse_128", inverse_remote, "ms");
    m.put(
        "worker.remote_over_local.chain_512",
        chain_remote / chain_local,
        "ratio",
    );
    m.put(
        "worker.remote_over_local.inverse_128",
        inverse_remote / inverse_local,
        "ratio",
    );
    let inverse_tasks = inverse.graph.compute_count() as f64;
    m.put(
        "worker.dispatch_us",
        (inverse_remote - inverse_local) * 1e3 / inverse_tasks,
        "us",
    );
    // Computed, not measured: every compute vertex ships its inputs out
    // and its output back (no worker-cache hit assumed).
    let shipped: f64 = chain
        .graph
        .iter()
        .filter(|(_, node)| matches!(node.kind, NodeKind::Compute { .. }))
        .map(|(_, node)| {
            let own = node.mtype.rows * node.mtype.cols * 8;
            let ins: u64 = node
                .inputs
                .iter()
                .map(|i| {
                    let t = chain.graph.node(*i).mtype;
                    t.rows * t.cols * 8
                })
                .sum();
            (own + ins) as f64
        })
        .sum();
    m.put(
        "worker.wire_mbs",
        shipped / 1e6 / ((chain_remote - chain_local) / 1e3),
        "MB/s",
    );
    m.put(
        "worker.tasks_per_op",
        field(&chain_runs, |r| r.stats.tasks_ok as f64)
            + field(&inverse_runs, |r| r.stats.tasks_ok as f64),
        "count",
    );
    m.put(
        "worker.deaths",
        all.iter().map(|r| r.stats.deaths as f64).sum(),
        "count",
    );
    m.put(
        "worker.redispatches",
        all.iter().map(|r| r.stats.redispatches as f64).sum(),
        "count",
    );

    // Known-bad probe 1: a graph whose vertices fan out to consumers
    // that want different input formats. Share of one-shot remote runs
    // that do not match the serial walk.
    let fanout = &cases[0];
    let runs = reps.of(8);
    let bad = (0..runs)
        .filter(|_| {
            let run = remote_run(env, fanout, &Obs::disabled(), None, tr);
            !run.sinks
                .is_some_and(|s| sinks_match(&fanout.reference, &s))
        })
        .count();
    m.put(
        "worker.fanout_mismatch_share",
        bad as f64 / runs as f64,
        "share",
    );

    // Known-bad probe 2: one fleet reused across three input sets.
    let graph = ffnn_small_graph(32);
    let small = exec_case(env, "ffnn_small_32", graph, seed);
    let fleet = FleetConfig::standard(WORKERS)
        .and_then(WorkerFleet::spawn)
        .expect("fleet spawns");
    let sets = 3u64;
    let stale = (0..sets)
        .filter(|i| {
            let inputs = make_inputs(&small.graph, seed.wrapping_add(1000 + i));
            let reference = crate::fixtures::serial_reference(
                env,
                &small.graph,
                &small.plan.annotation,
                &inputs,
            );
            let out = tr.span("engine", "execute_plan_with(remote)", || {
                execute_plan_with(
                    &small.graph,
                    &small.plan.annotation,
                    &inputs,
                    &env.registry,
                    &Obs::disabled(),
                    ExecOptions {
                        remote: Some(Arc::clone(&fleet) as Arc<dyn RemoteVertexExec>),
                        ..ExecOptions::default()
                    },
                )
            });
            !out.is_ok_and(|o| sinks_match(&reference, &o.sinks))
        })
        .count();
    fleet.shutdown();
    m.put(
        "worker.reuse_mismatch_share",
        stale as f64 / sets as f64,
        "share",
    );
}

// ---------------------------------------------------------------------
// autodiff
// ---------------------------------------------------------------------

fn autodiff(m: &mut Metrics, tr: &mut Tracer, reps: &Reps) {
    let ms = sample_ms(reps.of(20), || {
        tr.span("autodiff", "ffnn_training_graph", || {
            black_box(
                ffnn_training_graph(FfnnConfig::simsql_experiment(80_000)).expect("well-typed"),
            );
        })
    });
    m.put("autodiff.derive_ms", median(&ms), "ms");
}
