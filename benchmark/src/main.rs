//! The matopt benchmark: five closed-loop workloads, seven bounded
//! end-to-end metrics, per-layer numbers from a traced run. See
//! `benchmark/README.md` for what each number means and how to compare
//! two commits.
//!
//! ```text
//! matopt-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! matopt-benchmark [--seed N] [--workload W] [--traced] [--quick] [--repeat K]   the suite
//! matopt-benchmark compare A.json B.json
//! matopt-benchmark selftest
//! ```

mod compare;
mod fixtures;
mod harness;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{measure, peak_rss_mb, timed, ObsConfig, SetupInfo, Window, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Tracer;
use workloads::exec::{ExecDense, ExecSpill};
use workloads::fleet_exec::FleetExec;
use workloads::plan_miss::PlanMiss;
use workloads::serve_mix::ServeMix;

pub const WORKLOADS: [&str; 5] = [
    "plan_miss",
    "exec_dense",
    "exec_spill",
    "serve_mix",
    "fleet_exec",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The numbers of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }
}

/// A JSON number: every digit of a finite value, `null` otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// Where the benchmark's own files live (`run.sh` exports it); `out/`
/// below it takes traces, scratch files and result files.
fn bench_dir() -> PathBuf {
    std::env::var_os("MATOPT_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

fn setup_workload(
    args: &RunArgs,
    obs: &ObsConfig,
    scratch: &Path,
) -> (Box<dyn Workload>, SetupInfo) {
    fn boxed<W: Workload + 'static>((w, info): (W, SetupInfo)) -> (Box<dyn Workload>, SetupInfo) {
        (Box::new(w), info)
    }
    match args.workload.as_str() {
        "plan_miss" => boxed(PlanMiss::setup(args.seed, obs, args.quick)),
        "exec_dense" => boxed(ExecDense::setup(args.seed, obs)),
        "exec_spill" => boxed(ExecSpill::setup(args.seed, obs, scratch.to_path_buf())),
        "serve_mix" => boxed(ServeMix::setup(args.seed, obs)),
        "fleet_exec" => boxed(FleetExec::setup(args.seed, obs)),
        other => panic!("unknown workload {other}"),
    }
}

/// The untraced pass: set up `SETUPS` times, measure one window on the
/// last instance, report the end-to-end metrics.
fn run_untraced(args: &RunArgs) -> (Metrics, Window) {
    let obs = ObsConfig::new(false);
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut instance: Option<Box<dyn Workload>> = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        if let Some(mut old) = instance.take() {
            old.teardown();
        }
        let ((made, _), s) = timed(|| setup_workload(args, &obs, &scratch));
        setup_s.push(s);
        instance = Some(made);
    }
    let mut w = instance.expect("at least one set-up");
    let win = measure(&mut *w, &mut Tracer::off(), &obs, args.seconds, 1);
    w.teardown();

    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_s), "s");
    m.put("ops_per_s", win.ops_per_s(), "op/s");
    m.put("op_p50_ms", win.p50_ms(), "ms");
    m.put("cpu_s_per_op", win.cpu_s_per_op(), "s");
    m.put("slo_share", win.slo_share(w.limits_ms()), "share");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("plan_cost_s", w.plan_cost_s(), "model_s");
    (m, win)
}

/// The traced pass: an untraced and a traced instance side by side,
/// alternating segments (so drift hits both alike), then every layer's
/// probes; writes the Chrome trace and the self-time table.
fn run_traced(args: &RunArgs) -> (Metrics, Window) {
    let mut tr = Tracer::new(true, std::time::Instant::now(), 0);
    let out = out_dir();
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let plain = ObsConfig::new(false);
    let traced = ObsConfig::new(true);
    let (mut a, info) = setup_workload(args, &plain, &scratch.join("a"));
    let (mut b, _) = setup_workload(args, &traced, &scratch.join("b"));

    // Four segments in the order untraced, traced, traced, untraced.
    let segment = args.seconds * 0.15;
    let mut off = Tracer::off();
    let mut windows: Vec<(bool, Window)> = Vec::new();
    for (i, on) in [false, true, true, false].into_iter().enumerate() {
        let first_op = 1 + (i as u64) * 1_000_000;
        let win = if on {
            measure(&mut *b, &mut tr, &traced, segment, first_op)
        } else {
            measure(&mut *a, &mut off, &plain, segment, first_op)
        };
        windows.push((on, win));
    }
    a.teardown();
    b.teardown();
    let merged =
        |on: bool| Window::merged(windows.iter().filter(|(o, _)| *o == on).map(|(_, w)| w));
    let (untraced_win, traced_win) = (merged(false), merged(true));
    let op_wall_ms = traced_win.op_wall_ms();
    let workload_spans = tr.spans().len();

    let mut m = Metrics::default();
    probes::run_all(
        &mut m,
        &mut tr,
        args.seed,
        args.quick,
        &scratch.join("probe"),
    );
    let _ = std::fs::remove_dir_all(&scratch);
    m.put(
        "obs.overhead_share",
        1.0 - traced_win.ops_per_s() / untraced_win.ops_per_s(),
        "share",
    );
    m.put(
        "trace.coverage_share",
        trace::coverage_share(&tr.spans()[..workload_spans], op_wall_ms),
        "share",
    );
    m.put("graphs.build_ms", info.graph_build_ms, "ms");

    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    let table = trace::render_table(&tr.spans()[..workload_spans], op_wall_ms, a.serial());
    std::fs::write(
        out.join(format!("{stem}.json")),
        trace::chrome_trace(tr.spans()),
    )
    .expect("trace file is writable");
    std::fs::write(out.join(format!("{stem}.txt")), &table).expect("table file is writable");
    println!("{table}");
    let groups: Vec<String> = tr.spans()[workload_spans..]
        .iter()
        .filter(|s| s.layer == "probe")
        .map(|s| format!("{} {:.2} s", s.name, (s.end_ns - s.start_ns) as f64 / 1e9))
        .collect();
    println!("# probes: {}", groups.join(", "));
    println!(
        "# traced segments: {} ops, {} product Obs events; trace in {}",
        traced_win.attempted(),
        traced_win.obs_events,
        out.join(format!("{stem}.json")).display()
    );

    (m, Window::merged([&untraced_win, &traced_win].into_iter()))
}

/// One run under the driver's contract: metric lines, then one JSON
/// object as the last line of standard output.
fn run_single(args: &RunArgs) -> ExitCode {
    let (metrics, win) = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    let (attempted, failed) = (win.attempted(), win.failed());
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && (finite || args.quick);

    for m in &metrics.0 {
        println!("{} {} {}", m.name, json_num(m.value), m.unit);
    }
    if !args.trace {
        println!(
            "failed_share {} share",
            json_num(failed as f64 / attempted as f64)
        );
        println!("op_samples {attempted} count");
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {failed} of {attempted} ops failed their check (or a metric is not finite)"
        );
        ExitCode::FAILURE
    }
}

/// Flags shared by the single run and the suite.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            "--traced" => cli.trace = Some(true),
            "--quick" => cli.quick = true,
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The suite: one process per workload (so `peak_rss_mb` is the
/// workload's own), untraced first, then traced when asked; writes one
/// result file.
fn run_suite(cli: &Cli) -> Result<PathBuf, String> {
    let spec = spec::Spec::load()?;
    let seconds = cli
        .seconds
        .unwrap_or(if cli.quick { 2.0 } else { spec.run_seconds });
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let passes: &[bool] = if cli.trace == Some(true) {
        &[false, true]
    } else {
        &[false]
    };
    let mut runs = Vec::new();
    let mut bad = Vec::new();
    for rep in 0..cli.repeat {
        // Repeats take consecutive seeds, as the driver's ten runs do.
        let seed = cli.seed + rep as u64;
        for &trace in passes {
            for name in &names {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if cli.quick {
                    cmd.arg("--quick");
                }
                let out = cmd
                    .output()
                    .map_err(|e| format!("cannot run {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let pass = if trace { "traced" } else { "untraced" };
                println!("== {name} ({pass}, seed {seed}) ==");
                let last = stdout.lines().last().unwrap_or_default();
                for line in stdout.lines().filter(|l| *l != last) {
                    println!("{line}");
                }
                if !out.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    bad.push(format!("{name} ({pass})"));
                }
                if last.starts_with('{') {
                    runs.push(format!(
                        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {last}}}",
                        u8::from(trace)
                    ));
                }
            }
        }
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let body = format!(
        "{{\"schema\": 1,\n \"meta\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \
         \"pool_threads\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}}},\n \"runs\": [\n  {}\n ]}}\n",
        env("MATOPT_BENCH_COMMIT"),
        env("MATOPT_BENCH_RUSTC"),
        std::thread::available_parallelism().map_or(0, usize::from),
        matopt_pool::Pool::global().parallelism(),
        cli.seed,
        json_num(seconds),
        cli.quick,
        runs.join(",\n  ")
    );
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result-seed{}.json", cli.seed)));
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if bad.is_empty() {
        Ok(path)
    } else {
        Err(format!("runs failed: {}", bad.join(", ")))
    }
}

/// `selftest`: the quick suite, both passes, then every metric named in
/// `BENCHMARK.json` must have been printed with its unit and a finite
/// value, and every name must be well-formed.
fn selftest() -> Result<(), String> {
    let spec = spec::Spec::load()?;
    let path = out_dir().join("selftest.json");
    run_suite(&Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: Some(true),
        quick: true,
        repeat: 1,
        out: Some(path.clone()),
    })?;
    let result = compare::ResultFile::load(&path)?;
    let mut problems = spec.name_problems();
    for workload in &spec.workloads {
        for (trace, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let Some(run) = result.run(workload, trace) else {
                problems.push(format!("{workload}: no run with trace {}", u8::from(trace)));
                continue;
            };
            for def in wanted {
                match run.metrics.iter().find(|m| m.name == def.name) {
                    None => problems.push(format!("{workload}: {} not printed", def.name)),
                    Some(m) if m.unit != def.unit => problems.push(format!(
                        "{workload}: {} has unit {} but BENCHMARK.json says {}",
                        def.name, m.unit, def.unit
                    )),
                    // The quick pass skips three of the five paper-scale
                    // optimizer probes; those read as not finite.
                    Some(m)
                        if !m.value.is_finite() && !def.name.starts_with("opt.frontier_dp_ms.") =>
                    {
                        problems.push(format!("{workload}: {} is not finite", def.name))
                    }
                    Some(_) => {}
                }
            }
            for m in &run.metrics {
                if !wanted.iter().any(|d| d.name == m.name) {
                    problems.push(format!(
                        "{workload}: {} printed but not in BENCHMARK.json",
                        m.name
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        println!(
            "selftest: {} workloads x ({} end-to-end + {} per-layer) metrics all printed, finite, unit-tagged",
            spec.workloads.len(),
            spec.end_to_end.len(),
            spec.per_layer.len()
        );
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("selftest") => selftest(),
        _ => match parse_cli(&args) {
            Err(e) => Err(e),
            // The driver's contract: all four flags of one run.
            Ok(Cli {
                workload: Some(workload),
                seed,
                seconds: Some(seconds),
                trace: Some(trace),
                quick,
                ..
            }) => {
                return run_single(&RunArgs {
                    workload,
                    seed,
                    seconds,
                    trace,
                    quick,
                })
            }
            Ok(cli) => run_suite(&cli).map(|_| ()),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
