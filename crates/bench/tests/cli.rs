//! The `matopt` binary end to end: the serve round trips, the training
//! loop and the option checks an operator relies on, asserted on the
//! real process's exit code, stdout and stderr.

use matopt_cost::ThroughputCurve;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn matopt(args: &[&str], stdin: &str) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_matopt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("matopt spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("matopt exits");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr: String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    }
}

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("matopt-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

const PLAN: &str = "{\"id\": \"a\", \"workload\": \"motivating\"}\n";
const PLAN_AGAIN: &str = "{\"id\": \"b\", \"workload\": \"motivating\"}\n";

#[test]
fn serve_answers_miss_then_hit_without_errors() {
    let run = matopt(&["serve"], &[PLAN, PLAN_AGAIN].concat());
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let lines: Vec<&str> = run.stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout:\n{}", run.stdout);
    assert!(lines[0].contains("\"source\": \"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"source\": \"hit\""), "{}", lines[1]);
    assert!(!run.stdout.contains("\"status\": \"error\""));
}

#[test]
fn stats_op_and_metrics_dump_agree_with_the_session() {
    let dump = scratch("metrics.prom");
    let dump_arg = dump.to_str().expect("UTF-8 temp path");
    let run = matopt(
        &["serve", "--metrics-dump", dump_arg],
        &[PLAN, PLAN_AGAIN, "{\"id\": \"s\", \"op\": \"stats\"}\n"].concat(),
    );
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let stats = run.stdout.lines().nth(2).expect("stats response");
    assert!(stats.contains("\"op\": \"stats\""), "{stats}");
    assert!(stats.contains("\"hits\": 1"), "{stats}");
    assert!(
        !stats.contains("\"p99_us\": null"),
        "no live percentile: {stats}"
    );
    assert!(!run.stdout.contains("\"status\": \"error\""));

    let prom = std::fs::read_to_string(&dump).expect("metrics dump written");
    let has = |line: &str| prom.lines().any(|l| l == line);
    assert!(has("# TYPE matopt_serve_requests_total counter"), "{prom}");
    assert!(has("matopt_serve_requests_total 2"), "{prom}");
    assert!(has("# TYPE matopt_serve_latency_miss_us histogram"));
    assert!(has("matopt_serve_latency_miss_us_bucket{le=\"+Inf\"} 1"));
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn drain_refuses_late_work_and_shutdown_stops_reading() {
    let late = "{\"id\": \"late\", \"workload\": \"motivating\"}\n";
    let run = matopt(
        &["serve"],
        &[PLAN, "{\"id\": \"d\", \"op\": \"drain\"}\n", late].concat(),
    );
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let lines: Vec<&str> = run.stdout.lines().collect();
    assert_eq!(lines.len(), 3, "stdout:\n{}", run.stdout);
    assert!(lines[0].contains("\"status\": \"ok\""), "{}", lines[0]);
    assert!(lines[1].contains("\"op\": \"drain\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"id\": \"late\"")
            && lines[2].contains("draining: not admitting new work"),
        "{}",
        lines[2]
    );

    let run = matopt(
        &["serve", "--serve-threads", "3"],
        &[PLAN, "{\"id\": \"q\", \"op\": \"shutdown\"}\n", late].concat(),
    );
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let last = run.stdout.lines().last().expect("acknowledgement");
    assert!(last.contains("\"op\": \"shutdown\""), "{last}");
    assert!(!run.stdout.contains("\"id\": \"late\""), "{}", run.stdout);
}

#[test]
fn train_hits_the_plan_cache_and_never_raises_the_loss() {
    let run = matopt(&["train", "ffnn-small:32", "--epochs", "3"], "");
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let out = [run.stdout, run.stderr].concat();
    for (epoch, source) in [(0, "plan miss"), (1, "plan hit"), (2, "plan hit")] {
        assert!(
            out.lines()
                .any(|l| l.starts_with(&format!("epoch {epoch}: ")) && l.contains(source)),
            "epoch {epoch} is not a {source}:\n{out}"
        );
    }
    assert!(out.contains("loss monotone non-increasing"), "{out}");
}

#[test]
fn checkpointed_training_resumes_where_it_stopped() {
    let ck = scratch("ck.bin");
    let ck_arg = ck.to_str().expect("UTF-8 temp path");
    let args = |epochs| {
        [
            "train",
            "ffnn-train:16",
            "--epochs",
            epochs,
            "--checkpoint",
            ck_arg,
        ]
    };
    let first = matopt(&args("2"), "");
    assert_eq!(first.code, Some(0), "stderr:\n{}", first.stderr);
    let resumed = matopt(&args("4"), "");
    assert_eq!(resumed.code, Some(0), "stderr:\n{}", resumed.stderr);
    let out = [resumed.stdout, resumed.stderr].concat();
    assert!(
        out.contains(&format!("resuming from {ck_arg}: 2 epochs already done")),
        "{out}"
    );
    assert!(
        out.lines()
            .any(|l| l.starts_with("epoch 3: ") && l.contains("plan hit")),
        "{out}"
    );
    assert!(
        !out.contains("epoch 1: "),
        "re-ran a finished epoch:\n{out}"
    );
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn unknown_engine_or_catalog_exits_2_naming_the_valid_values() {
    let commands: [&[&str]; 4] = [
        &["plan", "motivating"],
        &["serve"],
        &["stats", "ffnn-small:8"],
        &["train", "ffnn-small:8"],
    ];
    for command in commands {
        for (flag, valid) in [("--engine", "simsql|pc"), ("--catalog", "all|dense|ssb|sb")] {
            if (command[0], flag) == ("train", "--catalog") {
                continue; // train's catalog is fixed
            }
            let run = matopt(&[command, &[flag, "nope"]].concat(), "");
            assert_eq!(run.code, Some(2), "{command:?} {flag}: {}", run.stderr);
            assert!(run.stderr.contains(valid), "{command:?}: {}", run.stderr);
            assert!(run.stdout.is_empty(), "{command:?} {flag} ran anyway");
        }
    }
    let run = matopt(
        &["plan", "motivating", "--engine", "pc", "--catalog", "ssb"],
        "",
    );
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
}

#[test]
fn an_unparsable_option_value_exits_2_naming_the_option() {
    let cases: [(&[&str], &str); 5] = [
        (&["plan", "motivating", "--workers", "ten"], "--workers"),
        (
            &["plan", "motivating", "--crash-rate", "lots"],
            "--crash-rate",
        ),
        (&["plan", "motivating", "--fault-seed", "x"], "--fault-seed"),
        (&["serve", "--workers"], "--workers"),
        (&["fleet-chaos", "--seed", "0xZZ"], "--seed"),
    ];
    for (command, option) in cases {
        let run = matopt(command, "");
        assert_eq!(run.code, Some(2), "{command:?}: {}", run.stderr);
        let expects = format!("{}: {option} expects ", command[0]);
        assert!(run.stderr.contains(&expects), "{command:?}: {}", run.stderr);
        assert!(run.stdout.is_empty(), "{command:?} ran anyway");
    }
    let run = matopt(&["plan", "motivating", "--bogus"], "");
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("plan: unknown option --bogus"));
    // Injected stragglers are not hedged: there is no `--hedge`.
    let run = matopt(&["plan", "motivating", "--hedge", "3"], "");
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("plan: unknown option --hedge"));
    // `serve` only plans, so it has no worker fleet to supervise.
    let run = matopt(&["serve", "--worker-procs", "2"], "");
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("serve: unknown option --worker-procs"));
    // Repeats are allowed; the last value wins.
    let run = matopt(
        &["plan", "motivating", "--workers", "3", "--workers", "5"],
        "",
    );
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
}

#[test]
fn stats_prints_executor_and_scheduler_families() {
    let run = matopt(&["stats", "ffnn-small:8"], "");
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    assert!(run
        .stdout
        .lines()
        .any(|l| l.starts_with("# TYPE matopt_executor_kernel_us_")));
    assert!(run
        .stdout
        .lines()
        .any(|l| l == "# TYPE matopt_sched_pool_tasks_total counter"));
}

#[test]
fn plan_prices_under_a_persisted_curve_or_names_the_missing_one() {
    let dir = scratch("tunedir");
    let dir_arg = dir.to_str().expect("UTF-8 temp path");
    let missing = matopt(&["plan", "motivating", "--tune-dir", dir_arg], "");
    assert_eq!(missing.code, Some(1), "stderr:\n{}", missing.stderr);
    assert!(missing.stderr.contains(dir_arg), "{}", missing.stderr);

    std::fs::create_dir_all(&dir).expect("scratch dir");
    ThroughputCurve::from_samples(&[(1e6, 4.0), (1e9, 16.0)])
        .save(&dir)
        .expect("curve persists");
    let plan = matopt(&["plan", "motivating", "--tune-dir", dir_arg], "");
    assert_eq!(plan.code, Some(0), "stderr:\n{}", plan.stderr);
    assert!(
        plan.stderr
            .contains("cost model: measured curve (2 points, peak 16.0 GF/s)"),
        "{}",
        plan.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Half the resident peak `plan ffnn-small:32 --analyze` reports.
fn half_the_analyzed_peak() -> String {
    let run = matopt(&["plan", "ffnn-small:32", "--analyze"], "");
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let peak: u64 = run
        .stdout
        .split("peak-resident-bytes: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no peak in:\n{}", run.stdout));
    (peak / 2).to_string()
}

/// N of the `governor: spilled N buffers` line.
fn spilled(stdout: &str) -> u64 {
    stdout
        .split("governor: spilled ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no governor line in:\n{stdout}"))
}

/// `--mem-budget` governs a fault-injected run like any other: at half
/// the resident peak, `--inject` spills and says so.
#[test]
fn an_injected_run_spills_under_half_its_peak() {
    let half = half_the_analyzed_peak();
    let args = [
        "plan",
        "ffnn-small:32",
        "--inject",
        "crash@2",
        "--mem-budget",
        &half,
    ];
    let run = matopt(&args, "");
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    assert!(spilled(&run.stdout) > 0, "stdout:\n{}", run.stdout);
    assert!(
        run.stdout.contains("1 recoveries"),
        "stdout:\n{}",
        run.stdout
    );
}

/// A fault-injected walk is recorded like any other: its spills reach
/// the metrics registry.
#[test]
fn an_injected_run_reports_its_spills_to_the_metrics() {
    let half = half_the_analyzed_peak();
    let dump = scratch("injected.prom");
    let dump_arg = dump.to_str().expect("UTF-8 temp path");
    let args = [
        "plan",
        "ffnn-small:32",
        "--inject",
        "crash@2",
        "--mem-budget",
        &half,
        "--metrics-dump",
        dump_arg,
    ];
    let run = matopt(&args, "");
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let prom = std::fs::read_to_string(&dump).expect("metrics dump written");
    let _ = std::fs::remove_file(&dump);
    let line = format!("matopt_sched_spills_total {}", spilled(&run.stdout));
    assert!(prom.lines().any(|l| l == line), "no `{line}` in:\n{prom}");
}

/// A fault spec is checked with the other options: an unknown kind or a
/// step the plan does not have is a usage error, and nothing is planned.
#[test]
fn an_unparsable_fault_spec_exits_2_before_planning() {
    for spec in ["kill@1", "meteor@1", "crash@999"] {
        let run = matopt(&["plan", "ffnn-small:32", "--inject", spec], "");
        assert_eq!(run.code, Some(2), "{spec}: {}", run.stderr);
        assert!(
            run.stderr.contains("plan: --inject: "),
            "{spec}: {}",
            run.stderr
        );
        assert!(
            !run.stdout.contains("optimized"),
            "{spec}: planned anyway:\n{}",
            run.stdout
        );
    }
}
