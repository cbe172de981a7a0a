//! `compare A.json B.json`: one verdict per workload × end-to-end
//! metric, by the bounds in `BENCHMARK.json`.

use crate::spec::{Better, MetricDef, Spec};
use crate::stats::{median, quartile_spread};
use crate::Metric;
use matopt_serve::protocol::Json;
use std::path::Path;

/// One run as a result file records it.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub metrics: Vec<Metric>,
}

/// A result file written by the suite.
#[derive(Debug)]
pub struct ResultFile {
    pub nproc: u64,
    pub commit: String,
    pub runs: Vec<Run>,
}

impl ResultFile {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let meta = doc.get("meta").ok_or("no meta")?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no runs")?
            .iter()
            .map(|r| {
                let metrics = match r.get("result").and_then(|res| res.get("metrics")) {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .map(|(name, v)| Metric {
                            name: name.clone(),
                            // `null` is how a non-finite value is written.
                            value: v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                            unit: v
                                .get("unit")
                                .and_then(Json::as_str)
                                .unwrap_or_default()
                                .to_string(),
                        })
                        .collect(),
                    _ => return Err("run without result.metrics".to_string()),
                };
                Ok(Run {
                    workload: r
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or("run without workload")?
                        .to_string(),
                    trace: r.get("trace").and_then(Json::as_u64) == Some(1),
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile {
            nproc: meta
                .get("nproc")
                .and_then(Json::as_u64)
                .ok_or("no meta.nproc")?,
            commit: meta
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            runs,
        })
    }

    /// The first run of `workload` with that trace flag.
    pub fn run(&self, workload: &str, trace: bool) -> Option<&Run> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.trace == trace)
    }

    /// Every untraced value of `metric` on `workload`, one per repeat.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
            .map(|m| m.value)
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between a side's own runs exceeds the bound and the
    /// two sides overlap: neither "unchanged" nor a change can be shown.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative = better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// The rule of the choosing-metrics guide, sections 6 and 8: a change
/// counts when the medians differ by more than the bound; where either
/// side's own quartile spread is wider than the bound the verdict is
/// `Unresolved` unless every run of one side beats every run of the
/// other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(a, b, better);
    if !worse.is_finite() {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let b_always_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let noisy = quartile_spread(a).max(quartile_spread(b)) > bound;
    match (noisy, worse) {
        (false, w) if w > bound => Verdict::Regressed,
        (false, w) if w < -bound => Verdict::Improved,
        (false, _) => Verdict::Unchanged,
        (true, w) if w > bound && b_always_worse => Verdict::Regressed,
        (true, w) if w < -bound && b_always_better => Verdict::Improved,
        (true, _) => Verdict::Unresolved,
    }
}

fn row(workload: &str, def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, String) {
    let bound = def.bound.unwrap_or(0.0);
    let v = if a.is_empty() || b.is_empty() {
        Verdict::Unresolved
    } else {
        verdict(a, b, def.better, bound)
    };
    let line = format!(
        "{workload:<11} {:<13} {:>14.6} {:>14.6} {:>+9.4} {:>8.4} {:>7.4} {:>7.4}  {}",
        def.name,
        median(a),
        median(b),
        worsening(a, b, def.better),
        bound,
        quartile_spread(a),
        quartile_spread(b),
        v.as_str()
    );
    (v, line)
}

/// Prints the table; an error (non-zero exit) on any regression.
pub fn run(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let spec = Spec::load()?;
    let (a, b) = (ResultFile::load(a_path)?, ResultFile::load(b_path)?);
    if a.nproc != b.nproc {
        return Err(format!(
            "refusing to compare: {} ran on {} processors, {} on {}",
            a_path.display(),
            a.nproc,
            b_path.display(),
            b.nproc
        ));
    }
    println!(
        "A = {} ({})   B = {} ({})",
        a_path.display(),
        a.commit,
        b_path.display(),
        b.commit
    );
    println!(
        "{:<11} {:<13} {:>14} {:>14} {:>9} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "iqr A", "iqr B"
    );
    let mut regressed = Vec::new();
    for workload in &spec.workloads {
        for def in &spec.end_to_end {
            let (va, vb) = (a.values(workload, &def.name), b.values(workload, &def.name));
            let (v, line) = row(workload, def, &va, &vb);
            println!("{line}");
            if v == Verdict::Regressed {
                regressed.push(format!("{workload}/{}", def.name));
            }
        }
    }
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(format!("regressed: {}", regressed.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0, 104.5], Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 114.0, 115.5], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5], Better::Lower, 0.10),
            Verdict::Improved
        );
        // The same numbers read the other way for a throughput.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 114.0, 115.5], Better::Higher, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_every_run_agrees() {
        let noisy = [80.0, 100.0, 120.0, 140.0, 90.0, 130.0];
        // Overlapping and noisy: not "unchanged", not "regressed".
        assert_eq!(
            verdict(
                &noisy,
                &[95.0, 110.0, 125.0, 150.0, 100.0, 135.0],
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every B run is worse than every A run.
        assert_eq!(
            verdict(
                &noisy,
                &[200.0, 240.0, 260.0, 300.0, 210.0, 280.0],
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(
                &noisy,
                &[20.0, 24.0, 26.0, 30.0, 21.0, 28.0],
                Better::Lower,
                0.10
            ),
            Verdict::Improved
        );
    }

    #[test]
    fn single_runs_and_exact_counts_compare_by_value() {
        assert_eq!(
            verdict(&[2.5], &[2.5], Better::Lower, 1e-9),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[2.5], &[2.500001], Better::Lower, 1e-9),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[f64::NAN], &[1.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_files_round_trip_through_the_suite_format() {
        let file = ResultFile::parse(
            r#"{"schema": 1, "meta": {"commit": "abc", "rustc": "r", "nproc": 2, "pool_threads": 2,
                 "seed": 1, "seconds": 20, "quick": false},
                "runs": [{"workload": "exec_dense", "seed": 1, "trace": 0,
                          "result": {"correct": true, "attempted": 9, "failed": 0,
                                     "metrics": {"ops_per_s": {"value": 9.5, "unit": "op/s"},
                                                 "broken": {"value": null, "unit": "ms"}}}}]}"#,
        )
        .expect("parses");
        assert_eq!(file.nproc, 2);
        assert_eq!(file.values("exec_dense", "ops_per_s"), [9.5]);
        assert!(file
            .run("exec_dense", false)
            .is_some_and(|r| r.metrics[1].value.is_nan()));
        assert!(file.run("exec_dense", true).is_none());
    }
}
