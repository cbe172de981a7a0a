//! `BENCHMARK.json`: the metric names, units, directions and bounds the
//! suite, the self-test and `compare` all read from one place.

use matopt_serve::protocol::Json;
use std::path::PathBuf;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key}"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without string {k}"))
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better: match field("better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the repository root: the working
    /// directory, or the parent of the benchmark's own directory.
    pub fn load() -> Result<Self, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            crate::bench_dir().join("..").join("BENCHMARK.json"),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found in the working directory or next to benchmark/")?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: missing workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// Names that are malformed (`[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`) or
    /// used twice.
    pub fn name_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let names = self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            let well_formed = name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
            if !well_formed {
                problems.push(format!("name {name:?} does not match [A-Za-z0-9_.-]+"));
            }
            if !seen.insert(name) {
                problems.push(format!("name {name:?} is used twice"));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape_and_flags_bad_names() {
        let spec = Spec::parse(
            r#"{"command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 20,
                "workloads": [{"name": "hit", "why": "x"}, {"name": "miss", "why": "y"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "plan_cost_s", "unit": "model_s", "better": "lower", "bound": 1e-09}],
                "per_layer": [{"name": "cache hits", "unit": "count", "better": "higher"},
                              {"name": "hit", "unit": "count", "better": "higher"}]}"#,
        )
        .expect("parses");
        assert_eq!(spec.run_seconds, 20.0);
        assert_eq!(spec.workloads, ["hit", "miss"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.25));
        assert_eq!(spec.end_to_end[1].bound, Some(1e-9));
        assert_eq!(spec.per_layer[0].better, Better::Higher);
        let problems = spec.name_problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
