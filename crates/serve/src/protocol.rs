//! The wire protocol of `matopt serve`: JSON-lines requests over
//! stdin/stdout.
//!
//! A request is one JSON object per line, in one of two shapes:
//!
//! ```json
//! {"id": "r1", "workload": "ffnn-small:32"}
//! {"id": "r2", "graph": {
//!     "sources": [{"name": "A", "rows": 64, "cols": 64,
//!                  "sparsity": 0.05, "format": "csr"}],
//!     "ops": [{"op": "mm", "in": [0, 0]},
//!             {"op": "relu", "in": [1]}]}}
//! ```
//!
//! `workload` names one of the CLI's built-in experiment graphs
//! ([`workload_graph`] — the same specs `matopt plan` accepts);
//! `graph` spells out an arbitrary DAG. Op inputs index the combined
//! vertex list (sources first, then prior ops in order); the graph is
//! assembled through the expression DSL's fallible `try_apply`, so a
//! type-incorrect request comes back as an error response instead of a
//! panic. The JSON value and parser are `matopt_obs::json`'s,
//! re-exported here.
//!
//! Each line is parsed once. A plan request needs an `"id"`: a string
//! is echoed as is, a number (JSON-RPC style) as its rendered string,
//! on every response kind — a failed plan, a control ack, a refusal.
//! [`parse_request`] is that one parse plus the same document-to-graph
//! step the serve loop uses.
//!
//! A third shape is the *control* request, selected by a top-level
//! `"op"` key (`"id"` optional, echoed back):
//!
//! ```json
//! {"id": "s1", "op": "stats"}
//! {"id": "s2", "op": "drain"}
//! {"id": "s3", "op": "shutdown"}
//! ```
//!
//! `stats` answers with the service's live statistics instead of a
//! plan: request/hit/miss/coalesced counters, admission rejects and
//! deadline expiries, optimizer runs and seconds, cache entries /
//! bytes / epoch / evictions, and `p50_us` /
//! `p95_us` / `p99_us` request-latency percentiles computed from the
//! merged hit+miss+coalesced histograms (`null` when the service has
//! no metrics registry or nothing has been timed yet). Unknown `op`
//! values are error responses; a `stats` line does not count as a plan
//! request in the counters it reports.
//!
//! `shutdown` and `drain` stop the session in an orderly way. Both
//! finish every request that arrived before them, flush any
//! `--metrics-dump` sidecar, and make the `matopt serve` process exit
//! 0. `shutdown` stops reading immediately — its `{"status": "ok",
//! "op": "shutdown"}` acknowledgement is the last line written.
//! `drain` keeps reading until EOF but answers every *later* request
//! with a `draining` error response (position in the stream decides,
//! not worker timing). Plain EOF behaves like an implicit drain:
//! requests already read are always answered, never abandoned.

use crate::ServeError;
use matopt_core::{Cluster, ComputeGraph, MatrixType, Op, PhysFormat};
use matopt_graphs::{
    ffnn_full_pass_graph_autodiff, ffnn_train_step_graph_autodiff, ffnn_training_graph,
    ffnn_w2_update_graph_autodiff, matmul_chain_graph, motivating_graph, two_level_inverse_graph,
    Expr, ExprBuilder, FfnnConfig, SizeSet,
};
pub use matopt_obs::json::{json_escape, Json};

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A parsed plan request.
#[derive(Debug)]
pub struct PlanRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: String,
    /// The compute graph to plan.
    pub graph: ComputeGraph,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// Parses one request line against the current cluster (some built-in
/// workloads, e.g. `chain:*`, are sized from the cluster).
///
/// # Errors
/// [`ServeError::BadRequest`] describing the problem.
pub fn parse_request(line: &str, cluster: &Cluster) -> Result<PlanRequest, ServeError> {
    let doc = parse_line(line)?;
    let id = request_id(&doc).ok_or_else(missing_id)?;
    let graph = request_graph(&doc, cluster)?;
    Ok(PlanRequest { id, graph })
}

/// Parses one request line into its JSON document: the one parse a
/// request line gets.
pub(crate) fn parse_line(line: &str) -> Result<Json, ServeError> {
    Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))
}

/// The request's `"id"`, rendered for echoing: string ids pass through;
/// numeric ids (JSON-RPC style) are rendered as strings. `None` when the
/// id is absent or of another type.
pub(crate) fn request_id(doc: &Json) -> Option<String> {
    let id = doc.get("id")?;
    id.as_str().map(str::to_string).or_else(|| {
        id.as_f64().map(|n| {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }
        })
    })
}

/// The error a plan request without a usable id answers with.
pub(crate) fn missing_id() -> ServeError {
    bad("missing string or number field \"id\"")
}

/// The graph a plan request asks for: a named `"workload"` or an
/// explicit `"graph"`, exactly one of them.
pub(crate) fn request_graph(doc: &Json, cluster: &Cluster) -> Result<ComputeGraph, ServeError> {
    match (doc.get("workload"), doc.get("graph")) {
        (Some(w), None) => {
            let spec = w
                .as_str()
                .ok_or_else(|| bad("\"workload\" must be a string"))?;
            workload_graph(spec, cluster).map_err(bad)
        }
        (None, Some(g)) => graph_from_json(g),
        _ => Err(bad("provide exactly one of \"workload\" or \"graph\"")),
    }
}

/// Builds a graph from the explicit `"graph"` request form via the
/// fallible expression DSL.
fn graph_from_json(doc: &Json) -> Result<ComputeGraph, ServeError> {
    let sources = doc
        .get("sources")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"graph\" needs a \"sources\" array"))?;
    let ops = doc
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("\"graph\" needs an \"ops\" array"))?;
    if sources.is_empty() {
        return Err(bad("at least one source is required"));
    }

    let builder = ExprBuilder::new();
    let mut nodes: Vec<Expr<'_>> = Vec::with_capacity(sources.len() + ops.len());
    for (i, s) in sources.iter().enumerate() {
        let rows = s
            .get("rows")
            .and_then(Json::as_u64)
            .filter(|r| *r > 0)
            .ok_or_else(|| bad(format!("source {i}: \"rows\" must be a positive integer")))?;
        let cols = s
            .get("cols")
            .and_then(Json::as_u64)
            .filter(|c| *c > 0)
            .ok_or_else(|| bad(format!("source {i}: \"cols\" must be a positive integer")))?;
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("src{i}"));
        let mtype = match s.get("sparsity").map(|v| v.as_f64()) {
            None => MatrixType::dense(rows, cols),
            Some(Some(sp)) if (0.0..=1.0).contains(&sp) => MatrixType::sparse(rows, cols, sp),
            _ => return Err(bad(format!("source {i}: \"sparsity\" must be in [0, 1]"))),
        };
        let format = match s.get("format") {
            None => default_format(&mtype),
            Some(f) => {
                let spec = f
                    .as_str()
                    .ok_or_else(|| bad(format!("source {i}: \"format\" must be a string")))?;
                parse_format(spec)
                    .ok_or_else(|| bad(format!("source {i}: unknown format \"{spec}\"")))?
            }
        };
        nodes.push(builder.source(&name, mtype, format));
    }

    for (i, o) in ops.iter().enumerate() {
        let name = o
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("op {i}: missing string field \"op\"")))?;
        let op = match name {
            "mm" | "matmul" => Op::MatMul,
            "add" => Op::Add,
            "sub" => Op::Sub,
            "hadamard" => Op::Hadamard,
            "scalarmul" => {
                let alpha = o
                    .get("alpha")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(format!("op {i}: scalarmul needs numeric \"alpha\"")))?;
                Op::ScalarMul(alpha)
            }
            "transpose" => Op::Transpose,
            "relu" => Op::Relu,
            "relugrad" => Op::ReluGrad,
            "softmax" => Op::Softmax,
            "sigmoid" => Op::Sigmoid,
            "exp" => Op::Exp,
            "neg" => Op::Neg,
            "rowsums" => Op::RowSums,
            "colsums" => Op::ColSums,
            "inverse" => Op::Inverse,
            "biasadd" => Op::BroadcastAddRow,
            "sumall" => Op::SumAll,
            "frobeniusnorm" | "frobenius" => Op::FrobeniusNorm,
            other => return Err(bad(format!("op {i}: unknown op \"{other}\""))),
        };
        let input_idx = o
            .get("in")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(format!("op {i}: missing \"in\" index array")))?;
        let mut inputs = Vec::with_capacity(input_idx.len());
        for idx in input_idx {
            let idx = idx
                .as_u64()
                .map(|n| n as usize)
                .filter(|n| *n < nodes.len())
                .ok_or_else(|| {
                    bad(format!(
                        "op {i}: \"in\" must index already-built vertices (0..{})",
                        nodes.len()
                    ))
                })?;
            inputs.push(nodes[idx]);
        }
        let (first, rest) = inputs
            .split_first()
            .ok_or_else(|| bad(format!("op {i}: \"in\" must not be empty")))?;
        let out = first
            .try_apply(op, rest)
            .map_err(|e| bad(format!("op {i}: {e}")))?;
        nodes.push(out);
    }
    Ok(builder.finish())
}

/// The format a source defaults to when the request doesn't pin one.
fn default_format(mtype: &MatrixType) -> PhysFormat {
    if mtype.sparsity < 1.0 {
        PhysFormat::CsrSingle
    } else {
        PhysFormat::SingleTuple
    }
}

/// Parses `single`, `rowstrip:H`, `colstrip:W`, `tile:S`, `coo`, `csr`,
/// `csrtile:S`.
pub fn parse_format(spec: &str) -> Option<PhysFormat> {
    let (head, arg) = match spec.split_once(':') {
        Some((h, a)) => (h, Some(a.parse::<u64>().ok().filter(|n| *n > 0)?)),
        None => (spec, None),
    };
    Some(match (head, arg) {
        ("single", None) => PhysFormat::SingleTuple,
        ("rowstrip", Some(h)) => PhysFormat::RowStrip { height: h },
        ("colstrip", Some(w)) => PhysFormat::ColStrip { width: w },
        ("tile", Some(s)) => PhysFormat::Tile { side: s },
        ("coo", None) => PhysFormat::Coo,
        ("csr", None) => PhysFormat::CsrSingle,
        ("csrtile", Some(s)) => PhysFormat::CsrTile { side: s },
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Built-in workloads
// ---------------------------------------------------------------------

/// Builds one of the CLI's named experiment graphs — the same specs
/// `matopt plan <workload>` accepts (`ffnn:H`, `ffnn-full:H`,
/// `ffnn-small:H`, `ffnn-train:H`, `amazoncat:B:L[:sparse]`,
/// `chain:1|2|3`, `inverse`, `motivating`).
///
/// The FFNN backprop workloads are *autodiff-derived*: the forward
/// pass is written once and `matopt-autodiff` emits the gradient tape.
/// The hand-built builders survive only as the reference the parity
/// suite checks the derivation against, bit for bit.
///
/// # Errors
/// A usage string for unknown or malformed specs.
pub fn workload_graph(spec: &str, cluster: &Cluster) -> Result<ComputeGraph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts[0] {
        "ffnn" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn:<hidden> expects a size, e.g. ffnn:80000")?;
            Ok(
                ffnn_w2_update_graph_autodiff(FfnnConfig::simsql_experiment(hidden))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "ffnn-full" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-full:<hidden> expects a size")?;
            Ok(
                ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(hidden))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "ffnn-small" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-small:<hidden> expects a size, e.g. ffnn-small:32")?;
            Ok(ffnn_w2_update_graph_autodiff(FfnnConfig::laptop(hidden))
                .map_err(|e| e.to_string())?
                .graph)
        }
        "ffnn-train" => {
            let hidden = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("ffnn-train:<hidden> expects a size, e.g. ffnn-train:32")?;
            Ok(ffnn_training_graph(FfnnConfig::laptop(hidden))
                .map_err(|e| e.to_string())?
                .graph)
        }
        "amazoncat" => {
            let batch = parts
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("amazoncat:<batch>:<layer>[:sparse]")?;
            let layer = parts
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("amazoncat:<batch>:<layer>[:sparse]")?;
            let sparse = parts.get(3) == Some(&"sparse");
            Ok(
                ffnn_train_step_graph_autodiff(FfnnConfig::amazoncat(batch, layer, sparse))
                    .map_err(|e| e.to_string())?
                    .graph,
            )
        }
        "chain" => {
            let set = match parts.get(1) {
                Some(&"1") => SizeSet::Set1,
                Some(&"2") => SizeSet::Set2,
                Some(&"3") => SizeSet::Set3,
                _ => return Err("chain:<1|2|3>".into()),
            };
            Ok(matmul_chain_graph(set, cluster)
                .map_err(|e| e.to_string())?
                .graph)
        }
        "inverse" => Ok(two_level_inverse_graph(10_000, 2_000)
            .map_err(|e| e.to_string())?
            .graph),
        "motivating" => Ok(motivating_graph().map_err(|e| e.to_string())?.graph),
        other => Err(format!(
            "unknown workload {other} (expected ffnn:H, ffnn-full:H, ffnn-small:H, \
             ffnn-train:H, amazoncat:B:L[:sparse], chain:1|2|3, inverse, motivating)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_graph_requests_build() {
        let line = r#"{"id": "q", "graph": {
            "sources": [{"name": "W", "rows": 8, "cols": 8},
                        {"name": "X", "rows": 8, "cols": 4, "sparsity": 0.1,
                         "format": "csr"}],
            "ops": [{"op": "mm", "in": [0, 1]},
                    {"op": "relu", "in": [2]},
                    {"op": "scalarmul", "in": [3], "alpha": 0.5}]}}"#;
        let req = parse_request(line, &Cluster::simsql_like(4)).expect("parses");
        assert_eq!(req.id, "q");
        assert_eq!(req.graph.len(), 5);
    }

    #[test]
    fn type_errors_become_bad_request_not_panic() {
        let line = r#"{"id": "q", "graph": {
            "sources": [{"rows": 8, "cols": 4}],
            "ops": [{"op": "mm", "in": [0, 0]}]}}"#;
        let err = parse_request(line, &Cluster::simsql_like(4)).expect_err("4 != 8");
        assert!(matches!(err, ServeError::BadRequest(_)), "got {err:?}");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let cluster = Cluster::simsql_like(4);
        for line in [
            "not json",
            r#"{"workload": "motivating"}"#,
            r#"{"id": "a"}"#,
            r#"{"id": "a", "workload": "nope"}"#,
            r#"{"id": "a", "workload": "x", "graph": {}}"#,
            r#"{"id": "a", "graph": {"sources": [], "ops": []}}"#,
            r#"{"id": "a", "graph": {"sources": [{"rows": 4, "cols": 4}],
                "ops": [{"op": "mm", "in": [0, 9]}]}}"#,
        ] {
            assert!(
                matches!(
                    parse_request(line, &cluster),
                    Err(ServeError::BadRequest(_))
                ),
                "accepted: {line}"
            );
        }
    }

    #[test]
    fn workload_specs_match_the_cli() {
        let cluster = Cluster::simsql_like(4);
        for spec in [
            "ffnn-small:16",
            "ffnn-train:8",
            "chain:1",
            "motivating",
            "inverse",
        ] {
            assert!(workload_graph(spec, &cluster).is_ok(), "{spec} failed");
        }
        assert!(workload_graph("ffnn", &cluster).is_err());
        assert!(workload_graph("ffnn-train", &cluster).is_err());
    }

    #[test]
    fn format_specs_round_trip() {
        assert_eq!(parse_format("single"), Some(PhysFormat::SingleTuple));
        assert_eq!(
            parse_format("tile:500"),
            Some(PhysFormat::Tile { side: 500 })
        );
        assert_eq!(parse_format("csrtile:0"), None);
        assert_eq!(parse_format("tile"), None);
        assert_eq!(parse_format("bogus"), None);
    }
}
