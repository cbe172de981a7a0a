//! The `matopt serve` loop: JSON-lines over any `BufRead`/`Write`
//! pair (stdin/stdout in the CLI; in-memory buffers in tests).
//!
//! One request per line in, one response per line out, in order:
//!
//! ```json
//! {"id": "r1", "status": "ok", "fingerprint": "6b0f…", "source": "hit",
//!  "cost": 12.25, "opt_seconds": 0.004, "exactness": "exact",
//!  "vertices": 11, "latency_us": 180}
//! {"id": "r2", "status": "error", "error": "bad request: …"}
//! ```
//!
//! Errors are *responses*, never process exits: a malformed line, a
//! type-incorrect graph, or an overloaded service answers the client
//! and keeps serving. The output is flushed after every response so
//! piped clients see answers immediately.
//!
//! Each line is parsed once. Its `"id"` — a string, or a number echoed
//! as its rendered string — comes back on every response kind, and is
//! `null` when absent.

use crate::protocol::{json_escape, missing_id, parse_line, request_graph, request_id, Json};
use crate::{PlanService, ServeError};
use matopt_obs::{HistogramSnapshot, Subsystem};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// What a [`serve_lines`] session handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Non-empty request lines read.
    pub requests: u64,
    /// `"status": "ok"` responses written.
    pub ok: u64,
    /// `"status": "error"` responses written.
    pub errors: u64,
    /// `true` when the session ended via a `{"op": "shutdown"}` or
    /// `{"op": "drain"}` control line (an orderly stop the CLI exits 0
    /// on), `false` on plain EOF.
    pub clean_shutdown: bool,
}

/// Live, shareable view of a running serve session: how much has been
/// read and answered, plus an external stop request a signal watcher
/// can flip — the hook behind `matopt serve`'s SIGTERM/SIGINT graceful
/// drain. Stopping is drain-shaped: the loop stops *reading*, but every
/// request already read is still answered before the call returns.
#[derive(Debug, Default)]
pub struct ServeSession {
    requests_read: AtomicU64,
    responses_written: AtomicU64,
    stop: AtomicBool,
}

impl ServeSession {
    /// A fresh session handle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Non-empty request lines read so far.
    #[must_use]
    pub fn requests_read(&self) -> u64 {
        self.requests_read.load(Ordering::Acquire)
    }

    /// Response lines written so far.
    #[must_use]
    pub fn responses_written(&self) -> u64 {
        self.responses_written.load(Ordering::Acquire)
    }

    /// Requests read but not yet answered.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.requests_read()
            .saturating_sub(self.responses_written())
    }

    /// Asks the serve loop to stop reading further input; in-flight
    /// requests still complete (checked between lines — a loop blocked
    /// on a quiet transport notices at its next line or EOF).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether [`ServeSession::request_stop`] has been called.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// One request line on its way to a worker: its position in the
/// stream, whether a drain came before it, and its parsed document.
struct Work {
    seq: u64,
    draining: bool,
    doc: Result<Json, ServeError>,
}

/// Serves requests from `input` on `threads` worker threads (at least
/// one), writing one response line each to `output` **in arrival
/// order**. The calling thread reads and parses each line once, the
/// workers answer, and a writer thread restores input order (a reorder
/// buffer holds any response that finishes before an earlier
/// request's) and flushes after every line. `session` exposes live
/// read/answer counters and a stop flag a signal watcher can flip.
///
/// The lifecycle contract, the same for every thread count:
///
/// * **EOF drains** — when `input` ends, every request already read is
///   still answered before the call returns; queued work is never
///   abandoned.
/// * **`{"op": "shutdown"}`** stops reading immediately; requests ahead
///   of it are answered, the ack is the last line written, and the
///   summary reports a clean shutdown.
/// * **`{"op": "drain"}`** answers requests ahead of it normally and
///   every request after it with a `draining` error response (position
///   decides, not timing: a request the reader saw first is never
///   rejected because a worker happened to run it late).
/// * **[`ServeSession::request_stop`]** is checked between read lines;
///   everything already read is still answered, and the summary
///   reports a clean shutdown.
///
/// # Errors
/// Propagates I/O errors from the transport (request-level failures are
/// error *responses*, not `Err`).
pub fn serve_lines<R: BufRead, W: Write + Send>(
    service: &PlanService,
    input: R,
    output: &mut W,
    threads: usize,
    session: &ServeSession,
) -> io::Result<ServeSummary> {
    let threads = threads.max(1);
    let (work_tx, work_rx) = mpsc::sync_channel::<Work>(threads * 2);
    // Owned by the workers alone: if the writer fails they all exit,
    // the queue closes, and the reader stops instead of blocking.
    let work_rx = Arc::new(Mutex::new(work_rx));
    let (done_tx, done_rx) = mpsc::channel::<(u64, bool, String)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (work_rx, done_tx) = (Arc::clone(&work_rx), done_tx.clone());
            scope.spawn(move || loop {
                // The guard drops with this statement: workers take
                // turns receiving, not answering.
                let next = work_rx.lock().expect("work queue").recv();
                let Ok(work) = next else {
                    return;
                };
                let (ok, response) = answer(service, work.doc.as_ref(), work.draining);
                if done_tx.send((work.seq, ok, response)).is_err() {
                    return;
                }
            });
        }
        drop((work_rx, done_tx));

        let writer = scope.spawn(move || -> io::Result<(u64, u64)> {
            let mut pending = BTreeMap::new();
            let (mut next_seq, mut ok, mut errors) = (0u64, 0u64, 0u64);
            while let Ok((seq, is_ok, response)) = done_rx.recv() {
                pending.insert(seq, (is_ok, response));
                while let Some((is_ok, response)) = pending.remove(&next_seq) {
                    next_seq += 1;
                    if is_ok {
                        ok += 1;
                    } else {
                        errors += 1;
                    }
                    output.write_all(response.as_bytes())?;
                    output.write_all(b"\n")?;
                    output.flush()?;
                    session.responses_written.fetch_add(1, Ordering::AcqRel);
                }
            }
            Ok((ok, errors))
        });

        // Dropping `work_tx` is the drain signal: workers finish what
        // was read, then the writer flushes the reorder buffer.
        let read = read_requests(input, work_tx, session);
        let written = writer.join().expect("writer thread");
        let (requests, clean_shutdown) = read?;
        let (ok, errors) = written?;
        Ok(ServeSummary {
            requests,
            ok,
            errors,
            clean_shutdown,
        })
    })
}

/// The reader half of [`serve_lines`]: parses each non-empty line once
/// and queues it, until EOF, a shutdown line, or a stop request.
/// Returns the lines read and whether the session stopped in an orderly
/// way (shutdown, drain, or stop request).
fn read_requests<R: BufRead>(
    input: R,
    work: mpsc::SyncSender<Work>,
    session: &ServeSession,
) -> io::Result<(u64, bool)> {
    let (mut seq, mut draining) = (0u64, false);
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_line(&line);
        let op = doc.as_ref().ok().and_then(|d| d.get("op")?.as_str());
        let (shutdown, drain) = (op == Some("shutdown"), op == Some("drain"));
        session.requests_read.fetch_add(1, Ordering::AcqRel);
        if work.send(Work { seq, draining, doc }).is_err() {
            break;
        }
        seq += 1;
        draining |= drain;
        if shutdown || session.stop_requested() {
            return Ok((seq, true));
        }
    }
    Ok((seq, draining))
}

/// The response line (no trailing newline) for one request line.
///
/// Plan requests take the same document-to-graph step as
/// [`crate::protocol::parse_request`]; a top-level `{"op": "stats"}`
/// line instead answers with the service's live statistics (see
/// [`stats_line`]).
pub fn respond(service: &PlanService, line: &str) -> String {
    answer(service, parse_line(line).as_ref(), false).1
}

/// The response to one parsed request line, and whether it is an ok.
/// Shutdown and drain lines are acknowledged here (the loop itself
/// stops or drains on them); once `draining`, every other line is
/// refused. The id is rendered once and echoed on every response kind.
fn answer(
    service: &PlanService,
    doc: Result<&Json, &ServeError>,
    draining: bool,
) -> (bool, String) {
    let doc = match doc {
        Ok(doc) => doc,
        Err(_) if draining => return error_line(None, ServeError::Draining),
        Err(err) => return error_line(None, err),
    };
    let id = request_id(doc);
    let id = id.as_deref();
    match doc.get("op").and_then(Json::as_str) {
        Some(op @ ("shutdown" | "drain")) => (
            true,
            format!(
                "{{\"id\": {}, \"status\": \"ok\", \"op\": \"{op}\"}}",
                id_json(id)
            ),
        ),
        _ if draining => error_line(id, ServeError::Draining),
        Some("stats") => (true, stats_line(service, id)),
        Some(other) => error_line(id, format!("unknown op {other:?}")),
        None => match id {
            Some(id) => plan_line(service, doc, id),
            None => error_line(None, missing_id()),
        },
    }
}

/// Plans the graph a request document asks for.
fn plan_line(service: &PlanService, doc: &Json, id: &str) -> (bool, String) {
    let graph = match request_graph(doc, &service.cluster()) {
        Ok(graph) => graph,
        Err(err) => return error_line(Some(id), err),
    };
    match service.plan(&graph) {
        Ok(planned) => (
            true,
            format!(
                "{{\"id\": {}, \"status\": \"ok\", \"fingerprint\": \"{}\", \
                 \"source\": \"{}\", \"cost\": {}, \"opt_seconds\": {}, \
                 \"exactness\": \"{}\", \"vertices\": {}, \"latency_us\": {}}}",
                id_json(Some(id)),
                planned.fingerprint.hex(),
                planned.source.as_str(),
                planned.plan.cost,
                planned.plan.opt_seconds,
                planned.plan.exactness(),
                graph.len(),
                planned.latency.as_micros(),
            ),
        ),
        Err(err) => error_line(Some(id), err),
    }
}

/// The `{"op": "stats"}` response: service counters, cache state, and
/// — when the service carries a metrics registry — latency percentiles
/// computed from the *merged* hit/miss/coalesced request histograms
/// (mergeability is exactly why the histograms are log-linear).
/// Percentiles are `null` when no metrics registry is attached or no
/// request has been timed yet.
pub fn stats_line(service: &PlanService, id: Option<&str>) -> String {
    let stats = service.stats();
    let snap = service.metrics_snapshot();
    let (p50, p95, p99) = match &snap {
        Some(s) => {
            let mut merged = HistogramSnapshot::default();
            for name in ["latency_hit_us", "latency_miss_us", "latency_coalesced_us"] {
                if let Some(h) = s.histogram(Subsystem::Serve, name) {
                    merged.merge(h);
                }
            }
            let q = |p: f64| {
                if merged.count() == 0 {
                    "null".to_string()
                } else {
                    merged.quantile(p).to_string()
                }
            };
            (q(0.50), q(0.95), q(0.99))
        }
        None => ("null".into(), "null".into(), "null".into()),
    };
    format!(
        "{{\"id\": {}, \"status\": \"ok\", \"op\": \"stats\", \
         \"requests\": {}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \
         \"admission_rejects\": {}, \"deadline_expired\": {}, \
         \"optimize_runs\": {}, \"optimize_seconds\": {}, \
         \"cache_entries\": {}, \"cache_bytes\": {}, \"cache_epoch\": {}, \
         \"cache_evictions\": {}, \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}",
        id_json(id),
        stats.requests,
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.admission_rejects,
        stats.deadline_expired,
        stats.optimize_runs,
        stats.optimize_seconds,
        stats.cache_entries,
        stats.cache_bytes,
        service.cache().epoch(),
        stats.cache.evicted,
    )
}

/// The JSON rendering of an echoed request id.
fn id_json(id: Option<&str>) -> String {
    id.map_or_else(
        || "null".to_string(),
        |id| format!("\"{}\"", json_escape(id)),
    )
}

fn error_line(id: Option<&str>, message: impl std::fmt::Display) -> (bool, String) {
    (
        false,
        format!(
            "{{\"id\": {}, \"status\": \"error\", \"error\": \"{}\"}}",
            id_json(id),
            json_escape(&message.to_string())
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use matopt_core::{Cluster, FormatCatalog, ImplRegistry};
    use matopt_cost::CostModel;

    fn service() -> PlanService {
        PlanService::new(
            ImplRegistry::paper_default(),
            FormatCatalog::paper_default().dense_only(),
            Cluster::simsql_like(4),
            CostModel::analytical(),
            ServeConfig::default(),
        )
    }

    /// Runs `input` through [`serve_lines`] on `threads` workers.
    fn serve(service: &PlanService, input: &str, threads: usize) -> (ServeSummary, Vec<u8>) {
        let mut out = Vec::new();
        let summary = serve_lines(
            service,
            input.as_bytes(),
            &mut out,
            threads,
            &ServeSession::new(),
        )
        .expect("io");
        (summary, out)
    }

    fn metered_service() -> PlanService {
        let registry = matopt_obs::MetricsRegistry::new();
        let obs = matopt_obs::Obs::with_metrics(
            std::sync::Arc::new(matopt_obs::RingSink::new(256)),
            registry,
        );
        PlanService::with_obs(
            ImplRegistry::paper_default(),
            FormatCatalog::paper_default().dense_only(),
            Cluster::simsql_like(4),
            CostModel::analytical(),
            ServeConfig::default(),
            obs,
        )
    }

    #[test]
    fn session_serves_hits_and_errors_in_order() {
        let service = service();
        let input = concat!(
            r#"{"id": "a", "workload": "motivating"}"#,
            "\n\n",
            r#"{"id": "b", "workload": "motivating"}"#,
            "\n",
            "garbage\n",
            r#"{"id": "c", "workload": "nope"}"#,
            "\n",
        );
        let (summary, out) = serve(&service, input, 1);
        assert_eq!(
            summary,
            ServeSummary {
                requests: 4,
                ok: 2,
                errors: 2,
                clean_shutdown: false
            }
        );
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"source\": \"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"source\": \"hit\""), "{}", lines[1]);
        assert!(lines[2].contains("\"id\": null"), "{}", lines[2]);
        assert!(lines[3].contains("\"id\": \"c\""), "{}", lines[3]);
        // Responses are themselves valid JSON.
        for line in &lines {
            Json::parse(line).expect("response is valid JSON");
        }
        // And the two identical requests produced identical fingerprints.
        let fp = |l: &str| {
            Json::parse(l)
                .unwrap()
                .get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(fp(lines[0]), fp(lines[1]));
    }

    #[test]
    fn stats_op_reports_counters_and_percentiles() {
        let service = metered_service();
        let input = concat!(
            r#"{"id": "a", "workload": "motivating"}"#,
            "\n",
            r#"{"id": "b", "workload": "motivating"}"#,
            "\n",
            r#"{"id": "s", "op": "stats"}"#,
            "\n",
        );
        let (summary, out) = serve(&service, input, 1);
        assert_eq!(summary.ok, 3);
        let text = std::str::from_utf8(&out).expect("utf8");
        let stats = Json::parse(text.lines().nth(2).expect("stats line")).expect("valid JSON");
        let int = |k: &str| {
            stats
                .get(k)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{k} missing: {text}")) as u64
        };
        assert_eq!(int("requests"), 2, "stats op itself is not a plan request");
        assert_eq!(int("hits"), 1);
        assert_eq!(int("misses"), 1);
        assert_eq!(int("cache_entries"), 1);
        // Percentiles come from the merged hit+miss histograms: two
        // timed requests means a nonzero merged count, and p99 bounds
        // p50 from above.
        assert!(int("p99_us") >= int("p50_us"));
        assert!(int("p50_us") > 0);
    }

    #[test]
    fn stats_op_without_metrics_yields_null_percentiles() {
        let service = service();
        let line = respond(&service, r#"{"op": "stats"}"#);
        assert!(line.contains("\"p50_us\": null"), "{line}");
        assert!(line.contains("\"id\": null"), "{line}");
        Json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn shutdown_op_stops_the_session_cleanly() {
        let service = service();
        let input = concat!(
            r#"{"id": "a", "workload": "motivating"}"#,
            "\n",
            r#"{"id": "q", "op": "shutdown"}"#,
            "\n",
            r#"{"id": "never", "workload": "motivating"}"#,
            "\n",
        );
        let (summary, out) = serve(&service, input, 1);
        assert!(summary.clean_shutdown, "shutdown must be clean");
        assert_eq!((summary.requests, summary.ok, summary.errors), (2, 2, 0));
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 2, "nothing after the shutdown ack: {lines:?}");
        assert!(lines[1].contains("\"op\": \"shutdown\""), "{}", lines[1]);
    }

    #[test]
    fn drain_op_refuses_later_requests_but_answers_them() {
        let service = service();
        let input = concat!(
            r#"{"id": "a", "workload": "motivating"}"#,
            "\n",
            r#"{"id": "d", "op": "drain"}"#,
            "\n",
            r#"{"id": "late", "workload": "motivating"}"#,
            "\n",
        );
        let (summary, out) = serve(&service, input, 1);
        assert!(summary.clean_shutdown);
        assert_eq!(summary.requests, 3, "post-drain lines still get responses");
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"op\": \"drain\""), "{}", lines[1]);
        assert!(lines[2].contains("draining"), "{}", lines[2]);
        assert!(lines[2].contains("\"id\": \"late\""), "{}", lines[2]);
    }

    #[test]
    fn concurrent_loop_preserves_order_and_drains_at_eof() {
        let service = service();
        // Enough requests that workers genuinely interleave; every
        // response must still come back in request order, and EOF must
        // answer all of them.
        let mut input = String::new();
        for i in 0..40 {
            let workload = if i % 3 == 0 {
                "motivating"
            } else {
                "ffnn-small:16"
            };
            input.push_str(&format!(
                "{{\"id\": \"r{i}\", \"workload\": \"{workload}\"}}\n"
            ));
        }
        let (summary, out) = serve(&service, &input, 4);
        assert_eq!(summary.requests, 40);
        assert_eq!(summary.ok, 40, "EOF must drain every queued request");
        assert!(!summary.clean_shutdown, "plain EOF is not a clean shutdown");
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 40);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains(&format!("\"id\": \"r{i}\"")),
                "response {i} out of order: {line}"
            );
        }
    }

    #[test]
    fn concurrent_loop_honors_drain_position_not_timing() {
        let service = service();
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&format!(
                "{{\"id\": \"pre{i}\", \"workload\": \"motivating\"}}\n"
            ));
        }
        input.push_str("{\"id\": \"d\", \"op\": \"drain\"}\n");
        for i in 0..8 {
            input.push_str(&format!(
                "{{\"id\": \"post{i}\", \"workload\": \"motivating\"}}\n"
            ));
        }
        let (summary, out) = serve(&service, &input, 4);
        assert!(summary.clean_shutdown);
        assert_eq!(summary.requests, 17);
        assert_eq!(summary.ok, 9, "8 pre-drain requests + the drain ack");
        assert_eq!(summary.errors, 8, "8 post-drain requests refused");
        let text = std::str::from_utf8(&out).expect("utf8");
        for (i, line) in text.lines().enumerate() {
            if i < 8 {
                assert!(line.contains("\"status\": \"ok\""), "pre-drain {i}: {line}");
            } else if i > 8 {
                assert!(line.contains("draining"), "post-drain {i}: {line}");
            }
        }
    }

    #[test]
    fn concurrent_shutdown_answers_everything_ahead_of_it() {
        let service = service();
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&format!(
                "{{\"id\": \"r{i}\", \"workload\": \"ffnn-small:16\"}}\n"
            ));
        }
        input.push_str("{\"id\": \"s\", \"op\": \"shutdown\"}\n");
        input.push_str("{\"id\": \"never\", \"workload\": \"motivating\"}\n");
        let (summary, out) = serve(&service, &input, 3);
        assert!(summary.clean_shutdown);
        assert_eq!(summary.ok, 7, "6 answers + the shutdown ack");
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 7, "nothing served past shutdown: {lines:?}");
        assert!(lines[6].contains("\"op\": \"shutdown\""), "{}", lines[6]);
    }

    #[test]
    fn unknown_op_is_an_error_response_not_a_parse_failure() {
        let service = service();
        let line = respond(&service, r#"{"id": "x", "op": "flush"}"#);
        assert!(line.contains("\"status\": \"error\""), "{line}");
        assert!(line.contains("unknown op"), "{line}");
        assert!(line.contains("\"id\": \"x\""), "{line}");
    }

    #[test]
    fn numeric_ids_are_echoed_on_every_response_kind() {
        let service = service();
        for (line, status) in [
            (r#"{"id": 7, "workload": "motivating"}"#, "ok"),
            (r#"{"id": 7, "workload": "nope"}"#, "error"),
            (r#"{"id": 7, "op": "stats"}"#, "ok"),
            (r#"{"id": 7, "op": "bogus"}"#, "error"),
            (r#"{"id": 7, "op": "drain"}"#, "ok"),
            (r#"{"id": 7, "op": "shutdown"}"#, "ok"),
        ] {
            let response = respond(&service, line);
            let doc = Json::parse(&response).expect("valid JSON");
            assert_eq!(doc.get("id").and_then(Json::as_str), Some("7"), "{line}");
            assert_eq!(doc.get("status").and_then(Json::as_str), Some(status));
        }
        // A line refused after a drain.
        let (_, out) = serve(
            &service,
            "{\"op\": \"drain\"}\n{\"id\": 7, \"workload\": \"motivating\"}\n",
            1,
        );
        let refused = std::str::from_utf8(&out)
            .expect("utf8")
            .lines()
            .nth(1)
            .expect("refusal");
        assert_eq!(
            refused,
            r#"{"id": "7", "status": "error", "error": "draining: not admitting new work"}"#
        );
    }

    /// Replaces the values of the timing fields, which differ from run
    /// to run, with `#`.
    fn mask_timings(line: &str) -> String {
        let mut out = line.to_string();
        for key in ["\"latency_us\": ", "\"opt_seconds\": "] {
            if let Some(at) = out.find(key) {
                let start = at + key.len();
                let len = out[start..]
                    .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
                    .unwrap_or(out.len() - start);
                out.replace_range(start..start + len, "#");
            }
        }
        out
    }

    #[test]
    fn the_loop_does_not_depend_on_the_thread_count() {
        let service = service();
        let plans = [
            r#"{"id": "h1", "workload": "motivating"}"#,
            r#"{"id": 2, "workload": "ffnn-small:16"}"#,
            r#"{"id": "g", "graph": {"sources": [{"name": "W", "rows": 8, "cols": 8}], "ops": [{"op": "mm", "in": [0, 0]}, {"op": "relu", "in": [1]}]}}"#,
        ];
        for line in plans {
            assert!(
                respond(&service, line).contains("\"status\": \"ok\""),
                "{line}"
            );
        }
        let before_drain = [
            plans[0],
            plans[1],
            plans[2],
            "garbage",
            r#"{"id": "u", "op": "flush"}"#,
            r#"{"id": 5, "workload": "nope"}"#,
            r#"{"id": "h2", "workload": "motivating"}"#,
            r#"{"id": 3.5, "workload": "motivating"}"#,
            r#"{"id": "d", "op": "drain"}"#,
        ];
        let after_drain = [
            (r#"{"id": "late", "workload": "motivating"}"#, r#""late""#),
            ("not json either", "null"),
            (r#"{"id": 9, "op": "stats"}"#, r#""9""#),
        ];
        let mut expected: Vec<String> = before_drain
            .iter()
            .map(|line| mask_timings(&respond(&service, line)))
            .collect();
        expected.extend(after_drain.iter().map(|(_, id)| {
            format!(
                "{{\"id\": {id}, \"status\": \"error\", \"error\": \"draining: not admitting new work\"}}"
            )
        }));
        let script: String = before_drain
            .iter()
            .copied()
            .chain(after_drain.iter().map(|(line, _)| *line))
            .map(|line| format!("{line}\n"))
            .collect();
        for threads in [1, 2, 4] {
            let (summary, out) = serve(&service, &script, threads);
            let lines: Vec<String> = std::str::from_utf8(&out)
                .expect("utf8")
                .lines()
                .map(mask_timings)
                .collect();
            assert_eq!(lines, expected, "threads = {threads}");
            assert_eq!(
                summary,
                ServeSummary {
                    requests: 12,
                    ok: 6,
                    errors: 6,
                    clean_shutdown: true
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn a_stop_request_answers_what_was_read_and_stops_reading() {
        let service = service();
        let input = concat!(
            r#"{"id": "a", "workload": "motivating"}"#,
            "\n",
            r#"{"id": "b", "workload": "motivating"}"#,
            "\n",
        );
        for threads in [1, 3] {
            let session = ServeSession::new();
            session.request_stop();
            let mut out = Vec::new();
            let summary =
                serve_lines(&service, input.as_bytes(), &mut out, threads, &session).expect("io");
            assert_eq!(
                (summary.requests, summary.ok),
                (1, 1),
                "threads = {threads}"
            );
            assert!(summary.clean_shutdown);
            assert_eq!(session.in_flight(), 0);
            assert_eq!(std::str::from_utf8(&out).expect("utf8").lines().count(), 1);
        }
    }
}
