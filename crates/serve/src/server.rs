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

use crate::protocol::{json_escape, parse_request, Json};
use crate::PlanService;
use matopt_obs::{HistogramSnapshot, Subsystem};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
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
    stop: std::sync::atomic::AtomicBool,
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

/// Control lines that steer the serve loop itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Control {
    /// Stop reading, answer everything already read, exit cleanly.
    Shutdown,
    /// Keep reading until EOF but refuse every later request with a
    /// `draining` error response; in-flight work still completes.
    Drain,
}

/// Recognizes `{"op": "shutdown"}` / `{"op": "drain"}` control lines.
fn control_op(line: &str) -> Option<Control> {
    let doc = Json::parse(line).ok()?;
    match doc.get("op").and_then(Json::as_str)? {
        "shutdown" => Some(Control::Shutdown),
        "drain" => Some(Control::Drain),
        _ => None,
    }
}

/// The acknowledgement response for a control line.
fn control_ack(line: &str, op: Control) -> String {
    let id = Json::parse(line)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string));
    let op = match op {
        Control::Shutdown => "shutdown",
        Control::Drain => "drain",
    };
    match id {
        Some(id) => format!(
            "{{\"id\": \"{}\", \"status\": \"ok\", \"op\": \"{op}\"}}",
            json_escape(&id)
        ),
        None => format!("{{\"id\": null, \"status\": \"ok\", \"op\": \"{op}\"}}"),
    }
}

/// Serves requests from `input`, writing one response line each to
/// `output`, until EOF or an orderly `{"op": "shutdown"}`. Single
/// worker: responses are computed and written in arrival order. See
/// [`serve_lines_concurrent`] for the multi-worker loop.
///
/// # Errors
/// Propagates I/O errors from the transport (request-level failures are
/// error *responses*, not `Err`).
pub fn serve_lines<R: BufRead, W: Write>(
    service: &PlanService,
    input: R,
    output: &mut W,
) -> io::Result<ServeSummary> {
    serve_lines_session(service, input, output, &ServeSession::new())
}

/// [`serve_lines`] with an external [`ServeSession`] handle: live
/// read/answer counters plus a stop flag a signal watcher can flip to
/// drain the loop between lines.
///
/// # Errors
/// Propagates I/O errors from the transport.
pub fn serve_lines_session<R: BufRead, W: Write>(
    service: &PlanService,
    input: R,
    output: &mut W,
    session: &ServeSession,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut draining = false;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        session.requests_read.fetch_add(1, Ordering::AcqRel);
        let control = control_op(&line);
        let response = match control {
            Some(op) => control_ack(&line, op),
            None if draining => draining_error(&line),
            None => respond(service, &line),
        };
        if response.contains("\"status\": \"ok\"") {
            summary.ok += 1;
        } else {
            summary.errors += 1;
        }
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        session.responses_written.fetch_add(1, Ordering::AcqRel);
        match control {
            Some(Control::Shutdown) => {
                summary.clean_shutdown = true;
                return Ok(summary);
            }
            Some(Control::Drain) => {
                summary.clean_shutdown = true;
                draining = true;
            }
            None => {}
        }
        if session.stop_requested() {
            summary.clean_shutdown = true;
            return Ok(summary);
        }
    }
    Ok(summary)
}

/// The error response for a request that arrived after a drain.
fn draining_error(line: &str) -> String {
    let id = Json::parse(line)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string));
    error_line(id.as_deref(), &crate::ServeError::Draining.to_string())
}

/// Serves requests from `input` on `threads` worker threads, writing
/// responses to `output` **in arrival order** (a reorder buffer holds
/// any response that finishes before an earlier request's).
///
/// Lifecycle guarantees, which the single-threaded loop gets for free
/// and this one is tested for:
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
///
/// # Errors
/// Propagates I/O errors from the transport.
pub fn serve_lines_concurrent<R: BufRead, W: Write + Send>(
    service: &PlanService,
    input: R,
    output: &mut W,
    threads: usize,
) -> io::Result<ServeSummary> {
    serve_lines_concurrent_session(service, input, output, threads, &ServeSession::new())
}

/// [`serve_lines_concurrent`] with an external [`ServeSession`] handle
/// (live counters + stop flag); the stop flag is checked between read
/// lines, and everything already read is still answered — the same
/// position-decides contract as an in-band `{"op": "drain"}`.
///
/// # Errors
/// Propagates I/O errors from the transport.
pub fn serve_lines_concurrent_session<R: BufRead, W: Write + Send>(
    service: &PlanService,
    input: R,
    output: &mut W,
    threads: usize,
    session: &ServeSession,
) -> io::Result<ServeSummary> {
    if threads <= 1 {
        return serve_lines_session(service, input, output, session);
    }
    let mut summary = ServeSummary::default();
    // Everything with seq > drain_seq is refused with a draining error.
    let drain_seq = AtomicU64::new(u64::MAX);
    let (work_tx, work_rx) = mpsc::sync_channel::<(u64, String)>(threads * 2);
    let work_rx = Arc::new(Mutex::new(work_rx));
    let (done_tx, done_rx) = mpsc::channel::<(u64, String)>();

    let (io_result, clean) = std::thread::scope(|scope| {
        for _ in 0..threads {
            let work_rx = Arc::clone(&work_rx);
            let done_tx = done_tx.clone();
            let drain_seq = &drain_seq;
            scope.spawn(move || loop {
                let next = work_rx.lock().expect("work queue").recv();
                let Ok((seq, line)) = next else {
                    return;
                };
                let response = match control_op(&line) {
                    Some(op) => control_ack(&line, op),
                    None if seq > drain_seq.load(Ordering::Acquire) => draining_error(&line),
                    None => respond(service, &line),
                };
                if done_tx.send((seq, response)).is_err() {
                    return;
                }
            });
        }
        drop(done_tx);

        // Writer: reorder responses back into arrival order.
        let writer = scope.spawn(move || -> io::Result<(u64, u64)> {
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            let mut next_seq = 0u64;
            let (mut ok, mut errors) = (0u64, 0u64);
            while let Ok((seq, response)) = done_rx.recv() {
                pending.insert(seq, response);
                while let Some(response) = pending.remove(&next_seq) {
                    next_seq += 1;
                    if response.contains("\"status\": \"ok\"") {
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

        // Reader: this thread. Assign sequence numbers, recognize
        // control lines, stop at EOF or shutdown. Dropping `work_tx`
        // is the drain signal: workers finish what was read, then the
        // writer flushes the reorder buffer.
        let mut clean = false;
        let mut read_error = None;
        let mut seq = 0u64;
        for line in input.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            summary.requests += 1;
            session.requests_read.fetch_add(1, Ordering::AcqRel);
            let control = control_op(&line);
            if work_tx.send((seq, line)).is_err() {
                break;
            }
            match control {
                Some(Control::Shutdown) => {
                    clean = true;
                    break;
                }
                Some(Control::Drain) => {
                    clean = true;
                    drain_seq.store(seq, Ordering::Release);
                }
                None => {}
            }
            seq += 1;
            if session.stop_requested() {
                clean = true;
                break;
            }
        }
        drop(work_tx);
        let written = writer.join().expect("writer thread");
        let io_result = match read_error {
            Some(e) => Err(e),
            None => written,
        };
        (io_result, clean)
    });

    let (ok, errors) = io_result?;
    summary.ok = ok;
    summary.errors = errors;
    summary.clean_shutdown = clean;
    Ok(summary)
}

/// The response line (no trailing newline) for one request line.
///
/// Plan requests go through [`crate::protocol::parse_request`]; a
/// top-level `{"op": "stats"}` line instead answers with the service's
/// live statistics (see [`stats_line`]).
pub fn respond(service: &PlanService, line: &str) -> String {
    if let Ok(doc) = Json::parse(line) {
        if let Some(op) = doc.get("op").and_then(Json::as_str) {
            let id = doc.get("id").and_then(Json::as_str).map(str::to_string);
            return match op {
                "stats" => stats_line(service, id.as_deref()),
                // Acknowledged here so a direct `respond` caller gets
                // the same line the serve loop writes; the loop itself
                // intercepts these to actually stop/drain.
                "shutdown" => control_ack(line, Control::Shutdown),
                "drain" => control_ack(line, Control::Drain),
                other => error_line(id.as_deref(), &format!("unknown op {other:?}")),
            };
        }
    }
    let cluster = service.cluster();
    match parse_request(line, &cluster) {
        Ok(req) => match service.plan(&req.graph) {
            Ok(planned) => format!(
                "{{\"id\": \"{}\", \"status\": \"ok\", \"fingerprint\": \"{}\", \
                 \"source\": \"{}\", \"cost\": {}, \"opt_seconds\": {}, \
                 \"exactness\": \"{}\", \"vertices\": {}, \"latency_us\": {}}}",
                json_escape(&req.id),
                planned.fingerprint.hex(),
                planned.source.as_str(),
                planned.plan.cost,
                planned.plan.opt_seconds,
                planned.plan.exactness(),
                req.graph.len(),
                planned.latency.as_micros(),
            ),
            Err(err) => error_line(Some(&req.id), &err.to_string()),
        },
        Err(err) => {
            // Best-effort id echo so the client can correlate the
            // failure even though the request didn't parse as a whole.
            let id = Json::parse(line)
                .ok()
                .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string));
            error_line(id.as_deref(), &err.to_string())
        }
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
    let (p50, p95, p99, drift_events) = match &snap {
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
            let drift = s.counter(Subsystem::CostModel, "drift_events").unwrap_or(0);
            (q(0.50), q(0.95), q(0.99), drift)
        }
        None => ("null".into(), "null".into(), "null".into(), 0),
    };
    let id = match id {
        Some(id) => format!("\"{}\"", json_escape(id)),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\": {id}, \"status\": \"ok\", \"op\": \"stats\", \
         \"requests\": {}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \
         \"admission_rejects\": {}, \"deadline_expired\": {}, \
         \"optimize_runs\": {}, \"optimize_seconds\": {}, \
         \"cache_entries\": {}, \"cache_bytes\": {}, \"cache_epoch\": {}, \
         \"cache_evictions\": {}, \"drift_events\": {drift_events}, \
         \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}",
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

fn error_line(id: Option<&str>, message: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"id\": \"{}\", \"status\": \"error\", \"error\": \"{}\"}}",
            json_escape(id),
            json_escape(message)
        ),
        None => format!(
            "{{\"id\": null, \"status\": \"error\", \"error\": \"{}\"}}",
            json_escape(message)
        ),
    }
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
        let mut out = Vec::new();
        let summary = serve_lines(&service, input.as_bytes(), &mut out).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines(&service, input.as_bytes(), &mut out).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines(&service, input.as_bytes(), &mut out).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines(&service, input.as_bytes(), &mut out).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines_concurrent(&service, input.as_bytes(), &mut out, 4).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines_concurrent(&service, input.as_bytes(), &mut out, 4).expect("io");
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
        let mut out = Vec::new();
        let summary = serve_lines_concurrent(&service, input.as_bytes(), &mut out, 3).expect("io");
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
}
