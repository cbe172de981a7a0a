//! Benchmark-side spans: one record around every call the benchmark
//! makes into a layer's public function. Spans live in memory until the
//! run ends, then become a Chrome-trace file (loads in Perfetto) and a
//! per-layer self-time table. Spans *inside* the product are a later
//! issue; these see each layer from the outside only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The crate/module the call entered (`opt`, `engine`, `serve`, …).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The benchmark op this call served (0 = set-up or probe).
    pub op: u64,
    pub tid: u32,
}

/// Handle returned by [`Tracer::begin`]; hand it back to
/// [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Token(usize);

const DISABLED: usize = usize::MAX;

/// A per-thread span recorder. Disabled, `begin`/`end` are one branch
/// each, so the untraced pass runs the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recorder for thread `tid`; every thread of one run shares
    /// `epoch` so their timestamps line up.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            tid,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags the spans that follow with benchmark op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// A disabled/enabled twin of this recorder for another thread.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, tid)
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Token {
        if !self.enabled {
            return Token(DISABLED);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.stack.push(idx);
        Token(idx)
    }

    pub fn end(&mut self, token: Token) {
        if token.0 == DISABLED {
            return;
        }
        self.spans[token.0].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(token.0), "spans must nest");
    }

    /// Times `f` under a span (for calls that need no inner spans).
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin(layer, name);
        let out = f();
        self.end(t);
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate of every span sharing a `(layer, name)`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimeRow {
    pub calls: u64,
    pub total_ms: f64,
    /// Span time not covered by child spans.
    pub self_ms: f64,
}

/// Self time per `(layer, name)`: each span's duration minus the part
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SelfTimeRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<_, SelfTimeRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry((s.layer, s.name)).or_default();
        row.calls += 1;
        row.total_ms += dur as f64 / 1e6;
        row.self_ms += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
    }
    rows
}

/// Share of `op_wall_ms` covered by root spans that belong to an op
/// (`op != 0`) outside the `oracle` layer. For a serial workload this
/// is how much of the measured op time the layer table accounts for.
pub fn coverage_share(spans: &[Span], op_wall_ms: f64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op != 0 && s.layer != "oracle")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    covered as f64 / 1e6 / op_wall_ms
}

/// The self-time table as text. `additive` says whether the rows can be
/// summed to the op wall (serial workloads) or overlap on the pool.
pub fn render_table(spans: &[Span], op_wall_ms: f64, additive: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# per-layer self time (self = span - child spans); op wall {op_wall_ms:.3} ms; {}",
        if additive {
            "serial workload: rows add up to the op wall"
        } else {
            "pool-parallel workload: NON-ADDITIVE, kernels overlap on the pool; read pool.busy_share"
        }
    );
    let _ = writeln!(
        out,
        "{:<8} {:<28} {:>9} {:>13} {:>13} {:>8}",
        "layer", "call", "calls", "total_ms", "self_ms", "share"
    );
    for ((layer, name), row) in self_times(spans) {
        let _ = writeln!(
            out,
            "{layer:<8} {name:<28} {:>9} {:>13.3} {:>13.3} {:>8.4}",
            row.calls,
            row.total_ms,
            row.self_ms,
            row.self_ms / op_wall_ms
        );
    }
    out
}

/// Chrome trace-event JSON (`X` complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"span\": {}, \"parent\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.tid,
            s.layer,
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            layer,
            name: "f",
            start_ns: start,
            end_ns: end,
            parent,
            op,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("serve", 0, 10_000_000, None, 1),
            span("opt", 1_000_000, 7_000_000, Some(0), 1),
            span("cost", 2_000_000, 3_000_000, Some(1), 1),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[&("serve", "f")].self_ms, 4.0);
        assert_eq!(rows[&("opt", "f")].self_ms, 5.0);
        assert_eq!(rows[&("cost", "f")].self_ms, 1.0);
        let total: f64 = rows.values().map(|r| r.self_ms).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn coverage_counts_op_roots_and_skips_the_oracle() {
        let spans = [
            span("serve", 0, 8_000_000, None, 1),
            span("oracle", 8_000_000, 9_000_000, None, 1),
            span("opt", 9_000_000, 9_500_000, None, 0),
        ];
        assert_eq!(coverage_share(&spans, 10.0), 0.8);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let mut off = Tracer::off();
        let t = off.begin("opt", "x");
        off.end(t);
        assert!(off.spans().is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        a.span("serve", "a", || ());
        let mut b = a.fork(1);
        let outer = b.begin("engine", "outer");
        b.span("kernels", "inner", || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(chrome_trace(a.spans()).contains("\"cat\": \"kernels\""));
    }
}
