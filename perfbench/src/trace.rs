//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: name, start, end, the enclosing span, and the op
//! it belongs to. Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends. A disabled tracer reads no
//! clock and records nothing, so the untraced run pays one branch per
//! call site.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::median;
use crate::{Params, Report};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span plus one; 0 for a root span.
    pub parent: usize,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    ops: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Returned by [`Tracer::begin`]; `NONE` when tracing is off.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ops: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh op id: spans of one op share it.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.begin_at(name, op, Instant::now())
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.end_at(id, Instant::now());
        }
    }

    /// [`Tracer::begin`] for a span whose start was taken earlier (or on
    /// another thread, as the server's job timings are).
    pub fn begin_at(&mut self, name: &'static str, op: u64, start: Instant) -> SpanId {
        if !self.on {
            return NONE;
        }
        let parent = self.open.last().map_or(0, |&p| p + 1);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent,
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    pub fn end_at(&mut self, id: SpanId, end: Instant) {
        if id == NONE {
            return;
        }
        self.spans[id].end_ns = self.ns(end);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Records an interval measured elsewhere, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let id = self.begin_at(name, op, start);
        self.end_at(id, end);
    }

    /// Times `f` as a span with no children.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent - 1] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per op, the summed self time (µs) of every span named `name`.
    pub fn per_op_us(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                *out.entry(s.op).or_insert(0.0) += ns as f64 / 1e3;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        w.flush()
    }
}

/// Reports the tracing overhead and the blocking-path accounting of a
/// traced run, then writes its spans out. `untraced_us` and `traced_us`
/// are op latencies of the same run with tracing off and on; `path_us`
/// sums, per traced op, the layer self times on its blocking path.
pub fn summarize(
    tr: &Tracer,
    report: &mut Report,
    untraced_us: &[f64],
    traced_us: &[f64],
    path_us: &[f64],
    p: &Params,
) -> Result<(), String> {
    let (u, t, path) = (median(untraced_us), median(traced_us), median(path_us));
    report.set("trace.untraced_op_p50_us", u);
    report.set("trace.traced_op_p50_us", t);
    report.set("trace.overhead_pct", 100.0 * (t - u) / u);
    report.set("trace.path_p50_us", path);
    report.set("trace.spans", tr.len() as f64);
    println!(
        "trace: op p50 {u:.1} us untraced, {t:.1} us traced ({:+.1}%); \
         layer self times on the blocking path sum to {path:.1} us ({:+.1}% of untraced)",
        100.0 * (t - u) / u,
        100.0 * (path - u) / u
    );
    if let Some(out) = &p.trace_out {
        tr.write(out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("trace: {} spans written to {}", tr.len(), out.display());
    }
    Ok(())
}
