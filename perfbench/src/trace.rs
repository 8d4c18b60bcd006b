//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: its name,
//! the operation it belongs to, the span that was open when it started
//! (its parent), and start/end offsets from the recorder's origin.
//! Counts are recorded beside the spans at the same boundaries. Nothing
//! is written while the workload runs; [`Tracer::write_jsonl`] dumps
//! everything once the benchmark ends.
//!
//! With tracing off every call is a no-op apart from reading the clock
//! in [`Tracer::time`], so the untraced run pays nothing per span.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[must_use]
pub struct Open(Option<usize>);

/// The recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op`; its parent is the innermost span
    /// still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close in LIFO
    /// order).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span and returns its result and its duration
    /// in seconds (the duration is measured whether or not tracing is
    /// on).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, op);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, dt)
    }

    /// Records a count observed at a layer boundary.
    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        if self.enabled {
            self.counts.push((name, op, value));
        }
    }

    /// Durations (milliseconds) of the spans called `name` in the timed
    /// phase (`op > 0`), or in set-up (`op == 0`) when `setup` is true.
    pub fn durations_ms(&self, name: &str, setup: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (s.op == 0) == setup)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Every value recorded for the count `name` in the timed phase.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name && c.1 > 0)
            .map(|c| c.2)
            .collect()
    }

    /// Writes every span and count as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        for (name, op, value) in &self.counts {
            let _ = writeln!(
                text,
                "{{\"count\":\"{name}\",\"op\":{op},\"value\":{value}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for an empty
/// slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}
