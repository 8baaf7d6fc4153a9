//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a public function of a layer
//! in a span. A span records its name, start, end, parent span and request
//! id; spans stay in memory and are written out once, after the run. The
//! client is one thread, so the spans of a request nest strictly and a
//! span's self time is its duration minus that of its direct children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing it records the end time.
#[must_use = "an opened span must be closed"]
pub struct Open(Option<usize>);

/// Span recorder. When off, opening and closing spans does nothing.
pub struct Tracer {
    on: bool,
    /// Whether calls that cover several layers are issued as their public
    /// parts: for the whole traced run, so that its untraced and traced
    /// halves do the same work and differ only by the tracing.
    parts: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            parts: on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn parts(&self) -> bool {
        self.parts
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new request: spans opened from now on carry its id.
    /// Request 0 is set-up.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, returning its duration in ms (0 when off).
    pub fn close(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else { return 0.0 };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in reverse order");
        ms(self.spans[idx].dur_ns())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Durations in ms of the spans named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| ms(s.dur_ns())).collect()
    }

    /// Summed duration in ms of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // Folded from +0.0: an empty `sum` of floats is -0.0.
        self.durations_ms(name).iter().fold(0.0, |a, x| a + x)
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Share (%) of the time of spans named `name` that their direct
    /// children cover.
    pub fn coverage_pct(&self, name: &str) -> f64 {
        let child = self.child_ns();
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.named(name) {
            covered += child[i].min(s.dur_ns());
            total += s.dur_ns();
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * covered as f64 / total as f64
    }

    /// Self time in ms per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, usize, f64)> {
        let child = self.child_ns();
        let mut by: HashMap<&'static str, (usize, u64)> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns().saturating_sub(child[i]);
        }
        let mut rows: Vec<_> = by.into_iter().map(|(n, (c, t))| (n, c, ms(t))).collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
