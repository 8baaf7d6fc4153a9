//! What one run reports: operations attempted and failed, correctness,
//! metrics, and the human-readable lines printed before the result.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Duration;

/// Times of the timed requests and the operations they completed.
#[derive(Debug, Default)]
pub struct Timing {
    /// One entry per request, in ms.
    pub latency_ms: Vec<f64>,
    /// Operations the requests completed.
    pub ops: u64,
    /// Summed request time: the timed wall clock.
    pub busy: Duration,
}

impl Timing {
    /// The tail latency over the whole run: the highest percentile that
    /// still has 10 samples beyond it. Returns `(value, percentile)`, or
    /// `None` below [`stats::TAIL_MIN`] requests.
    pub fn tail(&self) -> Option<(f64, f64)> {
        stats::tail(&self.latency_ms)
    }

    pub fn record(&mut self, took: Duration, ops: u64) {
        self.latency_ms.push(took.as_secs_f64() * 1e3);
        self.ops += ops;
        self.busy += took;
    }

    /// Operations per second of timed wall clock.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64().max(1e-12)
    }
}

/// Eq. 19 errors and Eq. 20 extensions, recomputed from output geometry.
#[derive(Debug, Default, Clone)]
pub struct Qor {
    errs: Vec<f64>,
    exts: Vec<f64>,
}

impl Qor {
    /// One routed trace of length `achieved` against `target`.
    pub fn error(&mut self, target: f64, achieved: f64) {
        self.errs.push(100.0 * (target - achieved).abs() / target);
    }

    /// One extension from `original` to `extended`.
    pub fn extension(&mut self, original: f64, extended: f64) {
        self.extension_pct(100.0 * (extended - original) / original);
    }

    pub fn extension_pct(&mut self, pct: f64) {
        self.exts.push(pct);
    }

    /// Adds `other`'s errors (not its extensions).
    pub fn merge_errors(&mut self, other: &Qor) {
        self.errs.extend_from_slice(&other.errs);
    }

    /// Adds `other`'s errors and extensions.
    pub fn merge(&mut self, other: &Qor) {
        self.merge_errors(other);
        self.exts.extend_from_slice(&other.exts);
    }

    /// `100 − max_err_pct`: the worst trace's match to its target.
    pub fn worst_match_pct(&self) -> f64 {
        100.0 - self.max_err_pct()
    }

    /// `100 − avg_err_pct`.
    pub fn avg_match_pct(&self) -> f64 {
        100.0 - self.avg_err_pct()
    }

    pub fn max_err_pct(&self) -> f64 {
        self.errs.iter().copied().fold(0.0, f64::max)
    }

    pub fn avg_err_pct(&self) -> f64 {
        if self.errs.is_empty() {
            return 0.0;
        }
        self.errs.iter().sum::<f64>() / self.errs.len() as f64
    }

    pub fn ext_pct(&self) -> f64 {
        stats::geomean(&self.exts)
    }

    pub fn traces(&self) -> usize {
        self.errs.len()
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// One reason per failed operation.
    failures: Vec<String>,
    /// Broken run-level checks; any makes the run incorrect.
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics every workload reports. Times are
    /// multiplied by `scale`, the host speed probe's factor (see
    /// `speed.rs`); the plain figures are printed beside them.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        timing: &Timing,
        qor: &Qor,
        peak_rss: f64,
        scale: f64,
    ) {
        let n = timing.latency_ms.len();
        let setup = stats::median(setups_s);
        let p50 = stats::median(&timing.latency_ms);
        self.line(format!(
            "setup: median {setup:.4} s of {} set-ups {:?}",
            setups_s.len(),
            setups_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        ));
        self.line(format!(
            "requests: {n}, operations: {}, timed wall {:.3} s, {:.3} ops/s, p50 {:.3} ms",
            timing.ops,
            timing.busy.as_secs_f64(),
            timing.ops_per_s(),
            p50
        ));
        let tail = match timing.tail() {
            Some((v, pct)) => {
                self.line(format!("tail: p{pct:.2} of {n} requests = {v:.3} ms"));
                v
            }
            None => {
                self.problem(format!(
                    "only {n} requests: at least 40 are needed for a tail latency"
                ));
                0.0
            }
        };
        self.line(format!(
            "scaled to the reference host speed (x{scale:.4}): setup {:.4} s, {:.3} ops/s, p50 {:.3} ms, tail {:.3} ms",
            setup * scale,
            timing.ops_per_s() / scale,
            p50 * scale,
            tail * scale
        ));
        self.line(format!(
            "qor over {} traces: max err {:.4} %, avg err {:.4} %, ext {:.3} %",
            qor.traces(),
            qor.max_err_pct(),
            qor.avg_err_pct(),
            qor.ext_pct()
        ));
        self.metric("setup_s", setup * scale, "s");
        self.metric("ops_per_s", timing.ops_per_s() / scale, "1/s");
        self.metric("latency_p50_ms", p50 * scale, "ms");
        self.metric("latency_tail_ms", tail * scale, "ms");
        self.metric("peak_rss_mib", peak_rss, "MiB");
        self.metric("qor.worst_match_pct", qor.worst_match_pct(), "%");
        self.metric("qor.avg_match_pct", qor.avg_match_pct(), "%");
        self.metric("qor.ext_pct", qor.ext_pct(), "%");
    }

    /// Prints the human-readable lines, the failure summary and, as the
    /// last line, the JSON result.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let mut reasons: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.failures {
            *reasons.entry(f.as_str()).or_default() += 1;
        }
        println!("attempted {} failed {}", self.attempted, self.failed());
        for (r, n) in reasons {
            println!("failed x{n}: {r}");
        }
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        );
    }
}
