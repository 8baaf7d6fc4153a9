//! Per-layer metrics of the traced run.
//!
//! Times come from the spans the benchmark records around its calls into
//! each layer; counts come from what the program already returns
//! (`ExtendOutcome::stats`, `FleetStats`, `SchedCounters`, `CacheStats`) and
//! from the counting allocator. Unless a metric says otherwise, a figure is
//! per traced request. Every run prints every metric; one whose layer the
//! workload does not reach reads 0.

use crate::alloc;
use crate::report::{Report, Timing};
use crate::spans::Tracer;
use crate::speed;
use crate::stats;
use meander_core::{
    apply_outputs, gather_obstacles, plan_board_units, run_unit, DpStats, ExtendConfig,
    ExtendOutcome, GroupReport,
};
use meander_fleet::{CacheStats, FleetStats, SchedCounters, Tier};
use meander_layout::Board;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in print order.
pub const METRICS: &[(&str, &str)] = &[
    ("layout.io.load_ms", "ms"),
    ("layout.validate_ms", "ms"),
    ("layout.hash_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.unit_ms", "ms"),
    ("core.unit_p50_ms", "ms"),
    ("core.units", "count"),
    ("core.apply_ms", "ms"),
    ("core.extend_ms", "ms"),
    ("core.iterations", "count"),
    ("core.patterns", "count"),
    ("core.dp.hq_requested", "count"),
    ("core.dp.hq_executed", "count"),
    ("core.dp.prune_ratio", "ratio"),
    ("core.dp.points", "count"),
    ("msdtw.pair_unit_ms", "ms"),
    ("drc.check_ms", "ms"),
    ("drc.violations", "count"),
    ("fleet.validate_ms", "ms"),
    ("fleet.base_build_ms", "ms"),
    ("fleet.route_wall_ms", "ms"),
    ("fleet.unit_p50_ms", "ms"),
    ("fleet.unit_p99_ms", "ms"),
    ("fleet.busy_ratio", "ratio"),
    ("fleet.sched.packets_batch", "count"),
    ("fleet.sched.packets_interactive", "count"),
    ("fleet.sched.parks", "count"),
    ("fleet.sched.steals", "count"),
    ("fleet.sched.preemptions", "count"),
    ("fleet.cache.hits", "count"),
    ("fleet.cache.misses", "count"),
    ("fleet.cache.hit_ratio", "ratio"),
    ("fleet.cache.inserts", "count"),
    ("fleet.cache.invalidated", "count"),
    ("fleet.cache.rekeyed", "count"),
    ("fleet.cache.bytes", "B"),
    ("fleet.session.apply_edit_ms", "ms"),
    ("fleet.session.reroute_ms", "ms"),
    ("fleet.session.units_dirty", "count"),
    ("fleet.session.skip_ratio", "ratio"),
    ("fleet.session.cells_dirty", "count"),
    ("fleet.session.boards_replanned", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("host.steal_pct", "%"),
    ("host.probe_ms", "ms"),
];

/// Accumulators the traced requests fill in.
#[derive(Default)]
pub struct Layers {
    /// Durations (ms) of `run_unit` calls whose unit went through MSDTW.
    pub msdtw_unit_ms: Vec<f64>,
    pub dp: DpStats,
    pub iterations: u64,
    pub patterns: u64,
    pub violations: u64,
    /// Fleet statistics summed over the traced requests that returned them.
    pub fleet: FleetSums,
    pub sched: SchedCounters,
    pub cache: CacheStats,
    pub cache_bytes: usize,
    alloc_start: (u64, u64),
    alloc_ops: (u64, u64, u64),
}

/// Sums of `FleetStats` fields over several reports.
#[derive(Default)]
pub struct FleetSums {
    pub reports: u64,
    pub validate_ms: f64,
    pub base_build_ms: f64,
    pub route_wall_ms: f64,
    pub busy_ms: f64,
    pub worker_wall_ms: f64,
    pub latency: meander_fleet::LatencyHistogram,
    pub units_dirty: u64,
    pub units_skipped: u64,
    pub cells_dirty: u64,
    pub boards_replanned: u64,
}

impl FleetSums {
    pub fn add(&mut self, s: &FleetStats) {
        self.reports += 1;
        self.validate_ms += s.validation_wall.as_secs_f64() * 1e3;
        self.base_build_ms += s.base_build.as_secs_f64() * 1e3;
        self.route_wall_ms += s.route_wall.as_secs_f64() * 1e3;
        self.busy_ms += s.scheduler.total_busy().as_secs_f64() * 1e3;
        self.worker_wall_ms += s.scheduler.workers as f64 * s.route_wall.as_secs_f64() * 1e3;
        for (a, b) in self.latency.buckets.iter_mut().zip(s.latency.buckets) {
            *a += b;
        }
        self.latency.count += s.latency.count;
        self.latency.total += s.latency.total;
        self.latency.max = self.latency.max.max(s.latency.max);
        self.units_dirty += s.units_dirty as u64;
        self.units_skipped += s.units_skipped as u64;
        self.cells_dirty += s.cells_dirty;
        self.boards_replanned += s.boards_replanned as u64;
    }
}

impl Layers {
    /// Adds one `extend_trace` outcome's counts.
    pub fn extend(&mut self, out: &ExtendOutcome) {
        self.dp.absorb(&out.stats);
        self.iterations += out.iterations as u64;
        self.patterns += out.patterns as u64;
    }

    /// Adds one run's scheduler counters.
    pub fn add_sched(&mut self, c: &SchedCounters) {
        for (a, b) in self.sched.packets.iter_mut().zip(c.packets) {
            *a += b;
        }
        self.sched.parks += c.parks;
        self.sched.steals += c.steals;
        self.sched.preemptions += c.preemptions;
    }

    /// Adds the cache counters accrued between `before` and `after`.
    pub fn add_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        let c = &mut self.cache;
        c.hits += after.hits - before.hits;
        c.misses += after.misses - before.misses;
        c.inserts += after.inserts - before.inserts;
        c.invalidated += after.invalidated - before.invalidated;
        c.rekeyed += after.rekeyed - before.rekeyed;
    }

    /// Starts counting allocations for a traced request.
    pub fn alloc_begin(&mut self) {
        self.alloc_start = alloc::totals();
        alloc::set_counting(true);
    }

    /// Stops counting; the request completed `ops` operations.
    pub fn alloc_end(&mut self, ops: u64) {
        alloc::set_counting(false);
        let (c, b) = alloc::totals();
        self.alloc_ops.0 += c - self.alloc_start.0;
        self.alloc_ops.1 += b - self.alloc_start.1;
        self.alloc_ops.2 += ops;
    }

    /// `match_all_groups` issued as its public parts on this thread:
    /// `plan_board_units` → `run_unit` per unit → `apply_outputs` per
    /// group. The output equals the one-call form. Spans and counts are
    /// recorded only while the tracer is on.
    pub fn match_all_groups(&mut self, tr: &mut Tracer, board: &mut Board) -> Vec<GroupReport> {
        let config = ExtendConfig::default();
        let (obstacles, planned) = tr.span("core.plan", || {
            (gather_obstacles(board), plan_board_units(board))
        });
        let mut reports = Vec::with_capacity(planned.len());
        let mut outputs = Vec::with_capacity(planned.len());
        for (target, units) in &planned {
            let mut group = Vec::with_capacity(units.len());
            for u in units {
                let open = tr.open("core.run_unit");
                let out = run_unit(u, &obstacles, &config);
                let took = tr.close(open);
                if tr.on() && out.reports().iter().any(|r| r.via_msdtw) {
                    self.msdtw_unit_ms.push(took);
                }
                group.push(out);
            }
            outputs.push((*target, group));
        }
        for (target, group) in outputs {
            let (traces, runtime) = tr.span("core.apply", || apply_outputs(board, group));
            reports.push(GroupReport {
                target,
                traces,
                runtime,
            });
        }
        reports
    }

    /// Emits every per-layer metric. `untraced` and `traced` time the two
    /// halves of the traced run; `setups` is the number of set-ups traced.
    pub fn report(
        &self,
        tr: &Tracer,
        untraced: &Timing,
        traced: &Timing,
        setups: usize,
        steal_pct: f64,
        report: &mut Report,
    ) {
        let requests = traced.latency_ms.len().max(1) as f64;
        let per = |x: f64| x / requests;
        let setups = setups.max(1) as f64;
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        m.insert("layout.io.load_ms", tr.total_ms("layout.io.load") / setups);
        m.insert(
            "layout.validate_ms",
            tr.total_ms("layout.validate") / setups,
        );
        m.insert("layout.hash_ms", per(tr.total_ms("layout.hash")));
        m.insert("core.plan_ms", per(tr.total_ms("core.plan")));
        m.insert("core.unit_ms", per(tr.total_ms("core.run_unit")));
        m.insert(
            "core.unit_p50_ms",
            stats::median(&tr.durations_ms("core.run_unit")),
        );
        m.insert("core.units", per(tr.count("core.run_unit") as f64));
        m.insert("core.apply_ms", per(tr.total_ms("core.apply")));
        m.insert("core.extend_ms", per(tr.total_ms("core.extend")));
        m.insert("core.iterations", per(self.iterations as f64));
        m.insert("core.patterns", per(self.patterns as f64));
        m.insert("core.dp.hq_requested", per(self.dp.hq_requested as f64));
        m.insert("core.dp.hq_executed", per(self.dp.hq_executed as f64));
        m.insert(
            "core.dp.prune_ratio",
            self.dp.hq_pruned as f64 / (self.dp.hq_requested.max(1)) as f64,
        );
        m.insert("core.dp.points", per(self.dp.points_evaluated as f64));
        m.insert("msdtw.pair_unit_ms", stats::median(&self.msdtw_unit_ms));
        m.insert("drc.check_ms", per(tr.total_ms("drc.check")));
        m.insert("drc.violations", self.violations as f64);
        let f = &self.fleet;
        let fr = f.reports.max(1) as f64;
        m.insert("fleet.validate_ms", f.validate_ms / fr);
        m.insert("fleet.base_build_ms", f.base_build_ms / fr);
        m.insert("fleet.route_wall_ms", f.route_wall_ms / fr);
        m.insert(
            "fleet.unit_p50_ms",
            f.latency.quantile_upper(0.5).as_secs_f64() * 1e3,
        );
        m.insert(
            "fleet.unit_p99_ms",
            f.latency.quantile_upper(0.99).as_secs_f64() * 1e3,
        );
        m.insert(
            "fleet.busy_ratio",
            if f.worker_wall_ms > 0.0 {
                f.busy_ms / f.worker_wall_ms
            } else {
                0.0
            },
        );
        let s = &self.sched;
        m.insert(
            "fleet.sched.packets_batch",
            per(s.packets[Tier::Batch.index()] as f64),
        );
        m.insert(
            "fleet.sched.packets_interactive",
            per(s.packets[Tier::Interactive.index()] as f64),
        );
        m.insert("fleet.sched.parks", per(s.parks as f64));
        m.insert("fleet.sched.steals", per(s.steals as f64));
        m.insert("fleet.sched.preemptions", per(s.preemptions as f64));
        let c = &self.cache;
        m.insert("fleet.cache.hits", per(c.hits as f64));
        m.insert("fleet.cache.misses", per(c.misses as f64));
        m.insert(
            "fleet.cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        m.insert("fleet.cache.inserts", per(c.inserts as f64));
        m.insert("fleet.cache.invalidated", per(c.invalidated as f64));
        m.insert("fleet.cache.rekeyed", per(c.rekeyed as f64));
        m.insert("fleet.cache.bytes", self.cache_bytes as f64);
        let edits = tr.count("fleet.session.apply_edit").max(1) as f64;
        let reroutes = tr.count("fleet.session.reroute").max(1) as f64;
        m.insert(
            "fleet.session.apply_edit_ms",
            tr.total_ms("fleet.session.apply_edit") / edits,
        );
        m.insert(
            "fleet.session.reroute_ms",
            tr.total_ms("fleet.session.reroute") / reroutes,
        );
        m.insert("fleet.session.units_dirty", f.units_dirty as f64 / reroutes);
        m.insert(
            "fleet.session.skip_ratio",
            f.units_skipped as f64 / (f.units_dirty + f.units_skipped).max(1) as f64,
        );
        m.insert("fleet.session.cells_dirty", f.cells_dirty as f64 / reroutes);
        m.insert(
            "fleet.session.boards_replanned",
            f.boards_replanned as f64 / reroutes,
        );
        let ops = self.alloc_ops.2.max(1) as f64;
        m.insert("alloc.count_per_op", self.alloc_ops.0 as f64 / ops);
        m.insert("alloc.bytes_per_op", self.alloc_ops.1 as f64 / ops);
        let (u, t) = (untraced.ops_per_s(), traced.ops_per_s());
        m.insert("trace.untraced_ops_per_s", u);
        m.insert("trace.traced_ops_per_s", t);
        m.insert("trace.overhead_pct", 100.0 * (u - t) / u.max(1e-12));
        m.insert("trace.coverage_pct", tr.coverage_pct("request"));
        m.insert("host.steal_pct", steal_pct);
        m.insert("host.probe_ms", speed::kernel_ms().0);

        report.line(format!(
            "traced: {} requests, {:.3} ops/s traced vs {:.3} untraced ({:+.1} % overhead); spans cover {:.1} % of request time",
            traced.latency_ms.len(),
            t,
            u,
            100.0 * (u - t) / u.max(1e-12),
            tr.coverage_pct("request")
        ));
        for (name, n, self_ms) in tr.self_time_by_name() {
            report.line(format!("span {name:<28} n={n:<7} self {self_ms:>12.3} ms"));
        }
        for (name, unit) in METRICS {
            let v = m.get(name).copied().expect("every metric is computed");
            report.metric(name, v, unit);
        }
        debug_assert_eq!(m.len(), METRICS.len(), "no metric outside METRICS");
    }
}
