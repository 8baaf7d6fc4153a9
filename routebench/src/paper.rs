//! `paper`: the paper's own evaluation inputs. One round routes Table I
//! cases 1–5 (`match_all_groups`, default `ExtendConfig`) and runs the
//! Table II cases 1–6 upper-bound hunt (`extend_trace`, target 50× the
//! original length, 2000 iterations), in a seed-determined order. One
//! operation is one case; one request is its single call.

use crate::check::{self, Drc};
use crate::layers::Layers;
use crate::report::{Qor, Report, Timing};
use crate::runner::{self, Ctx, Outcome};
use crate::spans::Tracer;
use meander_core::baseline::{extend_trace_fixed, match_group_aidt, FixedTrackOptions};
use meander_core::extend::ExtendInput;
use meander_core::{extend_trace, match_all_groups, ExtendConfig, ExtendOutcome, GroupReport};
use meander_geom::Polygon;
use meander_layout::gen::{table1_case, table2_case};
use meander_layout::{Board, TraceId};

enum Kind {
    Table1,
    Table2 {
        trace: TraceId,
        area: Vec<Polygon>,
        obstacles: Vec<Polygon>,
    },
}

struct Case {
    label: String,
    board: Board,
    kind: Kind,
}

enum Output {
    Table1(Board, Vec<GroupReport>),
    Table2(ExtendOutcome),
}

fn table2_config() -> ExtendConfig {
    ExtendConfig {
        // The upper-bound hunt lets the queue run long.
        max_iterations: 2000,
        ..ExtendConfig::default()
    }
}

/// The Table II input, with its 50× target, and the original length.
fn table2_input<'a>(
    board: &'a Board,
    trace: TraceId,
    area: &'a [Polygon],
    obstacles: &'a [Polygon],
) -> (ExtendInput<'a>, f64) {
    let t = board.trace(trace).expect("table2 trace");
    let l0 = t.length();
    let input = ExtendInput {
        trace: t.centerline(),
        target: 50.0 * l0,
        rules: t.rules(),
        area,
        obstacles,
    };
    (input, l0)
}

impl Case {
    /// Makes the case's call. In the traced run, Table I is issued as its
    /// public parts on this thread.
    fn execute(&self, tr: &mut Tracer, layers: &mut Layers) -> Output {
        match &self.kind {
            Kind::Table1 => {
                let mut out = self.board.clone();
                let reports = if tr.parts() {
                    layers.match_all_groups(tr, &mut out)
                } else {
                    match_all_groups(&mut out, &ExtendConfig::default())
                };
                Output::Table1(out, reports)
            }
            Kind::Table2 {
                trace,
                area,
                obstacles,
            } => {
                let (input, _) = table2_input(&self.board, *trace, area, obstacles);
                let config = table2_config();
                let out = tr.span("core.extend", || extend_trace(&input, &config));
                if tr.on() {
                    layers.extend(&out);
                }
                Output::Table2(out)
            }
        }
    }

    /// Checks one output; Table I traces go to `qor`.
    fn check(&self, out: &Output, qor: &mut Qor) -> Checked {
        match (&self.kind, out) {
            (Kind::Table1, Output::Table1(after, reports)) => {
                let mut q = Qor::default();
                let problems = check::routed_board(&self.board, after, reports, &mut q);
                qor.merge_errors(&q);
                Checked {
                    figure: q.max_err_pct(),
                    fingerprint: check::fingerprint(after),
                    verdict: check::verdict(problems, check::drc_clean(after, Drc::Brute)),
                }
            }
            (
                Kind::Table2 {
                    trace,
                    area,
                    obstacles,
                },
                Output::Table2(o),
            ) => {
                let (input, l0) = table2_input(&self.board, *trace, area, obstacles);
                let l = check::length(o.trace.points());
                let mut problems = Vec::new();
                if (l - o.achieved).abs() > 1e-9 * l.max(1.0) {
                    problems.push(format!(
                        "reported length {} but the output measures {l}",
                        o.achieved
                    ));
                }
                if let Err(e) =
                    check::endpoints_kept(*trace, input.trace.points(), o.trace.points())
                {
                    problems.push(e);
                }
                if l > input.target {
                    problems.push("overshoots the 50x target".to_string());
                }
                let mut after = self.board.clone();
                after
                    .trace_mut(*trace)
                    .expect("table2 trace")
                    .set_centerline(o.trace.clone());
                Checked {
                    figure: 100.0 * (l - l0) / l0,
                    fingerprint: check::fingerprint(&after),
                    verdict: check::verdict(problems, check::drc_clean(&after, Drc::Brute)),
                }
            }
            _ => unreachable!("outputs match their cases"),
        }
    }
}

/// A checked case: its headline figure (Table I max error or Table II
/// extension, %), a digest of its output, and the verdict.
struct Checked {
    figure: f64,
    fingerprint: u64,
    verdict: Result<(), String>,
}

/// Max Eq. 19 error (%) of group 0, from the board's trace lengths.
fn group0_max_err(board: &Board) -> f64 {
    let g = &board.groups()[0];
    let lengths = board.group_lengths(g);
    let target = g.resolve_target(&lengths);
    lengths
        .iter()
        .map(|l| 100.0 * (target - l).abs() / target)
        .fold(0.0, f64::max)
}

/// The paper's shapes, checked once per run outside timing: on Table I max
/// error, ours < AiDT-like baseline < initial; on Table II, DP extends
/// further than fixed tracks. `ours` holds each case's first-round figure.
fn shapes(cases: &[Case], ours: &[Option<f64>], report: &mut Report) {
    for (case, ours) in cases.iter().zip(ours) {
        let ours = ours.unwrap_or(f64::NAN);
        let label = &case.label;
        match &case.kind {
            Kind::Table1 => {
                let initial = group0_max_err(&case.board);
                let mut base = case.board.clone();
                let _ = match_group_aidt(&mut base, 0, &ExtendConfig::default());
                let baseline = group0_max_err(&base);
                report.line(format!(
                    "{label} max err: ours {ours:.2} % < aidt-like {baseline:.2} % < initial {initial:.2} %"
                ));
                if !(ours < baseline && baseline < initial) {
                    report.problem(format!("{label}: Table I max-error shape broken"));
                }
            }
            Kind::Table2 {
                trace,
                area,
                obstacles,
            } => {
                let (input, l0) = table2_input(&case.board, *trace, area, obstacles);
                let fixed =
                    extend_trace_fixed(&input, &table2_config(), &FixedTrackOptions::default());
                let fixed = 100.0 * (fixed.achieved - l0) / l0;
                report.line(format!(
                    "{label} extension: dp {ours:.1} % > fixed-track {fixed:.1} %"
                ));
                if ours.partial_cmp(&fixed) != Some(std::cmp::Ordering::Greater) {
                    report.problem(format!("{label}: DP does not extend beyond fixed tracks"));
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, layers: &mut Layers, report: &mut Report) -> Outcome {
    // Inputs: the paper's cases as saved text. They do not depend on the
    // seed; the seed sets the order of the cases in a round.
    let mut texts: Vec<(String, String, Option<TraceId>)> = Vec::new();
    for no in 1..=5 {
        let board = table1_case(no).board;
        texts.push((format!("table1:{no}"), runner::save(&board), None));
    }
    for no in 1..=6 {
        let c = table2_case(no);
        texts.push((
            format!("table2:{no}"),
            runner::save(&c.board),
            Some(c.trace),
        ));
    }
    for (label, text, _) in &texts {
        if let Err(e) = runner::round_trips(text) {
            report.problem(format!("{label}: {e}"));
        }
    }
    let order = runner::permutation(texts.len(), runner::mix(ctx.seed, 0));

    let (setups, cases) = runner::set_up(tr, report, |tr, report| {
        let cases: Vec<Case> = texts
            .iter()
            .map(|(label, text, trace)| {
                let board =
                    runner::load_valid(tr, text).expect("generated boards load and validate");
                let kind = match trace {
                    None => Kind::Table1,
                    Some(trace) => Kind::Table2 {
                        trace: *trace,
                        area: board
                            .area(*trace)
                            .map(|a| a.polygons().to_vec())
                            .unwrap_or_default(),
                        obstacles: meander_core::gather_obstacles(&board),
                    },
                };
                Case {
                    label: label.clone(),
                    board,
                    kind,
                }
            })
            .collect();
        // Warm-up: one untimed request, checked. It is the same case in
        // every run, so that set-up does the same work whatever the seed.
        let first = &cases[0];
        let out = first.execute(&mut Tracer::new(false), &mut Layers::default());
        if let Err(e) = first.check(&out, &mut Qor::default()).verdict {
            report.problem(format!("warm-up {}: {e}", first.label));
        }
        cases
    });

    // Table I QoR and each case's headline figure come from the first
    // round; the router is deterministic, which later rounds confirm.
    let mut qor = Qor::default();
    let mut ours: Vec<Option<f64>> = vec![None; cases.len()];
    let mut firsts: Vec<Option<u64>> = vec![None; cases.len()];
    let mut round = |r: usize,
                     tr: &mut Tracer,
                     layers: &mut Layers,
                     timing: &mut Timing,
                     report: &mut Report| {
        for &i in &order {
            let case = &cases[i];
            let (out, took) = runner::request(tr, layers, 1, |tr, layers| case.execute(tr, layers));
            timing.record(took, 1);
            report.attempted += 1;
            let mut q = Qor::default();
            let checked = case.check(&out, &mut q);
            if r == 0 {
                qor.merge_errors(&q);
                ours[i] = Some(checked.figure);
                firsts[i] = Some(checked.fingerprint);
            } else if firsts[i] != Some(checked.fingerprint) {
                report.problem(format!("{}: output differs between rounds", case.label));
            }
            if let Err(e) = checked.verdict {
                report.fail(format!("{}: {e}", case.label));
            }
        }
    };
    let timings = runner::drive(ctx, tr, layers, report, 4, &mut round);

    shapes(&cases, &ours, report);
    for (case, v) in cases.iter().zip(&ours) {
        if matches!(case.kind, Kind::Table2 { .. }) {
            qor.extension_pct(v.unwrap_or(0.0));
        }
    }
    Outcome {
        setups,
        timings,
        qor,
    }
}
