//! `dense`: single boards with thousands of obstacles, routed with
//! `match_all_groups`. A round routes three boards, each drawn from the
//! seed: `stress_board(16, 40, 300)`, `stress_mixed_board(12, 30, 200)` and
//! `stress_mixed_board(12, 30, 2000)` (about 24k obstacles). One operation
//! and one request are one board.

use crate::check;
use crate::layers::Layers;
use crate::report::{Qor, Report, Timing};
use crate::runner::{self, Ctx, Outcome};
use crate::spans::Tracer;
use meander_core::{match_all_groups, ExtendConfig, GroupReport};
use meander_layout::gen::{stress_board, stress_mixed_board};
use meander_layout::Board;

/// Routes one board: one `match_all_groups` call, or in the traced run its
/// public parts on this thread.
fn route(board: &Board, tr: &mut Tracer, layers: &mut Layers) -> (Board, Vec<GroupReport>) {
    let mut out = board.clone();
    let reports = if tr.parts() {
        layers.match_all_groups(tr, &mut out)
    } else {
        match_all_groups(&mut out, &ExtendConfig::default())
    };
    (out, reports)
}

/// Checks one routed board; the DRC scan runs in a `drc.check` span.
fn check(
    before: &Board,
    after: &Board,
    reports: &[GroupReport],
    tr: &mut Tracer,
    layers: &mut Layers,
    qor: &mut Qor,
) -> Result<(), String> {
    let problems = check::routed_board(before, after, reports, qor);
    let violations = tr.span("drc.check", || after.check());
    layers.violations += violations.len() as u64;
    let drc = match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("DRC: {v:?} ({} violation(s))", violations.len())),
    };
    check::verdict(problems, drc)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, layers: &mut Layers, report: &mut Report) -> Outcome {
    let labels = ["stress:16x40x300", "mixed:12x30x200", "mixed:12x30x2000"];
    let s = |k| runner::mix(ctx.seed, k);
    let texts = vec![
        runner::save(&stress_board(16, 40, 300, s(1)).board),
        runner::save(&stress_mixed_board(12, 30, 200, s(2)).board),
        runner::save(&stress_mixed_board(12, 30, 2000, s(3)).board),
    ];
    for (label, text) in labels.iter().zip(&texts) {
        if let Err(e) = runner::round_trips(text) {
            report.problem(format!("{label}: {e}"));
        }
    }
    let (setups, boards) = runner::set_up(tr, report, |tr, report| {
        let boards: Vec<Board> = texts
            .iter()
            .map(|t| runner::load_valid(tr, t).expect("generated boards load and validate"))
            .collect();
        // Warm-up: one untimed request, checked.
        let mut off = Tracer::new(false);
        let (out, reports) = route(&boards[0], &mut off, &mut Layers::default());
        if let Err(e) = check(
            &boards[0],
            &out,
            &reports,
            &mut off,
            &mut Layers::default(),
            &mut Qor::default(),
        ) {
            report.problem(format!("warm-up {}: {e}", labels[0]));
        }
        boards
    });
    for (label, b) in labels.iter().zip(&boards) {
        report.line(format!("{label}: {b}"));
    }

    // QoR comes from the first round; later rounds must repeat it.
    let mut qor = Qor::default();
    let mut firsts: Vec<Option<u64>> = vec![None; boards.len()];
    let mut round = |r: usize,
                     tr: &mut Tracer,
                     layers: &mut Layers,
                     timing: &mut Timing,
                     report: &mut Report| {
        for (i, board) in boards.iter().enumerate() {
            let ((out, reports), took) =
                runner::request(tr, layers, 1, |tr, layers| route(board, tr, layers));
            timing.record(took, 1);
            report.attempted += 1;
            let mut q = Qor::default();
            if let Err(e) = check(board, &out, &reports, tr, layers, &mut q) {
                report.fail(format!("{}: {e}", labels[i]));
            }
            let fingerprint = check::fingerprint(&out);
            if r == 0 {
                qor.merge(&q);
                firsts[i] = Some(fingerprint);
            } else if firsts[i].as_ref() != Some(&fingerprint) {
                report.problem(format!("{}: output differs between rounds", labels[i]));
            }
        }
    };
    let timings = runner::drive(ctx, tr, layers, report, 14, &mut round);
    Outcome {
        setups,
        timings,
        qor,
    }
}
