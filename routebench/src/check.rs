//! Output checks, computed apart from the program: lengths recomputed from
//! the output points, kept end points, no overshoot, and a DRC scan under
//! the board's own rules. Nothing here compares against a stored copy of an
//! earlier output.

use crate::report::Qor;
use meander_core::GroupReport;
use meander_drc::{check_layout_brute, CheckInput, TraceGeometry, Violation};
use meander_geom::Point;
use meander_layout::{Board, TraceId};

/// Relative slack for float comparisons of lengths summed in another order.
const REL: f64 = 1e-9;

/// Which DRC checker vouches for a routed board.
#[derive(Debug, Clone, Copy)]
pub enum Drc {
    /// `check_layout_brute`, the all-pairs reference scan.
    Brute,
    /// `Board::check`, the production (indexed) scan.
    Board,
}

/// Length of a centerline, summed here from its points.
pub fn length(points: &[Point]) -> f64 {
    points
        .windows(2)
        .map(|w| (w[1].x - w[0].x).hypot(w[1].y - w[0].y))
        .sum()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL * a.abs().max(b.abs()).max(1.0)
}

/// The DRC input of `board`, assembled as `Board::check` does.
pub fn drc_input(board: &Board) -> CheckInput {
    CheckInput {
        traces: board
            .traces()
            .map(|(id, t)| TraceGeometry {
                id: id.0,
                centerline: t.centerline().clone(),
                width: t.width(),
                rules: *t.rules(),
                area: board
                    .area(id)
                    .map(|a| a.polygons().to_vec())
                    .unwrap_or_default(),
                coupled_with: board
                    .pair_of(id)
                    .and_then(|p| p.partner(id))
                    .map(|pid| vec![pid.0])
                    .unwrap_or_default(),
            })
            .collect(),
        obstacles: board
            .obstacles()
            .iter()
            .map(|o| o.polygon().clone())
            .collect(),
    }
}

/// DRC-scans `board`; `Err` names the first violation and the count.
pub fn drc_clean(board: &Board, drc: Drc) -> Result<(), String> {
    let violations = match drc {
        Drc::Brute => check_layout_brute(&drc_input(board)),
        Drc::Board => board.check(),
    };
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("DRC: {v:?} ({} violation(s))", violations.len())),
    }
}

/// `Board::check` of `after`, less the violations `before` already has:
/// one with the same kind, traces and obstacle or segment, and no worse.
/// An edit can put an obstacle on a trace, and routing need not clear
/// what its input breaks; it must add nothing. `Err` names the first new
/// violation and the count.
pub fn drc_no_new(before: &Board, after: &Board) -> Result<(), String> {
    let old = before.check();
    let inherited = |v: &Violation| {
        old.iter().any(|o| match (o, v) {
            (
                Violation::TraceTraceClearance { a, b, actual, .. },
                Violation::TraceTraceClearance {
                    a: a2,
                    b: b2,
                    actual: x,
                    ..
                },
            ) => a == a2 && b == b2 && x >= actual,
            (
                Violation::TraceObstacleClearance {
                    trace,
                    obstacle,
                    actual,
                    ..
                },
                Violation::TraceObstacleClearance {
                    trace: t2,
                    obstacle: o2,
                    actual: x,
                    ..
                },
            ) => trace == t2 && obstacle == o2 && x >= actual,
            (
                Violation::ShortSegment {
                    trace,
                    segment,
                    actual,
                    ..
                },
                Violation::ShortSegment {
                    trace: t2,
                    segment: s2,
                    actual: x,
                    ..
                },
            ) => trace == t2 && segment == s2 && x >= actual,
            (Violation::SelfIntersection { trace }, Violation::SelfIntersection { trace: t2 })
            | (
                Violation::OutsideRoutableArea { trace, .. },
                Violation::OutsideRoutableArea { trace: t2, .. },
            ) => trace == t2,
            _ => false,
        })
    };
    let new: Vec<Violation> = after
        .check()
        .into_iter()
        .filter(|v| !inherited(v))
        .collect();
    match new.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "DRC: {v:?} ({} violation(s) the input does not have)",
            new.len()
        )),
    }
}

/// A digest of every trace's output points, to compare outputs bit for bit.
pub fn fingerprint(board: &Board) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, t) in board.traces() {
        id.0.hash(&mut h);
        for p in t.centerline().points() {
            p.x.to_bits().hash(&mut h);
            p.y.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Slack for end points recomputed by the router: a relative 1e-9.
fn same_point(a: Point, b: Point) -> bool {
    close(a.x, b.x) && close(a.y, b.y)
}

/// The end points of `id` must survive routing.
pub fn endpoints_kept(id: TraceId, before: &[Point], after: &[Point]) -> Result<(), String> {
    for (end, b, a) in [
        ("first", before.first(), after.first()),
        ("last", before.last(), after.last()),
    ] {
        match (b, a) {
            (Some(&b), Some(&a)) if same_point(a, b) => {}
            (Some(&b), Some(&a)) => {
                return Err(format!(
                    "trace {}: {end} vertex moved by ({:.4}, {:.4})",
                    id.0,
                    a.x - b.x,
                    a.y - b.y
                ))
            }
            _ => return Err(format!("trace {}: empty centerline", id.0)),
        }
    }
    Ok(())
}

/// Checks one routed board against its input and the reports the program
/// returned for it, adds its traces to `qor`, and returns every problem
/// found (none when the board passes).
///
/// * Each group's target is re-resolved from the input lengths.
/// * Every member has a report whose `achieved` equals the length summed
///   from the output points.
/// * End points are kept.
/// * No single-ended trace, and no pair by the mean of its P/N lengths,
///   exceeds the target.
///
/// The DRC scan is the caller's ([`drc_clean`]), so that it can be timed.
pub fn routed_board(
    before: &Board,
    after: &Board,
    reports: &[GroupReport],
    qor: &mut Qor,
) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.len() != before.groups().len() {
        problems.push(format!(
            "{} group reports for {} groups",
            reports.len(),
            before.groups().len()
        ));
        return problems;
    }
    for (gi, (group, report)) in before.groups().iter().zip(reports).enumerate() {
        let target = group.resolve_target(&before.group_lengths(group));
        if !close(target, report.target) {
            problems.push(format!(
                "group {gi}: reported target {} but the input resolves {target}",
                report.target
            ));
        }
        if report.traces.len() != group.members().len() {
            problems.push(format!(
                "group {gi}: {} trace reports for {} members",
                report.traces.len(),
                group.members().len()
            ));
        }
        let out_len = |id: TraceId| -> Option<f64> {
            after.trace(id).map(|t| length(t.centerline().points()))
        };
        for t in &report.traces {
            let (Some(b), Some(l)) = (before.trace(t.id), out_len(t.id)) else {
                problems.push(format!("group {gi}: trace {} missing", t.id.0));
                continue;
            };
            let a = after.trace(t.id).expect("measured above");
            if let Err(e) = endpoints_kept(t.id, b.centerline().points(), a.centerline().points()) {
                problems.push(e);
            }
            if !close(l, t.achieved) {
                problems.push(format!(
                    "trace {}: reported length {} but the output measures {l}",
                    t.id.0, t.achieved
                ));
            }
            qor.error(target, l);
            let l0 = length(b.centerline().points());
            if l > l0 {
                qor.extension(l0, l);
            }
            let pair = after.pair_of(t.id).filter(|p| {
                p.partner(t.id)
                    .is_some_and(|n| group.members().contains(&n))
            });
            let over = match pair {
                // Each pair is checked once, from its P side.
                Some(p) if p.p() == t.id => (l + out_len(p.n()).unwrap_or(l)) / 2.0,
                Some(_) => continue,
                None => l,
            };
            if over > target * (1.0 + REL) {
                let what = if pair.is_some() {
                    "pair mean"
                } else {
                    "length"
                };
                problems.push(format!(
                    "trace {}: {what} {over} overshoots target {target}",
                    t.id.0
                ));
            }
        }
    }
    problems
}

/// Joins a board's check problems and its DRC verdict into one result.
pub fn verdict(mut problems: Vec<String>, drc: Result<(), String>) -> Result<(), String> {
    if let Err(e) = drc {
        problems.push(e);
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}
