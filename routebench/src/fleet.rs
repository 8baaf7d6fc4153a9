//! `fleet`: batch intake. One request is one `route_fleet` call on the
//! host's workers over [`BOARDS`] distinct boards that share one obstacle
//! library (`fleet_boards`, a fresh per-board seed per request). A
//! `ResultCache` is attached to every request but starts empty, so every
//! unit packet misses and inserts. One operation is one board.

use crate::check;
use crate::layers::Layers;
use crate::report::{Qor, Report, Timing};
use crate::runner::{self, Ctx, Outcome};
use crate::spans::Tracer;
use meander_core::{match_all_groups, ExtendConfig};
use meander_fleet::{route_fleet, BoardSet, FleetConfig, FleetReport, ResultCache, Scheduler};
use meander_layout::gen::fleet_boards;
use meander_layout::{LibraryBoard, ObstacleLibrary};
use std::sync::Arc;
use std::time::Duration;

/// Boards per request.
const BOARDS: usize = 16;
/// Seed of the shared obstacle library, the same in every run.
const LIBRARY_SEED: u64 = 21;
/// The first requests of every run route the same boards, whatever the
/// seed, and the QoR covers exactly those: QoR then repeats exactly from
/// run to run, while the later requests bring fresh boards from the seed.
const QOR_REQUESTS: usize = 8;
const QOR_SEED: u64 = 42;

/// Routes one batch against a fresh cache.
fn route(
    boards: &[LibraryBoard],
    workers: usize,
    sched: &Arc<Scheduler>,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (BoardSet, FleetReport, Duration) {
    let cache = Arc::new(ResultCache::default());
    let cfg = FleetConfig {
        workers: Some(workers),
        sched: Some(Arc::clone(sched)),
        cache: Some(Arc::clone(&cache)),
        ..FleetConfig::default()
    };
    let mut set = BoardSet::new(boards.to_vec());
    let ((set, report), took) = runner::request(tr, layers, boards.len() as u64, |tr, _| {
        let report = tr.span("fleet.route_fleet", || route_fleet(&mut set, &cfg));
        (set, report)
    });
    if tr.on() {
        layers.fleet.add(&report.stats);
        layers.add_sched(&report.stats.sched);
        layers.add_cache(&Default::default(), &cache.stats());
        layers.cache_bytes = cache.bytes();
    }
    (set, report, took)
}

/// Checks every board of a routed batch; the board at `sample` is also
/// routed again by sequential `match_all_groups` on its standalone twin,
/// which must agree bit for bit. Returns one verdict per board.
fn check_batch(
    input: &[LibraryBoard],
    set: &BoardSet,
    report: &FleetReport,
    sample: usize,
    qor: &mut Qor,
) -> Vec<Result<(), String>> {
    input
        .iter()
        .zip(set.boards())
        .enumerate()
        .map(|(b, (before, after))| {
            if !report.outcomes[b].is_routed() {
                return Err(format!("board {b}: {:?}", report.outcomes[b]));
            }
            let (before, after) = (before.to_board(), after.to_board());
            let mut problems = check::routed_board(&before, &after, &report.reports[b], qor);
            if b == sample {
                let mut twin = before.clone();
                let sequential = ExtendConfig {
                    parallel: false,
                    ..ExtendConfig::default()
                };
                let want = match_all_groups(&mut twin, &sequential);
                let same_reports = want.len() == report.reports[b].len()
                    && want.iter().zip(&report.reports[b]).all(|(w, g)| {
                        w.traces.len() == g.traces.len()
                            && w.traces.iter().zip(&g.traces).all(|(x, y)| {
                                x.id == y.id && x.achieved.to_bits() == y.achieved.to_bits()
                            })
                    });
                if check::fingerprint(&twin) != check::fingerprint(&after) || !same_reports {
                    problems.push(format!(
                        "board {b}: differs from sequential match_all_groups"
                    ));
                }
            }
            check::verdict(problems, check::drc_clean(&after, check::Drc::Board))
                .map_err(|e| format!("board {b}: {e}"))
        })
        .collect()
}

/// Request `r`'s boards, bound to the shared library.
fn batch(library: &Arc<ObstacleLibrary>, library_seed: u64, seed: u64) -> Vec<LibraryBoard> {
    fleet_boards(BOARDS, library_seed, seed)
        .boards
        .into_iter()
        .map(|mut lb| {
            lb.set_library(Arc::clone(library));
            lb
        })
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, layers: &mut Layers, report: &mut Report) -> Outcome {
    let library_seed = LIBRARY_SEED;
    let first = fleet_boards(BOARDS, library_seed, runner::mix(ctx.seed, 1));
    let (lib_text, texts) = runner::save_fleet(&first.library, &first.boards);
    for text in std::iter::once(&lib_text).chain(&texts) {
        if let Err(e) = runner::round_trips(text) {
            report.problem(e);
        }
    }
    let workers = ctx.workers;
    let (setups, (library, sched)) = runner::set_up(tr, report, |tr, report| {
        let (library, boards) =
            runner::load_fleet(tr, &lib_text, &texts).expect("generated fleets load and validate");
        let sched = Arc::new(Scheduler::new(workers));
        // Warm-up: one untimed request over the loaded boards, checked.
        let mut off = Tracer::new(false);
        let (set, rep, _) = route(&boards, workers, &sched, &mut off, &mut Layers::default());
        for v in check_batch(&boards, &set, &rep, 0, &mut Qor::default()) {
            if let Err(e) = v {
                report.problem(format!("warm-up: {e}"));
            }
        }
        (library, sched)
    });
    report.line(format!(
        "fleet: {BOARDS} boards per request over a {}-obstacle library",
        library.len()
    ));

    let mut qor = Qor::default();
    let mut round = |r: usize,
                     tr: &mut Tracer,
                     layers: &mut Layers,
                     timing: &mut Timing,
                     report: &mut Report| {
        let seed = if r < QOR_REQUESTS { QOR_SEED } else { ctx.seed };
        let boards = batch(&library, library_seed, runner::mix(seed, r as u64 + 2));
        let (set, rep, took) = route(&boards, workers, &sched, tr, layers);
        timing.record(took, BOARDS as u64);
        report.attempted += BOARDS as u64;
        let mut q = Qor::default();
        for v in check_batch(&boards, &set, &rep, r % BOARDS, &mut q) {
            if let Err(e) = v {
                report.fail(e);
            }
        }
        if r < QOR_REQUESTS {
            qor.merge(&q);
        }
        if !tr.on() && rep.stats.cache_hits != 0 {
            report.problem(format!(
                "request {r}: {} cache hits on distinct boards",
                rep.stats.cache_hits
            ));
        }
    };
    let timings = runner::drive(ctx, tr, layers, report, QOR_REQUESTS.max(40), &mut round);
    Outcome {
        setups,
        timings,
        qor,
    }
}
