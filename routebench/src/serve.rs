//! `serve`: one long-lived `FleetSession` over a duplicate-heavy fleet
//! (`dup_fleet_boards`, dup rate 0.9) with a `ResultCache` attached, on
//! the host's workers. One client sends two kinds of request:
//!
//! * an edit from `edit_stream`, sent as `apply_edit` followed by
//!   `reroute_dirty`;
//! * an intake of already-served boards: `route_fleet` of a slice of
//!   `pristine_boards()` against the warm cache.
//!
//! One operation is one request. A round sends the [`EDITS`] edits of one
//! fixed stream, each followed by two intakes, to a session that starts
//! from the initial route: every round then does the same work, and an
//! edit that trips a router fault fails in every round of every run.

use crate::check;
use crate::layers::Layers;
use crate::report::{Qor, Report, Timing};
use crate::runner::{self, Ctx, Outcome};
use crate::spans::Tracer;
use meander_fleet::{
    board_keys, route_fleet, BoardSet, Edit, FleetConfig, FleetReport, FleetSession, ResultCache,
    Scheduler,
};
use meander_layout::gen::{dup_fleet_boards, edit_stream, FleetCase};
use meander_layout::{EditScope, LibraryBoard};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Boards in the served fleet.
const BOARDS: usize = 256;
/// Share of boards that duplicate an earlier one.
const DUP_RATE: f64 = 0.9;
/// Seed of the served fleet. The fleet is the same in every run, so that
/// QoR, which covers its initial route, repeats exactly.
const FLEET_SEED: u64 = 33;
/// Seed of the edit stream, the same in every run, so that the edits that
/// trip a router fault are the same in every run; the run's seed sets
/// where intake starts.
const EDIT_SEED: u64 = 1;
/// Boards per intake request.
const INTAKE: usize = 128;
/// Edits per round. Each edit is followed by two intakes, so that the
/// median request is an intake, not the boundary between two request
/// kinds.
const EDITS: usize = 32;

struct State {
    case: FleetCase,
    session: FleetSession,
    /// `session.pristine_boards()`, fetched again after every edit.
    pristine: Vec<LibraryBoard>,
    /// Fingerprints of the served boards of the initial route.
    initial: Vec<u64>,
    /// Boards whose served output failed its check after an earlier edit
    /// of this round, and has not passed since: a later library edit does
    /// not fail again for them.
    broken: BTreeSet<usize>,
    cache: Arc<ResultCache>,
    sched: Arc<Scheduler>,
    config: FleetConfig,
}

/// Checks served board `b` against its pristine input and the report. An
/// edit can leave the input breaking a rule, so the DRC check asks only
/// that routing adds no violation.
fn check_served(
    pristine: &LibraryBoard,
    served: &LibraryBoard,
    report: &FleetReport,
    b: usize,
    qor: &mut Qor,
) -> Result<(), String> {
    if !report.outcomes[b].is_routed() {
        return Err(format!("board {b}: {:?}", report.outcomes[b]));
    }
    let (before, after) = (pristine.to_board(), served.to_board());
    let problems = check::routed_board(&before, &after, &report.reports[b], qor);
    check::verdict(problems, check::drc_no_new(&before, &after))
        .map_err(|e| format!("board {b}: {e}"))
}

impl State {
    /// A session over `case` with a fresh cache, routed from scratch.
    fn new(case: FleetCase, sched: &Arc<Scheduler>, workers: usize) -> State {
        let cache = Arc::new(ResultCache::default());
        let config = FleetConfig {
            workers: Some(workers),
            sched: Some(Arc::clone(sched)),
            cache: Some(Arc::clone(&cache)),
            ..FleetConfig::default()
        };
        let session = FleetSession::new(BoardSet::new(case.boards.clone()), &config);
        State {
            case,
            pristine: session.pristine_boards(),
            initial: served_fingerprints(&session),
            broken: BTreeSet::new(),
            session,
            cache,
            sched: Arc::clone(sched),
            config,
        }
    }

    /// Starts the session again from the initial route, with a fresh
    /// cache. Not timed.
    fn restart(&mut self) -> Result<(), String> {
        let case = FleetCase {
            library: Arc::clone(&self.case.library),
            boards: std::mem::take(&mut self.case.boards),
        };
        let workers = self.config.workers.unwrap_or(1);
        let initial = std::mem::take(&mut self.initial);
        let sched = Arc::clone(&self.sched);
        *self = State::new(case, &sched, workers);
        if self.initial != initial {
            return Err("the initial route differs between rounds".to_string());
        }
        Ok(())
    }

    /// One edit request, `apply_edit` then `reroute_dirty`. Checks the
    /// edited board, or every board after a library edit; the edit fails
    /// if a board fails that had not already failed.
    fn edit(
        &mut self,
        edit: Edit,
        tr: &mut Tracer,
        layers: &mut Layers,
        timing: &mut Timing,
    ) -> Result<(), String> {
        let label = edit.to_string();
        let scope = edit.scope();
        let (cache0, sched0) = (self.cache.stats(), self.sched.counters());
        let (rep, took) = runner::request(tr, layers, 1, |tr, _| {
            let _damage = tr.span("fleet.session.apply_edit", || self.session.apply_edit(edit));
            tr.span("fleet.session.reroute", || {
                self.session.reroute_dirty(&self.config)
            })
        });
        timing.record(took, 1);
        if tr.on() {
            layers.fleet.add(&rep.stats);
            layers.add_sched(&self.sched.counters().delta_since(&sched0));
            layers.add_cache(&cache0, &self.cache.stats());
        }
        self.pristine = self.session.pristine_boards();
        if !rep.all_routed() {
            let bad = rep
                .outcomes
                .iter()
                .position(|o| !o.is_routed())
                .unwrap_or(0);
            return Err(format!("{label}: board {bad}: {:?}", rep.outcomes[bad]));
        }
        let boards: Vec<usize> = match scope {
            EditScope::Board(b) => vec![b % BOARDS],
            EditScope::Library(_) => (0..BOARDS).collect(),
        };
        let served = self.session.boards().boards();
        let mut failed = Vec::new();
        for b in boards {
            match check_served(&self.pristine[b], &served[b], &rep, b, &mut Qor::default()) {
                Ok(()) => {
                    self.broken.remove(&b);
                }
                Err(e) => {
                    if self.broken.insert(b) {
                        failed.push(e);
                    }
                }
            }
        }
        match failed.first() {
            None => Ok(()),
            Some(e) => Err(format!("{label}: {e} ({} board(s) failed)", failed.len())),
        }
    }

    /// One intake request: `route_fleet` of `boards` against the warm
    /// cache.
    fn intake(
        &mut self,
        boards: Vec<LibraryBoard>,
        tr: &mut Tracer,
        layers: &mut Layers,
        timing: &mut Timing,
    ) -> (BoardSet, FleetReport) {
        let mut set = BoardSet::new(boards);
        // Traced: the content hashes `route_fleet` keys the cache with,
        // computed again on their own before the request, so that the
        // traced request does the same work as an untraced one.
        if tr.on() {
            tr.span("layout.hash", || {
                for lb in set.boards() {
                    std::hint::black_box(board_keys(lb, &self.config.extend));
                }
            });
        }
        let (cache0, sched0) = (self.cache.stats(), self.sched.counters());
        let (rep, took) = runner::request(tr, layers, 1, |tr, _| {
            tr.span("fleet.route_fleet", || route_fleet(&mut set, &self.config))
        });
        timing.record(took, 1);
        if tr.on() {
            layers.fleet.add(&rep.stats);
            layers.add_sched(&self.sched.counters().delta_since(&sched0));
            layers.add_cache(&cache0, &self.cache.stats());
        }
        (set, rep)
    }

    /// An intake of the [`INTAKE`] served boards from `first` on
    /// (cyclically). Its output must replay the served geometry and
    /// reports, which were checked when the session routed them.
    fn served_intake(
        &mut self,
        first: usize,
        tr: &mut Tracer,
        layers: &mut Layers,
        timing: &mut Timing,
    ) -> Result<(), String> {
        let boards: Vec<LibraryBoard> = (0..INTAKE)
            .map(|i| self.pristine[(first + i) % BOARDS].clone())
            .collect();
        let (set, rep) = self.intake(boards, tr, layers, timing);
        let served = self.session.boards().boards();
        let served_reports = self.session.report().reports;
        for i in 0..INTAKE {
            let b = (first + i) % BOARDS;
            if !rep.outcomes[i].is_routed() {
                return Err(format!("intake of board {b}: {:?}", rep.outcomes[i]));
            }
            let same_reports = rep.reports[i].len() == served_reports[b].len()
                && rep.reports[i].iter().zip(&served_reports[b]).all(|(x, y)| {
                    x.traces.len() == y.traces.len()
                        && x.traces.iter().zip(&y.traces).all(|(p, q)| {
                            p.id == q.id && p.achieved.to_bits() == q.achieved.to_bits()
                        })
                });
            if !same_reports
                || check::fingerprint(set.boards()[i].board())
                    != check::fingerprint(served[b].board())
            {
                return Err(format!(
                    "intake of board {b} does not replay the served geometry"
                ));
            }
        }
        Ok(())
    }
}

/// Fingerprints of the boards `session` serves.
fn served_fingerprints(session: &FleetSession) -> Vec<u64> {
    session
        .boards()
        .boards()
        .iter()
        .map(|lb| check::fingerprint(lb.board()))
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, layers: &mut Layers, report: &mut Report) -> Outcome {
    let generated = dup_fleet_boards(BOARDS, DUP_RATE, FLEET_SEED);
    let (lib_text, texts) = runner::save_fleet(&generated.library, &generated.boards);
    for text in std::iter::once(&lib_text).chain(&texts) {
        if let Err(e) = runner::round_trips(text) {
            report.problem(e);
        }
    }
    drop(generated);
    let workers = ctx.workers;
    let (setups, mut state) = runner::set_up(tr, report, |tr, report| {
        let (library, boards) =
            runner::load_fleet(tr, &lib_text, &texts).expect("generated fleets load and validate");
        let sched = Arc::new(Scheduler::new(workers));
        let mut state = State::new(FleetCase { library, boards }, &sched, workers);
        // Warm-up: one untimed intake request, checked. Intake leaves the
        // session as it was.
        let mut off = Tracer::new(false);
        if let Err(e) =
            state.served_intake(0, &mut off, &mut Layers::default(), &mut Timing::default())
        {
            report.problem(format!("warm-up: {e}"));
        }
        state
    });
    report.line(format!(
        "serve: {BOARDS} boards at dup rate {DUP_RATE}, {INTAKE} boards per intake, cache {} entries / {} B after set-up",
        state.cache.len(),
        state.cache.bytes()
    ));

    // QoR covers the initial served state, which is the same in every run;
    // every board of it is checked.
    let mut qor = Qor::default();
    let initial = state.session.report();
    for (b, (p, s)) in state
        .pristine
        .iter()
        .zip(state.session.boards().boards())
        .enumerate()
    {
        if let Err(e) = check_served(p, s, &initial, b, &mut qor) {
            report.problem(format!("initial route: {e}"));
        }
    }

    let edits = edit_stream(&state.case, EDIT_SEED, EDITS);
    for e in &edits {
        report.line(format!("edit: {e}"));
    }
    let intake0 = (runner::mix(ctx.seed, 2) % BOARDS as u64) as usize;
    let mut next_intake = 0;
    let mut round = |r: usize,
                     tr: &mut Tracer,
                     layers: &mut Layers,
                     timing: &mut Timing,
                     report: &mut Report| {
        if r > 0 {
            if let Err(e) = state.restart() {
                report.problem(e);
            }
        }
        for edit in &edits {
            report.attempted += 3;
            if let Err(e) = state.edit(edit.clone(), tr, layers, timing) {
                report.fail(e);
            }
            for _ in 0..2 {
                let first = intake0 + next_intake;
                next_intake += INTAKE;
                if let Err(e) = state.served_intake(first, tr, layers, timing) {
                    report.fail(e);
                }
            }
        }
    };
    let timings = runner::drive(ctx, tr, layers, report, 1, &mut round);
    layers.cache_bytes = state.cache.bytes();

    // The served state must equal an uncached from-scratch route of the
    // edited fleet.
    let mut fresh = BoardSet::new(state.session.pristine_boards());
    let want = route_fleet(
        &mut fresh,
        &FleetConfig {
            workers: Some(workers),
            ..FleetConfig::default()
        },
    );
    let served = state.session.boards().boards();
    let differ = (0..BOARDS)
        .filter(|&b| {
            !want.outcomes[b].is_routed()
                || check::fingerprint(fresh.boards()[b].board())
                    != check::fingerprint(served[b].board())
        })
        .count();
    if differ > 0 {
        report.problem(format!(
            "{differ} served boards differ from a from-scratch route of the edited fleet"
        ));
    }
    report.line(format!(
        "served state equals a from-scratch route on {} of {BOARDS} boards",
        BOARDS - differ
    ));
    Outcome {
        setups,
        timings,
        qor,
    }
}
