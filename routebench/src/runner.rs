//! What every workload shares: the run context, repeated set-up, the timed
//! loop of whole rounds, and saving and loading boards as text.

use crate::layers::Layers;
use crate::report::{Qor, Report, Timing};
use crate::spans::Tracer;
use crate::speed;
use meander_layout::io::{load_board, save_board};
use meander_layout::{Board, LibraryBoard, ObstacleLibrary};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// One invocation's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Program worker count: the host's hardware threads.
    pub workers: usize,
    pub spans_path: PathBuf,
}

/// SplitMix64 finalizer: derives the `k`-th input seed of a run.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-determined permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Runs `setup` [`SETUPS`] times, dropping each state before the next,
/// and returns the times in seconds with the last state. The host speed
/// probe samples after each set-up, outside its time. A set-up sends a
/// failed check of its warm-up request to `report` as a run-level problem.
pub fn set_up<S>(
    tr: &mut Tracer,
    report: &mut Report,
    mut setup: impl FnMut(&mut Tracer, &mut Report) -> S,
) -> (Vec<f64>, S) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let s = setup(tr, report);
        times.push(t0.elapsed().as_secs_f64());
        speed::sample(speed::PER_SETUP);
        state = Some(s);
    }
    (times, state.expect("SETUPS > 0"))
}

/// Calls `round` with 0, 1, 2, … until `seconds` have passed and at least
/// `min_rounds` rounds ran; a round is never cut. Returns the rounds run.
pub fn rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let t0 = Instant::now();
    let mut r = 0;
    while r < min_rounds || t0.elapsed() < budget {
        round(r);
        r += 1;
    }
    r
}

/// Issues one request: a new request id, a `request` span, allocation
/// counting when traced, and the time of `f`, which makes the call. The
/// host speed probe may sample after it, outside its time.
pub fn request<R>(
    tr: &mut Tracer,
    layers: &mut Layers,
    ops: u64,
    f: impl FnOnce(&mut Tracer, &mut Layers) -> R,
) -> (R, Duration) {
    tr.next_request();
    let traced = tr.on();
    if traced {
        layers.alloc_begin();
    }
    let open = tr.open("request");
    let t0 = Instant::now();
    let r = f(tr, layers);
    let took = t0.elapsed();
    tr.close(open);
    if traced {
        layers.alloc_end(ops);
    }
    speed::after_request(took);
    (r, took)
}

/// The timed requests of a run. Untraced runs fill only `untraced`; the
/// traced run times its untraced first half there and its traced second
/// half in `traced`.
#[derive(Default)]
pub struct Timings {
    pub untraced: Timing,
    pub traced: Timing,
}

/// What a workload hands back for the metrics.
pub struct Outcome {
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    pub timings: Timings,
    pub qor: Qor,
}

/// One round of a workload: round index, then where its requests report.
pub type Round<'a> = dyn FnMut(usize, &mut Tracer, &mut Layers, &mut Timing, &mut Report) + 'a;

/// Runs whole rounds for the run's seconds. Untraced: at least
/// `min_rounds`. Traced: an untraced half, then a traced half.
pub fn drive(
    ctx: &Ctx,
    tr: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
    min_rounds: usize,
    round: &mut Round<'_>,
) -> Timings {
    let mut t = Timings::default();
    if ctx.trace {
        tr.set_on(false);
        let n = rounds(ctx.seconds / 2.0, 1, |r| {
            round(r, tr, layers, &mut t.untraced, report)
        });
        tr.set_on(true);
        rounds(ctx.seconds / 2.0, 1, |r| {
            round(n + r, tr, layers, &mut t.traced, report)
        });
    } else {
        rounds(ctx.seconds, min_rounds, |r| {
            round(r, tr, layers, &mut t.untraced, report)
        });
    }
    t
}

/// Serializes a generated board; generator names carry no whitespace.
pub fn save(board: &Board) -> String {
    save_board(board).expect("generated names carry no whitespace")
}

/// Loads one board from its saved text inside a `layout.io.load` span.
pub fn load(tr: &mut Tracer, text: &str) -> Result<Board, String> {
    tr.span("layout.io.load", || load_board(text))
        .map_err(|e| format!("load_board: {e}"))
}

/// Saves a fleet: the library as an obstacle-only board, then each board's
/// local part.
pub fn save_fleet(library: &ObstacleLibrary, boards: &[LibraryBoard]) -> (String, Vec<String>) {
    let mut lib = Board::default();
    for o in library.obstacles() {
        lib.add_obstacle(o.clone());
    }
    (save(&lib), boards.iter().map(|b| save(b.board())).collect())
}

/// Loads a saved fleet and validates each board with its library.
pub fn load_fleet(
    tr: &mut Tracer,
    library: &str,
    boards: &[String],
) -> Result<(Arc<ObstacleLibrary>, Vec<LibraryBoard>), String> {
    let lib = Arc::new(ObstacleLibrary::new(
        load(tr, library)?.obstacles().to_vec(),
    ));
    let mut out = Vec::with_capacity(boards.len());
    for text in boards {
        let lb = LibraryBoard::new(Arc::clone(&lib), load(tr, text)?);
        tr.span("layout.validate", || {
            meander_layout::validate_library_board(&lb)
        })
        .map_err(|e| format!("validate: {e}"))?;
        out.push(lb);
    }
    Ok((lib, out))
}

/// Loads and validates a standalone board.
pub fn load_valid(tr: &mut Tracer, text: &str) -> Result<Board, String> {
    let b = load(tr, text)?;
    tr.span("layout.validate", || meander_layout::validate_board(&b))
        .map_err(|e| format!("validate: {e}"))?;
    Ok(b)
}

/// The saved text must load back to a board that saves to the same text:
/// the round trip the set-up relies on loses nothing.
pub fn round_trips(text: &str) -> Result<(), String> {
    let again = load_board(text).map_err(|e| format!("load_board: {e}"))?;
    if save(&again) != text {
        return Err("board text does not round-trip".to_string());
    }
    Ok(())
}
