//! Host speed probe. The shared host this benchmark runs on changes speed
//! by ±20 % over seconds to minutes, and a single-threaded routing call
//! times alike from run to run only as far as the host does. So every run
//! also times a fixed kernel of the benchmark's own code, spread over the
//! run, and the end-to-end times are scaled by [`REFERENCE_MS`] over the
//! run's median kernel time: they read as the times at the reference host
//! speed. The kernel does not call the program, so a change to the program
//! moves the scaled times by the same share as the plain ones.
//!
//! The kernel runs on the client thread while the program is idle, between
//! requests and after each set-up. A program that kept burning CPU after a
//! call returned would slow the kernel and so flatter its own times; the
//! plain times and the kernel's are printed beside the scaled ones.

use crate::runner::mix;
use crate::stats;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host, in ms: an
/// `Intel(R) Xeon(R) Processor` VM, `nproc` 2, when it was quiet.
pub const REFERENCE_MS: f64 = 1.3;

/// Request time between two kernel samples.
const CADENCE: Duration = Duration::from_millis(40);

/// Kernel samples taken after each set-up.
pub const PER_SETUP: usize = 4;

#[derive(Default)]
struct Probe {
    samples_ms: Vec<f64>,
    since: Duration,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Fixed work resembling the router's: branchy float orientation tests
/// over a point set, a sort and a hash map, all within a few hundred KiB.
fn kernel() -> f64 {
    const N: usize = 1200;
    let mut pts: Vec<(f64, f64)> = (0..N as u64)
        .map(|i| {
            let a = mix(7, i);
            ((a & 0xffff) as f64, ((a >> 16) & 0xffff) as f64)
        })
        .collect();
    let mut acc = 0.0;
    for i in 0..N {
        let (ax, ay) = pts[i];
        let (bx, by) = pts[(i * 7 + 1) % N];
        for &(cx, cy) in pts.iter().step_by(23) {
            let o = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
            if o > 0.0 {
                acc += o.sqrt();
            } else {
                acc -= (-o).ln_1p();
            }
        }
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut cells: HashMap<u64, f64> = HashMap::new();
    for (k, p) in pts.iter().enumerate() {
        *cells.entry((p.0 as u64) >> 6).or_insert(0.0) += p.1 + k as f64;
    }
    acc + cells.values().sum::<f64>()
}

/// Times the kernel `n` times.
pub fn sample(n: usize) {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        for _ in 0..n {
            let t0 = Instant::now();
            black_box(kernel());
            p.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        p.since = Duration::ZERO;
    });
}

/// Counts a request of `took`; times the kernel once [`CADENCE`] of
/// request time has passed since the last sample.
pub fn after_request(took: Duration) {
    let due = PROBE.with(|p| {
        let mut p = p.borrow_mut();
        p.since += took;
        p.since >= CADENCE
    });
    if due {
        sample(1);
    }
}

/// The run's median kernel time in ms and its sample count.
pub fn kernel_ms() -> (f64, usize) {
    PROBE.with(|p| {
        let p = p.borrow();
        (stats::median(&p.samples_ms), p.samples_ms.len())
    })
}

/// What a time of this run is multiplied by to read at the reference host
/// speed.
pub fn scale() -> f64 {
    let (ms, n) = kernel_ms();
    if n == 0 || ms <= 0.0 {
        return 1.0;
    }
    REFERENCE_MS / ms
}
