//! End-to-end and per-layer benchmark of the meander router.
//!
//! ```text
//! routebench --workload <paper|dense|fleet|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload from a single closed-loop client
//! thread: the next request is sent only after the previous one returned.
//! The program's worker counts are the host's hardware threads. Every
//! output is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run is traced
//! and the metrics are the per-layer ones. See README.md.

mod alloc;
mod check;
mod dense;
mod fleet;
mod host;
mod layers;
mod paper;
mod report;
mod runner;
mod serve;
mod spans;
mod speed;
mod stats;

use layers::Layers;
use report::Report;
use runner::Ctx;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: &[&str] = &["paper", "dense", "fleet", "serve"];

fn usage() -> String {
    format!(
        "usage: routebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut spans) = (1u64, 10.0f64, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let spans_path = spans.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-{seed}.jsonl"))
    });
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        workers: host::nproc(),
        spans_path,
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    host::cap_malloc_arenas(host::nproc() + 1);
    let (workload, ctx) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cpu0 = host::CpuTimes::now();
    let mut tr = Tracer::new(ctx.trace);
    let mut layers = Layers::default();
    let mut report = Report::default();
    report.line(format!(
        "workload {workload} seed {} seconds {} trace {} | host: {} | nproc {} | workers {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        host::cpu_model(),
        host::nproc(),
        ctx.workers
    ));
    let run = match workload.as_str() {
        "paper" => paper::run,
        "dense" => dense::run,
        "fleet" => fleet::run,
        "serve" => serve::run,
        _ => unreachable!("checked in parse"),
    };
    let out = run(&ctx, &mut tr, &mut layers, &mut report);
    let steal = host::CpuTimes::now().steal_pct_since(&cpu0);
    report.line(format!("host steal over the run: {steal:.2} % of CPU time"));
    let (kernel_ms, samples) = speed::kernel_ms();
    report.line(format!(
        "host speed probe: median {kernel_ms:.4} ms over {samples} samples, reference {} ms",
        speed::REFERENCE_MS
    ));
    if ctx.trace {
        layers.report(
            &tr,
            &out.timings.untraced,
            &out.timings.traced,
            runner::SETUPS,
            steal,
            &mut report,
        );
        match tr.write_jsonl(&ctx.spans_path) {
            Ok(()) => report.line(format!("spans written to {}", ctx.spans_path.display())),
            Err(e) => report.problem(format!("writing spans: {e}")),
        }
    } else {
        report.end_to_end(
            &out.setups,
            &out.timings.untraced,
            &out.qor,
            host::peak_rss_mib(),
            speed::scale(),
        );
    }
    report.print();
    ExitCode::SUCCESS
}
