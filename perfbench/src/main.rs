//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--reproduce PATH] [--spans PATH]
//! ```
//!
//! Workloads: `paper-grid` (`reproduce all`), `serve-cold` and
//! `serve-warm` (an in-process `sentinel-serve` under two keep-alive
//! clients), `fuzz-oracle` (seeded fuzz programs judged by the
//! sequential `Reference`). With `--trace 0` a run prints the end-to-end
//! metrics, latency and throughput at reference host speed (see
//! `calib`); with `--trace 1` it records spans around the crate calls
//! and prints the per-layer metrics. Either way the last stdout line is
//! one JSON object, and the exit status is 1 if a correctness gate
//! failed. `perfbench/run.py` builds everything and calls this binary.

mod calib;
mod cell;
mod fuzz;
mod grid;
mod report;
mod serve;
mod span;
mod stats;
mod sys;

use std::time::{Duration, Instant};

use calib::Calibration;
use report::Outcome;
use span::{Summary, Tracer, LAYERS};

const USAGE: &str = "usage: perfbench --workload paper-grid|serve-cold|serve-warm|fuzz-oracle \
                     --seed N --seconds S --trace 0|1 [--reproduce PATH] [--spans PATH]";

/// Spans written out by a traced run, at most.
const SPANS_WRITTEN: usize = 200_000;

/// Set-up samples per run; the median is reported.
const SETUP_REPS: usize = 21;

/// Set-up time one sample averages over: a microsecond set-up is not
/// lost in clock noise, and one that waits on a polling thread is
/// averaged over several waits.
const SETUP_SAMPLE: Duration = Duration::from_millis(20);

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long a run measures.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// The `reproduce` binary (paper-grid).
    pub reproduce: Option<String>,
    /// Where a traced run writes its spans (JSON lines).
    pub spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        reproduce: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600, got"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1, got")),
                }
            }
            "--reproduce" => args.reproduce = Some(value.clone()),
            "--spans" => args.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Times `setup` and returns the median of [`SETUP_REPS`] samples, in
/// seconds per set-up, measured and at reference speed, and the last
/// set-up's result. Each sample averages consecutive set-ups, each
/// timed alone, until it holds [`SETUP_SAMPLE`] of set-up time; a
/// set-up's result is torn down, untimed, when the next one is made. A
/// calibration sample (on both cores or one, as the workload runs)
/// follows each sample.
pub fn time_setup<T>(both_cores: bool, mut setup: impl FnMut() -> T) -> (f64, f64, T) {
    let mut cal = Calibration::new(both_cores);
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (mut timed, mut n) = (Duration::ZERO, 0u32);
        while n == 0 || timed < SETUP_SAMPLE {
            let t0 = Instant::now();
            let made = setup();
            timed += t0.elapsed();
            n += 1;
            last = Some(made);
        }
        samples.push(timed.as_secs_f64() / f64::from(n));
        cal.sample();
    }
    let raw = stats::median(&samples);
    (raw, cal.time(raw), last.expect("at least one set-up"))
}

/// Which phases round `k` of a traced run makes, in order: untraced
/// first on even rounds, traced first on odd ones, so neither side
/// always runs after the other.
pub fn phase_order(k: usize) -> [bool; 2] {
    if k.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Metric names of the per-layer self times, in [`LAYERS`] order.
const LAYER_SELF: [&str; 6] = [
    "layer.workloads.self_ms",
    "layer.core.self_ms",
    "layer.sim.self_ms",
    "layer.spec.self_ms",
    "layer.serve.self_ms",
    "layer.bench.self_ms",
];

/// Ends a traced run: writes the spans out (with `--spans`) and reports
/// the span-derived layer metrics — per-span totals, per-layer self
/// times, the unattributed remainder by span name, how well the layers
/// reconcile with the traced end-to-end time, and the tracing overhead
/// (`traced_ms` against `untraced_ms`, the median round of each).
/// Totals are per round.
pub fn layer_report(
    out: &mut Outcome,
    tr: &Tracer,
    args: &Args,
    rounds: f64,
    untraced_ms: f64,
    traced_ms: f64,
) -> Summary {
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path)
            .and_then(|f| tr.write_jsonl(&mut std::io::BufWriter::new(f), SPANS_WRITTEN));
        match written {
            Ok(()) => out.line(format!("spans written to {path}")),
            Err(e) => out.line(format!("spans not written to {path}: {e}")),
        }
    }
    let sum = tr.summary();
    for (span, metric) in [
        ("workloads.generate", "workloads.generate.ms"),
        ("core.compile", "core.compile.ms"),
        ("sim.build", "sim.build.ms"),
        ("sim.decode", "sim.decode.ms"),
        ("sim.run", "sim.run.ms"),
        ("sim.reference", "sim.reference.ms"),
        ("sim.verify", "sim.verify.ms"),
        ("serve.execute", "serve.execute.ms"),
    ] {
        out.set(metric, sum.ms(span) / rounds);
    }
    let run_s = sum.ms("sim.run") / rounds / 1e3;
    let dyn_insns = out.metrics.get("sim.dyn_insns").copied().unwrap_or(0.0);
    out.set(
        "sim.host_minsns_per_s",
        stats::ratio(dyn_insns / 1e6, run_s),
    );
    if sum.count("sim.decode") == 0 {
        out.line(format!(
            "note: sim.decode.ms is 0 because the default engine ({}) decodes inside \
             SimSession build, which sim.build.ms includes",
            sentinel_sim::Engine::default()
        ));
    }

    let e2e = sum.end_to_end_ms() / rounds;
    let mut layered = 0.0;
    for (layer, metric) in LAYERS.iter().zip(LAYER_SELF) {
        let ms = sum.layer_ms(layer) / rounds;
        layered += ms;
        out.set(metric, ms);
        out.line(format!(
            "self time {layer:<9} {ms:>12.3} ms ({:.1}%)",
            100.0 * stats::ratio(ms, e2e)
        ));
    }
    for (name, ns) in &sum.unattributed_ns {
        out.line(format!(
            "self time unattributed {name}: {:.3} ms",
            *ns as f64 / 1e6 / rounds
        ));
    }
    let reconciled = stats::ratio(layered, e2e);
    out.set("trace.unattributed_ms", sum.unattributed_ms() / rounds);
    out.set("trace.end_to_end_ms", e2e);
    out.set("trace.reconciled_frac", reconciled);
    out.set(
        "trace.overhead_frac",
        stats::ratio(traced_ms - untraced_ms, untraced_ms),
    );
    out.line(format!(
        "traced end-to-end {e2e:.3} ms per round over {rounds} rounds; layers cover {:.1}%; \
         tracing overhead {:.2}% ({traced_ms:.3} ms traced vs {untraced_ms:.3} ms untraced, median round)",
        100.0 * reconciled,
        100.0 * stats::ratio(traced_ms - untraced_ms, untraced_ms)
    ));
    out.gate(
        "layer self times reconcile with the traced end-to-end time within 10%",
        (reconciled - 1.0).abs() <= 0.10,
    );
    sum
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match (args.workload.as_str(), args.trace) {
        ("paper-grid", false) => grid::untraced(&args),
        ("paper-grid", true) => grid::traced(&args),
        ("serve-cold", trace) => serve::run(&args, serve::Mix::Cold, trace),
        ("serve-warm", trace) => serve::run(&args, serve::Mix::Warm, trace),
        ("fuzz-oracle", false) => fuzz::untraced(&args),
        ("fuzz-oracle", true) => fuzz::traced(&args),
        (other, _) => {
            eprintln!("error: unknown workload '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    print!("{}", out.render(args.trace));
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse_args(&argv(
            "--workload serve-cold --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve-cold", 7, true)
        );
        assert_eq!(a.seconds, Duration::from_millis(2500));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }
}
