//! `paper-grid`: the paper's evaluation grid through `reproduce all`.
//!
//! The untraced run times the real `reproduce` binary with its default
//! engine and `--jobs` (one child at a time), and checks each run's
//! stdout byte for byte against `reproduce all --engine interpreter`.
//! The traced run calls the same `figures` functions on one
//! `GridSession`, then drives the 272 Figure 4/5 cells (17 benchmarks ×
//! R/G/S/T × widths 1/2/4/8) directly through generate, compile, decode
//! and simulate, so the grid's time splits by crate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sentinel_bench::cache::{CELL_MICROS, HIT_COUNTER, MISS_COUNTER};
use sentinel_bench::figures::{
    ablation_boosting, ablation_cache, ablation_formation, ablation_pipelining, ablation_recovery,
    ablation_register_pressure, ablation_store_buffer, ablation_unrolling, figure4, figure5,
    sentinel_overhead,
};
use sentinel_bench::grid::{default_jobs, Cell, GridSession};
use sentinel_bench::runner::MeasureConfig;
use sentinel_core::{SchedOptions, SchedulingModel};
use sentinel_sim::RunOutcome;
use sentinel_trace::sim::{SIM_PROGRAM_CACHE_HIT, SIM_PROGRAM_CACHE_MISS};
use sentinel_workloads::suite;

use crate::calib::Calibration;
use crate::cell::{compile, guarded, simulate, Counters};
use crate::report::{Outcome, FIGURES};
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::sys::run_child;
use crate::{layer_report, phase_order, time_setup, Args};

/// Widths of the Figure 4/5 cells (issue 1 is the base machine).
const CELL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// How `reproduce` marks a cell that failed to measure.
const DEGRADED: &[u8] = b"DEGRADED";

fn degraded_rows(stdout: &[u8]) -> u64 {
    stdout
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(DEGRADED))
        .count() as u64
}

/// The untraced run: set-up is generating the 17-program suite; one
/// operation is one `reproduce all` process.
pub fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(reproduce) = args.reproduce.as_deref() else {
        out.line("paper-grid needs --reproduce PATH (the reproduce binary)");
        out.gate("reproduce binary given", false);
        return out;
    };
    let (setup_raw, setup_s, suite) = time_setup(true, suite::suite);
    drop(black_box(suite));
    out.set("setup_s", setup_s);

    // The expected bytes, captured before timing from the interpreter,
    // the engine every other one is held identical to.
    let expected = match run_child(reproduce, &["all", "--engine", "interpreter"]) {
        Ok(r) if r.code == Some(0) => r.stdout,
        Ok(r) => {
            out.line(format!(
                "reproduce all --engine interpreter exited {:?}",
                r.code
            ));
            Vec::new()
        }
        Err(e) => {
            out.line(format!("reproduce all --engine interpreter: {e}"));
            Vec::new()
        }
    };
    out.gate("interpreter reference captured", !expected.is_empty());
    out.gate(
        "interpreter reference has no degraded row",
        degraded_rows(&expected) == 0,
    );

    let (mut walls, mut peak_kib, mut mismatched) = (Vec::new(), 0u64, 0u64);
    let mut cal = Calibration::new(true);
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed() < args.seconds {
        cal.sample();
        out.attempted += 1;
        match run_child(reproduce, &["all"]) {
            Ok(r) => {
                walls.push(r.wall_s);
                peak_kib = peak_kib.max(r.maxrss_kib);
                let ok = r.code == Some(0) && r.stdout == expected;
                if !ok || degraded_rows(&r.stdout) > 0 {
                    out.failed += 1;
                    mismatched += 1;
                }
            }
            Err(e) => {
                out.line(format!("reproduce all: {e}"));
                out.failed += 1;
                break;
            }
        }
    }
    out.gate(
        "every reproduce all stdout is byte-identical to the interpreter's",
        mismatched == 0 && out.failed == 0,
    );
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let p50 = median(&ms);
    let p99 = percentile(&ms, 99.0).unwrap_or(f64::NAN);
    let per_s = walls.len() as f64 / walls.iter().sum::<f64>();
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.set("latency_p50_ms", cal.time(p50));
    out.set("throughput_per_s", cal.rate(per_s));
    out.line(cal.describe());
    out.line(format!(
        "raw: setup {setup_raw} s, p50 {p50} ms, p99 {p99} ms, {per_s} runs/s"
    ));
    out.line(format!(
        "grid_wall_s {} s raw, {} at reference speed (median of n={} reproduce all runs, jobs={})",
        p50 / 1e3,
        cal.time(p50) / 1e3,
        walls.len(),
        default_jobs()
    ));
    out
}

/// One round of the traced workload: a fresh suite and session, every
/// `figures` call of `reproduce all`, then the 272 cells directly.
struct Round {
    counters: Counters,
    failures: Vec<String>,
    cells: u64,
    grid_hits: u64,
    grid_misses: u64,
    cell_micros: u64,
    program_hits: u64,
    program_misses: u64,
}

fn round(tr: &mut Tracer, jobs: usize) -> Round {
    let mut c = Counters::default();
    let mut failures = Vec::new();
    let root = tr.open("perfbench.paper-grid", 0);
    let workloads = Arc::new(tr.span("workloads.generate", 0, suite::suite));
    c.programs += workloads.len() as u64;
    let session = GridSession::new(Arc::clone(&workloads), jobs);

    let s = &session;
    let figures: [&dyn Fn(); 12] = [
        &|| drop(black_box(figure4(s))),
        &|| drop(black_box(figure5(s))),
        &|| drop(black_box(ablation_store_buffer(s, &[1, 2, 4, 8, 16, 32]))),
        &|| drop(black_box(ablation_recovery(s))),
        &|| drop(black_box(ablation_formation(s))),
        &|| drop(black_box(ablation_boosting(s))),
        &|| drop(black_box(ablation_unrolling(s, &[1, 2, 4]))),
        &|| drop(black_box(ablation_cache(s, &[0, 10, 20, 40]))),
        &|| drop(black_box(ablation_pipelining(s.jobs()))),
        &|| drop(black_box(ablation_register_pressure(s))),
        &|| drop(black_box(sentinel_overhead(s, 2))),
        &|| drop(black_box(sentinel_overhead(s, 8))),
    ];
    for ((span, _), fig) in FIGURES.iter().zip(figures) {
        let run = |tr: &mut Tracer| {
            tr.span(span, 0, fig);
            Ok(())
        };
        if let Err(e) = guarded(tr, span, run) {
            failures.push(e);
        }
    }

    let mut direct = Vec::new();
    let mut op = 0;
    for w in workloads.iter() {
        for model in SchedulingModel::all() {
            for width in CELL_WIDTHS {
                op += 1;
                let cfg = MeasureConfig::paper(model, width);
                let result = guarded(tr, "cell", |tr| {
                    let sched = compile(
                        tr,
                        op,
                        &w.func,
                        &cfg.mdes(),
                        SchedOptions::new(model),
                        &mut c,
                    )?;
                    let (session, outcome) =
                        simulate(tr, op, &sched.func, cfg.sim_config(), w, &mut c)?;
                    if outcome != RunOutcome::Halted {
                        return Err(format!("unexpected {outcome:?}"));
                    }
                    Ok(*session.stats())
                });
                direct.push((Cell::paper(&w.name, model, width), result));
            }
        }
    }
    tr.close(root);

    // The direct path must measure exactly what the grid measured
    // (served from the session's memo, outside the timed round).
    let cells = direct.len() as u64;
    for (cell, result) in direct {
        let name = cell.to_string();
        match (result, session.cell(cell)) {
            (Ok(stats), Ok(m)) if stats == m.stats => {}
            (Ok(_), Ok(_)) => failures.push(format!("{name}: direct run differs from the grid")),
            (Err(e), _) => failures.push(format!("{name}: {e}")),
            (_, Err(e)) => failures.push(format!("{name}: grid: {}", e.message)),
        }
    }
    let m = session.metrics();
    Round {
        counters: c,
        failures,
        cells,
        grid_hits: m.counter(HIT_COUNTER),
        grid_misses: m.counter(MISS_COUNTER),
        cell_micros: m.histogram(CELL_MICROS).map_or(0, |h| h.sum()),
        program_hits: m.counter(SIM_PROGRAM_CACHE_HIT),
        program_misses: m.counter(SIM_PROGRAM_CACHE_MISS),
    }
}

/// The traced run: alternating untraced and traced rounds until the
/// time is up; exact counts come from the first traced round.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let jobs = default_jobs();
    let mut tr = Tracer::new(true);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Round> = None;
    let mut counters = None;
    let t0 = Instant::now();
    let mut k = 0;
    while first.is_none() || t0.elapsed() < args.seconds {
        for traced in phase_order(k) {
            let t = Instant::now();
            let r = if traced {
                round(&mut tr, jobs)
            } else {
                round(&mut Tracer::new(false), jobs)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1 + r.cells;
            out.failed += r.failures.len() as u64;
            for f in &r.failures {
                out.line(format!("failure: {f}"));
            }
            if traced {
                traced_ms.push(ms);
                Counters::keep_first(&mut counters, r.counters.clone());
                first.get_or_insert(r);
            } else {
                plain_ms.push(ms);
            }
        }
        k += 1;
    }
    let r = first.expect("at least one round");
    let rounds = traced_ms.len() as f64;
    out.gate(
        "grid and direct cells run without failure and agree",
        out.failed == 0,
    );
    counters
        .expect("at least one round")
        .report(&mut out, rounds);
    let sum = layer_report(
        &mut out,
        &tr,
        args,
        rounds,
        median(&plain_ms),
        median(&traced_ms),
    );
    let figures_ms: f64 = FIGURES.iter().map(|(span, _)| sum.ms(span)).sum();
    for (span, metric) in FIGURES {
        out.set(metric, sum.ms(span) / rounds);
    }
    out.set(
        "bench.grid.memo_hit_ratio",
        ratio(r.grid_hits as f64, (r.grid_hits + r.grid_misses) as f64),
    );
    out.set(
        "bench.grid.busy_frac",
        ratio(
            r.cell_micros as f64 / 1e3,
            figures_ms / rounds * jobs as f64,
        ),
    );
    out.set(
        "sim.program_cache.hit_ratio",
        ratio(
            r.program_hits as f64,
            (r.program_hits + r.program_misses) as f64,
        ),
    );
    out
}
