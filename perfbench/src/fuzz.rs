//! `fuzz-oracle`: seeded `fuzz_spec` programs over the four (alias,
//! traps) mixes of `tests/fuzz_differential.rs`, each scheduled under
//! R/G/S/T at widths 1/2/4/8, run on the default engine and judged
//! against the sequential `Reference` with `verify::compare_runs`.
//! R, S and T must match it exactly, trap PC included; G is judged only
//! where the reference halts (it loses exceptions by design).
//!
//! This is the only workload that faults. Its known defect is reported
//! as it stands: trap-PC mismatches under R/S/T, where a sentinel's
//! checked register is redefined before the check (ROADMAP item 1).

use std::hint::black_box;
use std::time::Instant;

use sentinel_bench::runner::{apply_memory, semantics_for};
use sentinel_core::{SchedOptions, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_sim::reference::{RefOutcome, Reference};
use sentinel_sim::verify::{compare_runs, CompareSpec, Divergence};
use sentinel_sim::SimConfig;
use sentinel_workloads::{fuzz_spec, generate};

use crate::calib::Calibration;
use crate::cell::{compile, guarded, simulate, Counters};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio, SplitMix};
use crate::sys::self_peak_rss_mb;
use crate::{layer_report, phase_order, time_setup, Args};

/// (alias_frac, trap_frac) mixes: trap-free, alias-heavy, trap-heavy,
/// both.
pub const MIXES: [(f64, f64); 4] = [(0.0, 0.0), (0.35, 0.0), (0.0, 0.25), (0.25, 0.15)];

/// Programs per mix in one pass: the scale of ROADMAP item 1's oracle
/// sweep, at which its known defect shows.
const PROGRAMS_PER_MIX: usize = 256;

/// Mismatch repro lines printed per run, at most.
const REPROS_SHOWN: usize = 12;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// (model, width) runs per program.
const RUNS_PER_PROGRAM: u64 = 4 * WIDTHS.len() as u64;

/// One fuzz program: generator seed and mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Program {
    /// `fuzz_spec` seed.
    pub seed: u64,
    /// Fraction of loads through the may-alias pointer.
    pub alias: f64,
    /// Fraction of loads through the partially mapped trap array.
    pub traps: f64,
}

impl Program {
    fn repro(&self, model: SchedulingModel, width: usize) -> String {
        format!(
            "sentinel fuzz --seed {} --count 1 --model {} --width {width} --alias {} --traps {}",
            self.seed,
            model.tag(),
            self.alias,
            self.traps
        )
    }
}

/// The programs of one pass, derived from the benchmark seed.
pub fn programs(seed: u64) -> Vec<Program> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::with_capacity(MIXES.len() * PROGRAMS_PER_MIX);
    for (alias, traps) in MIXES {
        for _ in 0..PROGRAMS_PER_MIX {
            out.push(Program {
                seed: rng.next_u64() % 1_000_000,
                alias,
                traps,
            });
        }
    }
    out
}

/// Verdicts of one pass.
#[derive(Debug, Default)]
struct Verdicts {
    /// (program, model, width) runs attempted.
    runs: u64,
    /// Runs compared with the reference.
    judged: u64,
    /// G runs whose reference trapped: not judged, by the model.
    exempt: u64,
    /// Judged runs that diverged, per model R/G/S/T.
    mismatch: [u64; 4],
    /// Mismatches that are trap-PC divergences only (the known defect).
    trap_pc: u64,
    /// Runs that could not be judged (schedule or simulator error,
    /// panic), with their reports.
    errors: Vec<String>,
    /// Repro lines of the mismatches.
    repros: Vec<String>,
    /// Seconds per program (generate, reference, 16 runs).
    program_s: Vec<f64>,
}

impl Verdicts {
    fn mismatches(&self) -> u64 {
        self.mismatch.iter().sum()
    }
}

fn model_index(m: SchedulingModel) -> usize {
    SchedulingModel::all()
        .iter()
        .position(|&x| x == m)
        .expect("a paper model")
}

/// Generates one program, runs the reference once, then schedules,
/// simulates and judges it at every (model, width).
fn judge_program(tr: &mut Tracer, op: u64, p: Program, c: &mut Counters, v: &mut Verdicts) {
    let t0 = Instant::now();
    let prepared = guarded(tr, "generate", |tr| {
        let w = tr.span("workloads.generate", op, || {
            generate(&fuzz_spec(p.seed, p.alias, p.traps))
        });
        Ok(w)
    });
    let w = match prepared {
        Ok(w) => w,
        Err(e) => {
            v.runs += RUNS_PER_PROGRAM;
            v.errors.push(format!("seed {}: {e}", p.seed));
            return;
        }
    };
    c.programs += 1;
    let reference = guarded(tr, "reference", |tr| {
        tr.span("sim.reference", op, || {
            let mut r = Reference::new(&w.func);
            apply_memory(&w, r.memory_mut());
            let out = r.run().map_err(|e| format!("reference: {e}"))?;
            Ok((r, out))
        })
    });
    let (reference, ref_out) = match reference {
        Ok(judge) => judge,
        Err(e) => {
            v.runs += RUNS_PER_PROGRAM;
            v.errors.push(format!("seed {}: {e}", p.seed));
            return;
        }
    };
    for width in WIDTHS {
        for model in SchedulingModel::all() {
            v.runs += 1;
            let judged = guarded(tr, "run", |tr| {
                let mdes = MachineDesc::paper_issue(width);
                let sched = compile(tr, op, &w.func, &mdes, SchedOptions::new(model), c)?;
                let mut cfg = SimConfig::for_mdes(mdes);
                cfg.semantics = semantics_for(model);
                let (session, out) = simulate(tr, op, &sched.func, cfg, &w, c)?;
                let spec = if model == SchedulingModel::GeneralPercolation {
                    if ref_out != RefOutcome::Halted {
                        return Ok(None);
                    }
                    CompareSpec::imprecise(w.live_out.clone())
                } else {
                    CompareSpec::precise(w.live_out.clone())
                };
                Ok(Some(tr.span("sim.verify", op, || {
                    compare_runs(&session, out, &reference, ref_out, &spec)
                })))
            });
            match judged {
                Ok(None) => v.exempt += 1,
                Ok(Some(divs)) => {
                    v.judged += 1;
                    if !divs.is_empty() {
                        v.mismatch[model_index(model)] += 1;
                        if divs.iter().all(|d| matches!(d, Divergence::TrapPc { .. })) {
                            v.trap_pc += 1;
                        }
                        v.repros
                            .push(format!("{} -- {}", p.repro(model, width), divs[0]));
                    }
                }
                Err(e) => v
                    .errors
                    .push(format!("{e}\n  repro: {}", p.repro(model, width))),
            }
        }
    }
    v.program_s.push(t0.elapsed().as_secs_f64());
}

/// One pass over `programs`, stopping early at `deadline`, with a
/// calibration sample between programs when one is due.
fn pass(
    tr: &mut Tracer,
    programs: &[Program],
    c: &mut Counters,
    v: &mut Verdicts,
    deadline: Option<Instant>,
    mut cal: Option<&mut Calibration>,
) {
    let root = tr.open("perfbench.fuzz-oracle", 0);
    for (op, &p) in programs.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        judge_program(tr, op as u64, p, c, v);
        if let Some(cal) = cal.as_deref_mut() {
            cal.maybe_sample();
        }
    }
    tr.close(root);
}

/// Counts the first full pass's verdicts into `out` (attempted and
/// failed cover one pass of the seeded programs, whatever the speed).
fn report_verdicts(out: &mut Outcome, v: &Verdicts) {
    out.attempted += v.runs;
    out.failed += v.mismatches() + v.errors.len() as u64;
    for (i, model) in ["R", "G", "S", "T"].iter().enumerate() {
        out.line(format!(
            "oracle mismatches under {model}: {}",
            v.mismatch[i]
        ));
    }
    out.line(format!(
        "{} runs: {} judged, {} exempt (G with a trapping reference), {} mismatched, {} unjudged",
        v.runs,
        v.judged,
        v.exempt,
        v.mismatches(),
        v.errors.len()
    ));
    if v.mismatches() > 0 {
        out.line(format!(
            "known defect: {} of the {} mismatches are trap-PC divergences under R/S/T \
             (ROADMAP item 1: a sentinel's checked register redefined before its check); \
             they are counted in error_rate as they stand",
            v.trap_pc,
            v.mismatches()
        ));
    }
    for r in v.repros.iter().take(REPROS_SHOWN) {
        out.line(format!("mismatch: {r}"));
    }
    if v.repros.len() > REPROS_SHOWN {
        out.line(format!(
            "({} more mismatches)",
            v.repros.len() - REPROS_SHOWN
        ));
    }
    for e in &v.errors {
        out.line(format!("unjudged: {e}"));
    }
    out.gate("every run is judged by Reference", v.errors.is_empty());
}

/// The untraced run: passes over the seeded programs until the time is
/// up. One operation is one (program, model, width) run; latency is per
/// program (its 16 runs plus generation and the reference run).
pub fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_raw, setup_s, ()) = time_setup(false, || {
        black_box(programs(args.seed));
        for w in WIDTHS {
            black_box(MachineDesc::paper_issue(w));
        }
    });
    let programs = programs(args.seed);
    let mut off = Tracer::new(false);
    let (mut c, mut first, mut all_program_s) = (Counters::default(), None, Vec::new());
    let mut judged = 0;
    let mut cal = Calibration::new(false);
    let t0 = Instant::now();
    let deadline = t0 + args.seconds;
    while first.is_none() || Instant::now() < deadline {
        let mut v = Verdicts::default();
        // The first pass always completes: its verdicts are the run's.
        let stop = first.is_some().then_some(deadline);
        pass(&mut off, &programs, &mut c, &mut v, stop, Some(&mut cal));
        judged += v.judged;
        all_program_s.extend_from_slice(&v.program_s);
        first.get_or_insert(v);
    }
    out.set("peak_rss_mb", self_peak_rss_mb());
    report_verdicts(&mut out, &first.expect("one pass"));
    let ms: Vec<f64> = all_program_s.iter().map(|s| s * 1e3).collect();
    let busy_s: f64 = all_program_s.iter().sum();
    let rate = judged as f64 / busy_s;
    let (p50, p99) = (median(&ms), percentile(&ms, 99.0).unwrap_or(f64::NAN));
    out.set("setup_s", setup_s);
    out.set("latency_p50_ms", cal.time(p50));
    out.set("throughput_per_s", cal.rate(rate));
    out.line(cal.describe());
    out.line(format!(
        "raw: setup {setup_raw} s, per-program p50 {p50} ms, p99 {p99} ms (n={})",
        ms.len()
    ));
    out.line(format!(
        "fuzz_runs_per_s {rate} 1/s raw, {} at reference speed ({judged} judged runs in {busy_s:.3} s; {} programs per pass)",
        cal.rate(rate),
        programs.len()
    ));
    out
}

/// The traced run: alternating untraced and traced passes; exact counts
/// and verdicts from the first traced pass.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let programs = programs(args.seed);
    let mut tr = Tracer::new(true);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut counters, mut first) = (None, None);
    let t0 = Instant::now();
    let mut k = 0;
    while first.is_none() || t0.elapsed() < args.seconds {
        for traced in phase_order(k) {
            let (mut c, mut v) = (Counters::default(), Verdicts::default());
            let t = Instant::now();
            if traced {
                pass(&mut tr, &programs, &mut c, &mut v, None, None);
                traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                Counters::keep_first(&mut counters, c);
                first.get_or_insert(v);
            } else {
                pass(
                    &mut Tracer::new(false),
                    &programs,
                    &mut c,
                    &mut v,
                    None,
                    None,
                );
                plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        k += 1;
    }
    let v = first.expect("one round");
    report_verdicts(&mut out, &v);
    let rounds = traced_ms.len() as f64;
    counters.expect("one round").report(&mut out, rounds);
    out.set("sim.oracle.checked", v.judged as f64);
    for (i, name) in [
        "sim.oracle.mismatch.R",
        "sim.oracle.mismatch.G",
        "sim.oracle.mismatch.S",
        "sim.oracle.mismatch.T",
    ]
    .iter()
    .enumerate()
    {
        out.set(name, v.mismatch[i] as f64);
    }
    let sum = layer_report(
        &mut out,
        &tr,
        args,
        rounds,
        median(&plain_ms),
        median(&traced_ms),
    );
    out.line(format!(
        "fuzz_runs_per_s {} 1/s in the traced passes",
        ratio(v.judged as f64 * rounds, sum.end_to_end_ms() / 1e3)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_programs_are_deterministic_and_cover_every_mix() {
        assert_eq!(programs(5), programs(5));
        assert_ne!(programs(5), programs(6));
        let ps = programs(5);
        assert_eq!(ps.len(), MIXES.len() * PROGRAMS_PER_MIX);
        for mix in MIXES {
            assert!(ps.iter().any(|p| (p.alias, p.traps) == mix));
        }
    }
}
