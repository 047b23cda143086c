//! The seeded differential fuzzer: generated programs, both engines,
//! byte-identical observations.
//!
//! A fuzz case is `(seed, model, width, alias_frac, trap_frac)`. The seed
//! fully determines the generated program and its memory image
//! ([`sentinel_workloads::fuzz_spec`]); the case is scheduled under the
//! given model, run on the interpreter (the timing oracle) and the turbo
//! engine, and every observable — run outcome, statistics, final
//! registers *with exception tags*, full memory, the `TraceEvent` log,
//! and the pipeline event stream from an attached sink — must match
//! exactly. Any divergence is reported with a one-command repro line.
//!
//! Entry points: [`run_case`] for a single case, [`run_batch`] for a
//! seed sweep (the CLI `sentinel fuzz` and `tests/fuzz_differential.rs`
//! are thin wrappers over these).

use std::sync::{Arc, Mutex};

use sentinel_core::{schedule_function, SchedOptions, SchedulingModel};
use sentinel_isa::{MachineDesc, Reg};
use sentinel_prog::Function;
use sentinel_sim::{Engine, RunOutcome, SimConfig, SimError, SimSession, Stats, TraceEvent};
use sentinel_spec::{semantics_for, JobSpec, ProgramRef, SpecKind};
use sentinel_trace::{Event, TraceSink};
use sentinel_workloads::{generate, try_fuzz_spec, Workload};

/// One differential fuzz case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// Program seed (structure, instruction stream, and data).
    pub seed: u64,
    /// Scheduling model the program is compiled under.
    pub model: SchedulingModel,
    /// Issue width of the simulated machine.
    pub width: usize,
    /// Fraction of loads through the may-alias pointer.
    pub alias_frac: f64,
    /// Fraction of loads through the partially mapped trap array.
    pub trap_frac: f64,
}

impl FuzzCase {
    /// The one-command reproduction line printed on any failure.
    pub fn repro_command(&self) -> String {
        format!(
            "sentinel fuzz --seed {} --count 1 --model {} --width {} --alias {} --traps {}",
            self.seed,
            self.model.tag(),
            self.width,
            self.alias_frac,
            self.trap_frac
        )
    }

    /// The canonical [`JobSpec`] this case denotes. Seeded specs are
    /// self-describing (the generator seed determines the program), so
    /// the canonical string alone reproduces the case anywhere:
    /// `sentinel fuzz --spec '<canonical>'`.
    pub fn spec(&self) -> JobSpec {
        JobSpec::fuzz(
            self.seed,
            self.model,
            self.width,
            self.alias_frac,
            self.trap_frac,
        )
    }

    /// Reconstructs the case a fuzz [`JobSpec`] denotes.
    ///
    /// # Errors
    ///
    /// The spec is not a fuzz spec, or its program is not seeded.
    pub fn from_spec(spec: &JobSpec) -> Result<FuzzCase, String> {
        if spec.kind != SpecKind::Fuzz {
            return Err(format!("not a fuzz spec (kind '{}')", spec.kind.as_str()));
        }
        match &spec.program {
            ProgramRef::Seeded { seed, alias, traps } => Ok(FuzzCase {
                seed: *seed,
                model: spec.model,
                width: spec.width,
                alias_frac: *alias,
                trap_frac: *traps,
            }),
            _ => Err("fuzz spec has no seeded program".to_string()),
        }
    }

    /// The failure-report lines identifying this case by spec hash and
    /// canonical string (one identifier, reproducible anywhere).
    fn spec_lines(&self) -> String {
        let spec = self.spec();
        format!("  spec: {}\n        {}", spec.hash_hex(), spec.canonical())
    }
}

/// A sink that shares its buffer with the caller, surviving the engine
/// taking ownership of the boxed sink.
#[derive(Default)]
struct SharedSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl TraceSink for SharedSink {
    fn record(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }

    fn finish(&mut self) -> String {
        String::new()
    }
}

/// Everything one run exposes.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<RunOutcome, SimError>,
    stats: Stats,
    regs: Vec<(u64, bool)>,
    memory: Vec<(u64, u8)>,
    trace: Vec<TraceEvent>,
    events: Vec<Event>,
}

fn observe(
    func: &Function,
    cfg: &SimConfig,
    mdes: &MachineDesc,
    w: &Workload,
    engine: Engine,
) -> Observation {
    let buffer: Arc<Mutex<Vec<Event>>> = Arc::default();
    let sink = SharedSink {
        events: buffer.clone(),
    };
    let mut m = SimSession::for_function(func)
        .config(cfg.clone())
        .engine(engine)
        .sink(Box::new(sink))
        .build();
    for &(s, l) in &w.mem_regions {
        m.memory_mut().map_region(s, l);
    }
    for &(a, v) in &w.mem_words {
        m.memory_mut().write_word(a, v).unwrap();
    }
    let outcome = m.run();
    let mut regs = Vec::new();
    for i in 0..mdes.int_regs() {
        let v = m.reg(Reg::int(i as u16));
        regs.push((v.data, v.tag));
    }
    for i in 0..mdes.fp_regs() {
        let v = m.reg(Reg::fp(i as u16));
        regs.push((v.data, v.tag));
    }
    let trace = m.trace().to_vec();
    drop(m.take_sink());
    let events = std::mem::take(&mut *buffer.lock().unwrap());
    Observation {
        outcome,
        stats: *m.stats(),
        regs,
        memory: m.memory().snapshot(),
        trace,
        events,
    }
}

/// Names the first observable two engines disagree on. `a`/`b` are the
/// engine names for the report (e.g. `"interpreter"` vs `"turbo"`).
fn describe_divergence(a: &str, lhs: &Observation, b: &str, rhs: &Observation) -> String {
    if lhs.outcome != rhs.outcome {
        return format!(
            "run outcome: {a} {:?} vs {b} {:?}",
            lhs.outcome, rhs.outcome
        );
    }
    if lhs.stats != rhs.stats {
        return format!("statistics: {a} {:?} vs {b} {:?}", lhs.stats, rhs.stats);
    }
    if let Some(i) = (0..lhs.regs.len()).find(|&i| lhs.regs[i] != rhs.regs[i]) {
        return format!(
            "register slot {i}: {a} {:?} vs {b} {:?}",
            lhs.regs[i], rhs.regs[i]
        );
    }
    if lhs.memory != rhs.memory {
        let diff = lhs.memory.iter().zip(&rhs.memory).find(|(x, y)| x != y);
        return format!("memory image: first differing byte {diff:?}");
    }
    if lhs.trace != rhs.trace {
        return format!(
            "TraceEvent log: {} vs {} events (or contents differ)",
            lhs.trace.len(),
            rhs.trace.len()
        );
    }
    if lhs.events != rhs.events {
        return format!(
            "pipeline event stream: {} vs {} events (or contents differ)",
            lhs.events.len(),
            rhs.events.len()
        );
    }
    "no divergence".to_string()
}

/// Runs one differential case.
///
/// # Errors
///
/// Returns a human-readable report — including the repro command — if
/// scheduling fails or the engines diverge on any observable.
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    let spec = try_fuzz_spec(case.seed, case.alias_frac, case.trap_frac).map_err(|e| {
        format!(
            "bad fuzz spec: {e}\n{}\n  repro: {}",
            case.spec_lines(),
            case.repro_command()
        )
    })?;
    let w = generate(&spec);
    let mdes = MachineDesc::paper_issue(case.width);
    let sched = schedule_function(&w.func, &mdes, &SchedOptions::new(case.model)).map_err(|e| {
        format!(
            "schedule failed: {e}\n{}\n  repro: {}",
            case.spec_lines(),
            case.repro_command()
        )
    })?;
    let mut cfg = SimConfig::for_mdes(mdes.clone());
    cfg.semantics = semantics_for(case.model);
    cfg.collect_trace = true;
    let interp = observe(&sched.func, &cfg, &mdes, &w, Engine::Interpreter);
    let turbo = observe(&sched.func, &cfg, &mdes, &w, Engine::Turbo);
    if interp != turbo {
        return Err(format!(
            "engines diverged (interpreter vs turbo; seed {}, model {}, width {})\n  first divergence: {}\n{}\n  repro: {}",
            case.seed,
            case.model.tag(),
            case.width,
            describe_divergence("interpreter", &interp, "turbo", &turbo),
            case.spec_lines(),
            case.repro_command()
        ));
    }
    Ok(())
}

/// The (model, width) grid a sweep cycles through when neither is pinned.
pub fn grid(model: Option<SchedulingModel>, width: Option<usize>) -> Vec<(SchedulingModel, usize)> {
    let models: Vec<SchedulingModel> = match model {
        Some(m) => vec![m],
        None => SchedulingModel::all().to_vec(),
    };
    let widths: Vec<usize> = match width {
        Some(w) => vec![w],
        None => vec![1, 2, 4, 8],
    };
    let mut combos = Vec::new();
    for &w in &widths {
        for &m in &models {
            combos.push((m, w));
        }
    }
    combos
}

/// Checks that every seed of a batch derives a generatable program, so a
/// mix the generator cannot honor is reported as bad input before any
/// case runs.
///
/// # Errors
///
/// The first seed whose spec `try_fuzz_spec` rejects, with the reason.
pub fn check_batch(
    start_seed: u64,
    count: u64,
    alias_frac: f64,
    trap_frac: f64,
) -> Result<(), String> {
    for seed in start_seed..start_seed.saturating_add(count) {
        try_fuzz_spec(seed, alias_frac, trap_frac).map_err(|e| format!("seed {seed}: {e}"))?;
    }
    Ok(())
}

/// Runs `count` cases starting at `start_seed`, cycling each seed through
/// the (model, width) grid. Stops at the first failure.
///
/// # Errors
///
/// Propagates the first failing case's report (see [`run_case`]).
pub fn run_batch(
    start_seed: u64,
    count: u64,
    alias_frac: f64,
    trap_frac: f64,
    model: Option<SchedulingModel>,
    width: Option<usize>,
) -> Result<u64, String> {
    run_batch_detail(start_seed, count, alias_frac, trap_frac, model, width)
        .map_err(|(_, report)| report)
}

/// [`run_batch`], returning the failing [`FuzzCase`] alongside its
/// report — the CLI records the case's spec to a registry so the
/// failure reproduces from its hash.
///
/// # Errors
///
/// The first failing case and its report.
pub fn run_batch_detail(
    start_seed: u64,
    count: u64,
    alias_frac: f64,
    trap_frac: f64,
    model: Option<SchedulingModel>,
    width: Option<usize>,
) -> Result<u64, (FuzzCase, String)> {
    let combos = grid(model, width);
    for i in 0..count {
        let seed = start_seed + i;
        let (m, w) = combos[(i as usize) % combos.len()];
        let case = FuzzCase {
            seed,
            model: m,
            width: w,
            alias_frac,
            trap_frac,
        };
        run_case(&case).map_err(|report| (case, report))?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tags_roundtrip() {
        // The CLI parses `--model` with the shared parser; every fuzzed
        // model's repro tag must read back as itself.
        for m in SchedulingModel::all() {
            assert_eq!(sentinel_spec::parse_model(m.tag()), Ok(m));
        }
        assert!(sentinel_spec::parse_model("x").is_err());
    }

    #[test]
    fn grid_covers_all_models_and_widths() {
        assert_eq!(grid(None, None).len(), 16);
        assert_eq!(grid(Some(SchedulingModel::Sentinel), None).len(), 4);
        assert_eq!(grid(None, Some(4)).len(), 4);
        assert_eq!(grid(Some(SchedulingModel::Sentinel), Some(4)).len(), 1);
    }

    #[test]
    fn repro_command_names_every_knob() {
        let c = FuzzCase {
            seed: 9,
            model: SchedulingModel::SentinelStores,
            width: 2,
            alias_frac: 0.25,
            trap_frac: 0.1,
        };
        let r = c.repro_command();
        for needle in [
            "--seed 9",
            "--model T",
            "--width 2",
            "--alias 0.25",
            "--traps 0.1",
        ] {
            assert!(r.contains(needle), "{r} missing {needle}");
        }
    }

    #[test]
    fn case_spec_round_trips() {
        let c = FuzzCase {
            seed: 9,
            model: SchedulingModel::SentinelStores,
            width: 2,
            alias_frac: 0.25,
            trap_frac: 0.1,
        };
        let spec = c.spec();
        // Seeded specs are self-describing: the canonical string alone
        // rebuilds the exact case.
        let parsed = JobSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(FuzzCase::from_spec(&parsed).unwrap(), c);
        let sim = JobSpec::simulate(ProgramRef::Suite("wc".into()), c.model, 2);
        assert!(FuzzCase::from_spec(&sim).is_err());
    }

    #[test]
    fn smoke_case_passes() {
        run_case(&FuzzCase {
            seed: 1,
            model: SchedulingModel::Sentinel,
            width: 4,
            alias_frac: 0.2,
            trap_frac: 0.1,
        })
        .unwrap();
    }
}
