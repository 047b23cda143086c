//! Compile-then-simulate through the crates' public entry points, one
//! span per step — the path the grid, the service and the fuzzer each
//! take for one (program, model, width) point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sentinel_bench::runner::apply_memory;
use sentinel_core::{CompileSession, SchedOptions, ScheduledProgram};
use sentinel_isa::MachineDesc;
use sentinel_prog::Function;
use sentinel_sim::{Engine, RunOutcome, SimConfig, SimSession, TurboProgram};
use sentinel_workloads::Workload;

use crate::report::{Outcome, PASSES};
use crate::span::Tracer;

/// Exact counts and pass times accumulated over the points of a round.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Programs generated.
    pub programs: u64,
    /// `CompileSession::run` calls.
    pub compiles: u64,
    /// Instructions the scheduler made speculative.
    pub speculated: u64,
    /// `check_exception` sentinels inserted.
    pub checks: u64,
    /// Dynamic instructions simulated.
    pub dyn_insns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Exception tags set during simulation.
    pub tag_sets: u64,
    /// `PassLog` wall time per pass of [`PASSES`], in milliseconds.
    pub pass_ms: [f64; 6],
}

impl Counters {
    /// Keeps the exact counts of the first round and sums the pass times
    /// of every round (`report` divides them by the round count).
    pub fn keep_first(first: &mut Option<Counters>, round: Counters) {
        match first {
            None => *first = Some(round),
            Some(f) => {
                for (ms, more) in f.pass_ms.iter_mut().zip(round.pass_ms) {
                    *ms += more;
                }
            }
        }
    }

    /// Writes the counts into `out`; the pass times are divided by
    /// `rounds` (they are summed over every traced round).
    pub fn report(&self, out: &mut Outcome, rounds: f64) {
        out.set("workloads.programs", self.programs as f64);
        out.set("core.compile.calls", self.compiles as f64);
        out.set("core.speculated", self.speculated as f64);
        out.set("core.checks_inserted", self.checks as f64);
        out.set("sim.dyn_insns", self.dyn_insns as f64);
        out.set("sim.cycles", self.cycles as f64);
        out.set("sim.tag_sets", self.tag_sets as f64);
        for ((_, metric), ms) in PASSES.iter().zip(self.pass_ms) {
            out.set(metric, ms / rounds);
        }
    }
}

/// Schedules `func` for `mdes` under `opts` (span `core.compile`).
///
/// # Errors
///
/// The scheduler's error, as text.
pub fn compile(
    tr: &mut Tracer,
    op: u64,
    func: &Function,
    mdes: &MachineDesc,
    opts: SchedOptions,
    c: &mut Counters,
) -> Result<ScheduledProgram, String> {
    let (result, log) = tr.span("core.compile", op, || {
        let mut session = CompileSession::for_function(func)
            .mdes(mdes)
            .options(opts)
            .build();
        let result = session.run();
        (result, session.log().clone())
    });
    c.compiles += 1;
    for ((pass, _), ms) in PASSES.iter().zip(c.pass_ms.iter_mut()) {
        if let Some(r) = log.report(pass) {
            *ms += r.wall.as_secs_f64() * 1e3;
        }
    }
    let sched = result.map_err(|e| format!("schedule: {e}"))?;
    c.speculated += sched.stats.speculated as u64;
    c.checks += sched.stats.checks_inserted as u64;
    Ok(sched)
}

/// Simulates a scheduled `func` with `w`'s memory image on the default
/// engine (spans `sim.decode` where a decode is called, `sim.build`,
/// `sim.run`). Like the grid and the service, only the turbo engine is
/// handed a separately decoded program; the others decode inside
/// `build`.
///
/// # Errors
///
/// A simulator error, as text.
pub fn simulate<'f>(
    tr: &mut Tracer,
    op: u64,
    func: &'f Function,
    cfg: SimConfig,
    w: &Workload,
    c: &mut Counters,
) -> Result<(SimSession<'f>, RunOutcome), String> {
    let engine = Engine::default();
    let program = (engine == Engine::Turbo).then(|| {
        tr.span("sim.decode", op, || {
            Arc::new(TurboProgram::new(func, &cfg.mdes))
        })
    });
    let mut session = tr.span("sim.build", op, || {
        let builder = SimSession::for_function(func).config(cfg);
        let mut s = match program {
            Some(p) => builder.program(p).build(),
            None => builder.engine(engine).build(),
        };
        apply_memory(w, s.memory_mut());
        s
    });
    let outcome = tr
        .span("sim.run", op, || session.run())
        .map_err(|e| format!("simulation: {e}"))?;
    let stats = session.stats();
    c.dyn_insns += stats.dyn_insns;
    c.cycles += stats.cycles;
    c.tag_sets += stats.tag_sets;
    Ok((session, outcome))
}

/// Runs `f`, turning a panic into an error naming `what`: a panic in
/// any layer is counted as a failed operation, never allowed to end
/// the run. Spans the panic left open are closed.
pub fn guarded<R>(
    tr: &mut Tracer,
    what: &str,
    f: impl FnOnce(&mut Tracer) -> Result<R, String>,
) -> Result<R, String> {
    let depth = tr.depth();
    catch_unwind(AssertUnwindSafe(|| f(tr))).unwrap_or_else(|payload| {
        tr.unwind_to(depth);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("{what} panicked: {msg}"))
    })
}
