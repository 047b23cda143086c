//! The simulation-session API: one builder, two engines.
//!
//! [`SimSession`] replaces the old `Machine::new` + mutate + `run` dance
//! with a builder that names every choice up front:
//!
//! ```
//! use sentinel_isa::{Insn, Reg};
//! use sentinel_prog::ProgramBuilder;
//! use sentinel_sim::{Engine, RunOutcome, SimConfig, SimSession};
//!
//! let mut b = ProgramBuilder::new("demo");
//! b.block("entry");
//! b.push(Insn::li(Reg::int(1), 41));
//! b.push(Insn::addi(Reg::int(1), Reg::int(1), 1));
//! b.push(Insn::halt());
//! let f = b.finish();
//!
//! let mut s = SimSession::for_function(&f)
//!     .config(SimConfig::default())
//!     .engine(Engine::Interpreter)
//!     .build();
//! assert_eq!(s.run().unwrap(), RunOutcome::Halted);
//! assert_eq!(s.reg(Reg::int(1)).as_i64(), 42);
//! ```
//!
//! The [`Engine`] choice selects the execution strategy behind an
//! otherwise identical surface: [`Engine::Interpreter`] walks the block
//! graph instruction by instruction (the timing oracle), while
//! [`Engine::Turbo`] (the default) runs a [`TurboProgram`] decoded once
//! per session. The differential suite holds the two to identical
//! outcomes, statistics, architectural state, and trace-event streams,
//! so the engine is a performance knob, never part of a job's identity.

use std::sync::Arc;

use sentinel_isa::{InsnId, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;
use sentinel_trace::TraceSink;

use crate::except::{PcHistoryQueue, Trap};
use crate::machine::{Machine, Recovery, RunOutcome, SimConfig, SimError, TraceEvent};
use crate::memory::Memory;
use crate::regfile::TaggedValue;
use crate::stats::Stats;
use crate::turbo::{TurboMachine, TurboProgram};

/// Which execution engine a [`SimSession`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The interpretive machine: walks the block graph directly. Slower,
    /// structurally simple — the timing oracle.
    Interpreter,
    /// The trace-chaining engine: a [`TurboProgram`] decode executed
    /// with fused micro-op pairs and a ready-mask scoreboard.
    /// Semantically identical to the interpreter, and the default.
    #[default]
    Turbo,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Interpreter => write!(f, "interpreter"),
            Engine::Turbo => write!(f, "turbo"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "interpreter" | "interp" => Ok(Engine::Interpreter),
            "turbo" => Ok(Engine::Turbo),
            other => Err(format!("unknown engine '{other}' (want interpreter|turbo)")),
        }
    }
}

/// Builder for a [`SimSession`]; see [`SimSession::for_function`].
pub struct SimSessionBuilder<'a> {
    func: &'a Function,
    config: SimConfig,
    engine: Engine,
    program: Option<Arc<TurboProgram>>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<'a> SimSessionBuilder<'a> {
    /// Sets the simulator configuration (default: [`SimConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the execution engine (default: [`Engine::Turbo`]).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a pipeline-event sink from the start of the run.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Supplies a pre-decoded program (selects [`Engine::Turbo`]). The
    /// program must have been decoded from this builder's function with
    /// the machine description the config will carry.
    #[must_use]
    pub fn program(mut self, prog: Arc<TurboProgram>) -> Self {
        self.engine = Engine::Turbo;
        self.program = Some(prog);
        self
    }

    /// Constructs the session. For [`Engine::Turbo`] without a supplied
    /// [`TurboProgram`] this decodes the function.
    pub fn build(self) -> SimSession<'a> {
        let mut session = SimSession {
            engine: self.engine,
            inner: match self.engine {
                Engine::Interpreter => Inner::Interp(Machine::create(self.func, self.config)),
                Engine::Turbo => {
                    let prog = self.program.unwrap_or_else(|| {
                        Arc::new(TurboProgram::new(self.func, &self.config.mdes))
                    });
                    Inner::Turbo(TurboMachine::new(prog, self.config))
                }
            },
        };
        if let Some(sink) = self.sink {
            session.attach_sink(sink);
        }
        session
    }
}

enum Inner<'a> {
    Interp(Machine<'a>),
    Turbo(TurboMachine),
}

/// A configured simulation over one function on one engine.
///
/// Every accessor mirrors the old `Machine` surface, so call sites only
/// change how the simulation is constructed.
pub struct SimSession<'a> {
    engine: Engine,
    inner: Inner<'a>,
}

/// Delegates a method to whichever engine the session wraps.
macro_rules! delegate {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match &$self.inner {
            Inner::Interp(m) => m.$m($($arg),*),
            Inner::Turbo(m) => m.$m($($arg),*),
        }
    };
    (mut $self:ident, $m:ident $(, $arg:expr)*) => {
        match &mut $self.inner {
            Inner::Interp(m) => m.$m($($arg),*),
            Inner::Turbo(m) => m.$m($($arg),*),
        }
    };
}

impl<'a> SimSession<'a> {
    /// Starts building a session for `func`.
    pub fn for_function(func: &'a Function) -> SimSessionBuilder<'a> {
        SimSessionBuilder {
            func,
            config: SimConfig::default(),
            engine: Engine::default(),
            program: None,
            sink: None,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; architectural traps are a [`RunOutcome`], not an
    /// error.
    pub fn run(&mut self) -> Result<RunOutcome, SimError> {
        delegate!(mut self, run)
    }

    /// Runs with an exception-recovery handler (paper §3.7).
    ///
    /// # Errors
    ///
    /// In addition to [`SimSession::run`]'s errors:
    /// [`SimError::RecoveryLoop`] and [`SimError::UnknownRecoveryPc`].
    pub fn run_with_recovery<H>(&mut self, handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        delegate!(mut self, run_with_recovery, handler)
    }

    /// Sets an integer or fp register to raw bits (untagged).
    pub fn set_reg(&mut self, r: Reg, bits: u64) {
        delegate!(mut self, set_reg, r, bits)
    }

    /// Sets an fp register from an `f64`.
    pub fn set_reg_f64(&mut self, r: Reg, v: f64) {
        delegate!(mut self, set_reg_f64, r, v)
    }

    /// Sets a register's exception tag with stale contents (for §3.5
    /// uninitialized-register experiments).
    pub fn set_stale_tag(&mut self, r: Reg, pc: InsnId) {
        delegate!(mut self, set_stale_tag, r, pc)
    }

    /// Reads a register with its tag.
    pub fn reg(&self, r: Reg) -> TaggedValue {
        delegate!(self, reg, r)
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        delegate!(self, memory)
    }

    /// Mutable memory access (initialization, recovery handlers).
    pub fn memory_mut(&mut self) -> &mut Memory {
        delegate!(mut self, memory_mut)
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &Stats {
        delegate!(self, stats)
    }

    /// Execution profile of the run so far.
    pub fn profile(&self) -> &Profile {
        delegate!(self, profile)
    }

    /// The PC history queue (fidelity checks).
    pub fn pc_history(&self) -> &PcHistoryQueue {
        delegate!(self, pc_history)
    }

    /// The execution trace (empty unless [`SimConfig::collect_trace`]).
    pub fn trace(&self) -> &[TraceEvent] {
        delegate!(self, trace)
    }

    /// The data cache, if one is configured.
    pub fn cache(&self) -> Option<&crate::cache::DataCache> {
        delegate!(self, cache)
    }

    /// Attaches a pipeline-event sink and enables the journals feeding
    /// it. Call before [`SimSession::run`] (or use
    /// [`SimSessionBuilder::sink`]).
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        delegate!(mut self, attach_sink, sink)
    }

    /// Detaches the sink (if any), disabling the journals. Call
    /// [`TraceSink::finish`] on the result to render the trace.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        delegate!(mut self, take_sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpeculationSemantics;
    use sentinel_isa::Insn;

    fn demo() -> Function {
        let mut b = sentinel_prog::ProgramBuilder::new("demo");
        b.block("entry");
        b.push(Insn::li(Reg::int(1), 0x1000));
        b.push(Insn::ld_w(Reg::int(2), Reg::int(1), 0).speculated());
        b.push(Insn::check_exception(Reg::int(2)));
        b.push(Insn::halt());
        b.finish()
    }

    #[test]
    fn builder_defaults_to_turbo_engine() {
        let f = demo();
        let s = SimSession::for_function(&f).build();
        assert_eq!(s.engine(), Engine::Turbo);
    }

    #[test]
    fn engine_names_round_trip_and_fast_is_rejected() {
        for engine in [Engine::Interpreter, Engine::Turbo] {
            assert_eq!(engine.to_string().parse::<Engine>(), Ok(engine));
        }
        let err = "fast".parse::<Engine>().unwrap_err();
        assert!(err.contains("interpreter|turbo"), "{err}");
    }

    #[test]
    fn all_engines_run_and_agree() {
        let f = demo();
        let mut outcomes = Vec::new();
        for engine in [Engine::Interpreter, Engine::Turbo] {
            let mut s = SimSession::for_function(&f).engine(engine).build();
            s.memory_mut().map_region(0x1000, 8);
            s.memory_mut().write_word(0x1000, 99).unwrap();
            let o = s.run().unwrap();
            outcomes.push((o, *s.stats(), s.reg(Reg::int(2)).data));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0].2, 99);
    }

    #[test]
    fn shared_program_reuses_one_decode() {
        let f = demo();
        let config = SimConfig::default();
        let prog = Arc::new(crate::TurboProgram::new(&f, &config.mdes));
        for _ in 0..2 {
            let mut s = SimSession::for_function(&f)
                .config(config.clone())
                .program(Arc::clone(&prog))
                .build();
            assert_eq!(s.engine(), Engine::Turbo);
            s.memory_mut().map_region(0x1000, 8);
            s.run().unwrap();
        }
        // The builder took shared references; both sessions ran the
        // same decode.
        assert_eq!(Arc::strong_count(&prog), 1);
    }

    #[test]
    fn config_and_sink_flow_through() {
        let f = demo();
        let cfg = SimConfig {
            semantics: SpeculationSemantics::SentinelTags,
            collect_trace: true,
            ..Default::default()
        };
        let mut s = SimSession::for_function(&f)
            .config(cfg)
            .engine(Engine::Interpreter)
            .sink(Box::new(sentinel_trace::CollectSink::default()))
            .build();
        s.memory_mut().map_region(0x1000, 8);
        s.run().unwrap();
        assert!(!s.trace().is_empty());
        let mut sink = s.take_sink().expect("sink attached via builder");
        assert_ne!(sink.finish(), "0 events");
    }
}
