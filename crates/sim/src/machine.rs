//! The execution-driven timing simulator (reference interpreter).
//!
//! The machine is the paper's evaluation vehicle (§5.1): an in-order
//! VLIW/superscalar with CRAY-1-style interlocking, deterministic
//! latencies, and a store buffer, extended with the sentinel architecture:
//! exception-tagged registers (Table 1), the probationary store buffer
//! (Table 2), `check_exception`, and `confirm_store`.
//!
//! The *architectural* semantics — what each instruction does to
//! registers, tags, memory, the store buffer, and shadow (boosted)
//! state — live in [`crate::sem`] and are shared verbatim with the turbo
//! engine. This module owns only the interpreter's timing model:
//!
//! * up to `issue_width` instructions issue per cycle, in order, with at
//!   most one branch per cycle;
//! * an instruction issues no earlier than all of its source registers are
//!   ready (register scoreboard; CRAY-1 interlocking);
//! * a taken branch squashes younger same-cycle issue and redirects fetch
//!   to the next cycle (Table 3's "1 slot");
//! * a store finding the buffer full stalls the machine until a release
//!   frees a slot; a probationary head that can never release is the §4.2
//!   deadlock and surfaces as [`SimError::StoreBuffer`].

use std::collections::HashMap;

use sentinel_isa::{BlockId, Insn, InsnId, MachineDesc, Opcode, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;
use sentinel_trace::{Event, EventKind, StallReason, TraceSink};

use crate::except::{ExceptionKind, PcHistoryQueue, Trap};
use crate::exec::branch_taken;
use crate::hash::FastMap;
use crate::memory::Memory;
use crate::regfile::{RegEvent, RegFile, TaggedValue};
use crate::sem::boost::ShadowState;
use crate::sem::storebuf::{SbError, SbEvent, StoreBuffer};
use crate::sem::{self, ArchState, SpeculationSemantics};
use crate::stats::Stats;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Machine parameters shared with the scheduler.
    pub mdes: MachineDesc,
    /// Speculative-fault semantics.
    pub semantics: SpeculationSemantics,
    /// Maximum dynamic instructions before [`SimError::OutOfFuel`].
    pub fuel: u64,
    /// PC history queue depth (paper §3.2).
    pub pc_history_depth: usize,
    /// Maximum exception recoveries in [`Machine::run_with_recovery`].
    pub max_recoveries: u64,
    /// Extra cycles charged per recovery resume.
    pub recovery_penalty: u64,
    /// Collect a per-instruction execution trace ([`Machine::trace`]).
    pub collect_trace: bool,
    /// Optional timing-only data cache. `None` reproduces the paper's
    /// 100% hit-rate assumption (§5.1).
    pub cache: Option<crate::cache::CacheConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mdes: MachineDesc::default(),
            semantics: SpeculationSemantics::SentinelTags,
            fuel: 50_000_000,
            pc_history_depth: 64,
            max_recoveries: 1_000_000,
            recovery_penalty: 0,
            collect_trace: false,
            cache: None,
        }
    }
}

/// One executed instruction in the machine's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issue cycle.
    pub cycle: u64,
    /// Instruction id.
    pub id: InsnId,
    /// Rendered instruction.
    pub text: String,
    /// `true` if this was a taken control transfer.
    pub taken: bool,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c{:>6}  {:<6} {}{}",
            self.cycle,
            self.id.to_string(),
            self.text,
            if self.taken { "   <taken>" } else { "" }
        )
    }
}

impl SimConfig {
    /// A configuration for the given machine with default limits.
    pub fn for_mdes(mdes: MachineDesc) -> SimConfig {
        SimConfig {
            mdes,
            ..SimConfig::default()
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `halt`.
    Halted,
    /// An exception was signaled (precisely, under sentinel semantics).
    Trapped(Trap),
}

/// Simulator failures: none of these are architectural outcomes; they
/// indicate a malformed program/schedule or an exhausted execution budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Control fell off the end of the layout without `halt`.
    FellOffEnd(BlockId),
    /// The dynamic instruction budget was exhausted.
    OutOfFuel,
    /// Store-buffer protocol violation (deadlock, bad confirm index, …).
    StoreBuffer(SbError),
    /// Probationary entries remained in the store buffer at `halt`,
    /// meaning some speculative store was never confirmed or cancelled.
    UnconfirmedAtHalt {
        /// Tail-relative index of the oldest stuck entry — the index a
        /// `confirm_store` would have had to name (0 = most recent).
        index: usize,
        /// Total number of unconfirmed probationary entries.
        count: usize,
    },
    /// A speculative store was executed under [`SpeculationSemantics::Silent`],
    /// which has no probationary support.
    SpeculativeStoreUnsupported(InsnId),
    /// The recovery handler resumed more than `max_recoveries` times.
    RecoveryLoop,
    /// Shadow (boosted) state survived to `halt`: some boosted
    /// instruction's branches never resolved — a scheduler bug.
    ShadowAtHalt(usize),
    /// A trap's excepting PC does not name an instruction of the program
    /// (impossible unless register state was corrupted externally).
    UnknownRecoveryPc(InsnId),
    /// An engine asked [`exec::compute`](crate::exec::compute) to evaluate
    /// a memory/control/store-buffer opcode — a dispatch bug, not an
    /// architectural outcome.
    NotComputable(Opcode),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::FellOffEnd(b) => write!(f, "control fell off the end of {b}"),
            SimError::OutOfFuel => write!(f, "out of fuel"),
            SimError::StoreBuffer(e) => write!(f, "store buffer: {e}"),
            SimError::UnconfirmedAtHalt { index, count } => {
                write!(
                    f,
                    "{count} probationary store(s) unconfirmed at halt \
                     (oldest stuck at confirm index {index})"
                )
            }
            SimError::SpeculativeStoreUnsupported(id) => {
                write!(f, "speculative store {id} under silent semantics")
            }
            SimError::RecoveryLoop => write!(f, "recovery resume limit exceeded"),
            SimError::ShadowAtHalt(n) => write!(f, "{n} shadow entr(ies) uncommitted at halt"),
            SimError::UnknownRecoveryPc(id) => write!(f, "unknown recovery pc {id}"),
            SimError::NotComputable(op) => write!(f, "{op} is not a pure-compute opcode"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::StoreBuffer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SbError> for SimError {
    fn from(e: SbError) -> Self {
        SimError::StoreBuffer(e)
    }
}

/// Decision returned by a recovery handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Re-execute from the reported excepting instruction (§3.7). The
    /// handler is expected to have repaired the cause.
    Resume,
    /// Deliver the trap as the run outcome.
    Abort,
}

/// Where control goes after one instruction.
enum Step {
    Continue,
    Goto(BlockId),
    Halt,
    Trap(Trap),
}

/// The interpretive machine simulator — [`Engine::Interpreter`] behind
/// [`SimSession`]. Construct a session, initialize architectural state,
/// then run.
///
/// [`Engine::Interpreter`]: crate::Engine::Interpreter
/// [`SimSession`]: crate::SimSession
///
/// # Examples
///
/// ```
/// use sentinel_sim::{Engine, SimConfig, RunOutcome, SimSession};
/// use sentinel_prog::examples::sum_kernel;
///
/// let func = sum_kernel(0x1000, 4, 0x2000);
/// let mut m = SimSession::for_function(&func)
///     .config(SimConfig::default())
///     .engine(Engine::Interpreter)
///     .build();
/// m.memory_mut().map_region(0x1000, 0x100);
/// m.memory_mut().map_region(0x2000, 8);
/// for i in 0..4 {
///     m.memory_mut().write_word(0x1000 + 8 * i, 10 + i).unwrap();
/// }
/// let outcome = m.run().unwrap();
/// assert_eq!(outcome, RunOutcome::Halted);
/// assert_eq!(m.memory().read_word(0x2000).unwrap(), 10 + 11 + 12 + 13);
/// ```
pub struct Machine<'a> {
    func: &'a Function,
    config: SimConfig,
    regs: RegFile,
    mem: Memory,
    sb: StoreBuffer,
    pcq: PcHistoryQueue,
    /// Debug side-table: excepting PC → concrete cause.
    kinds: FastMap<InsnId, ExceptionKind>,
    stats: Stats,
    profile: Profile,
    /// Shadow register file + shadow store buffers (boosting, §2.3).
    shadow: ShadowState,
    /// Per-instruction execution trace (when `collect_trace` is set).
    trace: Vec<TraceEvent>,
    /// Optional timing-only data cache.
    cache: Option<crate::cache::DataCache>,
    /// Attached pipeline-event sink (`None` ⇒ tracing disabled; every
    /// instrumentation site is then a single branch).
    sink: Option<Box<dyn TraceSink>>,
    /// Whether the attached sink consumes events
    /// ([`TraceSink::wants_events`]); `false` keeps the untraced fast
    /// path even with a sink attached.
    sink_active: bool,
    /// Issue cycle of the instruction currently executing (stamps
    /// journal events that carry no cycle of their own).
    last_issue: u64,
    /// Id of the instruction currently executing (distinguishes tag
    /// sets from tag propagations in the register-file journal).
    last_insn: InsnId,
    // --- timing state ---
    cycle: u64,
    slots_used: usize,
    branches_used: usize,
    ready: HashMap<Reg, u64>,
}

// Compile-time guarantee that a machine (with or without an attached
// `Send` sink) can be built and run on a worker thread: the evaluation
// grid engine simulates each (bench, model, width) cell on a scoped
// thread.
const _: () = {
    const fn send<T: Send>() {}
    send::<Machine<'static>>();
    send::<Stats>();
};

impl<'a> Machine<'a> {
    /// Constructor for in-crate use ([`SimSession`]
    /// building an interpreter engine, differential tests). The register
    /// file is sized to the larger of the machine description and the
    /// registers the program actually names (so pre-allocation virtual
    /// registers remain executable).
    ///
    /// [`SimSession`]: crate::SimSession
    pub(crate) fn create(func: &'a Function, config: SimConfig) -> Machine<'a> {
        let (mi, mf) = func.max_reg_indices();
        let ints = config.mdes.int_regs().max(mi.map_or(0, |i| i as usize + 1));
        let fps = config.mdes.fp_regs().max(mf.map_or(0, |i| i as usize + 1));
        Machine {
            func,
            regs: RegFile::new(ints, fps),
            mem: Memory::new(),
            sb: StoreBuffer::new(config.mdes.store_buffer_size()),
            pcq: PcHistoryQueue::new(config.pc_history_depth),
            kinds: FastMap::default(),
            stats: Stats::default(),
            profile: Profile::new(),
            cycle: 0,
            slots_used: 0,
            branches_used: 0,
            shadow: ShadowState::default(),
            trace: Vec::new(),
            cache: config.cache.clone().map(crate::cache::DataCache::new),
            sink: None,
            sink_active: false,
            last_issue: 0,
            last_insn: InsnId(0),
            ready: HashMap::new(),
            config,
        }
    }

    /// The shared-semantics view over this machine's architectural state.
    fn arch(&mut self) -> ArchState<'_> {
        ArchState {
            regs: &mut self.regs,
            mem: &mut self.mem,
            sb: &mut self.sb,
            shadow: &mut self.shadow,
            kinds: &mut self.kinds,
            stats: &mut self.stats,
            cache: &mut self.cache,
            semantics: self.config.semantics,
        }
    }

    /// Attaches a pipeline-event sink and enables the register-file and
    /// store-buffer journals feeding it. Call before [`Machine::run`].
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        let active = sink.wants_events();
        self.regs.set_journal(active);
        self.sb.set_journal(active);
        self.sink_active = active;
        self.sink = Some(sink);
    }

    /// Detaches the sink (if any), disabling the journals. Call
    /// [`TraceSink::finish`] on the result to render the trace.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.drain_journals();
        self.regs.set_journal(false);
        self.sb.set_journal(false);
        self.sink_active = false;
        self.sink.take()
    }

    /// The data cache, if one is configured.
    pub fn cache(&self) -> Option<&crate::cache::DataCache> {
        self.cache.as_ref()
    }

    /// The execution trace (empty unless [`SimConfig::collect_trace`]).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Sets an integer or fp register to raw bits (untagged).
    pub fn set_reg(&mut self, r: Reg, bits: u64) {
        self.regs.write_clean(r, bits);
    }

    /// Sets an fp register from an `f64`.
    pub fn set_reg_f64(&mut self, r: Reg, v: f64) {
        self.regs.write_clean(r, v.to_bits());
    }

    /// Sets a register's exception tag with stale contents (for §3.5
    /// uninitialized-register experiments).
    pub fn set_stale_tag(&mut self, r: Reg, pc: InsnId) {
        self.regs.write(r, TaggedValue::excepting(pc));
    }

    /// Reads a register with its tag.
    pub fn reg(&self, r: Reg) -> TaggedValue {
        self.regs.read(r)
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (initialization, recovery handlers).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Execution profile of the run so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The PC history queue (fidelity checks).
    pub fn pc_history(&self) -> &PcHistoryQueue {
        &self.pcq
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; architectural traps are a [`RunOutcome`], not an
    /// error.
    pub fn run(&mut self) -> Result<RunOutcome, SimError> {
        self.run_with_recovery(|_, _| Recovery::Abort)
    }

    /// Runs with an exception-recovery handler (paper §3.7). On a signaled
    /// trap the handler may repair state (it gets mutable memory access)
    /// and return [`Recovery::Resume`] to re-execute from the reported
    /// excepting instruction.
    ///
    /// # Errors
    ///
    /// In addition to [`Machine::run`]'s errors: [`SimError::RecoveryLoop`]
    /// if resumes exceed the configured budget, and
    /// [`SimError::UnknownRecoveryPc`] if the reported PC is not an
    /// instruction of the program.
    pub fn run_with_recovery<H>(&mut self, mut handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        let mut block = self.func.entry();
        let mut pos = 0usize;
        self.profile.enter_block(block);
        loop {
            let b = self.func.block(block);
            if pos >= b.insns.len() {
                let Some(ft) = self.func.fallthrough_of(block) else {
                    return Err(SimError::FellOffEnd(block));
                };
                block = ft;
                pos = 0;
                self.profile.enter_block(block);
                continue;
            }
            if self.stats.dyn_insns >= self.config.fuel {
                return Err(SimError::OutOfFuel);
            }
            let insn = &b.insns[pos];
            let step = self.exec_insn(insn)?;
            self.drain_journals();
            match step {
                Step::Continue => pos += 1,
                Step::Goto(t) => {
                    if let Some(last) = self.trace.last_mut() {
                        last.taken = true;
                    }
                    block = t;
                    pos = 0;
                    self.profile.enter_block(block);
                }
                Step::Halt => {
                    let flushed = sem::mem::flush_at_halt(&mut self.sb, &mut self.mem);
                    self.drain_journals();
                    self.sync_sb_stats();
                    flushed?;
                    self.finalize_cycles();
                    return Ok(RunOutcome::Halted);
                }
                Step::Trap(trap) => {
                    if self.sink_active {
                        let kind = trap
                            .kind
                            .map(|k| k.to_string())
                            .unwrap_or_else(|| "exception".to_string());
                        self.emit(Event::at(
                            self.cycle,
                            EventKind::Trap {
                                pc: trap.excepting_pc,
                                kind,
                            },
                        ));
                    }
                    match handler(&trap, &mut self.mem) {
                        Recovery::Resume => {
                            if self.stats.recoveries >= self.config.max_recoveries {
                                return Err(SimError::RecoveryLoop);
                            }
                            self.stats.recoveries += 1;
                            let Some((rb, rp)) = self.func.find_insn(trap.excepting_pc) else {
                                return Err(SimError::UnknownRecoveryPc(trap.excepting_pc));
                            };
                            // In-flight speculative stores will be replayed
                            // by the restartable sequence; discard their
                            // probationary entries.
                            self.sb.cancel_probationary(self.cycle);
                            self.drain_journals();
                            if self.sink_active {
                                self.emit(Event::at(
                                    self.cycle,
                                    EventKind::Recovery {
                                        pc: trap.excepting_pc,
                                        penalty: self.config.recovery_penalty,
                                    },
                                ));
                            }
                            self.advance_cycle(
                                self.cycle + 1 + self.config.recovery_penalty,
                                StallReason::Recovery,
                            );
                            block = rb;
                            pos = rp;
                        }
                        Recovery::Abort => {
                            self.sb.flush(&mut self.mem);
                            self.drain_journals();
                            self.sync_sb_stats();
                            self.finalize_cycles();
                            return Ok(RunOutcome::Trapped(trap));
                        }
                    }
                }
            }
        }
    }

    /// Converts the final cycle index into the run's cycle count and
    /// checks the stall-attribution invariant: every cycle either issued
    /// at least one instruction or is charged to exactly one
    /// [`StallReason`].
    fn finalize_cycles(&mut self) {
        self.stats.cycles = self.cycle + 1;
        debug_assert_eq!(
            self.stats.issuing_cycles + self.stats.stalls.total(),
            self.stats.cycles,
            "stall attribution must cover every non-issuing cycle"
        );
    }

    fn sync_sb_stats(&mut self) {
        let (rel, can, fwd, stall) = self.sb.stats();
        self.stats.sb_releases = rel;
        self.stats.sb_cancels = can;
        self.stats.sb_forwards = fwd;
        self.stats.sb_stall_cycles = stall;
    }

    /// Records an event into the attached sink (no-op without one).
    fn emit(&mut self, event: Event) {
        if let Some(s) = &mut self.sink {
            s.record(&event);
        }
    }

    /// Forwards the register-file and store-buffer journals into the
    /// sink. Cycle-less journal entries are stamped with the issue cycle
    /// of the instruction that produced them.
    fn drain_journals(&mut self) {
        if !self.sink_active {
            return;
        }
        let at = self.last_issue;
        let insn = self.last_insn;
        for ev in self.regs.take_journal() {
            match ev {
                RegEvent::TagWrite { reg, pc } if pc == insn => {
                    self.emit(Event::at(at, EventKind::TagSet { reg, pc }));
                }
                RegEvent::TagWrite { reg, pc } => {
                    self.emit(Event::at(at, EventKind::TagPropagate { dest: reg, pc }));
                }
                RegEvent::TagClear { .. } => {}
            }
        }
        for ev in self.sb.take_journal() {
            let event = match ev {
                SbEvent::Insert {
                    cycle,
                    addr,
                    probationary,
                    occupancy,
                } => Event::at(
                    cycle,
                    EventKind::SbInsert {
                        addr,
                        probationary,
                        occupancy,
                    },
                ),
                SbEvent::Release {
                    cycle,
                    addr,
                    occupancy,
                } => Event::at(cycle, EventKind::SbRelease { addr, occupancy }),
                SbEvent::Cancel {
                    cycle,
                    cancelled,
                    occupancy,
                } => Event::at(
                    cycle,
                    EventKind::SbCancel {
                        cancelled,
                        occupancy,
                    },
                ),
                SbEvent::Forward { addr } => Event::at(at, EventKind::SbForward { addr }),
                SbEvent::Confirm {
                    cycle,
                    index,
                    excepted,
                } => Event::at(cycle, EventKind::SbConfirm { index, excepted }),
            };
            self.emit(event);
        }
    }

    /// Advances to cycle `to`, charging every skipped non-issuing cycle
    /// (including the current one, if nothing issued on it) to `reason`.
    fn advance_cycle(&mut self, to: u64, reason: StallReason) {
        if to > self.cycle {
            let stalled = (to - self.cycle - 1) + u64::from(self.slots_used == 0);
            if stalled > 0 {
                self.stats.stalls.add(reason, stalled);
                if self.sink_active {
                    let start = if self.slots_used == 0 {
                        self.cycle
                    } else {
                        self.cycle + 1
                    };
                    self.emit(Event::at(
                        start,
                        EventKind::Stall {
                            reason,
                            cycles: stalled,
                        },
                    ));
                }
            }
            self.cycle = to;
            self.slots_used = 0;
            self.branches_used = 0;
        }
    }

    /// Finds the issue cycle for an instruction whose operands are ready
    /// at `min_cycle`, charging issue-width and branch-slot structure.
    /// `wait` attributes any empty cycles spent waiting for operands.
    fn issue_at(&mut self, min_cycle: u64, is_branch: bool, wait: StallReason) -> u64 {
        self.advance_cycle(min_cycle, wait);
        loop {
            let width_ok = self.slots_used < self.config.mdes.issue_width();
            let branch_ok =
                !is_branch || self.branches_used < self.config.mdes.branches_per_cycle();
            if width_ok && branch_ok {
                self.slots_used += 1;
                if self.slots_used == 1 {
                    self.stats.issuing_cycles += 1;
                }
                if is_branch {
                    self.branches_used += 1;
                }
                return self.cycle;
            }
            let structural = if width_ok {
                StallReason::BranchLimit
            } else {
                StallReason::FuConflict
            };
            self.advance_cycle(self.cycle + 1, structural);
        }
    }

    fn src_ready_cycle(&self, insn: &Insn) -> u64 {
        insn.raw_srcs()
            .map(|r| self.ready.get(&r).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    fn mark_dest_ready(&mut self, insn: &Insn, issue: u64) {
        if let Some(d) = insn.def() {
            let lat = self.config.mdes.latency(insn.op) as u64;
            self.ready.insert(d, issue + lat);
        }
    }

    /// Applies a [`sem::mem::LoadStep`] to the scoreboard: a real datum
    /// marks the raw destination register ready, a tag-only write marks
    /// the def-visible destination.
    fn apply_load(&mut self, insn: &Insn, step: sem::mem::LoadStep) -> Step {
        match step {
            sem::mem::LoadStep::Done { ready_at, raw } => {
                let dest = if raw { insn.dest } else { insn.def() };
                if let Some(d) = dest {
                    self.ready.insert(d, ready_at);
                }
                Step::Continue
            }
            sem::mem::LoadStep::Trap(trap) => Step::Trap(trap),
        }
    }

    /// Applies a [`sem::mem::StoreStep`]: a full-buffer stall blocks the
    /// in-order pipeline until the insertion cycle.
    fn apply_store(&mut self, step: sem::mem::StoreStep) -> Step {
        match step {
            sem::mem::StoreStep::Done { stall_to } => {
                if let Some(eff) = stall_to {
                    self.advance_cycle(eff.max(self.cycle), StallReason::StoreBufferFull);
                }
                Step::Continue
            }
            sem::mem::StoreStep::Trap(trap) => Step::Trap(trap),
        }
    }

    /// Executes one instruction: timing here, architectural semantics in
    /// [`crate::sem`] (Tables 1 and 2).
    fn exec_insn(&mut self, insn: &Insn) -> Result<Step, SimError> {
        use Opcode::*;
        self.stats.dyn_insns += 1;
        if insn.speculative {
            self.stats.dyn_speculative += 1;
        }
        if insn.boost > 0 {
            self.stats.dyn_boosted += 1;
        }
        self.pcq.record(insn.id);
        let op = insn.op;

        // Timing: issue when sources are ready and a slot is free. Empty
        // cycles spent waiting for a sentinel's own sources are charged
        // to the sentinel, not to an ordinary interlock.
        let wait = match op {
            CheckExcept | ConfirmStore => StallReason::SentinelOverhead,
            _ => StallReason::RawInterlock,
        };
        let ready = self.src_ready_cycle(insn);
        let issue = self.issue_at(ready, op.class() == sentinel_isa::OpClass::Branch, wait);
        if self.sink_active {
            self.last_issue = issue;
            self.last_insn = insn.id;
            let done = issue + self.config.mdes.latency(op) as u64;
            let slot = (self.slots_used - 1).min(u8::MAX as usize) as u8;
            self.emit(Event {
                cycle: issue,
                slot,
                kind: EventKind::Issue {
                    pc: insn.id,
                    text: insn.to_string(),
                    done,
                },
            });
        }
        if self.config.collect_trace {
            self.trace.push(TraceEvent {
                cycle: issue,
                id: insn.id,
                text: insn.to_string(),
                taken: false,
            });
        }

        match op {
            Halt => {
                if !self.shadow.is_empty() {
                    return Err(SimError::ShadowAtHalt(self.shadow.len()));
                }
                return Ok(Step::Halt);
            }
            Jump => {
                self.profile.record_branch(insn.id, true);
                self.redirect(issue);
                return Ok(Step::Goto(insn.target.expect("jump target")));
            }
            ClearTag => {
                sem::tag::exec_clear_tag(&mut self.arch(), insn);
                self.mark_dest_ready(insn, issue);
                return Ok(Step::Continue);
            }
            ConfirmStore => {
                return match sem::mem::exec_confirm(&mut self.arch(), insn, issue)? {
                    None => Ok(Step::Continue),
                    Some(trap) => Ok(Step::Trap(trap)),
                };
            }
            Jsr | Io => {
                // Opaque irreversible side effect; no register/memory
                // behavior in the simulation.
                return Ok(Step::Continue);
            }
            Beq | Bne | Blt | Bge => {
                self.stats.branches += 1;
                let (va, vb) = match sem::tag::branch_sources(&self.arch(), insn) {
                    Ok(v) => v,
                    Err(trap) => return Ok(Step::Trap(trap)),
                };
                let taken = branch_taken(op, va, vb);
                self.profile.record_branch(insn.id, taken);
                if taken {
                    self.stats.branches_taken += 1;
                    // Compile-time misprediction: cancel probationary
                    // stores and squash all boosted shadow state (§2.3).
                    sem::on_taken_branch(&mut self.arch(), issue);
                    self.redirect(issue);
                    return Ok(Step::Goto(insn.target.expect("branch target")));
                }
                // Correctly predicted: commit one level of shadow state.
                let (trap, stall_to) = sem::boost::commit(&mut self.arch(), insn.id, issue)?;
                if let Some(eff) = stall_to {
                    self.advance_cycle(eff.max(self.cycle), StallReason::StoreBufferFull);
                }
                return match trap {
                    Some(t) => Ok(Step::Trap(t)),
                    None => Ok(Step::Continue),
                };
            }
            LdW | LdB | FLd => {
                let lat = self.config.mdes.latency(op) as u64;
                let step = sem::mem::exec_load(&mut self.arch(), insn, issue, lat)?;
                return Ok(self.apply_load(insn, step));
            }
            StW | StB | FSt => {
                let step = sem::mem::exec_store(&mut self.arch(), insn, issue)?;
                return Ok(self.apply_store(step));
            }
            LdTag => {
                let lat = self.config.mdes.latency(op) as u64;
                let step = sem::mem::exec_ld_tag(&mut self.arch(), insn, issue, lat);
                return Ok(self.apply_load(insn, step));
            }
            StTag => {
                return Ok(match sem::mem::exec_st_tag(&mut self.arch(), insn) {
                    Some(trap) => Step::Trap(trap),
                    None => Step::Continue,
                });
            }
            CheckExcept => {
                self.stats.dyn_checks += 1;
                if self.sink_active {
                    let excepted = self.arch().first_tagged(insn).is_some();
                    let reg = insn.src1.unwrap_or(Reg::ZERO);
                    self.emit(Event::at(issue, EventKind::TagCheck { reg, excepted }));
                }
                // Falls through to the general (non-speculative use) path.
            }
            _ => {}
        }

        // General Table 1 path for computational instructions.
        match sem::tag::exec_compute(&mut self.arch(), insn)? {
            Some(trap) => Ok(Step::Trap(trap)),
            None => {
                self.mark_dest_ready(insn, issue);
                Ok(Step::Continue)
            }
        }
    }

    fn redirect(&mut self, branch_issue: u64) {
        // Taken-branch redirect: fetch resumes next cycle.
        self.advance_cycle(branch_issue + 1, StallReason::BranchRedirect);
    }
}
