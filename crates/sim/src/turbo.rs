//! The turbo execution engine: owned decode, chained traces, fused
//! micro-ops, and a ready-mask scoreboard.
//!
//! [`TurboMachine`] is the default engine behind
//! [`SimSession`](crate::SimSession). It executes a [`TurboProgram`] —
//! an *owned* lowering built on the dense decode pass of
//! [`crate::decode`] — with three optimizations, all confined to
//! dispatch (every architectural rule still routes through
//! [`crate::sem`], and the timing model is byte-for-byte the
//! interpreter's):
//!
//! * **Superblock trace chaining** — control transfers are pre-resolved
//!   at decode time to flat indices plus the exact block-entry chains
//!   the interpreter's profile would record, so the hot loop never
//!   re-looks-up a block entry; straight-line superblocks run on a
//!   `pc + 1` increment.
//! * **Fused micro-op pairs** — a simple ALU op adjacent to the
//!   branch/load/store that consumes it, and the `ld.s` + `check`
//!   sentinel idiom from §3, dispatch as one step: one fetch, one
//!   dispatch branch, two architecturally distinct issues (each
//!   component keeps its own issue cycle, stall attribution, fuel
//!   check, and PC-history entry, so every observable is unchanged).
//! * **Ready-mask issue selection** — a per-slot bitmask shadows the
//!   scoreboard: a clear bit proves the slot is ready at or before the
//!   current cycle without touching the ready-time array, and stale set
//!   bits are cleared lazily on read. Issue selection does O(issued)
//!   work instead of rescanning slot state per cycle.
//!
//! Because [`TurboProgram`] owns its instructions (no borrow of the
//! scheduled [`Function`]), one decode can be `Arc`-shared by several
//! sessions over the same function and machine.
//!
//! When a trace sink is attached or trace collection is on, the engine
//! falls back to an instrumented per-instruction loop that mirrors the
//! interpreter exactly (same events, same journal drain points); the
//! differential suite and the seeded fuzzer hold both engines to
//! identical outcomes, statistics, architectural state, and
//! trace-event streams.

use std::sync::Arc;

use sentinel_isa::{Insn, InsnId, MachineDesc, Opcode, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;
use sentinel_trace::{Event, EventKind, StallReason, TraceSink};

use crate::decode::{DecodedProgram, ResEnd, Resolution, NONE};
use crate::except::{ExceptionKind, PcHistoryQueue, Trap};
use crate::exec::branch_taken;
use crate::hash::FastMap;
use crate::memory::Memory;
use crate::regfile::{RegEvent, RegFile, TaggedValue};
use crate::sem::boost::ShadowState;
use crate::sem::storebuf::{SbEvent, StoreBuffer};
use crate::sem::{self, ArchState};
use crate::stats::Stats;
use crate::{Recovery, RunOutcome, SimConfig, SimError, TraceEvent};

/// Dense dispatch class, precomputed from the opcode at decode time so
/// the hot loop switches on a handful of handler kinds instead of the
/// full opcode space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Halt,
    Jump,
    ClearTag,
    Confirm,
    Nop,
    Branch,
    Load,
    Store,
    LdTag,
    StTag,
    Check,
    Compute,
}

impl Kind {
    fn of(op: Opcode) -> Kind {
        use Opcode::*;
        match op {
            Halt => Kind::Halt,
            Jump => Kind::Jump,
            ClearTag => Kind::ClearTag,
            ConfirmStore => Kind::Confirm,
            Jsr | Io => Kind::Nop,
            Beq | Bne | Blt | Bge => Kind::Branch,
            LdW | LdB | FLd => Kind::Load,
            StW | StB | FSt => Kind::Store,
            LdTag => Kind::LdTag,
            StTag => Kind::StTag,
            CheckExcept => Kind::Check,
            _ => Kind::Compute,
        }
    }
}

/// Fusion of this instruction with its textual successor (only ever set
/// when the successor is the unconditional dynamic successor, i.e. the
/// instruction is not the last of its block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fuse {
    None,
    /// Simple ALU op + conditional branch (compare+branch idiom).
    AluBranch,
    /// Simple ALU op + load (address-generation idiom).
    AluLoad,
    /// Simple ALU op + store (address-generation idiom).
    AluStore,
    /// Speculative load + sentinel check (`ld.s` / `check` from §3).
    LdsCheck,
    /// Head of a maximal straight-line run of simple ALU / check ops —
    /// the most common adjacency in scheduled superblock code. The whole
    /// run executes as one dispatch step (the `Fuse::AluRun` arm of
    /// `run_bare`'s tight inner loop).
    AluRun,
}

/// Decode-time metadata for one instruction, aligned with
/// [`TurboProgram::insns`].
#[derive(Debug, Clone)]
struct Meta {
    lat: u64,
    src1: u32,
    src2: u32,
    dest: u32,
    raw_dest: u32,
    target: u32,
    fall: u32,
    /// Combined ready-mask pre-test: both source slots are ready when
    /// `ready_mask[rm_w1] & rm_b1 == 0 && ready_mask[rm_w2] & rm_b2 == 0`
    /// (one or two loads, no per-slot shift math). A stale set bit just
    /// falls back to the exact per-slot path.
    rm_w1: u32,
    rm_b1: u64,
    rm_w2: u32,
    rm_b2: u64,
    /// Branchless `dyn_speculative` increment (1 iff speculative).
    spec_inc: u64,
    /// Branchless `dyn_boosted` increment (1 iff boosted).
    boost_inc: u64,
    is_branch: bool,
    wait: StallReason,
    kind: Kind,
    fuse: Fuse,
}

/// A function lowered into the turbo engine's owned, shareable form.
///
/// Unlike the borrowed dense decode it is built from, a
/// `TurboProgram` owns a clone of every instruction, so it has no
/// lifetime tie to the scheduled function and can be `Arc`-shared
/// across threads and sessions.
#[derive(Debug, Clone)]
pub struct TurboProgram {
    /// Flat instruction array in layout order (the decode pass's flat
    /// order; indices here are the engine's program counter).
    insns: Vec<Insn>,
    /// Per-instruction decode metadata, aligned with `insns`.
    meta: Vec<Meta>,
    /// Pre-resolved control-transfer chains.
    resolutions: Vec<Resolution>,
    entry: u32,
    int_slots: usize,
    slots: usize,
    flat_of: FastMap<InsnId, u32>,
}

impl TurboProgram {
    /// Lowers `func` for execution on `mdes`, chaining control
    /// transfers and marking fusible micro-op pairs.
    pub fn new(func: &Function, mdes: &MachineDesc) -> TurboProgram {
        let d = DecodedProgram::new(func, mdes);
        let insns: Vec<Insn> = d.insns.iter().map(|di| di.raw.clone()).collect();
        let mut meta: Vec<Meta> = d
            .insns
            .iter()
            .map(|di| {
                let (mut rm_w1, mut rm_b1, mut rm_w2, mut rm_b2) = (0u32, 0u64, 0u32, 0u64);
                for s in [di.src1, di.src2] {
                    if s == NONE {
                        continue;
                    }
                    let (w, b) = (s >> 6, 1u64 << (s & 63));
                    if rm_b1 == 0 || w == rm_w1 {
                        rm_w1 = w;
                        rm_b1 |= b;
                    } else {
                        rm_w2 = w;
                        rm_b2 |= b;
                    }
                }
                Meta {
                    lat: di.lat,
                    src1: di.src1,
                    src2: di.src2,
                    dest: di.dest,
                    raw_dest: di.raw_dest,
                    target: di.target,
                    fall: di.fall,
                    rm_w1,
                    rm_b1,
                    rm_w2,
                    rm_b2,
                    spec_inc: u64::from(di.raw.speculative),
                    boost_inc: u64::from(di.raw.boost > 0),
                    is_branch: di.is_branch,
                    wait: di.wait,
                    kind: Kind::of(di.raw.op),
                    fuse: Fuse::None,
                }
            })
            .collect();
        // Fusion pass: pair an instruction with its successor only when
        // the successor is unconditionally next (mid-block, `fall` not
        // set), so a fused step never crosses a block boundary.
        for i in 0..meta.len().saturating_sub(1) {
            if meta[i].fall != NONE {
                continue;
            }
            let alu = |k: Kind| k == Kind::Compute || k == Kind::Check;
            meta[i].fuse = match (meta[i].kind, meta[i + 1].kind) {
                (Kind::Compute, Kind::Branch) => Fuse::AluBranch,
                (Kind::Compute, Kind::Load) => Fuse::AluLoad,
                (Kind::Compute, Kind::Store) => Fuse::AluStore,
                (Kind::Load, Kind::Check) if insns[i].speculative => Fuse::LdsCheck,
                (a, b) if alu(a) && alu(b) => Fuse::AluRun,
                _ => Fuse::None,
            };
        }
        TurboProgram {
            insns,
            meta,
            resolutions: d.resolutions,
            entry: d.entry,
            int_slots: d.int_slots,
            slots: d.slots,
            flat_of: d.flat_of,
        }
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` if the program decodes to no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Number of instructions that dispatch as the first half of a
    /// fused micro-op pair (diagnostics and tests).
    pub fn fused_pairs(&self) -> usize {
        self.meta.iter().filter(|m| m.fuse != Fuse::None).count()
    }
}

enum Step {
    Continue,
    /// Taken control transfer to a resolution index.
    Goto(u32),
    Halt,
    Trap(Trap),
}

/// The turbo engine: execute an owned [`TurboProgram`].
///
/// Construct through [`SimSession`](crate::SimSession) with
/// [`Engine::Turbo`](crate::Engine::Turbo). The public surface mirrors
/// [`Machine`](crate::Machine) so sessions can delegate uniformly.
pub(crate) struct TurboMachine {
    prog: Arc<TurboProgram>,
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
    sink: Option<Box<dyn TraceSink>>,
    sink_active: bool,
    last_issue: u64,
    last_insn: InsnId,
    // --- timing state ---
    cycle: u64,
    slots_used: usize,
    branches_used: usize,
    /// Dense register scoreboard indexed by decoded register slot.
    ready: Vec<u64>,
    /// One bit per scoreboard slot: clear ⇒ the slot is ready at or
    /// before the current cycle (skip the `ready` load entirely); set ⇒
    /// `ready[slot]` holds the exact ready cycle. Stale set bits are
    /// cleared lazily on read.
    ready_mask: Vec<u64>,
    issue_width: usize,
    branches_per_cycle: usize,
    // --- dense profile / PC-history accumulators ---
    // The shared `Profile` hashes on every block entry and branch; the
    // hot loop instead bumps one array slot (indexed by resolution or
    // flat pc) and `flush_observables` folds the counts into the
    // canonical forms on every run exit, so `profile()` and
    // `pc_history()` read back exactly what the other engines produce.
    /// Entry count per resolution index.
    res_counts: Vec<u64>,
    /// Execution count per flat index (control-transfer instructions).
    br_exec: Vec<u64>,
    /// Taken count per flat index.
    br_taken: Vec<u64>,
    /// Fixed-size PC ring (last `pc_depth` issued PCs, oldest at
    /// `pc_head` once full).
    pc_ring: Vec<InsnId>,
    pc_head: usize,
    pc_depth: usize,
}

// The evaluation grid runs cells on scoped worker threads; the turbo
// engine must move there exactly like the other two.
const _: () = {
    const fn send<T: Send>() {}
    send::<TurboMachine>();
};

impl TurboMachine {
    /// Creates an engine over a (possibly cache-shared) decoded program.
    /// Register-file sizing matches the other engines: the larger of
    /// the machine description and the registers the program names.
    pub fn new(prog: Arc<TurboProgram>, config: SimConfig) -> TurboMachine {
        let fp_slots = prog.slots - prog.int_slots;
        TurboMachine {
            regs: RegFile::new(prog.int_slots, fp_slots),
            mem: Memory::new(),
            sb: StoreBuffer::new(config.mdes.store_buffer_size()),
            pcq: PcHistoryQueue::new(config.pc_history_depth),
            kinds: FastMap::default(),
            stats: Stats::default(),
            profile: Profile::new(),
            shadow: ShadowState::default(),
            trace: Vec::new(),
            cache: config.cache.clone().map(crate::cache::DataCache::new),
            sink: None,
            sink_active: false,
            last_issue: 0,
            last_insn: InsnId(0),
            cycle: 0,
            slots_used: 0,
            branches_used: 0,
            ready: vec![0; prog.slots],
            // At least one word so the combined pre-test's unconditional
            // `[rm_w]` loads (0 for absent sources) stay in bounds.
            ready_mask: vec![0; prog.slots.div_ceil(64).max(1)],
            issue_width: config.mdes.issue_width(),
            branches_per_cycle: config.mdes.branches_per_cycle(),
            res_counts: vec![0; prog.resolutions.len()],
            br_exec: vec![0; prog.insns.len()],
            br_taken: vec![0; prog.insns.len()],
            pc_ring: Vec::with_capacity(config.pc_history_depth),
            pc_head: 0,
            pc_depth: config.pc_history_depth,
            prog,
            config,
        }
    }

    /// The shared-semantics view over this engine's architectural state.
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
    /// store-buffer journals feeding it. Call before [`TurboMachine::run`].
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        let active = sink.wants_events();
        self.regs.set_journal(active);
        self.sb.set_journal(active);
        self.sink_active = active;
        self.sink = Some(sink);
    }

    /// Detaches the sink (if any), disabling the journals.
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

    /// Sets a register's exception tag with stale contents.
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

    /// Applies a pre-resolved control transfer: bumps the resolution's
    /// dense entry counter (expanded into per-block profile counts at
    /// flush time) and returns the destination flat index.
    fn enter(&mut self, prog: &TurboProgram, res: u32) -> Result<u32, SimError> {
        self.res_counts[res as usize] += 1;
        match prog.resolutions[res as usize].end {
            ResEnd::At(idx) => Ok(idx),
            ResEnd::FellOff(b) => Err(SimError::FellOffEnd(b)),
        }
    }

    /// Records an issued PC into the dense ring (the turbo stand-in for
    /// [`PcHistoryQueue::record`]; materialized at flush time).
    #[inline]
    fn record_pc(&mut self, id: InsnId) {
        if self.pc_ring.len() < self.pc_depth {
            self.pc_ring.push(id);
        } else {
            self.pc_ring[self.pc_head] = id;
            self.pc_head += 1;
            if self.pc_head == self.pc_depth {
                self.pc_head = 0;
            }
        }
    }

    /// Folds the dense accumulators into the canonical observable forms
    /// — the shared [`Profile`] and [`PcHistoryQueue`] — and resets the
    /// run-scoped counters. Called on every exit path of a run, so the
    /// `profile()` / `pc_history()` accessors are byte-identical to the
    /// other engines whenever a caller can reach them.
    fn flush_observables(&mut self) {
        let prog = Arc::clone(&self.prog);
        for (idx, c) in self.res_counts.iter_mut().enumerate() {
            if *c > 0 {
                for &b in &prog.resolutions[idx].enters {
                    *self.profile.block_entries.entry(b).or_insert(0) += *c;
                }
                *c = 0;
            }
        }
        for (i, c) in self.br_exec.iter_mut().enumerate() {
            if *c > 0 {
                *self
                    .profile
                    .branch_executed
                    .entry(prog.insns[i].id)
                    .or_insert(0) += *c;
                *c = 0;
            }
        }
        for (i, c) in self.br_taken.iter_mut().enumerate() {
            if *c > 0 {
                *self
                    .profile
                    .branch_taken
                    .entry(prog.insns[i].id)
                    .or_insert(0) += *c;
                *c = 0;
            }
        }
        let mut q = PcHistoryQueue::new(self.pc_depth);
        let full = self.pc_ring.len() == self.pc_depth;
        for k in 0..self.pc_ring.len() {
            let idx = if full {
                (self.pc_head + k) % self.pc_depth
            } else {
                k
            };
            q.record(self.pc_ring[idx]);
        }
        self.pcq = q;
    }

    /// Runs with an exception-recovery handler (paper §3.7).
    ///
    /// # Errors
    ///
    /// In addition to [`TurboMachine::run`]'s errors:
    /// [`SimError::RecoveryLoop`] and [`SimError::UnknownRecoveryPc`].
    pub fn run_with_recovery<H>(&mut self, handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        let r = self.run_loop(handler);
        self.flush_observables();
        r
    }

    /// The run loop proper; every exit flows back through
    /// [`TurboMachine::run_with_recovery`]'s observable flush.
    fn run_loop<H>(&mut self, mut handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        let prog = Arc::clone(&self.prog);
        let mut pc = self.enter(&prog, prog.entry)?;
        loop {
            // The instrumented loop mirrors the interpreter exactly
            // (same event construction, same journal drain points); the
            // bare loop is the optimized path the instrumentation-free
            // common case runs on.
            let step = if self.sink_active || self.config.collect_trace {
                if self.stats.dyn_insns >= self.config.fuel {
                    return Err(SimError::OutOfFuel);
                }
                let step = self.exec_insn::<true>(&prog, pc)?;
                self.drain_journals();
                match step {
                    Step::Continue => {
                        let fall = prog.meta[pc as usize].fall;
                        pc = if fall == NONE {
                            pc + 1
                        } else {
                            self.enter(&prog, fall)?
                        };
                        continue;
                    }
                    Step::Goto(res) => {
                        if let Some(last) = self.trace.last_mut() {
                            last.taken = true;
                        }
                        pc = self.enter(&prog, res)?;
                        continue;
                    }
                    other => other,
                }
            } else {
                self.run_bare(&prog, &mut pc)?
            };
            match step {
                Step::Continue | Step::Goto(_) => unreachable!("handled above"),
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
                            let Some(&rpc) = prog.flat_of.get(&trap.excepting_pc) else {
                                return Err(SimError::UnknownRecoveryPc(trap.excepting_pc));
                            };
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
                            pc = rpc;
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

    /// The uninstrumented hot loop: runs until a halt or trap, advancing
    /// `pc` through fallthroughs, chained transfers, and fused micro-ops
    /// internally. Only ever returns [`Step::Halt`] or [`Step::Trap`].
    ///
    /// `self` splits into disjoint field borrows up front: the semantic
    /// fields feed ONE long-lived [`ArchState`] for the whole run
    /// (instead of rebuilding the bundle per instruction), and the
    /// timing front end — readiness, issue arbitration, stall
    /// attribution, PC history — is the same code as the engine methods
    /// the instrumented loop uses, expanded field-level by local macros
    /// over locals the compiler can keep in registers. Counters mirror
    /// into locals and flush back at the single exit; `sem` never reads
    /// them mid-run.
    fn run_bare(&mut self, prog: &TurboProgram, pc: &mut u32) -> Result<Step, SimError> {
        let fuel = self.config.fuel;
        let issue_width = self.issue_width;
        let branches_per_cycle = self.branches_per_cycle;
        let TurboMachine {
            config,
            regs,
            mem,
            sb,
            kinds,
            stats,
            shadow,
            cache,
            cycle: cycle_f,
            slots_used: slots_f,
            branches_used: branches_f,
            ready,
            ready_mask,
            res_counts,
            br_exec,
            br_taken,
            pc_ring,
            pc_head,
            pc_depth,
            ..
        } = self;
        let pc_depth = *pc_depth;
        let mut arch = ArchState {
            regs,
            mem,
            sb,
            shadow,
            kinds,
            stats,
            cache,
            semantics: config.semantics,
        };
        let mut dyn_insns = arch.stats.dyn_insns;
        let (mut spec, mut boost, mut checks, mut issuing) = (0u64, 0u64, 0u64, 0u64);
        let mut cycle = *cycle_f;
        let mut slots = *slots_f;
        let mut branches = *branches_f;

        /// `advance_cycle` over the locals (the bare loop never runs
        /// with an active sink, so no stall events are emitted).
        macro_rules! advance {
            ($to:expr, $reason:expr) => {{
                let to = $to;
                if to > cycle {
                    let stalled = (to - cycle - 1) + u64::from(slots == 0);
                    if stalled > 0 {
                        arch.stats.stalls.add($reason, stalled);
                    }
                    cycle = to;
                    slots = 0;
                    branches = 0;
                }
            }};
        }
        /// `issue_at` + `issue_slow` over the locals; `$is_branch` is a
        /// literal so the branch-limit checks const-fold away on the
        /// non-branch paths.
        macro_rules! issue {
            ($min:expr, $is_branch:expr, $wait:expr) => {{
                let min_cycle = $min;
                if min_cycle <= cycle
                    && slots < issue_width
                    && (!$is_branch || branches < branches_per_cycle)
                {
                    slots += 1;
                    issuing += u64::from(slots == 1);
                    if $is_branch {
                        branches += 1;
                    }
                    cycle
                } else {
                    advance!(min_cycle, $wait);
                    loop {
                        let width_ok = slots < issue_width;
                        let branch_ok = !$is_branch || branches < branches_per_cycle;
                        if width_ok && branch_ok {
                            slots += 1;
                            issuing += u64::from(slots == 1);
                            if $is_branch {
                                branches += 1;
                            }
                            break cycle;
                        }
                        let structural = if width_ok {
                            StallReason::BranchLimit
                        } else {
                            StallReason::FuConflict
                        };
                        advance!(cycle + 1, structural);
                    }
                }
            }};
        }
        /// Combined ready pre-test with the exact lazily-clearing
        /// per-slot fallback (`src_ready` inlined).
        macro_rules! ready_of {
            ($m:expr) => {{
                if ready_mask[$m.rm_w1 as usize] & $m.rm_b1 == 0
                    && ready_mask[$m.rm_w2 as usize] & $m.rm_b2 == 0
                {
                    0
                } else {
                    let mut at = 0;
                    for slot in [$m.src1, $m.src2] {
                        if slot == NONE {
                            continue;
                        }
                        let (w, b) = (slot as usize >> 6, 1u64 << (slot & 63));
                        if ready_mask[w] & b == 0 {
                            continue;
                        }
                        let t = ready[slot as usize];
                        if t <= cycle {
                            ready_mask[w] &= !b;
                        } else if t > at {
                            at = t;
                        }
                    }
                    at
                }
            }};
        }
        /// `record_pc` inlined.
        macro_rules! record_pc {
            ($id:expr) => {{
                if pc_ring.len() < pc_depth {
                    pc_ring.push($id);
                } else {
                    pc_ring[*pc_head] = $id;
                    *pc_head += 1;
                    if *pc_head == pc_depth {
                        *pc_head = 0;
                    }
                }
            }};
        }
        /// `mark_ready` inlined.
        macro_rules! mark_ready {
            ($slot:expr, $at:expr) => {{
                let s = $slot;
                if s != NONE {
                    ready[s as usize] = $at;
                    ready_mask[s as usize >> 6] |= 1u64 << (s & 63);
                }
            }};
        }
        /// `enter` inlined: evaluates to the destination flat index, or
        /// breaks the run on a fell-off-end resolution.
        macro_rules! enter {
            ($l:lifetime, $res:expr) => {{
                let r = $res as usize;
                res_counts[r] += 1;
                match prog.resolutions[r].end {
                    ResEnd::At(idx) => idx,
                    ResEnd::FellOff(b) => break $l Err(SimError::FellOffEnd(b)),
                }
            }};
        }
        /// The per-instruction front end (`prologue` inlined).
        macro_rules! prologue {
            ($m:expr, $insn:expr, $is_branch:expr) => {{
                let ready_at = ready_of!($m);
                dyn_insns += 1;
                spec += $m.spec_inc;
                boost += $m.boost_inc;
                record_pc!($insn.id);
                issue!(ready_at, $is_branch, $m.wait)
            }};
        }
        /// `exec_compute` with trap/error exits breaking the run.
        macro_rules! compute {
            ($l:lifetime, $insn:expr) => {{
                match sem::tag::exec_compute(&mut arch, $insn) {
                    Ok(None) => {}
                    Ok(Some(trap)) => break $l Ok(Step::Trap(trap)),
                    Err(e) => break $l Err(e),
                }
            }};
        }
        /// `apply_load` inlined over a [`sem::mem::LoadStep`].
        macro_rules! apply_load {
            ($l:lifetime, $m:expr, $step:expr) => {{
                match $step {
                    sem::mem::LoadStep::Done { ready_at, raw } => {
                        mark_ready!(if raw { $m.raw_dest } else { $m.dest }, ready_at);
                    }
                    sem::mem::LoadStep::Trap(trap) => break $l Ok(Step::Trap(trap)),
                }
            }};
        }

        let res = 'run: loop {
            if dyn_insns >= fuel {
                break 'run Err(SimError::OutOfFuel);
            }
            let mut i = *pc as usize;
            let fuse = prog.meta[i].fuse;
            match fuse {
                // A maximal straight-line ALU / check run executes as
                // one dispatch step: no dispatch match, no block-end
                // bookkeeping until the run ends.
                Fuse::AluRun => loop {
                    let (m, insn) = (&prog.meta[i], &prog.insns[i]);
                    let ready_at = ready_of!(m);
                    dyn_insns += 1;
                    spec += m.spec_inc;
                    boost += m.boost_inc;
                    checks += u64::from(m.kind == Kind::Check);
                    record_pc!(insn.id);
                    let issue = issue!(ready_at, false, m.wait);
                    compute!('run, insn);
                    mark_ready!(m.dest, issue + m.lat);
                    if m.fall != NONE {
                        *pc = enter!('run, m.fall);
                        break;
                    }
                    // Mid-block, so `i + 1` exists; the run continues
                    // through every adjacent ALU / check op.
                    i += 1;
                    let next = prog.meta[i].kind;
                    if next != Kind::Compute && next != Kind::Check {
                        *pc = i as u32;
                        break;
                    }
                    if dyn_insns >= fuel {
                        break 'run Err(SimError::OutOfFuel);
                    }
                },
                // Fused micro-op pairs: one fetch and one dispatch
                // branch, two architecturally distinct issues.
                Fuse::AluBranch | Fuse::AluLoad | Fuse::AluStore | Fuse::LdsCheck => {
                    // First component: a simple ALU op (Alu* fusions) or
                    // the speculative load of an `ld.s` + `check` pair.
                    {
                        let (m, insn) = (&prog.meta[i], &prog.insns[i]);
                        let issue = prologue!(m, insn, false);
                        if fuse == Fuse::LdsCheck {
                            match sem::mem::exec_load(&mut arch, insn, issue, m.lat) {
                                Ok(step) => apply_load!('run, m, step),
                                Err(e) => break 'run Err(e),
                            }
                        } else {
                            compute!('run, insn);
                            mark_ready!(m.dest, issue + m.lat);
                        }
                    }
                    if dyn_insns >= fuel {
                        break 'run Err(SimError::OutOfFuel);
                    }
                    // Second component at the next flat index (fusion
                    // never crosses a block boundary).
                    let j = i + 1;
                    let (m, insn) = (&prog.meta[j], &prog.insns[j]);
                    match fuse {
                        Fuse::AluBranch => {
                            let issue = prologue!(m, insn, true);
                            arch.stats.branches += 1;
                            let (va, vb) = match sem::tag::branch_sources(&arch, insn) {
                                Ok(v) => v,
                                Err(trap) => break 'run Ok(Step::Trap(trap)),
                            };
                            let taken = branch_taken(insn.op, va, vb);
                            br_exec[j] += 1;
                            if taken {
                                br_taken[j] += 1;
                                arch.stats.branches_taken += 1;
                                sem::on_taken_branch(&mut arch, issue);
                                advance!(issue + 1, StallReason::BranchRedirect);
                                debug_assert_ne!(m.target, NONE, "branch target");
                                *pc = enter!('run, m.target);
                                continue 'run;
                            }
                            let (trap, stall_to) =
                                match sem::boost::commit(&mut arch, insn.id, issue) {
                                    Ok(v) => v,
                                    Err(e) => break 'run Err(e),
                                };
                            if let Some(eff) = stall_to {
                                advance!(eff.max(cycle), StallReason::StoreBufferFull);
                            }
                            if let Some(t) = trap {
                                break 'run Ok(Step::Trap(t));
                            }
                        }
                        Fuse::AluLoad => {
                            let issue = prologue!(m, insn, false);
                            match sem::mem::exec_load(&mut arch, insn, issue, m.lat) {
                                Ok(step) => apply_load!('run, m, step),
                                Err(e) => break 'run Err(e),
                            }
                        }
                        Fuse::AluStore => {
                            let issue = prologue!(m, insn, false);
                            match sem::mem::exec_store(&mut arch, insn, issue) {
                                Ok(sem::mem::StoreStep::Done { stall_to }) => {
                                    if let Some(eff) = stall_to {
                                        advance!(eff.max(cycle), StallReason::StoreBufferFull);
                                    }
                                }
                                Ok(sem::mem::StoreStep::Trap(trap)) => {
                                    break 'run Ok(Step::Trap(trap))
                                }
                                Err(e) => break 'run Err(e),
                            }
                        }
                        Fuse::LdsCheck => {
                            let issue = prologue!(m, insn, false);
                            checks += 1;
                            compute!('run, insn);
                            mark_ready!(m.dest, issue + m.lat);
                        }
                        Fuse::None | Fuse::AluRun => {
                            unreachable!("fused dispatch requires a pair fusion")
                        }
                    }
                    *pc = if m.fall == NONE {
                        j as u32 + 1
                    } else {
                        enter!('run, m.fall)
                    };
                }
                // General single-instruction dispatch (the bare twin of
                // `exec_insn`: timing here, semantics in `crate::sem`).
                Fuse::None => {
                    let (m, insn) = (&prog.meta[i], &prog.insns[i]);
                    let issue = prologue!(m, insn, m.is_branch);
                    match m.kind {
                        Kind::Halt => {
                            if !arch.shadow.is_empty() {
                                break 'run Err(SimError::ShadowAtHalt(arch.shadow.len()));
                            }
                            break 'run Ok(Step::Halt);
                        }
                        Kind::Jump => {
                            br_exec[i] += 1;
                            br_taken[i] += 1;
                            advance!(issue + 1, StallReason::BranchRedirect);
                            debug_assert_ne!(m.target, NONE, "jump target");
                            *pc = enter!('run, m.target);
                            continue 'run;
                        }
                        Kind::ClearTag => {
                            sem::tag::exec_clear_tag(&mut arch, insn);
                            mark_ready!(m.dest, issue + m.lat);
                        }
                        Kind::Confirm => match sem::mem::exec_confirm(&mut arch, insn, issue) {
                            Ok(None) => {}
                            Ok(Some(trap)) => break 'run Ok(Step::Trap(trap)),
                            Err(e) => break 'run Err(e),
                        },
                        Kind::Nop => {}
                        Kind::Branch => {
                            arch.stats.branches += 1;
                            let (va, vb) = match sem::tag::branch_sources(&arch, insn) {
                                Ok(v) => v,
                                Err(trap) => break 'run Ok(Step::Trap(trap)),
                            };
                            let taken = branch_taken(insn.op, va, vb);
                            br_exec[i] += 1;
                            if taken {
                                br_taken[i] += 1;
                                arch.stats.branches_taken += 1;
                                sem::on_taken_branch(&mut arch, issue);
                                advance!(issue + 1, StallReason::BranchRedirect);
                                debug_assert_ne!(m.target, NONE, "branch target");
                                *pc = enter!('run, m.target);
                                continue 'run;
                            }
                            let (trap, stall_to) =
                                match sem::boost::commit(&mut arch, insn.id, issue) {
                                    Ok(v) => v,
                                    Err(e) => break 'run Err(e),
                                };
                            if let Some(eff) = stall_to {
                                advance!(eff.max(cycle), StallReason::StoreBufferFull);
                            }
                            if let Some(t) = trap {
                                break 'run Ok(Step::Trap(t));
                            }
                        }
                        Kind::Load => match sem::mem::exec_load(&mut arch, insn, issue, m.lat) {
                            Ok(step) => apply_load!('run, m, step),
                            Err(e) => break 'run Err(e),
                        },
                        Kind::Store => match sem::mem::exec_store(&mut arch, insn, issue) {
                            Ok(sem::mem::StoreStep::Done { stall_to }) => {
                                if let Some(eff) = stall_to {
                                    advance!(eff.max(cycle), StallReason::StoreBufferFull);
                                }
                            }
                            Ok(sem::mem::StoreStep::Trap(trap)) => break 'run Ok(Step::Trap(trap)),
                            Err(e) => break 'run Err(e),
                        },
                        Kind::LdTag => {
                            let step = sem::mem::exec_ld_tag(&mut arch, insn, issue, m.lat);
                            apply_load!('run, m, step);
                        }
                        Kind::StTag => {
                            if let Some(trap) = sem::mem::exec_st_tag(&mut arch, insn) {
                                break 'run Ok(Step::Trap(trap));
                            }
                        }
                        Kind::Check | Kind::Compute => {
                            checks += u64::from(m.kind == Kind::Check);
                            compute!('run, insn);
                            mark_ready!(m.dest, issue + m.lat);
                        }
                    }
                    *pc = if m.fall == NONE {
                        i as u32 + 1
                    } else {
                        enter!('run, m.fall)
                    };
                }
            }
        };
        arch.stats.dyn_insns = dyn_insns;
        arch.stats.dyn_speculative += spec;
        arch.stats.dyn_boosted += boost;
        arch.stats.dyn_checks += checks;
        arch.stats.issuing_cycles += issuing;
        *cycle_f = cycle;
        *slots_f = slots;
        *branches_f = branches;
        res
    }

    /// The shared per-instruction front end: source-readiness lookup,
    /// dynamic-instruction accounting, PC history, and issue-slot
    /// arbitration. Returns the issue cycle.
    #[inline]
    fn prologue(&mut self, m: &Meta, insn: &Insn) -> u64 {
        // Combined pre-test: clear bits prove both sources ready without
        // per-slot shift math; any set (possibly stale) bit falls back
        // to the exact lazily-clearing reads.
        let ready = if self.ready_mask[m.rm_w1 as usize] & m.rm_b1 == 0
            && self.ready_mask[m.rm_w2 as usize] & m.rm_b2 == 0
        {
            0
        } else {
            self.src_ready(m.src1).max(self.src_ready(m.src2))
        };
        self.stats.dyn_insns += 1;
        self.stats.dyn_speculative += m.spec_inc;
        self.stats.dyn_boosted += m.boost_inc;
        self.record_pc(insn.id);
        self.issue_at(ready, m.is_branch, m.wait)
    }

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

    fn emit(&mut self, event: Event) {
        if let Some(s) = &mut self.sink {
            s.record(&event);
        }
    }

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

    /// Issue-slot arbitration with a straight-line fast path: when the
    /// sources are ready and a slot (and branch slot, if needed) is
    /// free this cycle, issue immediately; otherwise fall into the
    /// stall-attributing slow path shared with the other engines.
    #[inline]
    fn issue_at(&mut self, min_cycle: u64, is_branch: bool, wait: StallReason) -> u64 {
        if min_cycle <= self.cycle
            && self.slots_used < self.issue_width
            && (!is_branch || self.branches_used < self.branches_per_cycle)
        {
            self.slots_used += 1;
            if self.slots_used == 1 {
                self.stats.issuing_cycles += 1;
            }
            if is_branch {
                self.branches_used += 1;
            }
            return self.cycle;
        }
        self.issue_slow(min_cycle, is_branch, wait)
    }

    fn issue_slow(&mut self, min_cycle: u64, is_branch: bool, wait: StallReason) -> u64 {
        self.advance_cycle(min_cycle, wait);
        loop {
            let width_ok = self.slots_used < self.issue_width;
            let branch_ok = !is_branch || self.branches_used < self.branches_per_cycle;
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

    /// Ready-mask scoreboard read: a clear bit proves the slot imposes
    /// no wait without loading its ready time; a stale set bit (time
    /// already reached) is cleared so the next read takes the one-load
    /// path. Equivalent to the dense read because `issue_at` treats any
    /// `min_cycle <= cycle` identically.
    #[inline]
    fn src_ready(&mut self, slot: u32) -> u64 {
        if slot == NONE {
            return 0;
        }
        let (w, b) = (slot as usize >> 6, 1u64 << (slot & 63));
        if self.ready_mask[w] & b == 0 {
            return 0;
        }
        let t = self.ready[slot as usize];
        if t <= self.cycle {
            self.ready_mask[w] &= !b;
            return 0;
        }
        t
    }

    /// Marks a decoded scoreboard slot ready at `at` (no-op for [`NONE`],
    /// which already encodes the `def()` filter).
    #[inline]
    fn mark_ready(&mut self, slot: u32, at: u64) {
        if slot != NONE {
            self.ready[slot as usize] = at;
            self.ready_mask[slot as usize >> 6] |= 1u64 << (slot & 63);
        }
    }

    /// Applies a [`sem::mem::LoadStep`] to the scoreboard: a real datum
    /// marks the raw destination slot, a tag-only write marks the
    /// def-visible slot. Returns the trap, if any.
    #[inline]
    fn apply_load(
        &mut self,
        dest_slot: u32,
        raw_dest_slot: u32,
        step: sem::mem::LoadStep,
    ) -> Option<Trap> {
        match step {
            sem::mem::LoadStep::Done { ready_at, raw } => {
                self.mark_ready(if raw { raw_dest_slot } else { dest_slot }, ready_at);
                None
            }
            sem::mem::LoadStep::Trap(trap) => Some(trap),
        }
    }

    /// Applies a [`sem::mem::StoreStep`]: a full-buffer stall blocks the
    /// in-order pipeline until the insertion cycle.
    #[inline]
    fn apply_store(&mut self, step: sem::mem::StoreStep) -> Option<Trap> {
        match step {
            sem::mem::StoreStep::Done { stall_to } => {
                if let Some(eff) = stall_to {
                    self.advance_cycle(eff.max(self.cycle), StallReason::StoreBufferFull);
                }
                None
            }
            sem::mem::StoreStep::Trap(trap) => Some(trap),
        }
    }

    /// Executes the instruction at flat index `pc`: timing here,
    /// architectural semantics in [`crate::sem`] (Tables 1 and 2) over
    /// the decoded form. `TRACED` compiles the event-construction and
    /// trace-collection sites in (instrumented loop) or out (bare loop).
    fn exec_insn<const TRACED: bool>(
        &mut self,
        prog: &TurboProgram,
        pc: u32,
    ) -> Result<Step, SimError> {
        let m = &prog.meta[pc as usize];
        let insn = &prog.insns[pc as usize];
        let (lat, dest_slot, raw_dest_slot, target_res) = (m.lat, m.dest, m.raw_dest, m.target);
        let kind = m.kind;
        let issue = self.prologue(m, insn);
        if TRACED {
            if self.sink_active {
                self.last_issue = issue;
                self.last_insn = insn.id;
                let done = issue + lat;
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
        }

        match kind {
            Kind::Halt => {
                if !self.shadow.is_empty() {
                    return Err(SimError::ShadowAtHalt(self.shadow.len()));
                }
                Ok(Step::Halt)
            }
            Kind::Jump => {
                self.br_exec[pc as usize] += 1;
                self.br_taken[pc as usize] += 1;
                self.redirect(issue);
                debug_assert_ne!(target_res, NONE, "jump target");
                Ok(Step::Goto(target_res))
            }
            Kind::ClearTag => {
                sem::tag::exec_clear_tag(&mut self.arch(), insn);
                self.mark_ready(dest_slot, issue + lat);
                Ok(Step::Continue)
            }
            Kind::Confirm => match sem::mem::exec_confirm(&mut self.arch(), insn, issue)? {
                None => Ok(Step::Continue),
                Some(trap) => Ok(Step::Trap(trap)),
            },
            Kind::Nop => Ok(Step::Continue),
            Kind::Branch => {
                self.stats.branches += 1;
                let (va, vb) = match sem::tag::branch_sources(&self.arch(), insn) {
                    Ok(v) => v,
                    Err(trap) => return Ok(Step::Trap(trap)),
                };
                let taken = branch_taken(insn.op, va, vb);
                self.br_exec[pc as usize] += 1;
                if taken {
                    self.br_taken[pc as usize] += 1;
                    self.stats.branches_taken += 1;
                    sem::on_taken_branch(&mut self.arch(), issue);
                    self.redirect(issue);
                    debug_assert_ne!(target_res, NONE, "branch target");
                    return Ok(Step::Goto(target_res));
                }
                let (trap, stall_to) = sem::boost::commit(&mut self.arch(), insn.id, issue)?;
                if let Some(eff) = stall_to {
                    self.advance_cycle(eff.max(self.cycle), StallReason::StoreBufferFull);
                }
                match trap {
                    Some(t) => Ok(Step::Trap(t)),
                    None => Ok(Step::Continue),
                }
            }
            Kind::Load => {
                let step = sem::mem::exec_load(&mut self.arch(), insn, issue, lat)?;
                Ok(match self.apply_load(dest_slot, raw_dest_slot, step) {
                    Some(trap) => Step::Trap(trap),
                    None => Step::Continue,
                })
            }
            Kind::Store => {
                let step = sem::mem::exec_store(&mut self.arch(), insn, issue)?;
                Ok(match self.apply_store(step) {
                    Some(trap) => Step::Trap(trap),
                    None => Step::Continue,
                })
            }
            Kind::LdTag => {
                let step = sem::mem::exec_ld_tag(&mut self.arch(), insn, issue, lat);
                Ok(match self.apply_load(dest_slot, raw_dest_slot, step) {
                    Some(trap) => Step::Trap(trap),
                    None => Step::Continue,
                })
            }
            Kind::StTag => Ok(match sem::mem::exec_st_tag(&mut self.arch(), insn) {
                Some(trap) => Step::Trap(trap),
                None => Step::Continue,
            }),
            Kind::Check | Kind::Compute => {
                if kind == Kind::Check {
                    self.stats.dyn_checks += 1;
                    if TRACED && self.sink_active {
                        let excepted = self.arch().first_tagged(insn).is_some();
                        let reg = insn.src1.unwrap_or(Reg::ZERO);
                        self.emit(Event::at(issue, EventKind::TagCheck { reg, excepted }));
                    }
                }
                match sem::tag::exec_compute(&mut self.arch(), insn)? {
                    Some(trap) => Ok(Step::Trap(trap)),
                    None => {
                        self.mark_ready(dest_slot, issue + lat);
                        Ok(Step::Continue)
                    }
                }
            }
        }
    }

    fn redirect(&mut self, branch_issue: u64) {
        self.advance_cycle(branch_issue + 1, StallReason::BranchRedirect);
    }
}
