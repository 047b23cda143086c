//! The compile-session API: an instrumented, verifiable pass pipeline.
//!
//! [`CompileSession`] is the compiler-side mirror of the simulator's
//! `SimSession`: one builder that names every choice up front, then a
//! pass manager that executes the scheduling pipeline as explicit
//! [`Pass`]es — timing each run, computing its IR delta, collecting its
//! diagnostics, and checking the inter-pass IR invariants between
//! stages (always in debug builds, and under
//! [`SchedOptions::verify_passes`] in release).
//!
//! ```
//! use sentinel_core::{CompileSession, SchedOptions, SchedulingModel};
//! use sentinel_isa::MachineDesc;
//! use sentinel_prog::examples::figure1;
//!
//! let f = figure1();
//! let mdes = MachineDesc::paper_issue(8);
//! let mut session = CompileSession::for_function(&f)
//!     .mdes(&mdes)
//!     .options(SchedOptions::new(SchedulingModel::Sentinel))
//!     .build();
//! let scheduled = session.run()?;
//! assert!(scheduled.stats.speculated > 0);
//! // The pass log names every stage with wall time and IR deltas.
//! assert!(session.log().report("list-schedule").is_some());
//! # Ok::<(), sentinel_core::ScheduleError>(())
//! ```
//!
//! The pipeline stages, in order: `validate` → `superblock-prep` →
//! `clear-tags` (§3.5) → `recovery-rename` (§3.7) → `liveness` → per
//! block: `depgraph` → `reduction` → `list-schedule` (with the §4.2
//! `store-separation-retry` loop re-running the block-level stages
//! after pinning) → `regalloc` (§3.7 allocator support).

use std::sync::OnceLock;
use std::time::Instant;

use sentinel_isa::{MachineDesc, Opcode};
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::Liveness;
use sentinel_prog::{validate, Function};
use sentinel_trace::{CompileSink, IrDelta, PassEvent};

use crate::depgraph::{Dep, DepGraph, DepKind};
use crate::list::schedule_block;
use crate::models::SchedOptions;
use crate::pass::{IrSnapshot, Pass, PassCtx, PassLog};
use crate::pipeline::{accumulate, ScheduleError, ScheduledProgram};
use crate::recovery::{apply_recovery_renaming, FreshRegs};
use crate::reduction::reduce_with_pins;
use crate::uninit::insert_clear_tags;
use crate::verify_ir::verify_ir;

/// Test-support hook: corrupts the working IR after a named pass.
pub type MutationHook = Box<dyn Fn(&mut Function) + Send>;

fn default_mdes() -> &'static MachineDesc {
    static DEFAULT: OnceLock<MachineDesc> = OnceLock::new();
    DEFAULT.get_or_init(|| MachineDesc::paper_issue(8))
}

/// Builder for a [`CompileSession`]; see [`CompileSession::for_function`].
pub struct CompileSessionBuilder<'a> {
    func: &'a Function,
    mdes: Option<&'a MachineDesc>,
    opts: SchedOptions,
    sink: Option<Box<dyn CompileSink>>,
    mutation: Option<(&'static str, MutationHook)>,
}

impl<'a> CompileSessionBuilder<'a> {
    /// Sets the machine description to schedule for (default: the
    /// paper's issue-8 machine).
    #[must_use]
    pub fn mdes(mut self, mdes: &'a MachineDesc) -> Self {
        self.mdes = Some(mdes);
        self
    }

    /// Sets the scheduling options (default:
    /// [`SchedOptions::new`]([`SchedulingModel::Sentinel`])).
    ///
    /// [`SchedulingModel::Sentinel`]: crate::SchedulingModel::Sentinel
    #[must_use]
    pub fn options(mut self, opts: SchedOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attaches a compile-phase observer: one
    /// [`PassEvent`](sentinel_trace::PassEvent) per pass run.
    #[must_use]
    pub fn observe(mut self, sink: Box<dyn CompileSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Mutation-testing hook: applies `f` to the working function after
    /// every run of the pass named `after`, so the inter-pass verifier
    /// can be shown to catch a deliberately broken pass at its own
    /// boundary. Forces verification on regardless of build profile.
    #[must_use]
    pub fn mutate_after(mut self, after: &'static str, f: MutationHook) -> Self {
        self.mutation = Some((after, f));
        self
    }

    /// Constructs the session.
    pub fn build(self) -> CompileSession<'a> {
        let mdes = match self.mdes {
            Some(m) => m,
            None => default_mdes(),
        };
        let verify = cfg!(debug_assertions) || self.opts.verify_passes || self.mutation.is_some();
        CompileSession {
            func: self.func,
            mdes,
            opts: self.opts,
            sink: self.sink,
            mutation: self.mutation,
            verify,
            log: PassLog::default(),
            seq: 0,
            ran: false,
        }
    }
}

/// A configured compilation of one function: the pass manager.
pub struct CompileSession<'a> {
    func: &'a Function,
    mdes: &'a MachineDesc,
    opts: SchedOptions,
    sink: Option<Box<dyn CompileSink>>,
    mutation: Option<(&'static str, MutationHook)>,
    verify: bool,
    log: PassLog,
    seq: u32,
    ran: bool,
}

impl<'a> CompileSession<'a> {
    /// Starts building a session for `func`.
    pub fn for_function(func: &'a Function) -> CompileSessionBuilder<'a> {
        CompileSessionBuilder {
            func,
            mdes: None,
            opts: SchedOptions::new(crate::models::SchedulingModel::Sentinel),
            sink: None,
            mutation: None,
        }
    }

    /// Whether the inter-pass verifier runs between stages in this
    /// session (always in debug builds; via
    /// [`SchedOptions::verify_passes`] or a mutation hook otherwise).
    pub fn verifies(&self) -> bool {
        self.verify
    }

    /// The pass log so far: per-pass runs, wall time, IR deltas, and
    /// diagnostics. Populated by [`CompileSession::run`], including the
    /// passes that ran before a failure.
    pub fn log(&self) -> &PassLog {
        &self.log
    }

    /// Detaches the observer sink (if any); call
    /// [`CompileSink::finish`] on it to render what it recorded.
    pub fn take_sink(&mut self) -> Option<Box<dyn CompileSink>> {
        self.sink.take()
    }

    /// Runs the full pipeline, returning the scheduled program.
    ///
    /// # Errors
    ///
    /// See [`ScheduleError`]. The pass log ([`CompileSession::log`])
    /// remains available after a failure and names the failing stage.
    pub fn run(&mut self) -> Result<ScheduledProgram, ScheduleError> {
        if self.ran {
            return Err(ScheduleError::Internal(
                "CompileSession::run called twice".into(),
            ));
        }
        self.ran = true;

        let opts = self.opts.clone();
        let mut ctx = PassCtx::new(self.func, self.mdes, &opts);
        ctx.verify = self.verify;

        self.run_pass(&mut ctx, &mut ValidateInput)?;
        self.run_pass(&mut ctx, &mut SuperblockPrep)?;
        self.run_pass(&mut ctx, &mut ClearTags)?;
        self.run_pass(&mut ctx, &mut RecoveryRename)?;
        self.run_pass(&mut ctx, &mut LivenessPass)?;

        for bid in ctx.func.layout().to_vec() {
            let mut attempts = 0usize;
            loop {
                attempts += 1;
                ctx.block = Some(bid);
                self.run_pass(&mut ctx, &mut BuildDepGraph)?;
                self.run_pass(&mut ctx, &mut Reduce)?;
                match self.run_pass(&mut ctx, &mut ListSchedule) {
                    Ok(()) => break,
                    Err(ScheduleError::StoreSeparation(ids)) => {
                        // §4.2: pin the violating stores non-speculative
                        // and re-run the block-level stages.
                        if attempts > ctx.func.block(bid).insns.len() + 2 {
                            return Err(ScheduleError::StoreSeparation(ids));
                        }
                        ctx.stats.pinned_stores += ids.len();
                        ctx.diag(format!(
                            "block {}: pinned {} store(s) to satisfy the N-1 bound: {ids:?}",
                            ctx.func.block(bid).label,
                            ids.len(),
                        ));
                        ctx.pinned.extend(ids);
                        let diags = std::mem::take(&mut ctx.diagnostics);
                        self.emit(
                            "store-separation-retry",
                            std::time::Duration::ZERO,
                            IrDelta::default(),
                            diags,
                        );
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        self.run_pass(&mut ctx, &mut Regalloc)?;

        Ok(ScheduledProgram {
            func: std::mem::replace(&mut ctx.func, Function::new("")),
            blocks: std::mem::take(&mut ctx.schedules),
            stats: ctx.stats,
        })
    }

    /// Executes one pass run: time it, compute the IR delta, drain the
    /// diagnostics, emit the event, apply the mutation hook, and check
    /// the inter-pass invariants.
    fn run_pass(
        &mut self,
        ctx: &mut PassCtx<'_>,
        pass: &mut dyn Pass,
    ) -> Result<(), ScheduleError> {
        // An analysis pass leaves the IR as it found it: no delta to count.
        let before = pass.mutates_ir().then(|| IrSnapshot::of(&ctx.func));
        let t0 = Instant::now();
        let result = pass.run(ctx);
        let wall = t0.elapsed();
        let delta = before.map_or_else(IrDelta::default, |b| b.delta_to(IrSnapshot::of(&ctx.func)));
        let diags = std::mem::take(&mut ctx.diagnostics);
        self.emit(pass.name(), wall, delta, diags);
        result?;

        let mut mutated = false;
        if let Some((after, hook)) = &self.mutation {
            if *after == pass.name() {
                hook(&mut ctx.func);
                mutated = true;
            }
        }
        if self.verify && (pass.mutates_ir() || mutated) && ctx.func.block_count() > 0 {
            let entry_live_in = ctx.entry_live_in.as_ref().ok_or_else(|| {
                ScheduleError::Internal("verifying before superblock-prep".into())
            })?;
            let violations = verify_ir(&ctx.func, ctx.mdes, ctx.opts, entry_live_in);
            if !violations.is_empty() {
                return Err(ScheduleError::Verify {
                    after: pass.name(),
                    violations,
                });
            }
        }
        Ok(())
    }

    fn emit(
        &mut self,
        name: &'static str,
        wall: std::time::Duration,
        delta: IrDelta,
        diagnostics: Vec<String>,
    ) {
        if let Some(sink) = &mut self.sink {
            sink.pass(&PassEvent {
                pass: name,
                seq: self.seq,
                wall_micros: wall.as_micros() as u64,
                delta,
                diagnostics: diagnostics.clone(),
            });
        }
        self.seq += 1;
        self.log.record(name, wall, delta, diagnostics);
    }
}

// --- the passes ----------------------------------------------------------

/// Rejects structurally invalid or already-scheduled input.
struct ValidateInput;

impl Pass for ValidateInput {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn mutates_ir(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        let errs = validate(ctx.input);
        if !errs.is_empty() {
            return Err(ScheduleError::InvalidInput(errs));
        }
        for b in ctx.input.blocks() {
            for insn in &b.insns {
                if insn.speculative || matches!(insn.op, Opcode::CheckExcept | Opcode::ConfirmStore)
                {
                    return Err(ScheduleError::NotSequentialInput(insn.id));
                }
            }
        }
        Ok(())
    }
}

/// Materializes the working copy and, in verifying sessions, records the
/// input's entry live-in set (the baseline for the def-before-use
/// invariant).
struct SuperblockPrep;

impl Pass for SuperblockPrep {
    fn name(&self) -> &'static str {
        "superblock-prep"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        ctx.func = ctx.input.clone();
        if ctx.verify {
            let cfg = Cfg::build(&ctx.func);
            let lv = Liveness::compute(&ctx.func, &cfg);
            ctx.entry_live_in = Some(lv.live_in(ctx.func.entry()).clone());
        }
        let side_exits: usize = ctx.func.blocks().map(|b| b.side_exit_count()).sum();
        ctx.diag(format!(
            "{} superblocks, {} instructions, {} side exits",
            ctx.func.block_count(),
            ctx.func.insn_count(),
            side_exits
        ));
        Ok(())
    }
}

/// §3.5: inserts `clear_tag` for registers live into the entry block.
struct ClearTags;

impl Pass for ClearTags {
    fn name(&self) -> &'static str {
        "clear-tags"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        if ctx.opts.clear_uninitialized {
            ctx.stats.clear_tags = insert_clear_tags(&mut ctx.func);
            let n = ctx.stats.clear_tags;
            ctx.diag(format!("cleared {n} potentially stale tag(s)"));
        }
        Ok(())
    }
}

/// §3.7: splits self-overwrites so excepting speculative code can be
/// re-executed, pinning what cannot be renamed.
struct RecoveryRename;

impl Pass for RecoveryRename {
    fn name(&self) -> &'static str {
        "recovery-rename"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        if ctx.opts.recovery {
            let mut fresh =
                FreshRegs::for_function(&ctx.func, ctx.mdes.int_regs(), ctx.mdes.fp_regs());
            let rn = apply_recovery_renaming(&mut ctx.func, &mut fresh);
            ctx.stats.renames = rn.renamed;
            ctx.pinned.extend(rn.pinned_moves.iter().copied());
            ctx.pinned.extend(rn.unrenamable.iter().copied());
            if !rn.unrenamable.is_empty() {
                ctx.diag(format!(
                    "{} unrenamable self-overwrite(s) act as scheduling barriers",
                    rn.unrenamable.len()
                ));
            }
            ctx.diag(format!("renamed {} self-overwrite(s)", rn.renamed));
            ctx.unrenamable = rn.unrenamable;
        }
        Ok(())
    }
}

/// Control-flow graph and live-variable analysis over the (rewritten)
/// function; consumed by reduction's restriction-(1) liveness tests.
struct LivenessPass;

impl Pass for LivenessPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn mutates_ir(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        let cfg = Cfg::build(&ctx.func);
        ctx.liveness = Some(Liveness::compute(&ctx.func, &cfg));
        ctx.cfg = Some(cfg);
        Ok(())
    }
}

/// Builds the superblock dependence graph of the current block.
struct BuildDepGraph;

impl Pass for BuildDepGraph {
    fn name(&self) -> &'static str {
        "depgraph"
    }

    fn mutates_ir(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        let bid = ctx
            .block
            .ok_or_else(|| ScheduleError::Internal("depgraph pass without a block".into()))?;
        let mut g = DepGraph::build_with_aliasing(
            ctx.func.block(bid),
            ctx.mdes,
            ctx.opts.recovery,
            ctx.func.noalias_bases(),
        );
        // Restriction 3 (conservative form): nothing moves across an
        // unrenamable self-overwrite.
        if ctx.opts.recovery {
            for k in 0..g.original_len {
                if ctx.unrenamable.contains(&g.nodes[k].insn.id) {
                    for j in k + 1..g.original_len {
                        g.add_edge(Dep {
                            from: k,
                            to: j,
                            latency: 0,
                            kind: DepKind::Order,
                        });
                    }
                }
            }
        }
        ctx.graph = Some(g);
        ctx.reduction = None;
        Ok(())
    }
}

/// The Appendix reduction: removes control dependences the model
/// permits and marks unprotected instructions.
struct Reduce;

impl Pass for Reduce {
    fn name(&self) -> &'static str {
        "reduction"
    }

    fn mutates_ir(&self) -> bool {
        false
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        let bid = ctx
            .block
            .ok_or_else(|| ScheduleError::Internal("reduction pass without a block".into()))?;
        let lv = ctx
            .liveness
            .take()
            .ok_or_else(|| ScheduleError::Internal("reduction before liveness".into()))?;
        let g = ctx
            .graph
            .as_mut()
            .ok_or_else(|| ScheduleError::Internal("reduction before depgraph".into()))?;
        let red = reduce_with_pins(g, &ctx.func, bid, &lv, ctx.opts, &ctx.pinned);
        ctx.liveness = Some(lv);
        ctx.reduction = Some(red);
        Ok(())
    }
}

/// The modified list scheduler (§3.3): issues the reduced graph,
/// setting speculative modifiers and inserting sentinels, then writes
/// the scheduled block back.
struct ListSchedule;

impl Pass for ListSchedule {
    fn name(&self) -> &'static str {
        "list-schedule"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        let bid = ctx
            .block
            .ok_or_else(|| ScheduleError::Internal("list-schedule pass without a block".into()))?;
        let PassCtx {
            func,
            mdes,
            opts,
            graph,
            reduction,
            schedules,
            stats,
            ..
        } = ctx;
        let g = graph
            .as_mut()
            .ok_or_else(|| ScheduleError::Internal("list-schedule before depgraph".into()))?;
        let red = reduction
            .as_ref()
            .ok_or_else(|| ScheduleError::Internal("list-schedule before reduction".into()))?;
        let mut fresh = || func.fresh_insn_id();
        let sched = schedule_block(g, red, mdes, opts, &mut fresh)?;
        func.block_mut(bid).insns = sched.insns.clone();
        accumulate(stats, &sched.stats);
        schedules.insert(bid, sched);
        ctx.graph = None;
        ctx.reduction = None;
        Ok(())
    }
}

/// §3.7 allocator support: maps renaming-introduced virtual registers
/// back to architectural ones, spilling with tag-preserving loads and
/// stores when needed.
struct Regalloc;

impl Pass for Regalloc {
    fn name(&self) -> &'static str {
        "regalloc"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError> {
        if ctx.opts.allocate {
            let aopts = crate::regalloc::AllocOptions::for_mdes(ctx.mdes, ctx.opts.recovery);
            let ar = crate::regalloc::allocate_registers(&mut ctx.func, &aopts)
                .map_err(|e| ScheduleError::Internal(format!("register allocation: {e}")))?;
            ctx.stats.regs_assigned = ar.assigned;
            ctx.stats.regs_spilled = ar.spilled;
            ctx.diag(format!(
                "assigned {} virtual register(s), spilled {}",
                ar.assigned, ar.spilled
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchedulingModel;
    use crate::pass::PASS_NAMES;
    use crate::pipeline::schedule_function;
    use sentinel_isa::{Insn, Reg};
    use sentinel_prog::examples::figure1;
    use sentinel_trace::CollectCompileSink;

    #[test]
    fn session_matches_schedule_function_on_every_model() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        for model in SchedulingModel::all() {
            let opts = SchedOptions::new(model);
            let direct = schedule_function(&f, &mdes, &opts).unwrap();
            let mut session = CompileSession::for_function(&f)
                .mdes(&mdes)
                .options(opts)
                .build();
            let via_session = session.run().unwrap();
            assert_eq!(direct.stats, via_session.stats, "{model}");
            for (a, b) in direct
                .func
                .blocks()
                .flat_map(|b| b.insns.iter())
                .zip(via_session.func.blocks().flat_map(|b| b.insns.iter()))
            {
                assert_eq!(a, b, "{model}");
            }
        }
    }

    #[test]
    fn log_names_every_stage_with_block_level_run_counts() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        let mut session = CompileSession::for_function(&f)
            .mdes(&mdes)
            .options(SchedOptions::new(SchedulingModel::Sentinel).with_clear_uninitialized())
            .build();
        session.run().unwrap();
        let log = session.log();
        for name in ["validate", "superblock-prep", "liveness", "regalloc"] {
            assert_eq!(log.report(name).unwrap().runs, 1, "{name}");
        }
        // Block-level passes run once per block (3 blocks in figure1).
        for name in ["depgraph", "reduction", "list-schedule"] {
            assert_eq!(log.report(name).unwrap().runs, 3, "{name}");
        }
        // Every logged pass name is canonical.
        for r in log.reports() {
            assert!(PASS_NAMES.contains(&r.name), "unknown pass {}", r.name);
        }
        // IR deltas land on the passes that produced them: clear-tags
        // inserted instructions, the scheduler marked speculation.
        assert!(log.report("clear-tags").unwrap().delta.insns_added >= 2);
        assert!(
            log.report("list-schedule")
                .unwrap()
                .delta
                .marked_speculative
                > 0
        );
    }

    #[test]
    fn observer_sink_receives_ordered_events() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        let mut session = CompileSession::for_function(&f)
            .mdes(&mdes)
            .options(SchedOptions::new(SchedulingModel::Sentinel))
            .observe(Box::new(CollectCompileSink::default()))
            .build();
        session.run().unwrap();
        let sink = session.take_sink().expect("sink attached");
        // CollectCompileSink buffers; downcast via its Debug output is
        // awkward, so re-check through finish().
        let mut sink = sink;
        let summary = sink.finish();
        assert!(summary.ends_with("pass runs"), "{summary}");
        let n: u64 = summary.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(n, session.log().total_runs());
    }

    #[test]
    fn mutation_after_a_pass_is_caught_at_that_boundary() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        let mut session = CompileSession::for_function(&f)
            .mdes(&mdes)
            .options(SchedOptions::new(SchedulingModel::Sentinel))
            .mutate_after(
                "list-schedule",
                Box::new(|func: &mut Function| {
                    // A broken pass marks a store speculative under
                    // model S (which forbids speculative stores).
                    let entry = func.entry();
                    func.push_insn(entry, Insn::st_w(Reg::int(1), Reg::int(2), 0).speculated());
                }),
            )
            .build();
        let err = session.run().unwrap_err();
        match err {
            ScheduleError::Verify { after, violations } => {
                assert_eq!(after, "list-schedule");
                assert!(
                    violations.iter().any(|v| v.contains("forbids")),
                    "{violations:?}"
                );
            }
            other => panic!("expected Verify, got {other}"),
        }
    }

    #[test]
    fn new_upward_exposed_use_is_caught_against_the_input_baseline() {
        // `superblock-prep` records the input's entry live-in set in
        // verifying sessions; a later pass that reads a register the
        // input never defined is caught at its own boundary.
        let f = figure1();
        let mut session = CompileSession::for_function(&f)
            .options(SchedOptions::new(SchedulingModel::Sentinel).with_verify_passes())
            .mutate_after(
                "recovery-rename",
                Box::new(|func: &mut Function| {
                    let entry = func.entry();
                    func.insert_insn(entry, 0, Insn::addi(Reg::int(60), Reg::int(59), 1));
                }),
            )
            .build();
        assert!(session.verifies());
        match session.run().unwrap_err() {
            ScheduleError::Verify { after, violations } => {
                assert_eq!(after, "recovery-rename");
                assert!(
                    violations
                        .iter()
                        .any(|v| v.contains("r59 became upward-exposed")),
                    "{violations:?}"
                );
            }
            other => panic!("expected Verify, got {other}"),
        }
    }

    #[test]
    fn run_twice_is_an_error() {
        let f = figure1();
        let mut session = CompileSession::for_function(&f).build();
        session.run().unwrap();
        assert!(matches!(session.run(), Err(ScheduleError::Internal(_))));
    }

    #[test]
    fn failed_validation_still_logs_the_validate_pass() {
        let f = Function::new("empty");
        let mut session = CompileSession::for_function(&f).build();
        let err = session.run().unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidInput(_)));
        assert_eq!(session.log().report("validate").unwrap().runs, 1);
        assert!(session.log().report("list-schedule").is_none());
    }
}
