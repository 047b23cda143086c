//! The compiler pass abstraction: named stages over a shared context.
//!
//! The scheduling pipeline used to be one monolithic function calling
//! helpers in a fixed order. It is now a sequence of [`Pass`]es, each
//! with a uniform `run(&mut PassCtx) -> Result<(), ScheduleError>`
//! interface, executed by [`CompileSession`](crate::CompileSession):
//! the manager times every run, computes the IR delta it produced,
//! collects the structured diagnostics it raised, and (in debug builds
//! or under [`SchedOptions::verify_passes`]) checks the inter-pass IR
//! invariants with [`verify_ir`](crate::verify_ir::verify_ir) so a
//! broken pass is caught at its own boundary instead of at simulation
//! time.
//!
//! Function-level passes run once; the block-level passes (`depgraph`,
//! `reduction`, `list-schedule`) run once per block — and again per
//! block on every §4.2 store-separation retry — so a [`PassReport`]
//! aggregates all runs of one name.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use sentinel_isa::{BlockId, InsnId, MachineDesc};
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::Liveness;
use sentinel_prog::regset::RegSet;
use sentinel_prog::Function;
use sentinel_trace::IrDelta;

use crate::depgraph::DepGraph;
use crate::list::BlockSchedule;
use crate::models::SchedOptions;
use crate::pipeline::{SchedStats, ScheduleError};
use crate::reduction::Reduction;

/// Canonical pass names, in pipeline order. `store-separation-retry`
/// appears in a log only when the §4.2 constraint forced a retry.
pub const PASS_NAMES: [&str; 10] = [
    "validate",
    "superblock-prep",
    "clear-tags",
    "recovery-rename",
    "liveness",
    "depgraph",
    "reduction",
    "list-schedule",
    "store-separation-retry",
    "regalloc",
];

/// Shared state the passes read and mutate.
///
/// The working function starts as a clone of the input (made by the
/// `superblock-prep` pass); analyses (`cfg`, `liveness`) and the
/// per-block scratch (`graph`, `reduction`) are filled by the passes
/// that compute them and consumed by the ones that follow.
pub struct PassCtx<'a> {
    /// The untouched input function.
    pub input: &'a Function,
    /// Target machine description.
    pub mdes: &'a MachineDesc,
    /// Scheduling options.
    pub opts: &'a SchedOptions,
    /// The function being rewritten (clone of `input`).
    pub func: Function,
    /// Whether the session checks the IR between passes (see
    /// [`CompileSession::verifies`](crate::CompileSession::verifies)).
    pub verify: bool,
    /// Registers live into the input's entry block, recorded by
    /// `superblock-prep` before any rewriting, in verifying sessions
    /// only: its one reader is `verify_ir`'s check that no pass
    /// introduces new ones.
    pub entry_live_in: Option<RegSet>,
    /// Control-flow graph of `func` (computed by the `liveness` pass).
    pub cfg: Option<Cfg>,
    /// Live-variable analysis of `func` (computed by the `liveness` pass).
    pub liveness: Option<Liveness>,
    /// Instruction ids pinned non-speculative: recovery restore moves,
    /// unrenamable self-overwrites, and §4.2-pinned stores.
    pub pinned: HashSet<InsnId>,
    /// Unrenamable self-overwrites (§3.7 restriction 3: nothing moves
    /// across them).
    pub unrenamable: HashSet<InsnId>,
    /// The block currently moving through the block-level passes.
    pub block: Option<BlockId>,
    /// Dependence graph of `block` (built by `depgraph`).
    pub graph: Option<DepGraph>,
    /// Reduction of `graph` (built by `reduction`).
    pub reduction: Option<Reduction>,
    /// Finished per-block schedules.
    pub schedules: HashMap<BlockId, BlockSchedule>,
    /// Aggregate statistics.
    pub stats: SchedStats,
    /// Diagnostics raised by the current pass run (drained into the
    /// [`PassReport`] by the manager after the run).
    pub diagnostics: Vec<String>,
}

impl<'a> PassCtx<'a> {
    /// A fresh context over `input`. The working copy is not made here
    /// but by the `superblock-prep` pass, so its cost is attributed.
    pub fn new(input: &'a Function, mdes: &'a MachineDesc, opts: &'a SchedOptions) -> PassCtx<'a> {
        PassCtx {
            input,
            mdes,
            opts,
            func: Function::new(input.name()),
            verify: false,
            entry_live_in: None,
            cfg: None,
            liveness: None,
            pinned: HashSet::new(),
            unrenamable: HashSet::new(),
            block: None,
            graph: None,
            reduction: None,
            schedules: HashMap::new(),
            stats: SchedStats::default(),
            diagnostics: Vec::new(),
        }
    }

    /// Raises a structured non-fatal diagnostic on the current run.
    pub fn diag(&mut self, msg: impl Into<String>) {
        self.diagnostics.push(msg.into());
    }

    /// The liveness analysis, which must have been computed.
    pub fn liveness_ref(&self) -> Result<&Liveness, ScheduleError> {
        self.liveness
            .as_ref()
            .ok_or_else(|| ScheduleError::Internal("liveness pass did not run".into()))
    }
}

/// One named compiler stage.
pub trait Pass {
    /// Stable kebab-case name (one of [`PASS_NAMES`]).
    fn name(&self) -> &'static str;

    /// Executes the stage against the shared context.
    ///
    /// # Errors
    ///
    /// Any [`ScheduleError`]; the manager stops the pipeline at the
    /// first failing pass and reports it by name.
    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<(), ScheduleError>;

    /// Whether the stage may mutate the IR. Analysis passes answer
    /// `false`, which lets the manager skip the inter-pass IR check
    /// after them (the IR cannot have changed).
    fn mutates_ir(&self) -> bool {
        true
    }
}

/// Aggregated record of every run of one pass name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Pass name.
    pub name: &'static str,
    /// Number of runs (blocks × retry attempts for block-level passes).
    pub runs: u32,
    /// Total wall-clock time across runs.
    pub wall: Duration,
    /// Summed IR delta across runs.
    pub delta: IrDelta,
    /// Diagnostics raised across runs, in execution order.
    pub diagnostics: Vec<String>,
}

impl PassReport {
    /// A zeroed report for `name`.
    pub fn new(name: &'static str) -> PassReport {
        PassReport {
            name,
            runs: 0,
            wall: Duration::ZERO,
            delta: IrDelta::default(),
            diagnostics: Vec::new(),
        }
    }
}

/// The per-compilation pass log: one [`PassReport`] per pass name, in
/// first-execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassLog {
    reports: Vec<PassReport>,
}

impl PassLog {
    /// Records one run of `name`, merging into its report.
    pub fn record(
        &mut self,
        name: &'static str,
        wall: Duration,
        delta: IrDelta,
        diagnostics: Vec<String>,
    ) {
        let report = match self.reports.iter_mut().find(|r| r.name == name) {
            Some(r) => r,
            None => {
                self.reports.push(PassReport::new(name));
                self.reports.last_mut().expect("just pushed")
            }
        };
        report.runs += 1;
        report.wall += wall;
        report.delta.insns_added += delta.insns_added;
        report.delta.insns_removed += delta.insns_removed;
        report.delta.marked_speculative += delta.marked_speculative;
        report.diagnostics.extend(diagnostics);
    }

    /// The reports, in first-execution order.
    pub fn reports(&self) -> &[PassReport] {
        &self.reports
    }

    /// The report for `name`, if that pass ran.
    pub fn report(&self, name: &str) -> Option<&PassReport> {
        self.reports.iter().find(|r| r.name == name)
    }

    /// Total pass runs across all names.
    pub fn total_runs(&self) -> u64 {
        self.reports.iter().map(|r| u64::from(r.runs)).sum()
    }

    /// Renders the log as an aligned table (the `--explain` output):
    /// name, runs, total wall time, IR delta, then diagnostics indented
    /// under their pass.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24}{:>6}{:>12}{:>8}{:>8}{:>8}",
            "pass", "runs", "wall", "+insns", "-insns", "+spec"
        );
        for r in &self.reports {
            let _ = writeln!(
                out,
                "{:<24}{:>6}{:>11.1?}{:>8}{:>8}{:>8}",
                r.name,
                r.runs,
                r.wall,
                r.delta.insns_added,
                r.delta.insns_removed,
                r.delta.marked_speculative
            );
            for d in &r.diagnostics {
                let _ = writeln!(out, "    · {d}");
            }
        }
        out
    }
}

/// Whole-function counts the manager diffs to compute an [`IrDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrSnapshot {
    /// Total instructions.
    pub insns: usize,
    /// Instructions carrying the speculative modifier.
    pub speculative: usize,
}

impl IrSnapshot {
    /// Counts `func`.
    pub fn of(func: &Function) -> IrSnapshot {
        let mut insns = 0;
        let mut speculative = 0;
        for b in func.blocks() {
            insns += b.insns.len();
            speculative += b.insns.iter().filter(|i| i.speculative).count();
        }
        IrSnapshot { insns, speculative }
    }

    /// The delta from `self` (before) to `after`.
    pub fn delta_to(&self, after: IrSnapshot) -> IrDelta {
        IrDelta {
            insns_added: after.insns.saturating_sub(self.insns),
            insns_removed: self.insns.saturating_sub(after.insns),
            marked_speculative: after.speculative.saturating_sub(self.speculative),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_log_merges_runs_by_name() {
        let mut log = PassLog::default();
        log.record(
            "depgraph",
            Duration::from_micros(5),
            IrDelta::default(),
            vec![],
        );
        log.record(
            "depgraph",
            Duration::from_micros(7),
            IrDelta {
                insns_added: 2,
                ..Default::default()
            },
            vec!["note".into()],
        );
        log.record(
            "regalloc",
            Duration::from_micros(1),
            IrDelta::default(),
            vec![],
        );
        assert_eq!(log.reports().len(), 2);
        let d = log.report("depgraph").unwrap();
        assert_eq!(d.runs, 2);
        assert_eq!(d.wall, Duration::from_micros(12));
        assert_eq!(d.delta.insns_added, 2);
        assert_eq!(d.diagnostics, vec!["note".to_string()]);
        assert_eq!(log.total_runs(), 3);
    }

    #[test]
    fn render_lists_passes_in_execution_order() {
        let mut log = PassLog::default();
        log.record("validate", Duration::ZERO, IrDelta::default(), vec![]);
        log.record(
            "list-schedule",
            Duration::ZERO,
            IrDelta::default(),
            vec!["pinned 1 store".into()],
        );
        let out = log.render();
        let v = out.find("validate").unwrap();
        let l = out.find("list-schedule").unwrap();
        assert!(v < l);
        assert!(out.contains("· pinned 1 store"));
    }

    #[test]
    fn snapshot_deltas() {
        let before = IrSnapshot {
            insns: 10,
            speculative: 1,
        };
        let after = IrSnapshot {
            insns: 13,
            speculative: 4,
        };
        let d = before.delta_to(after);
        assert_eq!(d.insns_added, 3);
        assert_eq!(d.insns_removed, 0);
        assert_eq!(d.marked_speculative, 3);
        let back = after.delta_to(before);
        assert_eq!(back.insns_removed, 3);
    }
}
