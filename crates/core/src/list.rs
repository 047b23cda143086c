//! Sentinel list scheduling (paper §3.3 and Appendix).
//!
//! A priority list scheduler over the reduced dependence graph:
//! critical-path-height priorities, issue-width and one-branch-per-cycle
//! resource constraints, and operand-ready times from edge latencies.
//!
//! The sentinel extension happens at issue time: when an instruction
//! issues *above* a branch that originally preceded it, its speculative
//! modifier is set; if it is **unprotected**, an explicit sentinel is
//! inserted into its home block — `check_exception(dest)` for
//! computational instructions, `confirm_store(index)` for stores — pinned
//! there by control dependences exactly as the Appendix prescribes:
//!
//! * a flow dependence from the instruction to its sentinel,
//! * a control dependence from the first branch the instruction moved
//!   above (the delimiter preceding its home block) to the sentinel, and
//! * a control dependence from the sentinel to the first branch
//!   originally below the instruction.
//!
//! With recovery enabled (§3.7), the sentinel additionally precedes every
//! unscheduled same-region instruction that would clobber restartable
//! inputs (restriction 4's dynamic half) and every later same-region
//! store.

use sentinel_isa::{Insn, InsnId, MachineDesc, Opcode};

use crate::depgraph::{is_region_delimiter, Dep, DepGraph, DepKind};
use crate::models::SchedOptions;
use crate::reduction::Reduction;
use crate::ScheduleError;

/// Per-block scheduling statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockSchedStats {
    /// Instructions whose speculative modifier was set.
    pub speculated: usize,
    /// `check_exception` sentinels inserted.
    pub checks_inserted: usize,
    /// `confirm_store` sentinels inserted.
    pub confirms_inserted: usize,
    /// Schedule length in cycles.
    pub cycles: u64,
    /// Stores pinned non-speculative to satisfy the store-buffer
    /// separation constraint (§4.2).
    pub pinned_stores: usize,
}

/// The scheduled form of one block.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Instructions in issue (linear) order, with final speculative flags,
    /// sentinel insertions, and resolved `confirm_store` indices.
    pub insns: Vec<Insn>,
    /// Issue cycle of each instruction in `insns`.
    pub cycles: Vec<u64>,
    /// Statistics.
    pub stats: BlockSchedStats,
}

impl std::fmt::Display for BlockSchedule {
    /// Renders in the paper's Figure 1(b) style: `[n]` is the issue cycle.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (insn, cycle) in self.insns.iter().zip(&self.cycles) {
            writeln!(f, "  [{cycle}] {insn}")?;
        }
        Ok(())
    }
}

/// Schedules one block given its reduced dependence graph.
///
/// `pinned_stores` lists original positions of stores that must not be
/// speculated (used by the §4.2 separation-constraint retry loop in the
/// pipeline). `fresh_id` allocates instruction ids for inserted sentinels.
///
/// # Errors
///
/// [`ScheduleError::StoreSeparation`] when a speculative store ends up
/// separated from its confirm by more than `store_buffer_size − 1` stores
/// (the caller pins that store and retries), and
/// [`ScheduleError::Internal`] on a dependence cycle (a scheduler bug).
pub fn schedule_block(
    g: &mut DepGraph,
    red: &Reduction,
    mdes: &MachineDesc,
    opts: &SchedOptions,
    fresh_id: &mut dyn FnMut() -> InsnId,
) -> Result<BlockSchedule, ScheduleError> {
    let orig_n = g.original_len;
    let mut stats = BlockSchedStats::default();

    // Priorities: critical-path heights over the reduced graph.
    let mut priority: Vec<u64> = g.heights(|i| mdes.latency(i.op));

    let mut st = IssueState::new(g);
    let branches = g.branch_positions();

    let mut linear: Vec<usize> = Vec::new();
    let mut cycle: u64 = 0;
    let mut slots = 0usize;
    let mut branch_slots = 0usize;
    let mut remaining = g.len();

    // confirm node -> store node (for the index post-pass).
    let mut confirm_of_store: Vec<(usize, usize)> = Vec::new();

    while remaining > 0 {
        // Pick the best ready node at the current cycle.
        let mut best: Option<(usize, usize)> = None;
        if slots < mdes.issue_width() {
            for (k, &i) in st.ready.iter().enumerate() {
                if st.earliest[i] > cycle {
                    continue;
                }
                let is_branch = g.nodes[i].insn.op.class() == sentinel_isa::OpClass::Branch;
                if is_branch && branch_slots >= mdes.branches_per_cycle() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, b)) => {
                        // Priority first; on ties prefer non-branches (a
                        // branch buys nothing by issuing early on the
                        // fall-through path, and deferring it exposes
                        // speculation — cf. paper Fig. 1(b), where the
                        // branch lands in the final cycle), then original
                        // order.
                        let key = |x: usize| {
                            (
                                std::cmp::Reverse(priority[x]),
                                g.nodes[x].insn.op.is_cond_branch(),
                                g.nodes[x].orig_pos.unwrap_or(usize::MAX),
                                x,
                            )
                        };
                        key(i) < key(b)
                    }
                };
                if better {
                    best = Some((k, i));
                }
            }
        }

        let Some((k, node)) = best else {
            // Advance to the next time anything could issue.
            let next = st
                .ready
                .iter()
                .map(|&i| st.earliest[i].max(cycle + 1))
                .min();
            match next {
                Some(c) => {
                    cycle = c;
                    slots = 0;
                    branch_slots = 0;
                    continue;
                }
                None => {
                    return Err(ScheduleError::Internal(
                        "dependence cycle: no schedulable node".into(),
                    ));
                }
            }
        };

        // Issue `node` at `cycle`.
        st.ready.swap_remove(k);
        st.sched[node] = Some(cycle);
        linear.push(node);
        remaining -= 1;
        slots += 1;
        if g.nodes[node].insn.op.class() == sentinel_isa::OpClass::Branch {
            branch_slots += 1;
        }

        // Sentinel hook: did this original instruction move above a branch?
        let mut inserted: Option<usize> = None;
        if let Some(p) = g.nodes[node].orig_pos {
            let crossed = branches
                .iter()
                .take_while(|&&b| b < p)
                .filter(|&&b| st.sched[b].is_none())
                .count();
            let moved_above = crossed > 0;
            if moved_above && g.nodes[node].insn.op.may_be_speculative() {
                if let Some(levels) = opts.model.boost_levels() {
                    // Boosting: record how many branches were crossed; the
                    // shadow hardware commits the result as they resolve.
                    debug_assert!(crossed <= levels as usize, "reduction bounds crossings");
                    g.nodes[node].insn.boost = crossed as u8;
                    stats.speculated += 1;
                } else {
                    g.nodes[node].insn.speculative = true;
                    stats.speculated += 1;
                }
                if opts.model.uses_sentinels() && red.unprotected[p] {
                    let is_store = g.nodes[node].insn.op.is_store();
                    let sentinel_insn = if is_store {
                        stats.confirms_inserted += 1;
                        Insn::confirm_store(0).with_id(fresh_id())
                    } else {
                        let d = g.nodes[node]
                            .insn
                            .def()
                            .expect("unprotected non-store has a destination");
                        stats.checks_inserted += 1;
                        Insn::check_exception(d).with_id(fresh_id())
                    };
                    let j = g.add_node(sentinel_insn);
                    st.add_node();
                    remaining += 1;
                    if is_store {
                        confirm_of_store.push((j, node));
                    }

                    // Flow: sentinel reads the result / follows the insert.
                    st.add_edge(
                        g,
                        Dep {
                            from: node,
                            to: j,
                            latency: mdes.latency(g.nodes[node].insn.op),
                            kind: DepKind::Sentinel,
                        },
                    );
                    // Pin into the home block: after the delimiter that
                    // precedes it…
                    if let Some(prev) = (0..p)
                        .rev()
                        .find(|&d| is_region_delimiter(g.nodes[d].insn.op, opts.recovery))
                    {
                        st.add_edge(
                            g,
                            Dep {
                                from: prev,
                                to: j,
                                latency: 0,
                                kind: DepKind::Sentinel,
                            },
                        );
                    }
                    // …and before the delimiter that ends it.
                    let re = g.region_end(p, opts.recovery);
                    if re < orig_n {
                        st.add_edge(
                            g,
                            Dep {
                                from: j,
                                to: re,
                                latency: 0,
                                kind: DepKind::Sentinel,
                            },
                        );
                        // Issue just ahead of the branch it pins.
                        priority.push(priority[re] + 1);
                    } else {
                        priority.push(1);
                    }

                    // Recovery restriction 4 (dynamic half): restartable
                    // inputs survive to the sentinel.
                    if opts.recovery {
                        let span_end = re;
                        let span_inputs: std::collections::HashSet<_> = (p..span_end)
                            .flat_map(|q| g.nodes[q].insn.uses().collect::<Vec<_>>())
                            .collect();
                        for x in p + 1..span_end {
                            if st.sched[x].is_some() || x == node {
                                continue;
                            }
                            let clobbers = g.nodes[x]
                                .insn
                                .def()
                                .is_some_and(|d| span_inputs.contains(&d));
                            let is_store_x = g.nodes[x].insn.op.is_store();
                            if clobbers || is_store_x {
                                st.add_edge(
                                    g,
                                    Dep {
                                        from: j,
                                        to: x,
                                        latency: 0,
                                        kind: DepKind::Sentinel,
                                    },
                                );
                            }
                        }
                    }
                    inserted = Some(j);
                }
            }
        }
        let _ = inserted;

        // Release successors.
        for e in g.succs(node) {
            st.earliest[e.to] = st.earliest[e.to].max(cycle + e.latency as u64);
            st.pending[e.to] -= 1;
            if st.pending[e.to] == 0 && st.sched[e.to].is_none() {
                st.ready.push(e.to);
            }
        }
    }

    // --- post-pass: confirm_store indices + separation constraint -------
    let mut pos_in_linear = vec![0; g.len()];
    for (k, &n) in linear.iter().enumerate() {
        pos_in_linear[n] = k;
    }
    let mut violating_stores: Vec<InsnId> = Vec::new();
    for &(confirm, store) in &confirm_of_store {
        let s = pos_in_linear[store];
        let c = pos_in_linear[confirm];
        debug_assert!(s < c, "confirm after its store");
        let between = linear[s + 1..c]
            .iter()
            .filter(|&&k| buffer_store(&g.nodes[k].insn.op))
            .count();
        if between > mdes.store_buffer_size() - 1 {
            violating_stores.push(g.nodes[store].insn.id);
        } else {
            g.nodes[confirm].insn.imm = between as i64;
        }
    }
    if !violating_stores.is_empty() {
        return Err(ScheduleError::StoreSeparation(violating_stores));
    }

    let cycles: Vec<u64> = linear.iter().map(|&n| st.sched[n].unwrap()).collect();
    stats.cycles = cycles.last().map_or(0, |c| c + 1);
    let insns: Vec<Insn> = linear.iter().map(|&n| g.nodes[n].insn.clone()).collect();
    Ok(BlockSchedule {
        insns,
        cycles,
        stats,
    })
}

/// Stores that occupy store-buffer entries (tag spills bypass the buffer).
fn buffer_store(op: &Opcode) -> bool {
    op.is_store() && *op != Opcode::StTag
}

/// Per-node issue state; grows when sentinels are inserted.
struct IssueState {
    /// Issue cycle of each issued node.
    sched: Vec<Option<u64>>,
    /// Earliest cycle the issued predecessors allow.
    earliest: Vec<u64>,
    /// Predecessors not yet issued.
    pending: Vec<usize>,
    /// Exactly the unissued nodes with no pending predecessor, in no
    /// particular order (the pick takes the minimum of a total order).
    ready: Vec<usize>,
}

impl IssueState {
    fn new(g: &DepGraph) -> IssueState {
        let pending: Vec<usize> = (0..g.len()).map(|i| g.preds(i).len()).collect();
        IssueState {
            sched: vec![None; g.len()],
            earliest: vec![0; g.len()],
            ready: (0..g.len()).filter(|&i| pending[i] == 0).collect(),
            pending,
        }
    }

    /// Tracks a node just added to the graph (no edges yet).
    fn add_node(&mut self) {
        self.ready.push(self.sched.len());
        self.sched.push(None);
        self.earliest.push(0);
        self.pending.push(0);
    }

    /// Adds an edge during scheduling, keeping `earliest`/`pending`
    /// coherent whether or not the source is already scheduled.
    fn add_edge(&mut self, g: &mut DepGraph, dep: Dep) {
        match self.sched[dep.from] {
            Some(c) => {
                self.earliest[dep.to] = self.earliest[dep.to].max(c + dep.latency as u64);
                // Do not add a graph edge for an already-issued source:
                // the constraint is fully captured by `earliest`, and a
                // graph edge would double-decrement `pending`.
            }
            None => {
                g.add_edge(dep);
                self.pending[dep.to] += 1;
                if let Some(k) = self.ready.iter().position(|&r| r == dep.to) {
                    self.ready.swap_remove(k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchedulingModel;
    use crate::reduction::reduce;
    use sentinel_isa::Reg;
    use sentinel_prog::cfg::Cfg;
    use sentinel_prog::examples::figure1;
    use sentinel_prog::liveness::Liveness;
    use sentinel_prog::Function;

    fn schedule_entry(f: &mut Function, mdes: &MachineDesc, opts: &SchedOptions) -> BlockSchedule {
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        let e = f.entry();
        let mut g = DepGraph::build(f.block(e), mdes, opts.recovery);
        let red = reduce(&mut g, f, e, &lv, opts);
        let mut fresh = {
            let f = &mut *f;
            move || f.fresh_insn_id()
        };
        schedule_block(&mut g, &red, mdes, opts, &mut fresh).expect("schedule")
    }

    fn unit_mdes(width: usize) -> MachineDesc {
        MachineDesc::unit_issue(width)
    }

    #[test]
    fn figure1_sentinel_schedule_matches_paper_shape() {
        // Paper Figure 1(b) on a narrower machine (issue 2, so the branch
        // competes for slots and real speculation happens): B, C, D, E
        // move above A; E gets an explicit sentinel G; F (store, not
        // speculative in model S) plus G remain in the home block after A.
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(2),
            &SchedOptions::new(SchedulingModel::Sentinel),
        );
        let ops: Vec<_> = sched.insns.iter().map(|i| i.op).collect();
        // One check_exception inserted for the unprotected E.
        assert_eq!(sched.stats.checks_inserted, 1, "schedule: {sched:?}");
        assert!(ops.contains(&Opcode::CheckExcept));
        let br = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::Beq)
            .unwrap();
        // The two loads are speculative and linearly above the branch.
        let lds: Vec<usize> = sched
            .insns
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op == Opcode::LdW)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(lds.len(), 2);
        for &k in &lds {
            assert!(sched.insns[k].speculative);
            assert!(k < br);
        }
        // The store is NOT speculative and is after the branch.
        let st = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::StW)
            .unwrap();
        assert!(!sched.insns[st].speculative);
        assert!(st > br);
        // The check is after the branch (home block) and reads r5.
        let ck = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::CheckExcept)
            .unwrap();
        assert!(ck > br);
        assert_eq!(sched.insns[ck].src1, Some(Reg::int(5)));
    }

    /// A branch whose condition is loaded from memory: the canonical case
    /// where speculation pays (the branch stalls, loads below it want to
    /// start early).
    fn loaded_branch_fn() -> Function {
        use sentinel_prog::ProgramBuilder;
        let mut b = ProgramBuilder::new("lb");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::ld_w(Reg::int(5), Reg::int(3), 0));
        b.push(Insn::branch(Opcode::Beq, Reg::int(5), Reg::ZERO, t));
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::addi(Reg::int(4), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(4), Reg::int(2), 8));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        b.finish()
    }

    #[test]
    fn speculation_shortens_loaded_branch_schedule() {
        let mdes = MachineDesc::paper_issue(8);
        let mut f1 = loaded_branch_fn();
        let restricted = schedule_entry(
            &mut f1,
            &mdes,
            &SchedOptions::new(SchedulingModel::RestrictedPercolation),
        );
        let mut f2 = loaded_branch_fn();
        let sentinel = schedule_entry(
            &mut f2,
            &mdes,
            &SchedOptions::new(SchedulingModel::Sentinel),
        );
        assert!(
            sentinel.stats.cycles < restricted.stats.cycles,
            "sentinel {} vs restricted {}",
            sentinel.stats.cycles,
            restricted.stats.cycles
        );
        // The hoisted load is speculative and above the branch.
        let br = sentinel
            .insns
            .iter()
            .position(|i| i.op == Opcode::Beq)
            .unwrap();
        let hoisted = sentinel
            .insns
            .iter()
            .position(|i| i.op == Opcode::LdW && i.dest == Some(Reg::int(1)))
            .unwrap();
        assert!(hoisted < br);
        assert!(sentinel.insns[hoisted].speculative);
    }

    #[test]
    fn restricted_keeps_loads_below_branch() {
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(8),
            &SchedOptions::new(SchedulingModel::RestrictedPercolation),
        );
        let br = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::Beq)
            .unwrap();
        let lds: Vec<usize> = sched
            .insns
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op == Opcode::LdW)
            .map(|(k, _)| k)
            .collect();
        for &k in &lds {
            assert!(
                k > br,
                "restricted percolation keeps loads below the branch"
            );
            assert!(!sched.insns[k].speculative);
        }
        assert_eq!(sched.stats.checks_inserted, 0);
    }

    #[test]
    fn general_percolation_speculates_without_sentinels() {
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(2),
            &SchedOptions::new(SchedulingModel::GeneralPercolation),
        );
        assert_eq!(sched.stats.checks_inserted, 0);
        assert!(sched.stats.speculated >= 3);
        assert!(!sched.insns.iter().any(|i| i.op == Opcode::CheckExcept));
    }

    #[test]
    fn store_model_speculates_store_with_confirm() {
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(2),
            &SchedOptions::new(SchedulingModel::SentinelStores),
        );
        let st = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::StW)
            .unwrap();
        let br = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::Beq)
            .unwrap();
        assert!(st < br, "store speculated above the branch");
        assert!(sched.insns[st].speculative);
        assert_eq!(sched.stats.confirms_inserted, 1);
        let cf = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::ConfirmStore)
            .unwrap();
        assert!(cf > br, "confirm stays in the home block");
        // No stores between the speculative store and its confirm here.
        assert_eq!(sched.insns[cf].imm, 0);
    }

    #[test]
    fn schedule_preserves_dependence_order_in_linear_form() {
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(8),
            &SchedOptions::new(SchedulingModel::Sentinel),
        );
        // D (addi r4, r1) must come after B (ld r1) in linear order.
        let b_pos = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::LdW && i.dest == Some(Reg::int(1)))
            .unwrap();
        let d_pos = sched
            .insns
            .iter()
            .position(|i| i.op == Opcode::AddI && i.dest == Some(Reg::int(4)))
            .unwrap();
        assert!(b_pos < d_pos);
        // Cycles must respect the flow latency (unit here, so >=).
        assert!(sched.cycles[d_pos] > sched.cycles[b_pos]);
    }

    #[test]
    fn narrow_machine_serializes() {
        let mut f = figure1();
        let sched = schedule_entry(
            &mut f,
            &unit_mdes(1),
            &SchedOptions::new(SchedulingModel::Sentinel),
        );
        // Issue-1: every instruction in its own cycle.
        for w in sched.cycles.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn store_separation_violation_reported() {
        // Tiny buffer (1 entry): a speculative store followed by another
        // store before its confirm violates N-1 = 0.
        use sentinel_prog::ProgramBuilder;
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t));
        b.push(Insn::st_w(Reg::int(2), Reg::int(3), 0));
        b.push(Insn::st_w(Reg::int(2), Reg::int(3), 64));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let mut f = b.finish();
        let mdes = MachineDesc::builder()
            .issue_width(8)
            .store_buffer_size(1)
            .latencies(sentinel_isa::LatencyTable::unit())
            .build();
        let opts = SchedOptions::new(SchedulingModel::SentinelStores);
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let entry = f.entry();
        let mut g = DepGraph::build(f.block(entry), &mdes, false);
        let red = reduce(&mut g, &f, entry, &lv, &opts);
        let mut fresh = move || f.fresh_insn_id();
        let r = schedule_block(&mut g, &red, &mdes, &opts, &mut fresh);
        // Either the schedule keeps both stores' confirms tight (ok) or it
        // reports the separation violation for the pipeline to pin.
        if let Err(e) = r {
            assert!(matches!(e, ScheduleError::StoreSeparation(_)));
        }
    }
}
