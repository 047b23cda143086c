//! Dependence graph construction over one superblock.
//!
//! Nodes are the block's instructions (in original program order), plus
//! any sentinels the list scheduler inserts dynamically. Edges carry a
//! minimum issue-cycle separation (`latency`) and a kind:
//!
//! * [`DepKind::Flow`] / [`DepKind::Anti`] / [`DepKind::Output`] —
//!   register dependences,
//! * [`DepKind::Memory`] — store↔load / store↔store ordering (with a
//!   simple base+offset disambiguator),
//! * [`DepKind::Control`] — branch → later-instruction edges, the ones
//!   dependence-graph *reduction* removes to enable speculation (§2.1),
//! * [`DepKind::Order`] — irremovable ordering: nothing moves *down* past
//!   a branch, and opaque irreversible instructions (`jsr`, `io`) are full
//!   barriers,
//! * [`DepKind::Sentinel`] — edges pinning a dynamically inserted sentinel
//!   into its home block.

use sentinel_isa::{Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::regset::RegSlots;
use sentinel_prog::Block;

/// Edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register read-after-write.
    Flow,
    /// Register write-after-read.
    Anti,
    /// Register write-after-write.
    Output,
    /// Memory ordering.
    Memory,
    /// Control dependence from a branch to a later instruction (removable
    /// by reduction).
    Control,
    /// Irremovable ordering (no downward motion past branches; barriers).
    Order,
    /// Sentinel pinning edges added during scheduling.
    Sentinel,
}

/// An edge `from → to`: `to` may issue no earlier than
/// `cycle(from) + latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Minimum cycle separation.
    pub latency: u32,
    /// Kind.
    pub kind: DepKind,
}

/// A node: the instruction plus its original position (inserted sentinels
/// have `orig_pos == None`).
#[derive(Debug, Clone)]
pub struct Node {
    /// The instruction (speculative flag updated during scheduling).
    pub insn: Insn,
    /// Original position in the block, if the instruction came from it.
    pub orig_pos: Option<usize>,
}

/// The dependence graph of one block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Nodes; indices `0..original_len` are the block's instructions in
    /// original order.
    pub nodes: Vec<Node>,
    /// Number of original instructions.
    pub original_len: usize,
    succs: Vec<Vec<Dep>>,
    preds: Vec<Vec<Dep>>,
}

/// Whether `op` delimits a sentinel *home block* (region). Branches and
/// halts always do; with the §3.7 recovery constraints, irreversible
/// instructions also define region boundaries (restriction 2).
pub fn is_region_delimiter(op: Opcode, recovery: bool) -> bool {
    op.is_control() || (recovery && op.is_irreversible())
}

/// A memory reference summary used for disambiguation: base register, the
/// SSA-ish version of that base at the reference point, byte offset, and
/// access size.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemRef {
    base: Reg,
    base_version: u32,
    offset: i64,
    bytes: i64,
}

impl MemRef {
    /// Provably-disjoint check. Two references are disjoint when
    ///
    /// * they use the same base register at the same definition version
    ///   and their `[offset, offset+bytes)` intervals do not overlap, or
    /// * they use *different* base registers that are both declared
    ///   `noalias` (pairwise-disjoint arrays) and neither base has been
    ///   redefined in the block (version 0 — the live-in value the
    ///   declaration covers).
    ///
    /// Anything else conservatively aliases.
    fn disjoint(&self, other: &MemRef, noalias: &std::collections::BTreeSet<Reg>) -> bool {
        if self.base == other.base {
            return self.base_version == other.base_version
                && (self.offset + self.bytes <= other.offset
                    || other.offset + other.bytes <= self.offset);
        }
        self.base_version == 0
            && other.base_version == 0
            && noalias.contains(&self.base)
            && noalias.contains(&other.base)
    }
}

fn mem_ref(insn: &Insn, slots: &RegSlots, versions: &[u32]) -> Option<MemRef> {
    if !insn.op.is_mem() {
        return None;
    }
    let base = insn.src2?;
    let bytes = match insn.op {
        Opcode::LdB | Opcode::StB => 1,
        _ => 8,
    };
    Some(MemRef {
        base,
        base_version: versions[slots.slot(base)],
        offset: insn.imm,
        bytes,
    })
}

impl DepGraph {
    /// Builds the full (unreduced) dependence graph of a block. Flow-edge
    /// latencies come from `mdes`.
    ///
    /// `recovery` widens barrier treatment per §3.7 (it does not change
    /// register/memory edges, only which instructions later count as
    /// region delimiters — kept here for symmetry of the public API).
    pub fn build(block: &Block, mdes: &MachineDesc, recovery: bool) -> DepGraph {
        DepGraph::build_with_aliasing(block, mdes, recovery, &Default::default())
    }

    /// Like [`DepGraph::build`], honoring program-level `noalias` base
    /// declarations (see
    /// [`Function::declare_noalias`](sentinel_prog::Function::declare_noalias))
    /// when disambiguating memory references.
    pub fn build_with_aliasing(
        block: &Block,
        mdes: &MachineDesc,
        recovery: bool,
        noalias: &std::collections::BTreeSet<Reg>,
    ) -> DepGraph {
        let n = block.insns.len();
        let mut g = DepGraph {
            nodes: block
                .insns
                .iter()
                .enumerate()
                .map(|(i, insn)| Node {
                    insn: insn.clone(),
                    orig_pos: Some(i),
                })
                .collect(),
            original_len: n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        let _ = recovery;

        // --- register dependences -------------------------------------
        // Per-register state, indexed by the block's register slots.
        let slots = RegSlots::of_insns(&block.insns);
        let mut last_def: Vec<Option<usize>> = vec![None; slots.len()];
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        let mut versions: Vec<u32> = vec![0; slots.len()];
        // Memory state.
        let mut last_store: Option<usize> = None;
        let mut stores_since: Vec<(usize, Option<MemRef>)> = Vec::new(); // all stores, for alias-refined edges
        let mut loads_since_store: Vec<(usize, Option<MemRef>)> = Vec::new();
        // The last node every earlier node is ordered before.
        let mut fence = 0usize;

        for (i, insn) in block.insns.iter().enumerate() {
            // Flow: last def of each source.
            for src in insn.uses() {
                let s = slots.slot(src);
                if let Some(d) = last_def[s] {
                    let lat = mdes.latency(block.insns[d].op);
                    g.add_edge(Dep {
                        from: d,
                        to: i,
                        latency: lat,
                        kind: DepKind::Flow,
                    });
                }
                readers[s].push(i);
            }
            if let Some(d) = insn.def() {
                let s = slots.slot(d);
                // Output: previous def of the same register.
                if let Some(p) = last_def[s] {
                    let lp = mdes.latency(block.insns[p].op) as i64;
                    let li = mdes.latency(insn.op) as i64;
                    let lat = (lp - li + 1).max(1) as u32;
                    g.add_edge(Dep {
                        from: p,
                        to: i,
                        latency: lat,
                        kind: DepKind::Output,
                    });
                }
                // Anti: readers of the old value.
                for &r in &readers[s] {
                    if r != i {
                        g.add_edge(Dep {
                            from: r,
                            to: i,
                            latency: 0,
                            kind: DepKind::Anti,
                        });
                    }
                }
                last_def[s] = Some(i);
                readers[s].clear();
                versions[s] += 1;
            }

            // --- memory ordering ---------------------------------------
            let mref = mem_ref(insn, &slots, &versions);
            if insn.op.is_load() {
                // Flow from possibly-aliasing earlier stores.
                for &(s, sref) in &stores_since {
                    let disjoint =
                        matches!((mref, sref), (Some(a), Some(b)) if a.disjoint(&b, noalias));
                    if !disjoint {
                        let lat = mdes.latency(block.insns[s].op);
                        g.add_edge(Dep {
                            from: s,
                            to: i,
                            latency: lat,
                            kind: DepKind::Memory,
                        });
                    }
                }
                loads_since_store.push((i, mref));
            }
            if insn.op.is_store() {
                // Stores stay in FIFO order (store-buffer order, §4.1).
                if let Some(s) = last_store {
                    g.add_edge(Dep {
                        from: s,
                        to: i,
                        latency: 0,
                        kind: DepKind::Memory,
                    });
                }
                // Anti from possibly-aliasing earlier loads.
                for &(l, lref) in &loads_since_store {
                    let disjoint =
                        matches!((mref, lref), (Some(a), Some(b)) if a.disjoint(&b, noalias));
                    if !disjoint {
                        g.add_edge(Dep {
                            from: l,
                            to: i,
                            latency: 0,
                            kind: DepKind::Memory,
                        });
                    }
                }
                last_store = Some(i);
                stores_since.push((i, mref));
                loads_since_store.clear();
            }

            // --- control and barriers ----------------------------------
            let is_fence = insn.op.is_cond_branch()
                || matches!(insn.op, Opcode::Jump | Opcode::Halt)
                || insn.op.is_irreversible();
            if is_fence {
                // Nothing may move down past a branch, jump, halt or
                // barrier. Nodes above the previous fence already reach
                // it through its own order edges (all of latency 0), so
                // the edges start there.
                for j in fence..i {
                    g.add_edge(Dep {
                        from: j,
                        to: i,
                        latency: 0,
                        kind: DepKind::Order,
                    });
                }
                fence = i;
            }
            if insn.op.is_cond_branch() {
                // Moving *up* past a branch is speculation: removable edges.
                for j in i + 1..n {
                    g.add_edge(Dep {
                        from: i,
                        to: j,
                        latency: 0,
                        kind: DepKind::Control,
                    });
                }
            } else if is_fence {
                // Nothing moves up past a jump or halt either, nor past an
                // opaque call / I/O: a full scheduling barrier (sound for
                // unknown memory and side effects; subsumes §3.7
                // restriction 1).
                for j in i + 1..n {
                    g.add_edge(Dep {
                        from: i,
                        to: j,
                        latency: 0,
                        kind: DepKind::Order,
                    });
                }
            }
        }
        g
    }

    fn ensure(&mut self, idx: usize) {
        while self.succs.len() <= idx {
            self.succs.push(Vec::new());
            self.preds.push(Vec::new());
        }
    }

    /// Adds an edge, deduplicating identical `(from, to, kind)` pairs by
    /// keeping the larger latency.
    pub fn add_edge(&mut self, dep: Dep) {
        debug_assert_ne!(dep.from, dep.to, "self edge");
        self.ensure(dep.from.max(dep.to));
        if let Some(existing) = self.succs[dep.from]
            .iter_mut()
            .find(|e| e.to == dep.to && e.kind == dep.kind)
        {
            if existing.latency < dep.latency {
                existing.latency = dep.latency;
                let p = self.preds[dep.to]
                    .iter_mut()
                    .find(|e| e.from == dep.from && e.kind == dep.kind)
                    .expect("pred mirror");
                p.latency = dep.latency;
            }
            return;
        }
        self.succs[dep.from].push(dep);
        self.preds[dep.to].push(dep);
    }

    /// Adds a node (an inserted sentinel) and returns its index.
    pub fn add_node(&mut self, insn: Insn) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            insn,
            orig_pos: None,
        });
        self.ensure(idx);
        idx
    }

    /// Removes the control edge `branch → to`, returning `true` if one
    /// existed.
    pub fn remove_control_edge(&mut self, branch: usize, to: usize) -> bool {
        let Some(s) = self.succs[branch]
            .iter()
            .position(|e| e.to == to && e.kind == DepKind::Control)
        else {
            return false;
        };
        self.succs[branch].remove(s);
        let p = self.preds[to]
            .iter()
            .position(|e| e.from == branch && e.kind == DepKind::Control)
            .expect("pred mirror");
        self.preds[to].remove(p);
        true
    }

    /// Successor edges of a node.
    pub fn succs(&self, i: usize) -> &[Dep] {
        &self.succs[i]
    }

    /// Predecessor edges of a node.
    pub fn preds(&self, i: usize) -> &[Dep] {
        &self.preds[i]
    }

    /// Number of nodes (original + inserted).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of original conditional-branch nodes, in program order.
    pub fn branch_positions(&self) -> Vec<usize> {
        (0..self.original_len)
            .filter(|&i| self.nodes[i].insn.op.is_cond_branch())
            .collect()
    }

    /// The position of the first region delimiter strictly after `pos`
    /// (or `original_len` if none): the end of `pos`'s home block.
    pub fn region_end(&self, pos: usize, recovery: bool) -> usize {
        (pos + 1..self.original_len)
            .find(|&i| is_region_delimiter(self.nodes[i].insn.op, recovery))
            .unwrap_or(self.original_len)
    }

    /// Critical-path heights (used as list-scheduling priorities) over the
    /// current edges. Inserted nodes are included.
    pub fn heights(&self, latency_of: impl Fn(&Insn) -> u32) -> Vec<u64> {
        let n = self.len();
        let mut h = vec![0u64; n];
        // Process in reverse topological order; original order is a valid
        // topological order for original nodes (all edges go forward), and
        // inserted nodes only link into existing ones, so iterate until
        // fixpoint (cheap: graphs are DAGs, a couple of passes suffice).
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let base = latency_of(&self.nodes[i].insn) as u64;
                let mut best = base;
                for e in &self.succs[i] {
                    let v = e.latency as u64 + h[e.to];
                    if v > best {
                        best = v;
                    }
                }
                if h[i] != best {
                    h[i] = best;
                    changed = true;
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::{BlockId, Reg};
    use sentinel_prog::ProgramBuilder;

    fn block_of(insns: Vec<Insn>) -> Block {
        let mut b = ProgramBuilder::new("t");
        let e = b.block("entry");
        let t = b.block("t");
        b.switch_to(e);
        for i in insns {
            b.push(i);
        }
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        f.block(e).clone()
    }

    fn has_edge(g: &DepGraph, from: usize, to: usize, kind: DepKind) -> bool {
        g.succs(from).iter().any(|e| e.to == to && e.kind == kind)
    }

    #[test]
    fn flow_anti_output_edges() {
        // 0: r1 = 5 ; 1: r2 = r1+1 ; 2: r1 = 7
        let b = block_of(vec![
            Insn::li(Reg::int(1), 5),
            Insn::addi(Reg::int(2), Reg::int(1), 1),
            Insn::li(Reg::int(1), 7),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 1, DepKind::Flow));
        assert!(has_edge(&g, 1, 2, DepKind::Anti));
        assert!(has_edge(&g, 0, 2, DepKind::Output));
    }

    #[test]
    fn flow_latency_matches_producer_class() {
        // load (2) feeding add.
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(3), Reg::int(1), 1),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        let e = g.succs(0).iter().find(|e| e.to == 1).unwrap();
        assert_eq!(e.latency, 2);
        assert_eq!(e.kind, DepKind::Flow);
    }

    #[test]
    fn store_load_ordering_conservative() {
        // st r1, 0(r2) ; ld r3, 0(r4)  — different bases: may alias.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 1, DepKind::Memory));
    }

    #[test]
    fn same_base_disjoint_offsets_disambiguated() {
        // st r1, 0(r2) ; ld r3, 8(r2) — same base version, disjoint.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(2), 8),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(!has_edge(&g, 0, 1, DepKind::Memory));
    }

    #[test]
    fn noalias_bases_disambiguate_across_arrays() {
        // st r1, 0(r2) ; ld r3, 0(r4) — r2 and r4 declared disjoint arrays.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let noalias: std::collections::BTreeSet<Reg> =
            [Reg::int(2), Reg::int(4)].into_iter().collect();
        let g = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), false, &noalias);
        assert!(!has_edge(&g, 0, 1, DepKind::Memory));
        // Only one base declared: conservative again.
        let partial: std::collections::BTreeSet<Reg> = [Reg::int(2)].into_iter().collect();
        let g2 = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), false, &partial);
        assert!(has_edge(&g2, 0, 1, DepKind::Memory));
    }

    #[test]
    fn noalias_promise_expires_on_redefinition() {
        // r4 is rewritten before the load: its value may now point anywhere.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::mov(Reg::int(4), Reg::int(2)),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let noalias: std::collections::BTreeSet<Reg> =
            [Reg::int(2), Reg::int(4)].into_iter().collect();
        let g = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), false, &noalias);
        assert!(has_edge(&g, 0, 2, DepKind::Memory));
    }

    #[test]
    fn same_base_redefined_conservative() {
        // st r1, 0(r2) ; r2 = r2+8 ; ld r3, 8(r2) — version changed: alias.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(2), Reg::int(2), 8),
            Insn::ld_w(Reg::int(3), Reg::int(2), 8),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 2, DepKind::Memory));
    }

    #[test]
    fn stores_stay_fifo_ordered() {
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::st_w(Reg::int(1), Reg::int(2), 64),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 1, DepKind::Memory), "stores never reorder");
    }

    #[test]
    fn branch_edges_both_directions() {
        // 0: add ; 1: beq ; 2: add
        let b = block_of(vec![
            Insn::addi(Reg::int(1), Reg::int(1), 1),
            Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, BlockId(1)),
            Insn::addi(Reg::int(2), Reg::int(2), 1),
        ]);
        let mut g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 1, DepKind::Order), "no downward motion");
        assert!(has_edge(&g, 1, 2, DepKind::Control), "speculation edge");
        assert!(g.remove_control_edge(1, 2));
        assert!(!has_edge(&g, 1, 2, DepKind::Control));
        assert!(!g.remove_control_edge(1, 2), "already removed");
    }

    #[test]
    fn jsr_is_a_full_barrier() {
        let b = block_of(vec![
            Insn::addi(Reg::int(1), Reg::int(1), 1),
            Insn::jsr(),
            Insn::ld_w(Reg::int(2), Reg::int(3), 0),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert!(has_edge(&g, 0, 1, DepKind::Order));
        assert!(has_edge(&g, 1, 2, DepKind::Order));
    }

    #[test]
    fn region_end_finds_next_delimiter() {
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0), // 0
            Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, BlockId(1)), // 1
            Insn::jsr(),                             // 2
            Insn::addi(Reg::int(3), Reg::int(1), 1), // 3
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        assert_eq!(g.region_end(0, false), 1);
        // Without recovery, jsr does not delimit regions.
        assert_eq!(g.region_end(1, false), 4);
        // With recovery it does (restriction 2).
        assert_eq!(g.region_end(1, true), 2);
        assert_eq!(g.region_end(3, true), 4);
    }

    #[test]
    fn heights_reflect_critical_path() {
        // ld (2) -> add (1) -> st(1): height(ld) = 2+1+1... edges: ld->add lat2, add->st lat1.
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(3), Reg::int(1), 1),
            Insn::st_w(Reg::int(3), Reg::int(2), 0),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        let h = g.heights(|i| sentinel_isa::MachineDesc::paper_issue(1).latency(i.op));
        assert!(h[0] > h[1], "earlier chain nodes have larger height");
        assert!(h[1] > 0);
        assert_eq!(h[0], 2 + 1 + 1);
    }

    #[test]
    fn add_node_extends_graph() {
        let b = block_of(vec![Insn::nop()]);
        let mut g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        let j = g.add_node(Insn::check_exception(Reg::int(1)));
        g.add_edge(Dep {
            from: 0,
            to: j,
            latency: 1,
            kind: DepKind::Sentinel,
        });
        assert_eq!(g.len(), 2);
        assert_eq!(g.preds(j).len(), 1);
        assert_eq!(g.nodes[j].orig_pos, None);
    }

    #[test]
    fn duplicate_edges_keep_max_latency() {
        let b = block_of(vec![Insn::nop(), Insn::nop()]);
        let mut g = DepGraph::build(&b, &MachineDesc::paper_issue(1), false);
        g.add_edge(Dep {
            from: 0,
            to: 1,
            latency: 1,
            kind: DepKind::Sentinel,
        });
        g.add_edge(Dep {
            from: 0,
            to: 1,
            latency: 5,
            kind: DepKind::Sentinel,
        });
        g.add_edge(Dep {
            from: 0,
            to: 1,
            latency: 2,
            kind: DepKind::Sentinel,
        });
        let edges: Vec<_> = g
            .succs(0)
            .iter()
            .filter(|e| e.kind == DepKind::Sentinel)
            .collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].latency, 5);
    }
}
