//! Control-flow graph over blocks.

use std::collections::{HashSet, VecDeque};

use sentinel_isa::BlockId;

use crate::Function;

/// An edge kind in the control-flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A taken conditional branch or unconditional jump.
    Taken,
    /// Fall-through off the end of the block to the next block in layout.
    FallThrough,
}

/// A control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// How control reaches `to`.
    pub kind: EdgeKind,
}

/// The control-flow graph of a [`Function`].
///
/// Successors of a block are the targets of its side-exit branches (in
/// program order) plus the layout fall-through, if the block does not end
/// in `jump` or `halt`.
///
/// # Examples
///
/// ```
/// use sentinel_prog::{cfg::Cfg, ProgramBuilder};
/// use sentinel_isa::{Insn, Opcode, Reg};
///
/// let mut b = ProgramBuilder::new("f");
/// let entry = b.block("entry");
/// let exit = b.block("exit");
/// b.switch_to(entry);
/// b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, exit));
/// b.push(Insn::halt());
/// b.switch_to(exit);
/// b.push(Insn::halt());
/// let f = b.finish();
/// let cfg = Cfg::build(&f);
/// assert_eq!(cfg.successors(entry), &[exit]); // halt ends the block
/// assert_eq!(cfg.predecessors(exit), &[entry]);
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    // Per block, indexed by `BlockId::index()`.
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    fallthrough: Vec<Option<BlockId>>,
    edges: Vec<Edge>,
    entry: BlockId,
}

impl Cfg {
    /// Builds the CFG of a function.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks.
    pub fn build(func: &Function) -> Cfg {
        let n = func.block_count();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut fallthrough: Vec<Option<BlockId>> = vec![None; n];
        let mut edges = Vec::new();
        for pair in func.layout().windows(2) {
            if !func.block(pair[0]).ends_in_unconditional() {
                fallthrough[pair[0].index()] = Some(pair[1]);
            }
        }
        for b in func.blocks() {
            let mut out: Vec<BlockId> = Vec::new();
            for t in b.branch_targets() {
                if !out.contains(&t) {
                    out.push(t);
                }
                edges.push(Edge {
                    from: b.id,
                    to: t,
                    kind: EdgeKind::Taken,
                });
            }
            if let Some(ft) = fallthrough[b.id.index()] {
                if !out.contains(&ft) {
                    out.push(ft);
                }
                edges.push(Edge {
                    from: b.id,
                    to: ft,
                    kind: EdgeKind::FallThrough,
                });
            }
            for t in &out {
                preds[t.index()].push(b.id);
            }
            succs[b.id.index()] = out;
        }
        Cfg {
            succs,
            preds,
            fallthrough,
            edges,
            entry: func.entry(),
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Successor blocks (deduplicated, branch targets first, fall-through
    /// last).
    pub fn successors(&self, b: BlockId) -> &[BlockId] {
        self.succs.get(b.index()).map_or(&[], |v| v.as_slice())
    }

    /// Predecessor blocks.
    pub fn predecessors(&self, b: BlockId) -> &[BlockId] {
        self.preds.get(b.index()).map_or(&[], |v| v.as_slice())
    }

    /// The block control falls into off the end of `b`: its layout
    /// successor, unless `b` ends in `jump` or `halt` or is last in the
    /// layout.
    pub fn fallthrough(&self, b: BlockId) -> Option<BlockId> {
        self.fallthrough.get(b.index()).copied().flatten()
    }

    /// All edges, including parallel taken/fall-through edges to the same
    /// target.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Blocks reachable from the entry.
    pub fn reachable(&self) -> HashSet<BlockId> {
        let mut seen = HashSet::new();
        let mut work = VecDeque::from([self.entry]);
        while let Some(b) = work.pop_front() {
            if seen.insert(b) {
                for s in self.successors(b) {
                    work.push_back(*s);
                }
            }
        }
        seen
    }

    /// Reverse post-order over reachable blocks (a topological order when
    /// the graph is acyclic; loops place headers before bodies).
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut order = Vec::new();
        // Iterative DFS to avoid recursion depth limits on long chains.
        let mut seen = vec![false; self.succs.len()];
        let mut stack = vec![(self.entry, 0usize)];
        seen[self.entry.index()] = true;
        while let Some((b, idx)) = stack.pop() {
            let succs = self.successors(b);
            if idx < succs.len() {
                stack.push((b, idx + 1));
                let s = succs[idx];
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
            }
        }
        order.reverse();
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use sentinel_isa::{Insn, Opcode, Reg};

    /// entry -> (branch) b2, fall-through b1; b1 -> b2; b2: halt.
    fn diamondish() -> (crate::Function, BlockId, BlockId, BlockId) {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let m = b.block("mid");
        let x = b.block("exit");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, x));
        b.switch_to(m);
        b.push(Insn::nop());
        b.switch_to(x);
        b.push(Insn::halt());
        (b.finish(), e, m, x)
    }

    #[test]
    fn successors_branch_then_fallthrough() {
        let (f, e, m, x) = diamondish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.successors(e), &[x, m]);
        assert_eq!(cfg.successors(m), &[x]);
        assert_eq!(cfg.successors(x), &[] as &[BlockId]);
    }

    #[test]
    fn predecessors_inverse_of_successors() {
        let (f, e, m, x) = diamondish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.predecessors(m), &[e]);
        let mut px = cfg.predecessors(x).to_vec();
        px.sort();
        assert_eq!(px, vec![e, m]);
    }

    #[test]
    fn edge_kinds() {
        let (f, e, m, x) = diamondish();
        let cfg = Cfg::build(&f);
        assert!(cfg.edges().contains(&Edge {
            from: e,
            to: x,
            kind: EdgeKind::Taken
        }));
        assert!(cfg.edges().contains(&Edge {
            from: e,
            to: m,
            kind: EdgeKind::FallThrough
        }));
    }

    #[test]
    fn unconditional_end_blocks_fallthrough() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let dead = b.block("dead");
        let x = b.block("exit");
        b.switch_to(e);
        b.push(Insn::jump(x));
        b.switch_to(dead);
        b.push(Insn::nop());
        b.switch_to(x);
        b.push(Insn::halt());
        let f = b.finish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.successors(e), &[x]);
        let reach = cfg.reachable();
        assert!(reach.contains(&e) && reach.contains(&x));
        assert!(!reach.contains(&dead));
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let (f, e, m, x) = diamondish();
        let cfg = Cfg::build(&f);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], e);
        let pos = |b: BlockId| rpo.iter().position(|v| *v == b).unwrap();
        assert!(pos(m) < pos(x) || pos(x) < pos(m)); // both present
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn loop_cfg_rpo_contains_all_reachable() {
        let mut b = ProgramBuilder::new("loop");
        let head = b.block("head");
        let done = b.block("done");
        b.switch_to(head);
        b.push(Insn::addi(Reg::int(1), Reg::int(1), -1));
        b.push(Insn::branch(Opcode::Bne, Reg::int(1), Reg::ZERO, head));
        b.switch_to(done);
        b.push(Insn::halt());
        let f = b.finish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.reverse_post_order().len(), 2);
        assert!(cfg.successors(head).contains(&head));
        assert!(cfg.predecessors(head).contains(&head));
    }
}
