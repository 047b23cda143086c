//! Live-variable analysis (backward dataflow).
//!
//! Liveness drives two parts of the paper:
//!
//! * **Dependence graph reduction** (§2.1 restriction (1), Appendix): a
//!   control dependence from branch `BR` to a later instruction `I` can be
//!   removed iff `dest(I)` is *not live* when `BR` is taken — i.e. not in
//!   the live-in set of `BR`'s target.
//! * **Uninitialized data handling** (§3.5): registers live into the
//!   function entry may carry stale exception tags, so the compiler inserts
//!   `clear_tag` instructions for them.
//!
//! Because blocks are superblock-shaped (side exits in the middle), the
//! analysis is *per-point* within a block: a register defined below a side
//! exit is not live above that definition merely because the side exit's
//! target uses it. The block-level fixpoint therefore rescans each block
//! backwards, adding the target's live-in set at each branch.

use sentinel_isa::{BlockId, Insn};

use crate::cfg::Cfg;
use crate::regset::{RegSet, RegSlots};
use crate::Function;

/// Result of live-variable analysis over a [`Function`].
///
/// Sets are dense bit sets ([`RegSet`]) over the registers the function
/// mentions, one per block, indexed by [`BlockId::index`]. Blocks not
/// reachable from the entry have empty sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Runs the analysis to fixpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use sentinel_prog::{cfg::Cfg, liveness::Liveness, ProgramBuilder};
    /// use sentinel_isa::{Insn, Reg};
    ///
    /// let mut b = ProgramBuilder::new("f");
    /// let entry = b.block("entry");
    /// b.push(Insn::addi(Reg::int(2), Reg::int(1), 1)); // reads r1
    /// b.push(Insn::halt());
    /// let f = b.finish();
    /// let lv = Liveness::compute(&f, &Cfg::build(&f));
    /// assert!(lv.live_in(entry).contains(Reg::int(1)));
    /// ```
    pub fn compute(func: &Function, cfg: &Cfg) -> Liveness {
        let empty = RegSet::for_slots(RegSlots::of_function(func));
        let mut lv = Liveness {
            live_in: vec![empty.clone(); func.block_count()],
            live_out: vec![empty.clone(); func.block_count()],
        };

        // Iterate blocks in post-order-ish sequence until stable. Order
        // only affects convergence speed, not the result.
        let mut order = cfg.reverse_post_order();
        order.reverse();
        let mut live = empty;
        loop {
            let mut changed = false;
            for &bid in &order {
                // live_out = live_in of the layout fall-through (side-exit
                // targets are added during the in-block scan).
                let b = bid.index();
                live.clear();
                if let Some(ft) = cfg.fallthrough(bid) {
                    live.union_with(&lv.live_in[ft.index()]);
                }
                if live != lv.live_out[b] {
                    lv.live_out[b].copy_from(&live);
                    changed = true;
                }
                for insn in func.block(bid).insns.iter().rev() {
                    lv.step_back(insn, &mut live);
                }
                if live != lv.live_in[b] {
                    lv.live_in[b].copy_from(&live);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        lv
    }

    /// Registers live at the top of a block.
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    /// Registers live at the bottom of a block (i.e. into the layout
    /// fall-through; side-exit liveness is position-dependent — see
    /// [`Liveness::live_before`]).
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }

    /// Registers live immediately *before* the instruction at `pos` in
    /// block `b` (position `insns.len()` gives the live-out set).
    pub fn live_before(&self, func: &Function, b: BlockId, pos: usize) -> RegSet {
        let block = func.block(b);
        assert!(pos <= block.insns.len(), "position out of bounds");
        let mut live = self.live_out(b).clone();
        for insn in block.insns[pos..].iter().rev() {
            self.step_back(insn, &mut live);
        }
        live
    }

    /// [`Liveness::live_before`] at every position of block `b` at once:
    /// element `pos` is the set live before instruction `pos`, and the
    /// last element (`insns.len()`) is the live-out set.
    pub fn live_before_each(&self, func: &Function, b: BlockId) -> Vec<RegSet> {
        let insns = &func.block(b).insns;
        let mut points = vec![self.live_out(b).clone(); insns.len() + 1];
        for (pos, insn) in insns.iter().enumerate().rev() {
            let (before, after) = points.split_at_mut(pos + 1);
            before[pos].copy_from(&after[0]);
            self.step_back(insn, &mut before[pos]);
        }
        points
    }

    /// Moves `live` from just after `insn` to just before it: the
    /// definition dies, the uses and (for a branch) the target's live-in
    /// registers become live.
    fn step_back(&self, insn: &Insn, live: &mut RegSet) {
        if let Some(d) = insn.def() {
            live.remove(d);
        }
        for u in insn.uses() {
            live.insert(u);
        }
        if let Some(t) = insn.target {
            live.union_with(&self.live_in[t.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use sentinel_isa::{Insn, Opcode, Reg};

    fn analyze(f: &Function) -> Liveness {
        let cfg = Cfg::build(f);
        Liveness::compute(f, &cfg)
    }

    #[test]
    fn straight_line_liveness() {
        // entry: r2 = r1 + 1; st r2, 0(r3); halt
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::addi(Reg::int(2), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(2), Reg::int(3), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let li = lv.live_in(e);
        assert!(li.contains(Reg::int(1)));
        assert!(li.contains(Reg::int(3)));
        assert!(!li.contains(Reg::int(2)), "r2 is defined before use");
        assert!(lv.live_out(e).is_empty());
    }

    #[test]
    fn side_exit_target_liveness_is_positional() {
        // entry: beq r1, r0, other ; r5 = 1 ; halt
        // other: uses r5
        // r5 is live at the branch point (other uses it) but NOT live-in to
        // entry, because on the fall-through path it is defined before any
        // use, and a taken branch at the top means the *old* r5 flows to
        // `other`.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let o = b.block("other");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, o));
        b.push(Insn::li(Reg::int(5), 1));
        b.push(Insn::halt());
        b.switch_to(o);
        b.push(Insn::st_w(Reg::int(5), Reg::int(6), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        // At the branch (pos 0) r5 is live (target uses it).
        assert!(lv.live_before(&f, e, 0).contains(Reg::int(5)));
        assert!(lv.live_in(e).contains(Reg::int(5)));
        // Just after the branch (pos 1), r5 is dead: it is redefined before
        // its only subsequent use.
        assert!(!lv.live_before(&f, e, 1).contains(Reg::int(5)));
    }

    #[test]
    fn loop_carried_liveness() {
        // head: r1 = r1 - 1; bne r1, r0, head
        // done: halt
        let mut b = ProgramBuilder::new("loop");
        let head = b.block("head");
        let done = b.block("done");
        b.switch_to(head);
        b.push(Insn::addi(Reg::int(1), Reg::int(1), -1));
        b.push(Insn::branch(Opcode::Bne, Reg::int(1), Reg::ZERO, head));
        b.switch_to(done);
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        assert!(lv.live_in(head).contains(Reg::int(1)));
        // r1 is live around the back edge.
        assert!(lv.live_before(&f, head, 1).contains(Reg::int(1)));
    }

    #[test]
    fn fp_and_int_tracked_separately() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::alu(Opcode::FAdd, Reg::fp(1), Reg::fp(2), Reg::fp(3)));
        b.push(Insn::fst(Reg::fp(1), Reg::int(4), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let li = lv.live_in(e);
        assert!(li.contains(Reg::fp(2)) && li.contains(Reg::fp(3)));
        assert!(li.contains(Reg::int(4)));
        assert!(!li.contains(Reg::fp(1)));
    }

    #[test]
    fn zero_register_never_live() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, e));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        assert!(!lv.live_in(e).contains(Reg::ZERO));
    }

    #[test]
    fn live_before_end_equals_live_out() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::li(Reg::int(1), 1));
        b.switch_to(t);
        b.push(Insn::st_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let n = f.block(e).insns.len();
        assert_eq!(lv.live_before(&f, e, n), *lv.live_out(e));
        assert!(lv.live_out(e).contains(Reg::int(1)));
    }

    #[test]
    fn live_before_each_matches_live_before() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let o = b.block("other");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, o));
        b.push(Insn::li(Reg::int(5), 1));
        b.push(Insn::addi(Reg::int(6), Reg::int(5), 2));
        b.push(Insn::halt());
        b.switch_to(o);
        b.push(Insn::st_w(Reg::int(5), Reg::int(6), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        for bid in [e, o] {
            let each = lv.live_before_each(&f, bid);
            assert_eq!(each.len(), f.block(bid).insns.len() + 1);
            for (pos, set) in each.iter().enumerate() {
                assert_eq!(*set, lv.live_before(&f, bid, pos), "{bid} at {pos}");
            }
        }
    }
}
