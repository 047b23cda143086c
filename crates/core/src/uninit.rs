//! Uninitialized-data handling (paper §3.5).
//!
//! A register that is read before being written may carry a stale
//! exception tag from a previous context, which would trip a spurious
//! exception at its first (sentinel-checked) use. The compiler performs
//! live-variable analysis and inserts `clear_tag` instructions for every
//! register live into the function entry.

use sentinel_isa::Insn;
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::Liveness;
use sentinel_prog::Function;

/// Inserts `clear_tag` instructions at the top of the entry block for all
/// registers live into the function. Returns how many were inserted.
pub fn insert_clear_tags(func: &mut Function) -> usize {
    let cfg = Cfg::build(func);
    let lv = Liveness::compute(func, &cfg);
    let entry = func.entry();
    let regs: Vec<_> = lv.live_in(entry).iter().collect();
    for (k, r) in regs.iter().enumerate() {
        func.insert_insn(entry, k, Insn::clear_tag(*r));
    }
    regs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::{Opcode, Reg};
    use sentinel_prog::{validate, ProgramBuilder};

    #[test]
    fn clears_exactly_the_live_in_registers() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::addi(Reg::int(2), Reg::int(1), 1)); // r1 live-in
        b.push(Insn::fst(Reg::fp(3), Reg::int(2), 0)); // f3 live-in, r2 defined
        b.push(Insn::halt());
        let mut f = b.finish();
        let n = insert_clear_tags(&mut f);
        assert_eq!(n, 2);
        let e = f.entry();
        let insns = &f.block(e).insns;
        assert_eq!(insns[0].op, Opcode::ClearTag);
        assert_eq!(insns[0].dest, Some(Reg::int(1)));
        assert_eq!(insns[1].op, Opcode::ClearTag);
        assert_eq!(insns[1].dest, Some(Reg::fp(3)));
        assert!(validate(&f).is_empty());
    }

    #[test]
    fn no_live_ins_no_insertions() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 3));
        b.push(Insn::addi(Reg::int(2), Reg::int(1), 1));
        b.push(Insn::halt());
        let mut f = b.finish();
        assert_eq!(insert_clear_tags(&mut f), 0);
    }

    #[test]
    fn loop_carried_live_in_cleared() {
        let mut b = ProgramBuilder::new("f");
        let head = b.block("head");
        let done = b.block("done");
        b.switch_to(head);
        b.push(Insn::addi(Reg::int(1), Reg::int(1), -1));
        b.push(Insn::branch(Opcode::Bne, Reg::int(1), Reg::ZERO, head));
        b.switch_to(done);
        b.push(Insn::halt());
        let mut f = b.finish();
        assert_eq!(insert_clear_tags(&mut f), 1);
        assert_eq!(f.block(head).insns[0].op, Opcode::ClearTag);
    }
}
