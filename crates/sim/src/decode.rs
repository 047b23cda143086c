//! One-time lowering of a [`Function`] into a dense, execution-ready form.
//!
//! The interpretive [`Machine`](crate::Machine) walks the block graph as
//! it executes: every fallthrough re-scans the layout
//! (`Function::fallthrough_of` is a linear search), every operand probes
//! a `HashMap` scoreboard, and every issue re-derives the opcode's
//! latency and class. The decode pass pays all of those costs once,
//! producing a [`DecodedProgram`]: a flat instruction array in layout
//! order with pre-resolved scoreboard indices, pre-looked-up latencies,
//! pre-computed branch/sentinel classification, and control transfers as
//! indices into a table of [`Resolution`]s (the exact block-entry chains
//! the interpreter would walk, preserved so execution profiles and
//! fell-off-the-end reporting stay bit-identical).
//!
//! The turbo engine ([`TurboProgram`](crate::TurboProgram)) builds its
//! trace-chained form from this one; the interpreter remains the timing
//! oracle.
//!
//! [`Function`]: sentinel_prog::Function

use sentinel_isa::{BlockId, Insn, InsnId, MachineDesc, OpClass, Opcode, Reg, RegClass};
use sentinel_trace::StallReason;

use crate::hash::FastMap;

/// Sentinel index meaning "no register / no resolution".
pub(crate) const NONE: u32 = u32::MAX;

/// Where control ends up after following a block-entry chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResEnd {
    /// Execution continues at this flat instruction index.
    At(u32),
    /// Control fell off the end of the layout inside this block.
    FellOff(BlockId),
}

/// A pre-resolved control transfer: the blocks entered (in the order the
/// interpreter's profile would record them, following empty-block
/// fallthrough chains) and the final destination.
#[derive(Debug, Clone)]
pub(crate) struct Resolution {
    /// Blocks entered from the top, in order.
    pub enters: Vec<BlockId>,
    /// Final destination.
    pub end: ResEnd,
}

/// One pre-decoded instruction.
#[derive(Debug, Clone)]
pub(crate) struct DecodedInsn<'a> {
    /// The original instruction (register operands, immediates, ids, and
    /// rendering all come from here; only scheduling-critical derived
    /// facts are cached alongside).
    pub raw: &'a Insn,
    /// Pre-looked-up operation latency from the machine description.
    pub lat: u64,
    /// `true` if the opcode occupies the per-cycle branch slot.
    pub is_branch: bool,
    /// Stall reason charged while waiting for this instruction's sources.
    pub wait: StallReason,
    /// Scoreboard index of `src1` ([`NONE`] if absent).
    pub src1: u32,
    /// Scoreboard index of `src2` ([`NONE`] if absent).
    pub src2: u32,
    /// Scoreboard index of the architectural def ([`NONE`] if the
    /// instruction defines nothing — including writes to `r0`).
    pub dest: u32,
    /// Scoreboard index of the raw `dest` operand, `r0` included (the
    /// load paths score the destination without the `def()` filter,
    /// exactly as the interpreter does).
    pub raw_dest: u32,
    /// Resolution index of the branch/jump target ([`NONE`] if the
    /// instruction has no target).
    pub target: u32,
    /// Resolution index to follow when execution advances past this
    /// instruction and it is the last of its block ([`NONE`] while inside
    /// a block, where the successor is simply the next flat index).
    pub fall: u32,
}

/// A function lowered for the turbo engine: flat instructions, resolved
/// control transfers, and dense scoreboard geometry.
#[derive(Debug, Clone)]
pub(crate) struct DecodedProgram<'a> {
    /// Flat instruction array: layout blocks first (first occurrence
    /// order), then any non-layout blocks (reachable only by jump).
    pub insns: Vec<DecodedInsn<'a>>,
    /// Block-entry chains, indexed by the `u32` stored in
    /// [`DecodedInsn::target`] / [`DecodedInsn::fall`] /
    /// [`DecodedProgram::entry`].
    pub resolutions: Vec<Resolution>,
    /// Resolution for entering the function at its entry block.
    pub entry: u32,
    /// Number of integer scoreboard slots (fp registers follow).
    pub int_slots: usize,
    /// Total scoreboard slots (`int + fp`).
    pub slots: usize,
    /// Flat index of every instruction id (recovery resume targets).
    pub flat_of: FastMap<InsnId, u32>,
}

impl<'a> DecodedProgram<'a> {
    /// Lowers `func` for execution on `mdes`.
    pub fn new(func: &'a sentinel_prog::Function, mdes: &MachineDesc) -> DecodedProgram<'a> {
        let (mi, mf) = func.max_reg_indices();
        let int_slots = mdes.int_regs().max(mi.map_or(0, |i| i as usize + 1));
        let fp_slots = mdes.fp_regs().max(mf.map_or(0, |i| i as usize + 1));
        let reg_index = |r: Reg| -> u32 {
            match r.class() {
                RegClass::Int => r.index() as u32,
                RegClass::Fp => (int_slots + r.index() as usize) as u32,
            }
        };

        // Flatten: layout blocks (first occurrence), then non-layout
        // blocks, recording each block's first flat instruction index.
        let block_count = func
            .blocks()
            .map(|b| b.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut first_flat: Vec<u32> = vec![NONE; block_count];
        let mut order: Vec<BlockId> = Vec::with_capacity(block_count);
        let mut seen = vec![false; block_count];
        for &b in func.layout() {
            if !seen[b.0 as usize] {
                seen[b.0 as usize] = true;
                order.push(b);
            }
        }
        for block in func.blocks() {
            if !seen[block.id.0 as usize] {
                seen[block.id.0 as usize] = true;
                order.push(block.id);
            }
        }
        let mut flat_raw: Vec<&'a Insn> = Vec::with_capacity(func.insn_count());
        let mut last_of_block: Vec<Option<BlockId>> = Vec::with_capacity(func.insn_count());
        for &b in &order {
            let insns = &func.block(b).insns;
            if insns.is_empty() {
                continue;
            }
            first_flat[b.0 as usize] = flat_raw.len() as u32;
            for (i, insn) in insns.iter().enumerate() {
                flat_raw.push(insn);
                last_of_block.push((i + 1 == insns.len()).then_some(b));
            }
        }

        // Resolutions: one per block for "enter this block" (jump targets
        // and fallthrough chains), plus one per block for "fell off the
        // end here" (last instruction of a block with no layout
        // successor).
        let mut resolutions: Vec<Resolution> = Vec::new();
        let mut enter_res: Vec<u32> = vec![NONE; block_count];
        for &b in &order {
            let mut enters = vec![b];
            let mut cur = b;
            let end = loop {
                if !func.block(cur).insns.is_empty() {
                    break ResEnd::At(first_flat[cur.0 as usize]);
                }
                match func.fallthrough_of(cur) {
                    Some(next) => {
                        enters.push(next);
                        cur = next;
                    }
                    None => break ResEnd::FellOff(cur),
                }
            };
            enter_res[b.0 as usize] = resolutions.len() as u32;
            resolutions.push(Resolution { enters, end });
        }
        let mut fell_res: Vec<u32> = vec![NONE; block_count];
        let mut fall_for = |b: BlockId, resolutions: &mut Vec<Resolution>| -> u32 {
            match func.fallthrough_of(b) {
                Some(ft) => enter_res[ft.0 as usize],
                None => {
                    if fell_res[b.0 as usize] == NONE {
                        fell_res[b.0 as usize] = resolutions.len() as u32;
                        resolutions.push(Resolution {
                            enters: Vec::new(),
                            end: ResEnd::FellOff(b),
                        });
                    }
                    fell_res[b.0 as usize]
                }
            }
        };

        let mut insns = Vec::with_capacity(flat_raw.len());
        let mut flat_of = FastMap::default();
        for (idx, &insn) in flat_raw.iter().enumerate() {
            flat_of.insert(insn.id, idx as u32);
            let fall = match last_of_block[idx] {
                Some(b) => fall_for(b, &mut resolutions),
                None => NONE,
            };
            insns.push(DecodedInsn {
                raw: insn,
                lat: mdes.latency(insn.op) as u64,
                is_branch: insn.op.class() == OpClass::Branch,
                wait: match insn.op {
                    Opcode::CheckExcept | Opcode::ConfirmStore => StallReason::SentinelOverhead,
                    _ => StallReason::RawInterlock,
                },
                src1: insn.src1.map_or(NONE, reg_index),
                src2: insn.src2.map_or(NONE, reg_index),
                dest: insn.def().map_or(NONE, reg_index),
                raw_dest: insn.dest.map_or(NONE, reg_index),
                target: insn.target.map_or(NONE, |t| enter_res[t.0 as usize]),
                fall,
            });
        }

        DecodedProgram {
            insns,
            resolutions,
            entry: enter_res[func.entry().0 as usize],
            int_slots,
            slots: int_slots + fp_slots,
            flat_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::LatencyTable;
    use sentinel_prog::ProgramBuilder;

    fn mdes() -> MachineDesc {
        MachineDesc::builder()
            .issue_width(2)
            .latencies(LatencyTable::paper())
            .build()
    }

    #[test]
    fn flat_order_and_falls() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1));
        b.push(Insn::li(Reg::int(2), 2));
        let tail = b.block("tail");
        b.switch_to(tail);
        b.push(Insn::halt());
        let f = b.finish();
        let p = DecodedProgram::new(&f, &mdes());
        assert_eq!(p.insns.len(), 3);
        // Mid-block instruction: successor is just idx + 1.
        assert_eq!(p.insns[0].fall, NONE);
        // Last of entry block: fallthrough resolution entering `tail`.
        let fall = p.insns[1].fall;
        assert_ne!(fall, NONE);
        assert_eq!(p.resolutions[fall as usize].enters, vec![tail]);
        assert_eq!(p.resolutions[fall as usize].end, ResEnd::At(2));
        // Last instruction of the last block: falling off reports it.
        let off = p.insns[2].fall;
        assert_eq!(p.resolutions[off as usize].end, ResEnd::FellOff(tail));
    }

    #[test]
    fn empty_block_chains_collapse() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1));
        let e1 = b.block("empty1");
        let e2 = b.block("empty2");
        let end = b.block("end");
        b.switch_to(end);
        b.push(Insn::halt());
        let f = b.finish();
        let p = DecodedProgram::new(&f, &mdes());
        let fall = p.insns[0].fall;
        let res = &p.resolutions[fall as usize];
        // The chain enters both empty blocks before landing on `halt`.
        assert_eq!(res.enters.len(), 3);
        assert_eq!(res.enters[0], e1);
        assert_eq!(res.enters[1], e2);
        assert_eq!(res.end, ResEnd::At(1));
    }

    #[test]
    fn scoreboard_indices_split_classes() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::alu(
            Opcode::Add,
            Reg::int(3),
            Reg::int(1),
            Reg::int(2),
        ));
        b.push(Insn::alu(Opcode::FAdd, Reg::fp(4), Reg::fp(1), Reg::fp(2)));
        b.push(Insn::alu(Opcode::Add, Reg::ZERO, Reg::int(1), Reg::int(2)));
        b.push(Insn::halt());
        let f = b.finish();
        let p = DecodedProgram::new(&f, &mdes());
        assert_eq!(p.insns[0].src1, 1);
        assert_eq!(p.insns[0].dest, 3);
        assert_eq!(p.insns[1].src1 as usize, p.int_slots + 1);
        assert_eq!(p.insns[1].dest as usize, p.int_slots + 4);
        // r0 def is filtered, but the raw dest index survives for the
        // load-path scoreboard writes.
        assert_eq!(p.insns[2].dest, NONE);
        assert_eq!(p.insns[2].raw_dest, 0);
        assert!(p.slots > p.int_slots);
    }

    #[test]
    fn latency_and_branch_class_precomputed() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        b.push(Insn::alu(Opcode::FMul, Reg::fp(1), Reg::fp(1), Reg::fp(1)));
        b.push(Insn::jump(e));
        let f = b.finish();
        let m = mdes();
        let p = DecodedProgram::new(&f, &m);
        assert_eq!(p.insns[0].lat, m.latency(Opcode::FMul) as u64);
        assert!(!p.insns[0].is_branch);
        assert!(p.insns[1].is_branch);
        let t = p.insns[1].target;
        assert_eq!(p.resolutions[t as usize].end, ResEnd::At(0));
        assert_eq!(p.resolutions[t as usize].enters, vec![e]);
    }
}
