//! Register-allocator support (paper §3.7, "Register Allocator Support").
//!
//! Speculative code motion runs before register allocation; the renaming
//! transformation introduces *virtual* registers (indices at or above the
//! architectural count). This pass maps them back onto architectural
//! registers, honoring the paper's constraint:
//!
//! > "It is necessary to extend the live range of source registers for
//! > instructions subsequent to a speculative instruction to reach the
//! > sentinel for that speculative instruction. This ensures that the
//! > register allocator does not reuse these source registers and violate
//! > the restartable property enforced by the code scheduler."
//!
//! Virtual registers here are block-local by construction (the renaming
//! transformation defines and fully consumes them within one block), so
//! allocation is per block: each virtual register's live range — extended
//! to the end of its home region so restartable inputs survive to their
//! sentinels — is assigned an architectural register that is dead and
//! unwritten across that range. When none exists, the value is **spilled
//! with the tag-preserving instructions** `st.tag` / `ld.tag` (paper
//! §3.2), which preserve a deferred exception tag across the spill: a
//! speculative fault parked in a spilled register still reaches its
//! sentinel.

use std::collections::HashMap;

use sentinel_isa::{BlockId, Insn, Opcode, Reg, RegClass};
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::Liveness;
use sentinel_prog::regset::RegSet;
use sentinel_prog::Function;

use crate::depgraph::is_region_delimiter;

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The program already uses the architectural registers reserved as
    /// spill scratch (the top two of each class).
    ScratchInUse(Reg),
    /// An instruction reads more distinct spilled values than there are
    /// scratch registers.
    TooManySpilledOperands(sentinel_isa::InsnId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::ScratchInUse(r) => {
                write!(f, "scratch register {r} is used by the program")
            }
            AllocError::TooManySpilledOperands(id) => {
                write!(f, "instruction {id} reads too many spilled values")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocResult {
    /// Virtual registers assigned to architectural registers.
    pub assigned: usize,
    /// Virtual registers spilled to memory.
    pub spilled: usize,
}

/// Options for [`allocate_registers`].
#[derive(Debug, Clone)]
pub struct AllocOptions {
    /// Architectural integer register count (virtuals are indices ≥ this).
    pub int_regs: usize,
    /// Architectural fp register count.
    pub fp_regs: usize,
    /// Base address of the spill area. Spill slots are never reused for
    /// program data; tag-preserving accesses model a dedicated,
    /// always-resident spill page.
    pub spill_base: u64,
    /// Extend virtual live ranges to their region end so restartable
    /// inputs survive to their sentinels (set when the schedule was
    /// produced with recovery constraints).
    pub recovery_extension: bool,
}

impl AllocOptions {
    /// Options matching a machine description.
    pub fn for_mdes(mdes: &sentinel_isa::MachineDesc, recovery: bool) -> AllocOptions {
        AllocOptions {
            int_regs: mdes.int_regs(),
            fp_regs: mdes.fp_regs(),
            spill_base: 0x7FFF_0000,
            recovery_extension: recovery,
        }
    }

    fn arch_count(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int_regs,
            RegClass::Fp => self.fp_regs,
        }
    }

    /// The two reserved data-scratch registers of a class (top indices).
    fn data_scratch(&self, class: RegClass) -> [Reg; 2] {
        let n = self.arch_count(class) as u16;
        match class {
            RegClass::Int => [Reg::int(n - 1), Reg::int(n - 2)],
            RegClass::Fp => [Reg::fp(n - 1), Reg::fp(n - 2)],
        }
    }

    /// The reserved integer register holding spill-slot addresses.
    fn addr_scratch(&self) -> Reg {
        Reg::int(self.int_regs as u16 - 3)
    }

    /// All reserved registers.
    fn reserved(&self) -> Vec<Reg> {
        let mut v = self.data_scratch(RegClass::Int).to_vec();
        v.extend(self.data_scratch(RegClass::Fp));
        v.push(self.addr_scratch());
        v
    }
}

/// A block-local virtual register's live range, in instruction positions.
#[derive(Debug, Clone)]
struct VirtualRange {
    reg: Reg,
    def: usize,
    /// Last use (inclusive).
    last_use: usize,
    /// Range end after the §3.7 extension (inclusive).
    end: usize,
}

fn is_virtual(r: Reg, opts: &AllocOptions) -> bool {
    (r.index() as usize) >= opts.arch_count(r.class())
}

/// Collects the (block-local) virtual ranges of a block.
///
/// # Panics
///
/// Panics if a virtual register is used before its block-local definition
/// (the renaming transformation never produces that shape).
fn collect_ranges(func: &Function, block: BlockId, opts: &AllocOptions) -> Vec<VirtualRange> {
    let insns = &func.block(block).insns;
    let mut first_def: HashMap<Reg, usize> = HashMap::new();
    let mut last_use: HashMap<Reg, usize> = HashMap::new();
    for (p, insn) in insns.iter().enumerate() {
        for u in insn.uses() {
            if is_virtual(u, opts) {
                assert!(
                    first_def.contains_key(&u),
                    "virtual {u} used before definition in {block}"
                );
                last_use.insert(u, p);
            }
        }
        if let Some(d) = insn.def() {
            if is_virtual(d, opts) {
                first_def.entry(d).or_insert(p);
            }
        }
    }
    first_def
        .into_iter()
        .map(|(reg, def)| {
            let lu = last_use.get(&reg).copied().unwrap_or(def);
            let end = if opts.recovery_extension {
                // Extend to the end of the last use's region: the value
                // must survive until the sentinels of that region fire.
                (lu..insns.len())
                    .find(|&k| is_region_delimiter(insns[k].op, true))
                    .unwrap_or(insns.len().saturating_sub(1))
            } else {
                lu
            };
            VirtualRange {
                reg,
                def,
                last_use: lu,
                end,
            }
        })
        .collect()
}

/// Is architectural register `a` free over `[start, end]` of `insns`,
/// given the registers live before each position (`live`, from
/// [`Liveness::live_before_each`])?
fn arch_reg_free(insns: &[Insn], live: &[RegSet], a: Reg, start: usize, end: usize) -> bool {
    #[allow(clippy::needless_range_loop)]
    for p in start..=end.min(insns.len().saturating_sub(1)) {
        if live[p].contains(a) {
            return false;
        }
        if insns[p].def() == Some(a) || insns[p].uses().any(|u| u == a) {
            return false;
        }
    }
    // Also: `a` must not be live immediately after the range (we would
    // clobber a value needed later).
    !live[(end + 1).min(insns.len())].contains(a)
}

/// Allocates all virtual registers of a scheduled function, in place.
///
/// # Errors
///
/// See [`AllocError`].
///
/// # Examples
///
/// ```
/// use sentinel_core::regalloc::{allocate_registers, AllocOptions};
/// use sentinel_isa::{Insn, MachineDesc, Reg};
/// use sentinel_prog::ProgramBuilder;
///
/// // r100 is a virtual register introduced by the recovery renaming.
/// let mut b = ProgramBuilder::new("f");
/// b.block("entry");
/// b.push(Insn::addi(Reg::int(100), Reg::int(1), 1));
/// b.push(Insn::st_w(Reg::int(100), Reg::int(2), 0));
/// b.push(Insn::halt());
/// let mut f = b.finish();
/// let opts = AllocOptions::for_mdes(&MachineDesc::paper_issue(8), false);
/// let result = allocate_registers(&mut f, &opts)?;
/// assert_eq!(result.assigned, 1);
/// assert!(f.max_reg_indices().0.unwrap() < 64);
/// # Ok::<(), sentinel_core::regalloc::AllocError>(())
/// ```
pub fn allocate_registers(
    func: &mut Function,
    opts: &AllocOptions,
) -> Result<AllocResult, AllocError> {
    assert!(
        opts.int_regs >= 4 && opts.fp_regs >= 2,
        "register files too small to reserve spill scratch"
    );
    // Reserved scratch registers must be untouched by the program.
    for s in opts.reserved() {
        for b in func.blocks() {
            for insn in &b.insns {
                if insn.dest == Some(s) || insn.raw_srcs().any(|r| r == s) {
                    return Err(AllocError::ScratchInUse(s));
                }
            }
        }
    }

    let mut result = AllocResult::default();
    let mut next_spill_slot: u64 = 0;
    let blocks: Vec<BlockId> = func.layout().to_vec();
    for bid in blocks {
        // Ranges are recomputed per block; liveness is recomputed after
        // each block's rewrites (cheap at our scale, and keeps the
        // analysis exact in the presence of spill code).
        loop {
            let mut ranges = collect_ranges(func, bid, opts);
            if ranges.is_empty() {
                break;
            }
            let cfg = Cfg::build(func);
            let live = Liveness::compute(func, &cfg).live_before_each(func, bid);
            // Allocate the earliest-defined range first.
            ranges.sort_by_key(|r| r.def);
            let vr = ranges.remove(0);
            let class = vr.reg.class();
            let reserved = opts.reserved();
            // Candidate architectural registers, skipping r0 and scratch.
            let lo = if class == RegClass::Int { 1 } else { 0 };
            let candidate = (lo..opts.arch_count(class) as u16)
                .map(|i| match class {
                    RegClass::Int => Reg::int(i),
                    RegClass::Fp => Reg::fp(i),
                })
                .filter(|a| !reserved.contains(a))
                .find(|a| arch_reg_free(&func.block(bid).insns, &live, *a, vr.def, vr.end));
            match candidate {
                Some(a) => {
                    rewrite_range(func, bid, &vr, a);
                    result.assigned += 1;
                }
                None => {
                    let slot = opts.spill_base + 8 * next_spill_slot;
                    next_spill_slot += 1;
                    spill_range(func, bid, &vr, slot, opts)?;
                    result.spilled += 1;
                }
            }
        }
    }
    Ok(result)
}

/// Renames every def/use of `vr.reg` in `[def, last_use]` to `a`.
fn rewrite_range(func: &mut Function, block: BlockId, vr: &VirtualRange, a: Reg) {
    let insns = &mut func.block_mut(block).insns;
    for insn in insns[vr.def..=vr.last_use].iter_mut() {
        insn.rename_def(vr.reg, a);
        insn.rename_use(vr.reg, a);
    }
}

/// Spills `vr.reg` to `slot`: the defining instruction writes a scratch
/// register followed by a tag-preserving save; every use is preceded by a
/// tag-preserving restore into a scratch register.
fn spill_range(
    func: &mut Function,
    block: BlockId,
    vr: &VirtualRange,
    slot: u64,
    opts: &AllocOptions,
) -> Result<(), AllocError> {
    let class = vr.reg.class();
    let data = opts.data_scratch(class);
    let addr = opts.addr_scratch();

    // Walk positions from the end so insertions do not shift earlier ones.
    for p in (vr.def..=vr.last_use).rev() {
        let insn = func.block(block).insns[p].clone();
        let reads = insn.uses().any(|u| u == vr.reg);
        let writes = insn.def() == Some(vr.reg);
        let mut cur = p;
        if reads {
            // Pick a data scratch not already consumed by a previous
            // spill's patch of this instruction.
            let d = if !insn.raw_srcs().any(|r| r == data[0]) {
                data[0]
            } else if !insn.raw_srcs().any(|r| r == data[1]) {
                data[1]
            } else {
                return Err(AllocError::TooManySpilledOperands(insn.id));
            };
            let mut patched = insn.clone();
            patched.rename_use(vr.reg, d);
            func.block_mut(block).insns[p] = patched;
            func.insert_insn(block, p, Insn::ld_tag(d, addr, 0));
            func.insert_insn(block, p, Insn::li(addr, slot as i64));
            cur = p + 2;
        }
        if writes {
            let mut patched = func.block(block).insns[cur].clone();
            patched.rename_def(vr.reg, data[0]);
            func.block_mut(block).insns[cur] = patched;
            func.insert_insn(block, cur + 1, Insn::li(addr, slot as i64));
            func.insert_insn(block, cur + 2, Insn::st_tag(data[0], addr, 0));
        }
    }
    let _ = Opcode::StTag;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::MachineDesc;
    use sentinel_prog::{validate, ProgramBuilder};

    fn opts(int_regs: usize) -> AllocOptions {
        AllocOptions {
            int_regs,
            fp_regs: 64,
            spill_base: 0x7FFF_0000,
            recovery_extension: false,
        }
    }

    /// entry: v = r1 + 1 ; st v, 0(r3) ; halt   (v = virtual r100)
    fn with_virtual() -> Function {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(100), Reg::int(3), 0));
        b.push(Insn::halt());
        b.finish()
    }

    fn max_int_reg(f: &Function) -> u16 {
        f.max_reg_indices().0.unwrap_or(0)
    }

    #[test]
    fn assigns_virtual_to_free_arch_reg() {
        let mut f = with_virtual();
        let r = allocate_registers(&mut f, &opts(64)).unwrap();
        assert_eq!(r.assigned, 1);
        assert_eq!(r.spilled, 0);
        assert!(max_int_reg(&f) < 64, "no virtuals remain");
        assert!(validate(&f).is_empty());
        // The def and the use renamed consistently.
        let e = f.entry();
        let d = f.block(e).insns[0].dest.unwrap();
        assert_eq!(f.block(e).insns[1].src1, Some(d));
    }

    #[test]
    fn does_not_clobber_live_registers() {
        // r2 is live across the virtual's range (defined before, used
        // after) — the allocator must not pick it.
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::li(Reg::int(2), 7));
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(100), Reg::int(3), 0));
        b.push(Insn::st_w(Reg::int(2), Reg::int(3), 8)); // r2 used later
        b.push(Insn::halt());
        let mut f = b.finish();
        allocate_registers(&mut f, &opts(64)).unwrap();
        let e = f.entry();
        let assigned = f.block(e).insns[1].dest.unwrap();
        assert_ne!(assigned, Reg::int(2), "live register must not be reused");
        assert_ne!(assigned, Reg::ZERO);
    }

    #[test]
    fn spills_when_no_register_is_free() {
        // Arch = 8 int regs (r7, r6 reserved as scratch); keep r1..r5
        // live across the virtual's range so nothing is free.
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        for i in 1..=5 {
            b.push(Insn::li(Reg::int(i), i as i64));
        }
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1)); // virtual def
        b.push(Insn::st_w(Reg::int(100), Reg::int(1), 0)); // virtual use
        for i in 1..=5 {
            // All of r1..r5 still live here.
            b.push(Insn::st_w(Reg::int(i), Reg::int(1), 8 * i as i64));
        }
        b.push(Insn::halt());
        let mut f = b.finish();
        let r = allocate_registers(&mut f, &opts(9)).unwrap();
        assert_eq!(r.spilled, 1, "must spill");
        assert!(max_int_reg(&f) < 9);
        assert!(validate(&f).is_empty(), "{:?}", validate(&f));
        // Spill code uses the tag-preserving instructions.
        let e = f.entry();
        let ops: Vec<Opcode> = f.block(e).insns.iter().map(|i| i.op).collect();
        assert!(ops.contains(&Opcode::StTag));
        assert!(ops.contains(&Opcode::LdTag));
    }

    #[test]
    fn spilled_code_executes_correctly() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        for i in 1..=5 {
            b.push(Insn::li(Reg::int(i), 10 * i as i64));
        }
        b.push(Insn::li(Reg::int(5), 0x1000)); // base
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1)); // v = 11
        b.push(Insn::st_w(Reg::int(100), Reg::int(5), 0));
        for i in 1..=4 {
            b.push(Insn::st_w(Reg::int(i), Reg::int(5), 8 * i as i64));
        }
        b.push(Insn::halt());
        let mut f = b.finish();
        let r = allocate_registers(&mut f, &opts(9)).unwrap();
        assert!(r.spilled >= 1 || r.assigned >= 1);
        assert!(max_int_reg(&f) < 9);
        // Run it.
        let mdes = MachineDesc::builder().int_regs(9).build();
        let mut m = sentinel_sim::SimSession::for_function(&f)
            .config(sentinel_sim::SimConfig::for_mdes(mdes))
            .build();
        m.memory_mut().map_region(0x1000, 0x100);
        assert_eq!(m.run().unwrap(), sentinel_sim::RunOutcome::Halted);
        assert_eq!(m.memory().read_word(0x1000).unwrap(), 11);
        assert_eq!(m.memory().read_word(0x1008).unwrap(), 10);
    }

    #[test]
    fn scratch_conflict_detected() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::li(Reg::int(63), 1)); // scratch of a 64-reg machine
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(100), Reg::int(1), 0));
        b.push(Insn::halt());
        let mut f = b.finish();
        assert_eq!(
            allocate_registers(&mut f, &opts(64)),
            Err(AllocError::ScratchInUse(Reg::int(63)))
        );
    }

    #[test]
    fn recovery_extension_widens_ranges() {
        // v's last use is before a store X that writes a register;
        // without extension an arch reg dead after the use could be
        // reused inside the region; with extension the range reaches the
        // region end. We check the observable: extension never assigns a
        // register that is redefined before the region ends.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::addi(Reg::int(100), Reg::int(1), 1)); // v def
        b.push(Insn::st_w(Reg::int(100), Reg::int(1), 0)); // v last use
        b.push(Insn::li(Reg::int(9), 5)); // r9 written inside region
        b.push(Insn::branch(Opcode::Beq, Reg::int(9), Reg::ZERO, t)); // region end
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let mut f = b.finish();
        let mut o = opts(64);
        o.recovery_extension = true;
        allocate_registers(&mut f, &o).unwrap();
        let assigned = f.block(e).insns[0].dest.unwrap();
        assert_ne!(assigned, Reg::int(9), "extended range excludes r9");
        assert!(validate(&f).is_empty());
    }

    #[test]
    fn no_virtuals_is_a_noop() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::li(Reg::int(1), 1));
        b.push(Insn::halt());
        let mut f = b.finish();
        let before = f.to_string();
        let r = allocate_registers(&mut f, &opts(64)).unwrap();
        assert_eq!(r, AllocResult::default());
        assert_eq!(f.to_string(), before);
    }
}
