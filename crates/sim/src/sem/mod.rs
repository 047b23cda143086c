//! The single-source-of-truth architectural semantics layer.
//!
//! Both execution engines — the block-walking interpreter
//! ([`Machine`](crate::Machine)) and the trace-chaining loop behind
//! [`Engine::Turbo`](crate::Engine::Turbo) — are *timing* machines: they
//! decide when an instruction issues and what each stall costs. What an
//! instruction *does* to architectural state is defined exactly once,
//! here:
//!
//! * `tag` — Table 1: the register exception-tag read/propagate/report
//!   rules for computational instructions, plus the alternative §2.4
//!   semantics (silent garbage writes, the Colwell NaN-write scheme) and
//!   the branch-as-sentinel rule;
//! * `mem` — the load/store/`ld.tag`/`st.tag`/`confirm_store` effect
//!   functions: Table 1's memory rows and Table 2's insertion rules;
//! * [`storebuf`] — the probationary store buffer's own transitions
//!   (insert/confirm/cancel/drain, Table 2 and the §4.2 deadlock);
//! * `boost` — shadow register file / shadow store buffer
//!   commit-or-squash logic for instruction boosting (§2.3).
//!
//! Each rule is a pure(ish) function over `ArchState`, a bundle of
//! mutable borrows of an engine's architectural state. Engines keep
//! fetch, issue, the register scoreboard, and stall attribution to
//! themselves and route every architectural effect through this module,
//! so a semantic rule is written once and the differential fuzzer
//! (`tests/fuzz_differential.rs`) holds both engines to byte-identical
//! behaviour on top of it.

pub(crate) mod boost;
pub(crate) mod mem;
pub mod storebuf;
pub(crate) mod tag;

use sentinel_isa::{Insn, InsnId, Opcode, Reg, RegClass};

use crate::cache::DataCache;
use crate::except::{ExceptionKind, Trap};
use crate::exec::{compute, ComputeError};
use crate::hash::FastMap;
use crate::machine::SimError;
use crate::memory::{Memory, Width};
use crate::regfile::{RegFile, TaggedValue};
use crate::stats::Stats;

use boost::ShadowState;
use storebuf::StoreBuffer;

/// The value a faulting *silent* instruction writes (general percolation,
/// paper §2.4: "writes a garbage value into the destination register").
/// A fixed recognizable constant keeps runs deterministic.
pub const GARBAGE: u64 = 0x5EAD_BEEF_DEAD_BEEF;

/// The "equivalent integer NaN" required by the Colwell NaN-write scheme
/// (paper §2.4) under [`SpeculationSemantics::NanWrite`].
pub const INT_NAN: u64 = 0x7FF8_DEAD_0000_0001;

/// How speculative faults are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeculationSemantics {
    /// Sentinel architecture: defer via register exception tags (Table 1).
    #[default]
    SentinelTags,
    /// General percolation: silent opcodes write [`GARBAGE`] and the fault
    /// is lost (§2.4). Speculative stores are not supported in this model.
    Silent,
    /// The Colwell et al. NaN-write scheme the paper discusses in §2.4:
    /// a faulting silent instruction writes NaN (fp) or the "equivalent
    /// integer NaN" [`INT_NAN`] (int); any *trapping* instruction that
    /// consumes a NaN operand signals — reporting **itself**, not the
    /// original excepting instruction, and missing the exception entirely
    /// if the value only flows through non-trapping instructions. Both
    /// weaknesses are exactly the paper's critique.
    NanWrite,
}

/// Adapts [`compute`] to the simulator's error split: an architectural
/// exception stays an inner `Err` for the Table 1 paths, while a
/// non-computable opcode (a dispatch bug) becomes a [`SimError`].
pub(crate) fn computed(
    op: Opcode,
    a: u64,
    b: u64,
    imm: i64,
) -> Result<Result<u64, ExceptionKind>, SimError> {
    match compute(op, a, b, imm) {
        Ok(v) => Ok(Ok(v)),
        Err(ComputeError::Exception(k)) => Ok(Err(k)),
        Err(ComputeError::NotComputable(o)) => Err(SimError::NotComputable(o)),
    }
}

/// Access width of a memory opcode.
pub(crate) fn width_of(op: Opcode) -> Width {
    match op {
        Opcode::LdB | Opcode::StB => Width::Byte,
        _ => Width::Word,
    }
}

/// The NaN bit pattern for a destination register's class.
pub(crate) fn nan_bits_for(d: Reg) -> u64 {
    match d.class() {
        RegClass::Int => INT_NAN,
        RegClass::Fp => f64::NAN.to_bits(),
    }
}

/// Mutable borrows of everything architectural an engine owns, bundled
/// so a semantic rule in [`tag`]/[`mem`]/[`boost`] can be written once.
/// Engines construct one per instruction from their own (disjoint)
/// fields; timing state never enters.
pub(crate) struct ArchState<'s> {
    /// The exception-tagged register file.
    pub regs: &'s mut RegFile,
    /// Data memory (with the §3.2 shadow tag store).
    pub mem: &'s mut Memory,
    /// The probationary store buffer (Table 2).
    pub sb: &'s mut StoreBuffer,
    /// Shadow register file + shadow store buffer (boosting, §2.3).
    pub shadow: &'s mut ShadowState,
    /// Debug side-table: excepting PC → concrete cause.
    pub kinds: &'s mut FastMap<InsnId, ExceptionKind>,
    /// Run statistics (semantic-event counters).
    pub stats: &'s mut Stats,
    /// Optional timing-only data cache.
    pub cache: &'s mut Option<DataCache>,
    /// Speculative-fault semantics in force.
    pub semantics: SpeculationSemantics,
}

impl ArchState<'_> {
    /// Reads a register through the shadow overlay: the newest shadow
    /// write (in program order, across levels) wins over the
    /// architectural value. Shadow values are untagged.
    pub(crate) fn read_reg(&self, r: Reg) -> TaggedValue {
        if let Some(data) = self.shadow.reg_overlay(r) {
            return TaggedValue::clean(data);
        }
        self.regs.read(r)
    }

    /// The first set source-operand tag, in operand order (Table 1's
    /// "first source operand whose exception tag is set").
    pub(crate) fn first_tagged(&self, insn: &Insn) -> Option<TaggedValue> {
        insn.raw_srcs().map(|r| self.read_reg(r)).find(|v| v.tag)
    }

    /// Builds the trap a sentinel signals for a tagged operand: the tag's
    /// data field names the excepting PC, the side-table its cause.
    pub(crate) fn trap_from_tag(&self, tv: TaggedValue, reporter: InsnId) -> Trap {
        let pc = tv.as_pc();
        Trap {
            excepting_pc: pc,
            reported_by: reporter,
            kind: self.kinds.get(&pc).copied(),
        }
    }

    /// NaN detection for [`SpeculationSemantics::NanWrite`]: fp sources
    /// are NaN bit patterns, integer sources equal [`INT_NAN`].
    pub(crate) fn nan_source(&self, insn: &Insn) -> bool {
        insn.raw_srcs().any(|r| {
            let v = self.read_reg(r);
            match r.class() {
                RegClass::Int => v.data == INT_NAN,
                RegClass::Fp => f64::from_bits(v.data).is_nan(),
            }
        })
    }

    /// Extra load latency from the (optional) cache for an access.
    pub(crate) fn cache_penalty(&mut self, addr: u64) -> u64 {
        match self.cache {
            Some(c) => c.access(addr) as u64,
            None => 0,
        }
    }
}

/// A branch resolved taken — the compile-time analogue of a
/// misprediction: cancel every probationary store-buffer entry (Table 2)
/// and squash all boosted shadow state (§2.3).
pub(crate) fn on_taken_branch(a: &mut ArchState, issue: u64) {
    a.sb.cancel_probationary(issue);
    boost::squash(a);
}
