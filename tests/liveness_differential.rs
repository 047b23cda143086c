//! Differential test of the dense (bit-set) live-variable analysis
//! against the hash-set algorithm it replaced, kept here as the
//! reference.
//!
//! Both run on the same functions: the benchmark suite, 256 fuzz
//! programs over the four (alias, traps) mixes of
//! `tests/fuzz_differential.rs`, and both again after §3.7 recovery
//! renaming (virtual registers numbered from 64 up) and after a full
//! recovery-constrained schedule (sentinels, still unallocated). Every
//! block's live-in and live-out sets and the set live before every
//! position must agree.

use std::collections::{HashMap, HashSet};

use sentinel::isa::{BlockId, MachineDesc, Reg};
use sentinel::prog::cfg::Cfg;
use sentinel::prog::liveness::Liveness;
use sentinel::prog::Function;
use sentinel::sched::recovery::{apply_recovery_renaming, FreshRegs};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::workloads::suite::suite;
use sentinel::workloads::{fuzz_spec, generate};

/// The reference: per-block hash sets, iterated to fixpoint over the
/// reachable blocks, fall-through found by a layout search.
struct Reference {
    live_in: HashMap<BlockId, HashSet<Reg>>,
    live_out: HashMap<BlockId, HashSet<Reg>>,
}

impl Reference {
    fn compute(func: &Function) -> Reference {
        let mut live_in: HashMap<BlockId, HashSet<Reg>> = HashMap::new();
        let mut live_out: HashMap<BlockId, HashSet<Reg>> = HashMap::new();
        for b in func.blocks() {
            live_in.insert(b.id, HashSet::new());
            live_out.insert(b.id, HashSet::new());
        }
        let mut order = Cfg::build(func).reverse_post_order();
        order.reverse();
        loop {
            let mut changed = false;
            for &bid in &order {
                let mut out = HashSet::new();
                if !func.block(bid).ends_in_unconditional() {
                    if let Some(ft) = func.fallthrough_of(bid) {
                        out.extend(live_in[&ft].iter().copied());
                    }
                }
                let inn = scan(func, &live_in, bid, 0, &out);
                if out != live_out[&bid] {
                    live_out.insert(bid, out);
                    changed = true;
                }
                if inn != live_in[&bid] {
                    live_in.insert(bid, inn);
                    changed = true;
                }
            }
            if !changed {
                return Reference { live_in, live_out };
            }
        }
    }

    fn live_before(&self, func: &Function, b: BlockId, pos: usize) -> HashSet<Reg> {
        scan(func, &self.live_in, b, pos, &self.live_out[&b])
    }
}

/// Backward scan of `b` from its end to `pos`, starting from `out`.
fn scan(
    func: &Function,
    live_in: &HashMap<BlockId, HashSet<Reg>>,
    b: BlockId,
    pos: usize,
    out: &HashSet<Reg>,
) -> HashSet<Reg> {
    let mut live = out.clone();
    for insn in func.block(b).insns[pos..].iter().rev() {
        if let Some(d) = insn.def() {
            live.remove(&d);
        }
        live.extend(insn.uses());
        if let Some(t) = insn.target {
            live.extend(live_in[&t].iter().copied());
        }
    }
    live
}

fn sorted(set: impl IntoIterator<Item = Reg>) -> Vec<Reg> {
    let mut v: Vec<Reg> = set.into_iter().collect();
    v.sort();
    v
}

/// Asserts the dense analysis matches the reference everywhere in `func`.
fn assert_agrees(func: &Function, what: &str) {
    let dense = Liveness::compute(func, &Cfg::build(func));
    let reference = Reference::compute(func);
    for b in func.blocks() {
        let at = |set: &str| format!("{what}: {set} of {} ({})", b.id, b.label);
        // The dense sets iterate in ascending order already.
        let live_in: Vec<Reg> = dense.live_in(b.id).iter().collect();
        assert_eq!(
            live_in,
            sorted(reference.live_in[&b.id].iter().copied()),
            "{}",
            at("live-in")
        );
        let live_out: Vec<Reg> = dense.live_out(b.id).iter().collect();
        assert_eq!(
            live_out,
            sorted(reference.live_out[&b.id].iter().copied()),
            "{}",
            at("live-out")
        );
        let each = dense.live_before_each(func, b.id);
        for (pos, set) in each.iter().enumerate() {
            let want = sorted(reference.live_before(func, b.id, pos));
            let got: Vec<Reg> = set.iter().collect();
            assert_eq!(got, want, "{}", at(&format!("live-before {pos}")));
            assert_eq!(
                *set,
                dense.live_before(func, b.id, pos),
                "{}",
                at("live_before")
            );
        }
    }
}

/// The suite and the fuzz programs, by name.
fn programs() -> Vec<(String, Function)> {
    let mut out: Vec<(String, Function)> = suite()
        .into_iter()
        .map(|w| (w.name.clone(), w.func))
        .collect();
    for (first, alias, traps) in [
        (0, 0.0, 0.0),
        (10_000, 0.35, 0.0),
        (20_000, 0.0, 0.25),
        (30_000, 0.25, 0.15),
    ] {
        for seed in first..first + 64 {
            out.push((
                format!("fuzz seed {seed}"),
                generate(&fuzz_spec(seed, alias, traps)).func,
            ));
        }
    }
    out
}

fn max_index(func: &Function) -> u16 {
    let (int, fp) = func.max_reg_indices();
    int.max(fp).unwrap_or(0)
}

#[test]
fn dense_liveness_matches_reference_on_suite_and_fuzz_programs() {
    let programs = programs();
    assert_eq!(programs.len(), 17 + 256);
    for (name, func) in &programs {
        assert_agrees(func, name);
    }
}

#[test]
fn dense_liveness_matches_reference_on_virtual_registers() {
    let mdes = MachineDesc::paper_issue(4);
    let mut virtual_programs = 0;
    for (name, func) in programs() {
        let mut renamed = func.clone();
        let mut fresh = FreshRegs::for_function(&renamed, mdes.int_regs(), mdes.fp_regs());
        apply_recovery_renaming(&mut renamed, &mut fresh);
        assert_agrees(&renamed, &format!("{name} renamed"));

        let opts = SchedOptions::new(SchedulingModel::Sentinel)
            .with_recovery()
            .with_clear_uninitialized();
        let scheduled = schedule_function(&func, &mdes, &opts).unwrap().func;
        assert_agrees(&scheduled, &format!("{name} scheduled with recovery"));

        if max_index(&renamed) >= 64 {
            virtual_programs += 1;
        }
    }
    assert!(
        virtual_programs >= 100,
        "only {virtual_programs} programs gained virtual registers"
    );
}
