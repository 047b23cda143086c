//! End-to-end equivalence: scheduled code must behave like the original.
//!
//! For every scheduling model, every example kernel scheduled and run on
//! the full machine must produce the same final architectural state as
//! the sequential reference interpreter. For exception-precise models
//! (restricted, sentinel, sentinel+stores), trapping programs must report
//! the same excepting instruction as the reference.

use sentinel::prelude::*;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::verify::{compare_runs, CompareSpec};
use sentinel::sim::RunOutcome;
use sentinel::spec::semantics_for;
use sentinel_isa::LatencyTable;

/// Memory initialization shared by a machine run and a reference run.
#[derive(Clone, Default)]
struct MemInit {
    regions: Vec<(u64, u64)>,
    words: Vec<(u64, u64)>,
}

impl MemInit {
    fn region(mut self, start: u64, len: u64) -> Self {
        self.regions.push((start, len));
        self
    }
    fn word(mut self, addr: u64, val: u64) -> Self {
        self.words.push((addr, val));
        self
    }
    fn apply(&self, mem: &mut sentinel::sim::Memory) {
        for &(s, l) in &self.regions {
            mem.map_region(s, l);
        }
        for &(a, v) in &self.words {
            mem.write_word(a, v).unwrap();
        }
    }
}

/// Schedules `func` for each issue width and model, runs both machine and
/// reference, and asserts equivalence of live-out regs + memory (+ trap
/// PC for precise models).
fn assert_equivalence(func: &Function, init: &MemInit, live_out: Vec<Reg>) {
    for model in SchedulingModel::all() {
        for width in [1, 2, 4, 8] {
            for lat in [LatencyTable::paper(), LatencyTable::unit()] {
                let mdes = MachineDesc::builder()
                    .issue_width(width)
                    .latencies(lat)
                    .build();
                let sched = schedule_function(func, &mdes, &SchedOptions::new(model))
                    .unwrap_or_else(|e| panic!("{model} w={width}: {e}"));
                let mut cfg = SimConfig::for_mdes(mdes);
                cfg.semantics = semantics_for(model);
                let mut m = SimSession::for_function(&sched.func).config(cfg).build();
                init.apply(m.memory_mut());
                let mo = m.run().unwrap_or_else(|e| panic!("{model} w={width}: {e}"));

                let mut r = Reference::new(func);
                init.apply(r.memory_mut());
                let ro = r.run().unwrap();

                let spec = match model {
                    SchedulingModel::GeneralPercolation => CompareSpec::imprecise(live_out.clone()),
                    _ => CompareSpec::precise(live_out.clone()),
                };
                let divs = compare_runs(&m, mo, &r, ro, &spec);
                assert!(
                    divs.is_empty(),
                    "{model} width {width}: {divs:?}\nscheduled:\n{}",
                    sentinel::prog::asm::print(&sched.func)
                );
            }
        }
    }
}

#[test]
fn sum_kernel_equivalent_under_all_models() {
    let f = sentinel::prog::examples::sum_kernel(0x1000, 8, 0x2000);
    let mut init = MemInit::default().region(0x1000, 0x100).region(0x2000, 8);
    for i in 0..8 {
        init = init.word(0x1000 + 8 * i, 3 * i + 1);
    }
    assert_equivalence(&f, &init, vec![Reg::int(3)]);
}

#[test]
fn chase_kernel_equivalent_under_all_models() {
    let f = sentinel::prog::examples::chase_kernel(0x1000, 4, 0x2000);
    let init = MemInit::default()
        .region(0x1000, 0x200)
        .region(0x2000, 8)
        .word(0x1000, 0x1010)
        .word(0x1010, 0x1020)
        .word(0x1020, 0x1030)
        .word(0x1030, 0x1040)
        .word(0x1040, 0x1050);
    assert_equivalence(&f, &init, vec![Reg::int(1)]);
}

#[test]
fn saxpy_kernel_equivalent_under_all_models() {
    let f = sentinel::prog::examples::saxpy_kernel(0x1000, 0x2000, 4, 2.5);
    let mut init = MemInit::default()
        .region(0x1000, 0x100)
        .region(0x2000, 0x100);
    for i in 0..4u64 {
        init = init
            .word(0x1000 + 8 * i, f64::to_bits(i as f64 + 0.5))
            .word(0x2000 + 8 * i, f64::to_bits(10.0 * i as f64));
    }
    assert_equivalence(&f, &init, vec![]);
}

#[test]
fn figure1_equivalent_with_live_in_regs() {
    // figure1 needs r2/r4 initialized; wrap it with li instructions so the
    // reference and machine agree without external register setup.
    let f = sentinel::prog::examples::figure1();
    // Build a harness program: init regs, then the figure1 body inline.
    let mut b = ProgramBuilder::new("fig1h");
    let entry = b.block("setup");
    b.push(Insn::li(Reg::int(2), 0x1000));
    b.push(Insn::li(Reg::int(4), 0x1100));
    let _ = entry;
    let mut f2 = b.finish();
    // Append figure1's blocks manually.
    let main = f2.add_block("main");
    let l1 = f2.add_block("l1");
    let exit = f2.add_block("exit");
    for insn in &f.block(f.entry()).insns {
        let mut i = insn.clone();
        i.target = i.target.map(|t| match t.index() {
            1 => l1,
            2 => exit,
            _ => t,
        });
        f2.push_insn(main, i);
    }
    f2.push_insn(l1, Insn::halt());
    f2.push_insn(exit, Insn::halt());

    let init = MemInit::default()
        .region(0x1000, 0x200)
        .word(0x1000, 41)
        .word(0x1100, 7);
    assert_equivalence(
        &f2,
        &init,
        vec![Reg::int(1), Reg::int(3), Reg::int(4), Reg::int(5)],
    );
}

#[test]
fn trapping_program_reports_same_pc_under_precise_models() {
    // A load from an unmapped address below a (not-taken) branch: after
    // speculation the load hoists, but the sentinel must still report the
    // load's own id.
    let mut b = ProgramBuilder::new("trap");
    let e = b.block("e");
    let t = b.block("t");
    b.switch_to(e);
    b.push(Insn::li(Reg::int(3), 0x1000));
    b.push(Insn::ld_w(Reg::int(5), Reg::int(3), 0)); // ok
    b.push(Insn::branch(Opcode::Beq, Reg::int(5), Reg::ZERO, t)); // not taken (mem=1)
    b.push(Insn::li(Reg::int(2), 0x666618)); // unmapped address base
    b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0)); // FAULTS
    b.push(Insn::addi(Reg::int(4), Reg::int(1), 1));
    b.push(Insn::st_w(Reg::int(4), Reg::int(3), 8));
    b.push(Insn::halt());
    b.switch_to(t);
    b.push(Insn::halt());
    let f = b.finish();
    let init = MemInit::default().region(0x1000, 0x100).word(0x1000, 1);

    for model in [
        SchedulingModel::RestrictedPercolation,
        SchedulingModel::Sentinel,
        SchedulingModel::SentinelStores,
    ] {
        let mdes = MachineDesc::paper_issue(8);
        let sched = schedule_function(&f, &mdes, &SchedOptions::new(model)).unwrap();
        let mut m = SimSession::for_function(&sched.func)
            .config(SimConfig::for_mdes(mdes))
            .build();
        init.apply(m.memory_mut());
        let mo = m.run().unwrap();
        let mut r = Reference::new(&f);
        init.apply(r.memory_mut());
        let ro = r.run().unwrap();
        match (mo, ro) {
            (RunOutcome::Trapped(mt), RefOutcome::Trapped { pc, .. }) => {
                assert_eq!(mt.excepting_pc, pc, "{model}: wrong excepting pc");
            }
            other => panic!("{model}: expected both to trap, got {other:?}"),
        }
    }
}

#[test]
fn taken_branch_suppresses_speculative_exception() {
    // The same program but the branch IS taken: the speculated faulting
    // load must be completely ignored (paper §3.4 closing remark).
    let mut b = ProgramBuilder::new("suppress");
    let e = b.block("e");
    let t = b.block("t");
    b.switch_to(e);
    b.push(Insn::li(Reg::int(3), 0x1000));
    b.push(Insn::ld_w(Reg::int(5), Reg::int(3), 0)); // loads 0 -> branch taken
    b.push(Insn::branch(Opcode::Beq, Reg::int(5), Reg::ZERO, t));
    b.push(Insn::li(Reg::int(2), 0x666618));
    b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0)); // would fault
    b.push(Insn::check_exception(Reg::int(1)));
    b.push(Insn::halt());
    b.switch_to(t);
    b.push(Insn::halt());
    // NOTE: hand-written check here means this input is "not sequential";
    // build the scheduled form by hand instead: speculate the load above
    // the branch manually.
    let mut f = b.finish();
    {
        let eb = f.block_mut(e);
        // Move the faulting load + its li above the branch, speculated.
        let li = eb.insns.remove(3);
        let mut ld = eb.insns.remove(3);
        ld.speculative = true;
        eb.insns.insert(1, li);
        eb.insns.insert(2, ld);
    }
    let init = MemInit::default().region(0x1000, 0x100); // word 0x1000 = 0

    let mut m = SimSession::for_function(&f)
        .config(SimConfig::default())
        .build();
    init.apply(m.memory_mut());
    let out = m.run().unwrap();
    assert_eq!(out, RunOutcome::Halted, "exception on untaken path ignored");
}
