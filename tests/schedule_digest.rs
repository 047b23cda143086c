//! Pins the scheduler's output bit for bit.
//!
//! Figure bytes only pin cycle *ratios*; these digests pin the schedules
//! themselves. Each case hashes, with the stable `fnv64`, every block's
//! scheduled instructions (ids, opcodes, operands, speculative and boost
//! modifiers, inserted sentinels) with their issue cycles and per-block
//! stats, the rewritten function, and the aggregate [`SchedStats`]. A
//! compile-path change that is meant to be a pure refactor or speed-up
//! must leave every constant here unchanged; a change that moves a
//! schedule on purpose must say so and re-pin the constants.
//!
//! [`SchedStats`]: sentinel::sched::SchedStats

use std::fmt::Write;

use sentinel::isa::MachineDesc;
use sentinel::prog::Function;
use sentinel::sched::{schedule_function, SchedOptions, ScheduledProgram, SchedulingModel};
use sentinel::spec::fnv64;
use sentinel::workloads::suite::suite;
use sentinel::workloads::{fuzz_spec, generate};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Seeds per fuzz mix.
const FUZZ_SEEDS: u64 = 64;

/// The (first seed, alias_frac, trap_frac) mixes of
/// `tests/fuzz_differential.rs`.
const FUZZ_MIXES: [(u64, f64, f64); 4] = [
    (0, 0.0, 0.0),
    (10_000, 0.35, 0.0),
    (20_000, 0.0, 0.25),
    (30_000, 0.25, 0.15),
];

/// Appends the canonical text of one scheduled program to `out`.
fn render(sched: &ScheduledProgram, out: &mut String) {
    let mut blocks: Vec<_> = sched.blocks.iter().collect();
    blocks.sort_by_key(|(bid, _)| **bid);
    for (bid, b) in blocks {
        let _ = writeln!(out, "{bid} {:?}", b.stats);
        for (insn, cycle) in b.insns.iter().zip(&b.cycles) {
            let _ = writeln!(out, "  {cycle} {insn:?}");
        }
    }
    let _ = writeln!(out, "{}{:?}", sched.func, sched.stats);
}

/// Digest of scheduling `funcs` under `opts` at every width.
fn digest<'a>(funcs: impl Iterator<Item = &'a Function> + Clone, opts: &SchedOptions) -> u64 {
    let mut text = String::new();
    for width in WIDTHS {
        let mdes = MachineDesc::paper_issue(width);
        for f in funcs.clone() {
            let sched = schedule_function(f, &mdes, opts).unwrap_or_else(|e| {
                panic!("{} under {} at width {width}: {e}", f.name(), opts.model)
            });
            render(&sched, &mut text);
        }
    }
    fnv64(text.as_bytes())
}

/// Checks every digest and reports all mismatches at once, so a
/// deliberate re-pin sees every new value in one run.
fn check(cases: Vec<(String, u64, u64)>) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name}: pinned {want:#018x}, got {got:#018x}"))
        .collect();
    assert!(bad.is_empty(), "schedules moved:\n{}", bad.join("\n"));
}

#[test]
fn suite_schedules_are_pinned() {
    const PINNED: [u64; 4] = [
        0x0c2c_ddf1_ad8d_3c6d,
        0x3032_1da7_9448_ef6d,
        0xb0df_cf04_f03a_35f0,
        0x7443_9c41_92b7_dfc9,
    ];
    let workloads = suite();
    let funcs = workloads.iter().map(|w| &w.func);
    let cases = SchedulingModel::all()
        .into_iter()
        .zip(PINNED)
        .map(|(model, want)| {
            let got = digest(funcs.clone(), &SchedOptions::new(model));
            (format!("suite {model}"), want, got)
        })
        .collect();
    check(cases);
}

#[test]
fn suite_schedules_with_recovery_and_allocation_are_pinned() {
    const PINNED: [u64; 4] = [
        0x35e4_d98f_6b3a_3625,
        0x5a70_b77a_61eb_df42,
        0x9aa1_5c87_fa92_fd56,
        0x658f_aac2_2473_e2a3,
    ];
    let workloads = suite();
    let funcs = workloads.iter().map(|w| &w.func);
    let cases = SchedulingModel::all()
        .into_iter()
        .zip(PINNED)
        .map(|(model, want)| {
            let opts = SchedOptions::new(model)
                .with_recovery()
                .with_clear_uninitialized()
                .with_allocation();
            let got = digest(funcs.clone(), &opts);
            (format!("suite {model} +recovery +clear +alloc"), want, got)
        })
        .collect();
    check(cases);
}

#[test]
fn fuzz_schedules_are_pinned() {
    const PINNED: [[u64; 4]; 4] = [
        [
            0x3007_1d1e_c0c9_50ff,
            0xc241_2d92_0c7c_a9d3,
            0x3d15_4378_0831_6111,
            0x09fb_bf80_f1ba_93d5,
        ],
        [
            0xbb65_a0b4_44bb_429f,
            0x0ffb_7b52_fc0b_eaac,
            0xe6dd_4bfe_a284_5e4b,
            0x426c_c7dd_e3e5_c5c4,
        ],
        [
            0x869f_03d8_79a7_755d,
            0xb423_20b7_4986_136d,
            0xb389_1024_da55_824e,
            0xe6eb_b61e_dd12_8e33,
        ],
        [
            0xa059_8b51_b509_3c4a,
            0x742c_dfad_8249_2e30,
            0xe6b9_fb41_c73c_aa0b,
            0xa090_dc7f_af2b_7f34,
        ],
    ];
    let mut cases = Vec::new();
    for ((first, alias, traps), pinned) in FUZZ_MIXES.into_iter().zip(PINNED) {
        let funcs: Vec<Function> = (first..first + FUZZ_SEEDS)
            .map(|seed| generate(&fuzz_spec(seed, alias, traps)).func)
            .collect();
        for (model, want) in SchedulingModel::all().into_iter().zip(pinned) {
            let got = digest(funcs.iter(), &SchedOptions::new(model));
            cases.push((
                format!("fuzz alias={alias} traps={traps} {model}"),
                want,
                got,
            ));
        }
    }
    check(cases);
}
