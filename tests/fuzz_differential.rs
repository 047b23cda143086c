//! Seeded differential fuzzing: ≥1,000 generated programs through both
//! engines (interpreter and turbo), asserting byte-identical
//! observations (outcome, stats, final registers with tags, memory,
//! `TraceEvent` log, pipeline event stream) for the turbo engine
//! against the interpretive oracle.
//!
//! Each seed fully determines the program; failures print a one-command
//! repro (`sentinel fuzz --seed N …`). Seeds cycle through the full
//! (model, width) grid — all four models R/G/S/T at widths 1/2/4/8 — so
//! every 16 consecutive seeds cover the whole grid. The four tests split
//! the seed space by (alias_frac, trap_frac) mix, covering trap-free
//! runs, alias-heavy schedules (speculative-store pressure under model
//! T), trap-heavy runs (deferred exceptions mid-run), and both at once.

use sentinel::fuzz::run_batch;

/// Seeds per (alias, trap) mix: 4 × 256 = 1,024 cases total.
const CASES_PER_MIX: u64 = 256;

#[test]
fn fuzz_trap_free() {
    run_batch(0, CASES_PER_MIX, 0.0, 0.0, None, None).unwrap();
}

#[test]
fn fuzz_alias_heavy() {
    run_batch(10_000, CASES_PER_MIX, 0.35, 0.0, None, None).unwrap();
}

#[test]
fn fuzz_trap_heavy() {
    run_batch(20_000, CASES_PER_MIX, 0.0, 0.25, None, None).unwrap();
}

#[test]
fn fuzz_alias_and_traps() {
    run_batch(30_000, CASES_PER_MIX, 0.25, 0.15, None, None).unwrap();
}
