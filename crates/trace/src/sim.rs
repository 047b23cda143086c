//! Canonical metric names for the simulator's compiled-program cache.
//!
//! The `ProgramCache` in `sentinel-sim` counts its traffic under this
//! `sim.program_cache.*` family, mirroring the `store.*` vocabulary of
//! the content-addressed store (see [`crate::store`]): a *hit* reuses a
//! compile another caller already paid for, a *miss* admits a new
//! entry, and an *evict* drops the least-recently-used entry to stay
//! within capacity. The serve layer republishes these through
//! `/metrics` (dots become underscores: `sim_program_cache_hit`), and
//! the bench grid asserts on them to prove the compile-once contract.
//!
//! None of these carry the `compile.pass.` prefix, so they can never
//! leak into the per-pass timing table `reproduce` prints to stderr.

/// Lookup served from an already-admitted entry (the compile, possibly
/// still in flight on another thread, is shared rather than repeated).
pub const SIM_PROGRAM_CACHE_HIT: &str = "sim.program_cache.hit";
/// Lookup that admitted a new entry; the caller runs the compile.
pub const SIM_PROGRAM_CACHE_MISS: &str = "sim.program_cache.miss";
/// Entry evicted to make room (least-recently-used order).
pub const SIM_PROGRAM_CACHE_EVICT: &str = "sim.program_cache.evict";
