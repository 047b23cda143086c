//! Seed-derived workload parameters for the differential fuzzer.
//!
//! The fuzzer's unit of work is a single `u64` seed: it determines the
//! program's structural parameters *and* (via [`WorkloadSpec::seed`]) the
//! generated instruction stream and memory image. Reproducing any case
//! therefore needs nothing but the seed (plus the model/width the runner
//! picked), which is what makes `sentinel fuzz --seed N` a one-command
//! repro.

use crate::rng::Rng;
use crate::spec::{BenchClass, SpecError, WorkloadSpec};

/// Derives a randomized [`WorkloadSpec`] from `seed`; see
/// [`try_fuzz_spec`].
///
/// # Panics
///
/// Panics where [`try_fuzz_spec`] returns an error.
pub fn fuzz_spec(seed: u64, alias_frac: f64, trap_frac: f64) -> WorkloadSpec {
    try_fuzz_spec(seed, alias_frac, trap_frac).unwrap_or_else(|e| panic!("fuzz seed {seed}: {e}"))
}

/// Derives a randomized [`WorkloadSpec`] from `seed`.
///
/// Structural parameters (loop count, region shape, trip count, opcode
/// mix) are drawn from an RNG seeded with `seed`; `alias_frac` and
/// `trap_frac` are caller-controlled so a harness can sweep memory
/// aliasing and trap density as independent axes.
///
/// # Errors
///
/// [`SpecError`] if `alias_frac` or `trap_frac` lies outside `[0, 1]` or
/// the resulting instruction mix oversubscribes (a `trap_frac` above 0.27
/// can, for some seeds: the drawn load, store, multiply and divide
/// fractions take up to 0.73 of the mix).
pub fn try_fuzz_spec(
    seed: u64,
    alias_frac: f64,
    trap_frac: f64,
) -> Result<WorkloadSpec, SpecError> {
    // Decorrelate from the generator's own streams, which hash the spec
    // seed directly.
    let mut rng = Rng::seed_from_u64(seed ^ 0xF022_D1FF_EE75_EED5);
    let numeric = rng.gen_bool(0.3);
    let spec = WorkloadSpec {
        name: "fuzz",
        class: if numeric {
            BenchClass::Numeric
        } else {
            BenchClass::NonNumeric
        },
        seed,
        loops: rng.gen_range_usize(1, 3),
        regions_per_loop: rng.gen_range_usize(1, 5),
        insns_per_region: rng.gen_range_usize(3, 13),
        iterations: rng.gen_range_u64(8, 80),
        load_frac: rng.gen_range_f64(0.15, 0.40),
        store_frac: rng.gen_range_f64(0.05, 0.20),
        fp_frac: if numeric {
            rng.gen_range_f64(0.2, 0.5)
        } else {
            0.0
        },
        mul_frac: rng.gen_range_f64(0.0, 0.08),
        div_frac: rng.gen_range_f64(0.0, 0.05),
        side_exit_prob: rng.gen_range_f64(0.0, 0.25),
        branch_on_load: rng.gen_range_f64(0.2, 1.0),
        chain_frac: rng.gen_range_f64(0.3, 0.9),
        alias_frac,
        trap_frac,
    };
    spec.check()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn derived_specs_validate_and_generate() {
        for seed in 0..50 {
            let spec = fuzz_spec(seed, 0.2, 0.1);
            let w = generate(&spec);
            assert!(
                sentinel_prog::validate(&w.func).is_empty(),
                "seed {seed} generated an invalid program"
            );
        }
    }

    #[test]
    fn oversubscribed_mixes_are_errors_not_panics() {
        // Seed 22 draws load/store/mul/div fractions that leave less than
        // 0.4 of the mix for trap loads.
        assert!(matches!(
            try_fuzz_spec(22, 0.0, 0.4),
            Err(SpecError::MixOversubscribed { .. })
        ));
        assert!(matches!(
            try_fuzz_spec(22, 1.5, 0.0),
            Err(SpecError::OutOfRange {
                field: "alias_frac",
                ..
            })
        ));
        let ok = try_fuzz_spec(22, 0.0, 0.1).unwrap();
        assert_eq!(format!("{ok:?}"), format!("{:?}", fuzz_spec(22, 0.0, 0.1)));
    }

    #[test]
    fn same_seed_same_spec() {
        let a = fuzz_spec(7, 0.1, 0.0);
        let b = fuzz_spec(7, 0.1, 0.0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn seeds_vary_structure() {
        let shapes: std::collections::HashSet<(usize, usize, usize, u64)> = (0..40)
            .map(|s| {
                let sp = fuzz_spec(s, 0.0, 0.0);
                (
                    sp.loops,
                    sp.regions_per_loop,
                    sp.insns_per_region,
                    sp.iterations,
                )
            })
            .collect();
        assert!(shapes.len() > 10, "only {} distinct shapes", shapes.len());
    }

    #[test]
    fn trapful_specs_actually_fault_somewhere() {
        use sentinel_sim::reference::Reference;
        // With trap_frac high, a decent share of seeds must hit the
        // unmapped half of the trap array mid-run.
        let mut trapped = 0;
        for seed in 0..20 {
            let w = generate(&fuzz_spec(seed, 0.0, 0.3));
            let mut r = Reference::new(&w.func);
            for &(s, l) in &w.mem_regions {
                r.memory_mut().map_region(s, l);
            }
            for &(a, v) in &w.mem_words {
                r.memory_mut().write_word(a, v).unwrap();
            }
            if matches!(
                r.run().unwrap(),
                sentinel_sim::reference::RefOutcome::Trapped { .. }
            ) {
                trapped += 1;
            }
        }
        assert!(trapped >= 5, "only {trapped}/20 trapful seeds faulted");
    }
}
