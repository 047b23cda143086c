//! Workload parameter records.

use std::fmt;

/// The paper's benchmark taxonomy (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// SPEC numeric (fp) programs.
    Numeric,
    /// SPEC + Unix non-numeric (integer) programs.
    NonNumeric,
}

impl fmt::Display for BenchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchClass::Numeric => write!(f, "numeric"),
            BenchClass::NonNumeric => write!(f, "non-numeric"),
        }
    }
}

/// Structural parameters of a synthetic benchmark.
///
/// These control exactly the properties the paper's results hinge on: how
/// often hot code branches, whether branch conditions depend on fresh
/// loads (so restricted percolation stalls), how long the load-use chains
/// are, and how many stores sit below branches (model T's opportunity).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark name (matching the paper's label).
    pub name: &'static str,
    /// Numeric vs non-numeric.
    pub class: BenchClass,
    /// RNG seed (structure and data are fully deterministic).
    pub seed: u64,
    /// Sequential loop nests (each body is one superblock).
    pub loops: usize,
    /// Branch-delimited regions per loop body (side exits + latch).
    pub regions_per_loop: usize,
    /// Generated instructions per region (before the region terminator).
    pub insns_per_region: usize,
    /// Loop trip count.
    pub iterations: u64,
    /// Fraction of generated instructions that are loads.
    pub load_frac: f64,
    /// Fraction that are stores.
    pub store_frac: f64,
    /// Fraction of *loads and compute ops* that are floating-point.
    pub fp_frac: f64,
    /// Fraction that are integer multiplies.
    pub mul_frac: f64,
    /// Fraction that are integer divides (long-latency, trap-capable).
    pub div_frac: f64,
    /// Dynamic probability that a side exit is taken.
    pub side_exit_prob: f64,
    /// Probability a side-exit condition reads a value loaded in its own
    /// region (late-resolving branches — where speculation pays).
    pub branch_on_load: f64,
    /// Probability a compute operand chains from a recent definition
    /// rather than a stable register (dependence-chain depth).
    pub chain_frac: f64,
    /// Fraction of integer loads issued through a pointer the compiler
    /// *cannot* disambiguate from the store stream. These loads carry
    /// conservative memory-ordering edges from every earlier store —
    /// exactly the accesses that make speculative stores (model T)
    /// profitable, since hoisting the store above a branch unpins them.
    pub alias_frac: f64,
    /// Fraction of generated instructions that are loads through a
    /// pointer into a *partially mapped* trap array: once the pointer
    /// advances past the mapped prefix these loads fault, exercising the
    /// deferred-exception machinery mid-run. The suite keeps this at 0
    /// (the paper's benchmarks are trap-free); the differential fuzzer
    /// dials it up.
    pub trap_frac: f64,
}

impl WorkloadSpec {
    /// A small, fast default spec for tests.
    pub fn test_default(name: &'static str, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name,
            class: BenchClass::NonNumeric,
            seed,
            loops: 1,
            regions_per_loop: 3,
            insns_per_region: 5,
            iterations: 20,
            load_frac: 0.35,
            store_frac: 0.10,
            fp_frac: 0.0,
            mul_frac: 0.05,
            div_frac: 0.02,
            side_exit_prob: 0.05,
            branch_on_load: 0.8,
            chain_frac: 0.7,
            alias_frac: 0.2,
            trap_frac: 0.0,
        }
    }

    /// Checks that the spec can be generated.
    ///
    /// # Errors
    ///
    /// [`SpecError`] if any probability lies outside `[0, 1]`, the mix
    /// fractions exceed 1 combined, or a structural count is zero.
    pub fn check(&self) -> Result<(), SpecError> {
        for (field, value) in [
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("fp_frac", self.fp_frac),
            ("mul_frac", self.mul_frac),
            ("div_frac", self.div_frac),
            ("side_exit_prob", self.side_exit_prob),
            ("branch_on_load", self.branch_on_load),
            ("chain_frac", self.chain_frac),
            ("alias_frac", self.alias_frac),
            ("trap_frac", self.trap_frac),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SpecError::OutOfRange { field, value });
            }
        }
        let mix = self.load_frac + self.store_frac + self.mul_frac + self.div_frac + self.trap_frac;
        if mix > 1.0 {
            return Err(SpecError::MixOversubscribed { mix });
        }
        if self.loops == 0
            || self.regions_per_loop == 0
            || self.insns_per_region == 0
            || self.iterations == 0
        {
            return Err(SpecError::EmptyShape);
        }
        Ok(())
    }

    /// Sanity-checks the spec (see [`WorkloadSpec::check`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`SpecError`] if the check fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Why a [`WorkloadSpec`] cannot be generated.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A probability lies outside `[0, 1]`.
    OutOfRange {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// The load, store, multiply, divide and trap-load fractions sum past
    /// 1.
    MixOversubscribed {
        /// Their sum.
        mix: f64,
    },
    /// A loop, region, instruction or iteration count is zero.
    EmptyShape,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::OutOfRange { field, value } => write!(f, "{field} out of range: {value}"),
            SpecError::MixOversubscribed { mix } => write!(
                f,
                "instruction mix exceeds 1.0: load, store, mul, div and trap fractions sum to {mix:.3}"
            ),
            SpecError::EmptyShape => write!(
                f,
                "loops, regions_per_loop, insns_per_region and iterations must be at least 1"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_valid() {
        WorkloadSpec::test_default("t", 1).validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fraction_rejected() {
        let mut s = WorkloadSpec::test_default("t", 1);
        s.load_frac = 1.5;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "mix exceeds")]
    fn oversubscribed_mix_rejected() {
        let mut s = WorkloadSpec::test_default("t", 1);
        s.load_frac = 0.6;
        s.store_frac = 0.5;
        s.validate();
    }

    #[test]
    fn check_names_the_fault() {
        let mut s = WorkloadSpec::test_default("t", 1);
        assert_eq!(s.check(), Ok(()));
        s.trap_frac = 0.6;
        assert!(matches!(s.check(), Err(SpecError::MixOversubscribed { mix }) if mix > 1.0));
        s.trap_frac = -0.1;
        assert_eq!(
            s.check(),
            Err(SpecError::OutOfRange {
                field: "trap_frac",
                value: -0.1
            })
        );
        s.trap_frac = 0.0;
        s.iterations = 0;
        assert_eq!(s.check(), Err(SpecError::EmptyShape));
    }

    #[test]
    fn class_display() {
        assert_eq!(BenchClass::Numeric.to_string(), "numeric");
        assert_eq!(BenchClass::NonNumeric.to_string(), "non-numeric");
    }
}
