//! The metric vocabulary and the result object every run prints.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (untraced runs): name, unit. Every workload
/// reports every one; what "one operation" is differs per workload (see
/// `layers.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The `figures` calls `reproduce all` makes, in its order: span name,
/// per-layer metric name.
pub const FIGURES: [(&str, &str); 12] = [
    ("bench.grid.figure4", "bench.grid.figure4.ms"),
    ("bench.grid.figure5", "bench.grid.figure5.ms"),
    (
        "bench.grid.ablation_store_buffer",
        "bench.grid.ablation_store_buffer.ms",
    ),
    (
        "bench.grid.ablation_recovery",
        "bench.grid.ablation_recovery.ms",
    ),
    (
        "bench.grid.ablation_formation",
        "bench.grid.ablation_formation.ms",
    ),
    (
        "bench.grid.ablation_boosting",
        "bench.grid.ablation_boosting.ms",
    ),
    (
        "bench.grid.ablation_unrolling",
        "bench.grid.ablation_unrolling.ms",
    ),
    ("bench.grid.ablation_cache", "bench.grid.ablation_cache.ms"),
    (
        "bench.grid.ablation_pipelining",
        "bench.grid.ablation_pipelining.ms",
    ),
    (
        "bench.grid.ablation_register_pressure",
        "bench.grid.ablation_register_pressure.ms",
    ),
    (
        "bench.grid.sentinel_overhead_w2",
        "bench.grid.sentinel_overhead_w2.ms",
    ),
    (
        "bench.grid.sentinel_overhead_w8",
        "bench.grid.sentinel_overhead_w8.ms",
    ),
];

/// The compile passes whose `PassLog` time is reported: pass name,
/// per-layer metric name.
pub const PASSES: [(&str, &str); 6] = [
    ("depgraph", "core.pass.depgraph.ms"),
    ("list-schedule", "core.pass.list-schedule.ms"),
    ("superblock-prep", "core.pass.superblock-prep.ms"),
    ("liveness", "core.pass.liveness.ms"),
    ("reduction", "core.pass.reduction.ms"),
    ("validate", "core.pass.validate.ms"),
];

/// Per-layer metrics (traced runs): name, unit. Times in `ms` are
/// totals over one round of the workload's fixed operation set; times
/// in `us` are means per request. A layer a workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.generate.ms", "ms"),
    ("workloads.programs", "count"),
    ("core.compile.ms", "ms"),
    ("core.compile.calls", "count"),
    ("core.pass.depgraph.ms", "ms"),
    ("core.pass.list-schedule.ms", "ms"),
    ("core.pass.superblock-prep.ms", "ms"),
    ("core.pass.liveness.ms", "ms"),
    ("core.pass.reduction.ms", "ms"),
    ("core.pass.validate.ms", "ms"),
    ("core.speculated", "count"),
    ("core.checks_inserted", "count"),
    ("sim.build.ms", "ms"),
    ("sim.decode.ms", "ms"),
    ("sim.run.ms", "ms"),
    ("sim.host_minsns_per_s", "Minsn/s"),
    ("sim.dyn_insns", "count"),
    ("sim.cycles", "count"),
    ("sim.reference.ms", "ms"),
    ("sim.verify.ms", "ms"),
    ("sim.oracle.checked", "count"),
    ("sim.oracle.mismatch.R", "count"),
    ("sim.oracle.mismatch.G", "count"),
    ("sim.oracle.mismatch.S", "count"),
    ("sim.oracle.mismatch.T", "count"),
    ("sim.tag_sets", "count"),
    ("sim.program_cache.hit_ratio", "fraction"),
    ("spec.key.us", "us"),
    ("serve.parse.us", "us"),
    ("serve.execute.ms", "ms"),
    ("serve.http.us", "us"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.cache.evict", "count"),
    ("serve.rejected", "count"),
    ("bench.grid.figure4.ms", "ms"),
    ("bench.grid.figure5.ms", "ms"),
    ("bench.grid.ablation_store_buffer.ms", "ms"),
    ("bench.grid.ablation_recovery.ms", "ms"),
    ("bench.grid.ablation_formation.ms", "ms"),
    ("bench.grid.ablation_boosting.ms", "ms"),
    ("bench.grid.ablation_unrolling.ms", "ms"),
    ("bench.grid.ablation_cache.ms", "ms"),
    ("bench.grid.ablation_pipelining.ms", "ms"),
    ("bench.grid.ablation_register_pressure.ms", "ms"),
    ("bench.grid.sentinel_overhead_w2.ms", "ms"),
    ("bench.grid.sentinel_overhead_w8.ms", "ms"),
    ("bench.grid.memo_hit_ratio", "fraction"),
    ("bench.grid.busy_frac", "fraction"),
    ("layer.workloads.self_ms", "ms"),
    ("layer.core.self_ms", "ms"),
    ("layer.sim.self_ms", "ms"),
    ("layer.spec.self_ms", "ms"),
    ("layer.serve.self_ms", "ms"),
    ("layer.bench.self_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.end_to_end_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.reconciled_frac", "fraction"),
];

/// What one run found: operation counts, correctness gates, metric
/// values and the human-readable report printed above the JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: degraded rows, non-2xx responses, I/O
    /// errors, oracle mismatches, panics.
    pub failed: u64,
    /// Correctness gates: name, passed.
    pub gates: Vec<(String, bool)>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, name: impl Into<String>, passed: bool) {
        self.gates.push((name.into(), passed));
    }

    /// Appends a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok)| *ok)
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The declared metric set of a traced or untraced run. End-to-end
    /// metrics must all have been measured; a per-layer metric the run
    /// did not reach reads 0.
    pub fn declared(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        set.iter()
            .map(|&(name, unit)| {
                let v = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                (name, unit, v)
            })
            .collect()
    }

    /// The report followed by the one-line JSON result.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for (name, ok) in &self.gates {
            let _ = writeln!(out, "gate {name}: {}", if *ok { "pass" } else { "FAIL" });
        }
        let _ = writeln!(
            out,
            "error_rate {} fraction ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        let declared = self.declared(traced);
        for (name, unit, v) in &declared {
            let _ = writeln!(out, "{name} {v} {unit}");
        }
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_declared_metrics_only() {
        let mut o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("sim.cycles", 7.0);
        o.gate("outputs match", true);
        let text = o.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":4,\"failed\":1,"));
        assert!(last.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!last.contains("sim.cycles"));
        assert!(text.contains("error_rate 0.25 fraction"));
        let traced = o.render(true);
        let last = traced.lines().last().unwrap();
        assert!(last.contains("\"sim.cycles\":{\"value\":7,\"unit\":\"count\"}"));
        assert!(last.contains("\"serve.parse.us\":{\"value\":0,"));
        assert!(!last.contains("setup_s"));
    }

    #[test]
    fn metric_names_are_unique_and_layer_map_covers_them() {
        let map = include_str!("../layers.json");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(
                map.contains(&format!("\"{name}\"")),
                "layers.json does not map {name}"
            );
        }
        let bench = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                bench.contains(&entry),
                "BENCHMARK.json lacks {name} ({unit})"
            );
        }
        for (_, metric) in FIGURES.iter().chain(PASSES.iter()) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }
}
