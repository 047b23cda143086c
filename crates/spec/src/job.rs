//! The canonical job description and its byte encoding.
//!
//! A [`JobSpec`] pins down one unit of work — compile this source,
//! simulate this benchmark, fuzz this seed — together with every knob
//! that changes the answer (§5.1 machine model, issue width, recovery
//! constraint, store-buffer depth, data cache). The execution engine is
//! not one of them: the engines are held byte-identical by the
//! differential suite, so the engine is a performance knob and never
//! part of a job's identity. The
//! [`canonical`](JobSpec::canonical) encoding is the *contract* shared
//! by every cache in the repository: serve keys its response cache on
//! it, the bench grid keys its persistent store on it, and fuzz repro
//! lines print its hash. The encoding is versioned (`sentinel-spec/v2`)
//! and append-only: changing how an existing field renders silently
//! splits every cache, so the golden-hash test in `tests/spec_keys.rs`
//! pins a fixed set of specs to fixed hashes.
//!
//! Inline program source and memory images are folded into the
//! encoding as `fnv64:length` digests, which keeps keys bounded; the
//! [`registry`](crate::registry) stores the source text alongside the
//! spec so `--spec <hash>` can still reproduce inline-source jobs.

use std::fmt::{self, Write as _};

use sentinel_core::SchedulingModel;
use sentinel_isa::MachineDesc;
use sentinel_sim::cache::CacheConfig;
use sentinel_sim::SpeculationSemantics;

use crate::fnv64;

/// Version prefix on every canonical encoding.
pub const CANONICAL_PREFIX: &str = "sentinel-spec/v2";

/// What kind of work a [`JobSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Schedule assembly text, report schedule statistics.
    Compile,
    /// Schedule and execute a program, report execution statistics.
    Simulate,
    /// Generate a seeded workload and run it on both engines,
    /// comparing every observable.
    Fuzz,
}

impl SpecKind {
    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpecKind::Compile => "compile",
            SpecKind::Simulate => "simulate",
            SpecKind::Fuzz => "fuzz",
        }
    }

    fn parse(s: &str) -> Result<SpecKind, SpecError> {
        match s {
            "compile" => Ok(SpecKind::Compile),
            "simulate" => Ok(SpecKind::Simulate),
            "fuzz" => Ok(SpecKind::Fuzz),
            other => Err(SpecError::new(format!(
                "unknown spec kind '{other}' (want compile|simulate|fuzz)"
            ))),
        }
    }
}

/// The program a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramRef {
    /// Inline assembly text. Encodes as a `src:<fnv64>:<len>` digest;
    /// the text itself travels via the [`registry`](crate::registry).
    Source(String),
    /// A suite benchmark by name (`wc`, `cmp`, …).
    Suite(String),
    /// A fuzz workload, fully determined by the generator seed and
    /// mix fractions — self-describing, so seeded specs reproduce
    /// from their canonical string alone.
    Seeded {
        /// Generator seed.
        seed: u64,
        /// Fraction of loads that may alias stores.
        alias: f64,
        /// Fraction of loads hoisted over a potentially-trapping path.
        traps: f64,
    },
}

impl ProgramRef {
    fn encode(&self, out: &mut String) {
        match self {
            ProgramRef::Source(src) => {
                let _ = write!(out, "src:{:016x}:{}", fnv64(src.as_bytes()), src.len());
            }
            ProgramRef::Suite(name) => {
                let _ = write!(out, "suite:{name}");
            }
            ProgramRef::Seeded { seed, alias, traps } => {
                let _ = write!(out, "seeded:{seed}:{alias}:{traps}");
            }
        }
    }

    fn parse(s: &str, source: Option<&str>) -> Result<ProgramRef, SpecError> {
        let bad = |what: &str| SpecError::new(format!("bad program field '{s}': {what}"));
        if let Some(rest) = s.strip_prefix("suite:") {
            if rest.is_empty() {
                return Err(bad("empty suite name"));
            }
            return Ok(ProgramRef::Suite(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("seeded:") {
            let mut it = rest.splitn(3, ':');
            let seed = it
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| bad("bad seed"))?;
            let alias = it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| bad("bad alias fraction"))?;
            let traps = it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| bad("bad trap fraction"))?;
            return Ok(ProgramRef::Seeded { seed, alias, traps });
        }
        if let Some(rest) = s.strip_prefix("src:") {
            let mut it = rest.splitn(2, ':');
            let hash = it
                .next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or_else(|| bad("bad source hash"))?;
            let len = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| bad("bad source length"))?;
            let Some(src) = source else {
                return Err(SpecError::new(format!(
                    "spec names inline source {hash:016x}:{len} but the text is not \
                     embedded in the canonical encoding; supply the source (e.g. from \
                     the spec registry) to reconstruct this job"
                )));
            };
            if fnv64(src.as_bytes()) != hash || src.len() != len {
                return Err(SpecError::new(format!(
                    "supplied source does not match the spec digest {hash:016x}:{len}"
                )));
            }
            return Ok(ProgramRef::Source(src.to_string()));
        }
        Err(bad("unknown program scheme (want src:|suite:|seeded:)"))
    }
}

/// Error parsing or reconstructing a [`JobSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// Render a model the way every cache key and CLI flag spells it:
/// the paper's single-letter tag, with the boost depth attached
/// (`R`, `G`, `S`, `T`, `B3`).
pub fn model_str(model: SchedulingModel) -> String {
    match model {
        SchedulingModel::Boosting(k) => format!("B{k}"),
        other => other.tag().to_string(),
    }
}

/// Parse a model name: the spelling [`model_str`] produces (`R`, `G`,
/// `S`, `T`, `B<k>`), a lowercase single-letter tag, or a long name
/// (`restricted`, `general`, `sentinel`, `stores`). The CLI, the wire
/// and the canonical encoding all parse models here; the encoding
/// additionally insists on the [`model_str`] spelling.
pub fn parse_model(s: &str) -> Result<SchedulingModel, SpecError> {
    match s {
        "R" | "r" | "restricted" => Ok(SchedulingModel::RestrictedPercolation),
        "G" | "g" | "general" => Ok(SchedulingModel::GeneralPercolation),
        "S" | "s" | "sentinel" => Ok(SchedulingModel::Sentinel),
        "T" | "t" | "stores" => Ok(SchedulingModel::SentinelStores),
        other => match other.strip_prefix('B').and_then(|k| k.parse::<u8>().ok()) {
            Some(k) => Ok(SchedulingModel::Boosting(k)),
            None => Err(SpecError::new(format!(
                "unknown model '{other}' (want R|G|S|T|B<k>)"
            ))),
        },
    }
}

/// The speculative-fault semantics a scheduling model runs under:
/// general percolation loses exceptions by design (§2.2), every other
/// model defers them through sentinel tags.
pub fn semantics_for(model: SchedulingModel) -> SpeculationSemantics {
    match model {
        SchedulingModel::GeneralPercolation => SpeculationSemantics::Silent,
        _ => SpeculationSemantics::SentinelTags,
    }
}

/// Digest of a `(u64, u64)` pair list (memory regions or initial
/// words): `-` when empty, else `fnv64:count` over the little-endian
/// byte image. Order-sensitive, as the simulator applies pairs in
/// order.
fn pairs_digest(pairs: &[(u64, u64)]) -> String {
    if pairs.is_empty() {
        return "-".to_string();
    }
    let mut bytes = Vec::with_capacity(pairs.len() * 16);
    for &(a, b) in pairs {
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
    }
    format!("{:016x}:{}", fnv64(&bytes), pairs.len())
}

/// A canonical description of one compile, simulate, or fuzz job.
///
/// Fields that a given [`SpecKind`] does not consult (e.g. `cache`
/// for a compile, `emit` for a simulate) are excluded from that kind's
/// canonical encoding, so they cannot split cache keys. Notably
/// `verify_passes` appears only in compile specs: inter-pass
/// verification changes no measured number, so simulate keys ignore
/// it — the bench grid relies on that to share warm cells across
/// `--verify-passes` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What kind of work this is.
    pub kind: SpecKind,
    /// The program to run.
    pub program: ProgramRef,
    /// Scheduling model (§2–§4).
    pub model: SchedulingModel,
    /// Issue width of the machine.
    pub width: usize,
    /// §5.1 recovery-block constraint.
    pub recovery: bool,
    /// Store-buffer depth (simulate only).
    pub store_buffer: usize,
    /// Optional data cache model (simulate only).
    pub cache: Option<CacheConfig>,
    /// Run inter-pass IR verification (compile only; changes no
    /// measured number, so simulate keys exclude it).
    pub verify_passes: bool,
    /// Include scheduled assembly in the response (compile only).
    pub emit: bool,
    /// Memory regions to map before running: `(start, len)`.
    pub map: Vec<(u64, u64)>,
    /// Initial word contents: `(addr, bits)`.
    pub word: Vec<(u64, u64)>,
}

impl JobSpec {
    /// A compile job with the §5.1 defaults (no recovery, no
    /// verification, no asm echo).
    pub fn compile(source: impl Into<String>, model: SchedulingModel, width: usize) -> JobSpec {
        JobSpec {
            kind: SpecKind::Compile,
            program: ProgramRef::Source(source.into()),
            model,
            width,
            recovery: false,
            store_buffer: default_store_buffer(width),
            cache: None,
            verify_passes: false,
            emit: false,
            map: Vec::new(),
            word: Vec::new(),
        }
    }

    /// A simulate job with the §5.1 defaults: no recovery constraint,
    /// the paper machine's store-buffer depth, no data cache, no extra
    /// memory image.
    pub fn simulate(program: ProgramRef, model: SchedulingModel, width: usize) -> JobSpec {
        JobSpec {
            kind: SpecKind::Simulate,
            program,
            model,
            width,
            recovery: false,
            store_buffer: default_store_buffer(width),
            cache: None,
            verify_passes: false,
            emit: false,
            map: Vec::new(),
            word: Vec::new(),
        }
    }

    /// A fuzz job: one generator seed run on both engines. The memory
    /// knobs are fixed by the fuzz harness, so only the seed, mix
    /// fractions, model, and width identify the job.
    pub fn fuzz(
        seed: u64,
        model: SchedulingModel,
        width: usize,
        alias: f64,
        traps: f64,
    ) -> JobSpec {
        JobSpec {
            kind: SpecKind::Fuzz,
            program: ProgramRef::Seeded { seed, alias, traps },
            model,
            width,
            recovery: false,
            store_buffer: default_store_buffer(width),
            cache: None,
            verify_passes: false,
            emit: false,
            map: Vec::new(),
            word: Vec::new(),
        }
    }

    /// The canonical byte encoding: one versioned line, `|`-separated
    /// `key=value` fields in a fixed order. This string *is* the cache
    /// key everywhere — serve, bench, and the CLI all store under it.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str(CANONICAL_PREFIX);
        s.push_str("|kind=");
        s.push_str(self.kind.as_str());
        s.push_str("|prog=");
        self.program.encode(&mut s);
        let _ = write!(s, "|model={}|width={}", model_str(self.model), self.width);
        match self.kind {
            SpecKind::Compile => {
                let _ = write!(
                    s,
                    "|recovery={}|vp={}|emit={}",
                    u8::from(self.recovery),
                    u8::from(self.verify_passes),
                    u8::from(self.emit)
                );
            }
            SpecKind::Simulate => {
                let cache = match &self.cache {
                    None => "-".to_string(),
                    Some(c) => format!("{}:{}:{}", c.lines, c.line_bytes, c.miss_penalty),
                };
                let _ = write!(
                    s,
                    "|recovery={}|sb={}|cache={}|map={}|word={}",
                    u8::from(self.recovery),
                    self.store_buffer,
                    cache,
                    pairs_digest(&self.map),
                    pairs_digest(&self.word)
                );
            }
            SpecKind::Fuzz => {}
        }
        s
    }

    /// The stable 64-bit content hash: [`fnv64`] over
    /// [`canonical`](JobSpec::canonical).
    pub fn content_hash(&self) -> u64 {
        fnv64(self.canonical().as_bytes())
    }

    /// The *schedule* key: [`fnv64`] over only the fields the compiler
    /// consumes — program, model, width, the §5.1 recovery constraint,
    /// and the store-buffer depth (store-separation retry consults it).
    /// Two jobs that differ only in data cache, memory image, or output
    /// knobs produce the identical scheduled function, so the
    /// compiled-program cache keys on this instead of
    /// [`content_hash`](JobSpec::content_hash) — a replayed batch
    /// compiles once per schedule, not once per request.
    pub fn schedule_hash(&self) -> u64 {
        let mut s = String::with_capacity(96);
        s.push_str("sentinel-spec/sched1|prog=");
        self.program.encode(&mut s);
        let _ = write!(
            s,
            "|model={}|width={}|recovery={}|sb={}",
            model_str(self.model),
            self.width,
            u8::from(self.recovery),
            self.store_buffer
        );
        fnv64(s.as_bytes())
    }

    /// [`content_hash`](JobSpec::content_hash) rendered the way repro
    /// lines, spill filenames, and `--spec` spell it: 16 lowercase hex
    /// digits.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Parse a canonical encoding back into a spec.
    ///
    /// Fully reconstructs suite and seeded jobs. Inline-source jobs
    /// embed only a digest, so they need the text via
    /// [`parse_with_source`](JobSpec::parse_with_source); likewise a
    /// non-empty memory image cannot be reconstructed from its digest
    /// and is rejected.
    pub fn parse(s: &str) -> Result<JobSpec, SpecError> {
        JobSpec::parse_with_source(s, None)
    }

    /// [`parse`](JobSpec::parse), supplying the source text for
    /// `src:` program digests. The text is validated against the
    /// digest (hash and length) before being accepted.
    pub fn parse_with_source(s: &str, source: Option<&str>) -> Result<JobSpec, SpecError> {
        let mut fields = s.split('|');
        let prefix = fields.next().unwrap_or("");
        if prefix != CANONICAL_PREFIX {
            return Err(SpecError::new(format!(
                "not a canonical job spec: expected '{CANONICAL_PREFIX}|...', got '{prefix}'"
            )));
        }
        let mut next = |key: &str| -> Result<String, SpecError> {
            let field = fields
                .next()
                .ok_or_else(|| SpecError::new(format!("spec ends before field '{key}'")))?;
            field
                .strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| SpecError::new(format!("expected field '{key}=...', got '{field}'")))
        };
        let kind = SpecKind::parse(&next("kind")?)?;
        let program = ProgramRef::parse(&next("prog")?, source)?;
        let model_field = next("model")?;
        let model = parse_model(&model_field)?;
        if model_str(model) != model_field {
            return Err(SpecError::new(format!(
                "model '{model_field}' is not in canonical spelling (want {})",
                model_str(model)
            )));
        }
        let width = next("width")?
            .parse::<usize>()
            .map_err(|_| SpecError::new("bad width"))?;
        let parse_bool = |v: String, key: &str| -> Result<bool, SpecError> {
            match v.as_str() {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(SpecError::new(format!("bad {key} flag '{other}'"))),
            }
        };
        let spec = match kind {
            SpecKind::Compile => {
                let recovery = parse_bool(next("recovery")?, "recovery")?;
                let verify_passes = parse_bool(next("vp")?, "vp")?;
                let emit = parse_bool(next("emit")?, "emit")?;
                let mut spec = JobSpec::compile(String::new(), model, width);
                spec.program = program;
                spec.recovery = recovery;
                spec.verify_passes = verify_passes;
                spec.emit = emit;
                spec
            }
            SpecKind::Simulate => {
                let recovery = parse_bool(next("recovery")?, "recovery")?;
                let store_buffer = next("sb")?
                    .parse::<usize>()
                    .map_err(|_| SpecError::new("bad store-buffer depth"))?;
                let cache = match next("cache")?.as_str() {
                    "-" => None,
                    v => {
                        let parts: Vec<&str> = v.split(':').collect();
                        let parsed = match parts.as_slice() {
                            [l, b, p] => l.parse().ok().zip(b.parse().ok()).zip(p.parse().ok()),
                            _ => None,
                        };
                        let ((lines, line_bytes), miss_penalty) = parsed
                            .ok_or_else(|| SpecError::new(format!("bad cache field '{v}'")))?;
                        Some(CacheConfig {
                            lines,
                            line_bytes,
                            miss_penalty,
                        })
                    }
                };
                for key in ["map", "word"] {
                    if next(key)? != "-" {
                        return Err(SpecError::new(format!(
                            "spec has a non-empty {key} digest; memory images are not \
                             embedded in the canonical encoding and cannot be reconstructed"
                        )));
                    }
                }
                let mut spec = JobSpec::simulate(program, model, width);
                spec.recovery = recovery;
                spec.store_buffer = store_buffer;
                spec.cache = cache;
                spec
            }
            SpecKind::Fuzz => {
                let ProgramRef::Seeded { seed, alias, traps } = program else {
                    return Err(SpecError::new("fuzz specs must use a seeded: program"));
                };
                JobSpec::fuzz(seed, model, width, alias, traps)
            }
        };
        if let Some(extra) = fields.next() {
            return Err(SpecError::new(format!(
                "trailing field '{extra}' after a complete spec"
            )));
        }
        Ok(spec)
    }
}

/// The store-buffer depth of the paper machine at `width` — the value
/// every layer's defaults resolve to, keeping serve-derived and
/// bench-derived keys identical for the same job.
fn default_store_buffer(width: usize) -> usize {
    MachineDesc::paper_issue(width).store_buffer_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_versioned_and_ordered() {
        let spec = JobSpec::simulate(
            ProgramRef::Suite("wc".to_string()),
            SchedulingModel::Sentinel,
            4,
        );
        assert_eq!(
            spec.canonical(),
            "sentinel-spec/v2|kind=simulate|prog=suite:wc|model=S|width=4\
             |recovery=0|sb=8|cache=-|map=-|word=-"
        );
    }

    #[test]
    fn v1_lines_and_engine_fields_are_rejected() {
        let v1 = "sentinel-spec/v1|kind=simulate|prog=suite:wc|model=S|width=4\
                  |engine=fast|recovery=0|sb=8|cache=-|map=-|word=-";
        assert!(JobSpec::parse(v1).is_err());
        let v2_with_engine = v1.replace("/v1", "/v2");
        let err = JobSpec::parse(&v2_with_engine).unwrap_err();
        assert!(err.to_string().contains("recovery"), "{err}");
    }

    #[test]
    fn suite_and_seeded_specs_round_trip() {
        let mut sim = JobSpec::simulate(
            ProgramRef::Suite("cmp".to_string()),
            SchedulingModel::Boosting(3),
            8,
        );
        sim.recovery = true;
        sim.store_buffer = 16;
        sim.cache = Some(CacheConfig {
            lines: 64,
            line_bytes: 32,
            miss_penalty: 10,
        });
        let fuzz = JobSpec::fuzz(42, SchedulingModel::SentinelStores, 2, 0.25, 0.125);
        for spec in [sim, fuzz] {
            let parsed = JobSpec::parse(&spec.canonical()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.content_hash(), spec.content_hash());
        }
    }

    #[test]
    fn source_specs_round_trip_with_the_text() {
        let src = "label:\n  add r1, r2, r3\n";
        let spec = JobSpec::compile(src, SchedulingModel::Sentinel, 8);
        let line = spec.canonical();
        // Without the text the digest cannot be inverted...
        let err = JobSpec::parse(&line).unwrap_err();
        assert!(err.to_string().contains("not"), "unexpected error: {err}");
        // ...with it, the job reconstructs exactly.
        let parsed = JobSpec::parse_with_source(&line, Some(src)).unwrap();
        assert_eq!(parsed, spec);
        // And a tampered text is rejected.
        assert!(JobSpec::parse_with_source(&line, Some("nop\n")).is_err());
    }

    #[test]
    fn distinct_jobs_get_distinct_hashes() {
        let base = JobSpec::simulate(
            ProgramRef::Suite("wc".to_string()),
            SchedulingModel::Sentinel,
            4,
        );
        let mut widened = base.clone();
        widened.width = 8;
        let mut cached = base.clone();
        cached.cache = Some(CacheConfig::small_l1(10));
        let mut recovered = base.clone();
        recovered.recovery = true;
        let mut mapped = base.clone();
        mapped.map.push((0x1000, 64));
        let hashes: Vec<u64> = [&base, &widened, &cached, &recovered, &mapped]
            .iter()
            .map(|s| s.content_hash())
            .collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn schedule_hash_ignores_run_knobs_but_splits_schedule_knobs() {
        let base = JobSpec::simulate(
            ProgramRef::Suite("wc".to_string()),
            SchedulingModel::Sentinel,
            4,
        );
        // Memory image and data cache don't change the scheduled
        // function: one compile serves them all.
        let mut other = base.clone();
        other.map.push((0x1000, 64));
        other.cache = Some(CacheConfig {
            lines: 64,
            line_bytes: 32,
            miss_penalty: 10,
        });
        assert_eq!(base.schedule_hash(), other.schedule_hash());
        assert_ne!(base.content_hash(), other.content_hash());
        // Anything the compiler consumes splits the key.
        for tweak in [
            |s: &mut JobSpec| s.width = 8,
            |s: &mut JobSpec| s.model = SchedulingModel::GeneralPercolation,
            |s: &mut JobSpec| s.recovery = true,
            |s: &mut JobSpec| s.store_buffer = 16,
            |s: &mut JobSpec| s.program = ProgramRef::Suite("cmp".to_string()),
        ] {
            let mut t = base.clone();
            tweak(&mut t);
            assert_ne!(base.schedule_hash(), t.schedule_hash());
        }
    }

    #[test]
    fn verify_passes_splits_compile_keys_but_not_simulate_keys() {
        let mut compile = JobSpec::compile("nop\n", SchedulingModel::Sentinel, 8);
        let cold = compile.content_hash();
        compile.verify_passes = true;
        assert_ne!(compile.content_hash(), cold);

        let mut sim = JobSpec::simulate(
            ProgramRef::Suite("wc".to_string()),
            SchedulingModel::Sentinel,
            8,
        );
        let key = sim.content_hash();
        sim.verify_passes = true;
        assert_eq!(sim.content_hash(), key);
    }

    #[test]
    fn model_spelling_round_trips() {
        for model in [
            SchedulingModel::RestrictedPercolation,
            SchedulingModel::GeneralPercolation,
            SchedulingModel::Sentinel,
            SchedulingModel::SentinelStores,
            SchedulingModel::Boosting(3),
        ] {
            assert_eq!(parse_model(&model_str(model)).unwrap(), model);
        }
        for (alias, tag) in [
            ("sentinel", "S"),
            ("s", "S"),
            ("restricted", "R"),
            ("stores", "T"),
        ] {
            assert_eq!(parse_model(alias).unwrap(), parse_model(tag).unwrap());
        }
        assert!(parse_model("Bx").is_err());
        assert!(parse_model("Q").is_err());
        // The canonical encoding accepts only the model_str spelling.
        let line = JobSpec::fuzz(1, SchedulingModel::Sentinel, 2, 0.0, 0.0).canonical();
        assert!(JobSpec::parse(&line).is_ok());
        let err = JobSpec::parse(&line.replace("model=S", "model=sentinel")).unwrap_err();
        assert!(err.to_string().contains("canonical spelling"), "{err}");
    }

    #[test]
    fn only_general_percolation_runs_silent() {
        for model in SchedulingModel::all() {
            let want = if model == SchedulingModel::GeneralPercolation {
                SpeculationSemantics::Silent
            } else {
                SpeculationSemantics::SentinelTags
            };
            assert_eq!(semantics_for(model), want);
        }
    }

    #[test]
    fn pair_digests_are_order_sensitive() {
        let ab = pairs_digest(&[(1, 2), (3, 4)]);
        let ba = pairs_digest(&[(3, 4), (1, 2)]);
        assert_ne!(ab, ba);
        assert_eq!(pairs_digest(&[]), "-");
    }
}
