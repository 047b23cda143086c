//! Cross-layer spec-key stability.
//!
//! The canonical `JobSpec` encoding is the cache key for the serve
//! response cache, the bench grid's persistent store, and the CLI's
//! `--spec` reproduction path. Two contracts pin it:
//!
//! 1. **Golden hashes** — a corpus of representative specs must hash to
//!    the exact values in `tests/golden/spec_hashes.txt`. A change here
//!    silently invalidates every existing cache directory and breaks
//!    `--spec <hash>` lines quoted in old failure reports, so it must
//!    be deliberate: regenerate the golden file and call it out in the
//!    changelog.
//! 2. **Serve ≡ bench** — a serve `/v1/simulate` request and the bench
//!    grid cell for the same job derive byte-identical canonical keys,
//!    so a measurement cached by one layer is addressable from the
//!    other.

use sentinel::bench::grid::Cell;
use sentinel::serve::api::{ApiRequest, JobKind};
use sentinel::sim::cache::CacheConfig;
use sentinel::spec::{JobSpec, ProgramRef};
use sentinel_core::SchedulingModel;

/// A fixed inline program for source-keyed specs. Never reformat this
/// string: its bytes are part of the pinned hashes.
const SOURCE: &str = "@golden:\n  r1 = add r0, r0\n  halt\n";

/// Representative specs spanning every kind, program form, and knob.
fn corpus() -> Vec<JobSpec> {
    let mut specs = Vec::new();

    // The README's reproduce-by-hash example: suite wc, sentinel, w=4.
    specs.push(JobSpec::simulate(
        ProgramRef::Suite("wc".into()),
        SchedulingModel::Sentinel,
        4,
    ));
    // The most shared grid point: the base machine.
    specs.push(Cell::paper("cmp", SchedulingModel::RestrictedPercolation, 1).spec());
    // Every simulate knob off its default.
    let mut knobbed = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
    knobbed.recovery = true;
    knobbed.store_buffer = 2;
    knobbed.cache = Some(CacheConfig {
        lines: 64,
        line_bytes: 32,
        miss_penalty: 20,
    });
    specs.push(knobbed.spec());
    // Source program with a memory image.
    let mut src = JobSpec::simulate(
        ProgramRef::Source(SOURCE.into()),
        SchedulingModel::GeneralPercolation,
        2,
    );
    src.map = vec![(0x1000, 0x100)];
    src.word = vec![(0x1000, 7), (0x1008, 9)];
    specs.push(src);
    // Compile, defaults and fully knobbed (boosting model).
    specs.push(JobSpec::compile(SOURCE, SchedulingModel::Sentinel, 8));
    let mut compile = JobSpec::compile(SOURCE, SchedulingModel::Boosting(3), 4);
    compile.recovery = true;
    compile.verify_passes = true;
    compile.emit = true;
    specs.push(compile);
    // A fuzz case (self-describing seeded program).
    specs.push(JobSpec::fuzz(
        42,
        SchedulingModel::SentinelStores,
        2,
        0.25,
        0.1,
    ));

    specs
}

fn render(specs: &[JobSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&format!("{} {}\n", s.hash_hex(), s.canonical()));
    }
    out
}

#[test]
fn golden_hashes_are_pinned() {
    let rendered = render(&corpus());
    let golden = include_str!("golden/spec_hashes.txt");
    assert_eq!(
        rendered, golden,
        "spec hashes drifted from tests/golden/spec_hashes.txt.\n\
         If this change is deliberate, regenerate the golden file with the\n\
         rendered lines below and note the cache invalidation in CHANGELOG.md:\n\
         \n{rendered}"
    );
}

#[test]
fn golden_specs_parse_back_to_themselves() {
    for spec in corpus() {
        let source = match &spec.program {
            ProgramRef::Source(s) => Some(s.as_str()),
            _ => None,
        };
        if !spec.map.is_empty() || !spec.word.is_empty() {
            // Memory images appear as digests in the canonical form —
            // they still key the cache, but are not reconstructible
            // from the string alone, and parsing must say so.
            assert!(JobSpec::parse_with_source(&spec.canonical(), source).is_err());
            continue;
        }
        let parsed = JobSpec::parse_with_source(&spec.canonical(), source).unwrap();
        assert_eq!(parsed, spec, "round trip of {}", spec.canonical());
        assert_eq!(parsed.content_hash(), spec.content_hash());
    }
}

#[test]
fn serve_and_bench_derive_identical_simulate_keys() {
    let req = ApiRequest::from_json(JobKind::Simulate, r#"{"suite":"wc","model":"S","width":4}"#)
        .unwrap();
    let cell = Cell::paper("wc", SchedulingModel::Sentinel, 4);
    assert_eq!(req.cache_key(), cell.spec().canonical());

    // And with non-default knobs on both sides.
    let req = ApiRequest::from_json(
        JobKind::Simulate,
        r#"{"suite":"grep","model":"T","width":8,"recovery":true,"engine":"interpreter"}"#,
    )
    .unwrap();
    let mut cell = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
    cell.recovery = true;
    assert_eq!(req.cache_key(), cell.spec().canonical());

    // The engine is not part of a job's identity: the same job on the
    // other engine has the same key.
    let turbo = ApiRequest::from_json(
        JobKind::Simulate,
        r#"{"suite":"grep","model":"T","width":8,"recovery":true,"engine":"turbo"}"#,
    )
    .unwrap();
    assert_eq!(turbo.cache_key(), req.cache_key());
    assert!(!req.cache_key().contains("engine"));
}

#[test]
fn fuzz_case_specs_match_the_spec_constructor() {
    let case = sentinel::fuzz::FuzzCase {
        seed: 42,
        model: SchedulingModel::SentinelStores,
        width: 2,
        alias_frac: 0.25,
        trap_frac: 0.1,
    };
    let expected = JobSpec::fuzz(42, SchedulingModel::SentinelStores, 2, 0.25, 0.1);
    assert_eq!(case.spec(), expected);
    assert_eq!(case.spec().hash_hex(), expected.hash_hex());
}
