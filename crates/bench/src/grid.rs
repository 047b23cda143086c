//! The evaluation grid engine.
//!
//! The paper's evaluation is a dense grid — 17 benchmarks × several
//! scheduling models × several issue widths, plus ablation knobs. This
//! module turns the schedule → simulate → measure path into an engine
//! instead of a nest of for-loops:
//!
//! * a [`Cell`] names one grid point (bench, model, width, knobs);
//! * a [`GridSession`] owns the shared workload suite (one `Arc`, built
//!   once), a memoizing [`ResultCache`], and
//!   a worker pool size;
//! * [`GridSession::eval`] dedups the requested cells against the
//!   cache, evaluates the missing ones on scoped threads, and returns
//!   outcomes **in request order** — byte-identical output no matter
//!   how threads interleave;
//! * a panicking cell is caught per cell ([`std::panic::catch_unwind`])
//!   and degrades to a [`CellError`] row instead of aborting the run.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sentinel_core::SchedulingModel;
use sentinel_sim::cache::CacheConfig;
use sentinel_sim::{Engine, ProgramCache};
use sentinel_spec::{fnv64, JobSpec, ProgramRef, Store};
use sentinel_trace::{Metrics, SharedMetrics};
use sentinel_workloads::{suite, Workload};

use crate::cache::{ResultCache, CELL_MICROS};
use crate::runner::{
    prepare, simulate_prepared, MeasureConfig, MeasureError, Measurement, Prepared,
};

/// Marker file a persistent cache directory carries: the fingerprint of
/// the workload suite whose measurements it holds. A directory built
/// from a different suite (regenerated workloads, different seed
/// corpus) must not serve its rows — same cell names, different
/// programs.
const SUITE_FP_FILE: &str = "suite.fp";

/// In-memory entry budget for the grid's persistent store — comfortably
/// above the full paper grid (17 benchmarks × models × widths plus
/// ablations is a few hundred cells).
const GRID_STORE_CAPACITY: usize = 4096;

/// Histogram names for per-pass compile timing, one per canonical pass
/// (trace metrics require `&'static str` names, so the fixed pass
/// vocabulary maps to a fixed metric table).
const PASS_MICROS: [(&str, &str); 10] = [
    ("validate", "compile.pass.validate.micros"),
    ("superblock-prep", "compile.pass.superblock-prep.micros"),
    ("clear-tags", "compile.pass.clear-tags.micros"),
    ("recovery-rename", "compile.pass.recovery-rename.micros"),
    ("liveness", "compile.pass.liveness.micros"),
    ("depgraph", "compile.pass.depgraph.micros"),
    ("reduction", "compile.pass.reduction.micros"),
    ("list-schedule", "compile.pass.list-schedule.micros"),
    (
        "store-separation-retry",
        "compile.pass.store-separation-retry.micros",
    ),
    ("regalloc", "compile.pass.regalloc.micros"),
];

/// The timing-histogram name for a pass, if it is a canonical one.
pub fn pass_metric(pass: &str) -> Option<&'static str> {
    PASS_MICROS
        .iter()
        .find(|(name, _)| *name == pass)
        .map(|(_, metric)| *metric)
}

/// One point of the evaluation grid: a benchmark measured under a
/// scheduling model and a machine/scheduler configuration.
///
/// Two figures (or ablations) asking for the same cell are the same
/// work; the session's cache ensures it is done once. The derived `Ord`
/// gives plans and reports a deterministic order that is independent of
/// request order and thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Benchmark name (must exist in the session's workload set).
    pub bench: String,
    /// Scheduling model.
    pub model: SchedulingModel,
    /// Issue width.
    pub width: usize,
    /// Enforce the §3.7 recovery constraints during scheduling.
    pub recovery: bool,
    /// Store-buffer entries (8 on the paper's machine).
    pub store_buffer: usize,
    /// Optional timing-only data cache (`None` = the paper's 100%-hit
    /// assumption).
    pub cache: Option<CacheConfig>,
}

impl Cell {
    /// The paper's §5 configuration of `bench` for a model and width.
    pub fn paper(bench: &str, model: SchedulingModel, width: usize) -> Cell {
        Cell {
            bench: bench.to_string(),
            model,
            width,
            recovery: false,
            store_buffer: 8,
            cache: None,
        }
    }

    /// The paper's *base machine* point for `bench`: issue 1,
    /// restricted percolation. Every speedup in every figure divides by
    /// this cell, so it is the most shared point in the grid.
    pub fn base(bench: &str) -> Cell {
        Cell::paper(bench, SchedulingModel::RestrictedPercolation, 1)
    }

    /// The canonical [`JobSpec`] this cell denotes.
    ///
    /// This is the same spec a serve `/v1/simulate` request for the
    /// suite benchmark derives, so one spec hash addresses the cell in
    /// the grid's persistent store, in serve's response cache, and on
    /// the `sentinel simulate --spec` command line — whichever engine
    /// measured it.
    pub fn spec(&self) -> JobSpec {
        let mut spec = JobSpec::simulate(
            ProgramRef::Suite(self.bench.clone()),
            self.model,
            self.width,
        );
        spec.recovery = self.recovery;
        spec.store_buffer = self.store_buffer;
        spec.cache = self.cache.clone();
        spec
    }

    /// The measurement configuration this cell denotes.
    pub fn config(&self) -> MeasureConfig {
        let mut cfg = MeasureConfig::paper(self.model, self.width);
        cfg.recovery = self.recovery;
        cfg.store_buffer = self.store_buffer;
        cfg.cache = self.cache.clone();
        cfg
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} x{}", self.bench, self.model.tag(), self.width)?;
        if self.recovery {
            write!(f, " +recovery")?;
        }
        if self.store_buffer != 8 {
            write!(f, " sb={}", self.store_buffer)?;
        }
        if let Some(c) = &self.cache {
            write!(f, " cache(p={})", c.miss_penalty)?;
        }
        write!(f, "]")
    }
}

/// Why a cell produced no measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The panic payload (or lookup failure) as text.
    pub message: String,
}

impl CellError {
    /// An error with the given message.
    pub fn new(message: String) -> CellError {
        CellError { message }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CellError {}

/// A cell's evaluation result: the measurement, or the degraded error
/// row a panicking cell turns into.
pub type CellOutcome = Result<Measurement, CellError>;

/// Test-only fault hook: cells matched by the predicate panic instead
/// of measuring, exercising the degraded-row path.
pub type FaultHook = Arc<dyn Fn(&Cell) -> bool + Send + Sync>;

/// The number of worker threads to use by default: one per available
/// hardware thread (fall back to 1 if parallelism cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A measurement session over a fixed workload set: shared suite,
/// memoizing cache, and a worker-pool size.
///
/// One session should span an entire `reproduce` invocation so every
/// figure and ablation draws from (and feeds) the same cache.
pub struct GridSession {
    workloads: Arc<Vec<Workload>>,
    by_name: HashMap<String, usize>,
    cache: ResultCache,
    /// Compiled programs, shared by every worker thread and keyed by the
    /// cell's schedule hash ([`JobSpec::schedule_hash`]): one compile
    /// per distinct (bench, model, width, recovery, store-buffer) point
    /// per session, no matter how many cells, ablation knobs, or
    /// `--jobs` workers touch it.
    programs: ProgramCache<Result<Prepared, MeasureError>>,
    jobs: usize,
    engine: Engine,
    verify_passes: bool,
    fault_hook: Option<FaultHook>,
}

impl GridSession {
    /// A session over an explicit workload set.
    pub fn new(workloads: Arc<Vec<Workload>>, jobs: usize) -> GridSession {
        let by_name = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| (w.name.clone(), i))
            .collect();
        let metrics = SharedMetrics::new();
        GridSession {
            workloads,
            by_name,
            cache: ResultCache::new(metrics.clone()),
            programs: ProgramCache::with_metrics(GRID_STORE_CAPACITY, metrics),
            jobs: jobs.max(1),
            engine: Engine::default(),
            verify_passes: false,
            fault_hook: None,
        }
    }

    /// A session over the paper's 17-benchmark suite (built once per
    /// process, shared via `Arc`).
    pub fn suite(jobs: usize) -> GridSession {
        GridSession::new(suite::shared(), jobs)
    }

    /// The worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The execution engine cells run on ([`Engine::Turbo`] by default).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Selects the execution engine for the whole session. The engines
    /// are held to identical measurements by the differential suite, so
    /// the result cache and the persistent store are keyed without it;
    /// pick the engine **before** evaluating anything all the same, or
    /// the cell timing histogram would mix engines.
    pub fn set_engine(&mut self, engine: Engine) {
        assert_eq!(
            self.cells_cached(),
            0,
            "set_engine after cells were measured"
        );
        self.engine = engine;
    }

    /// Attaches a persistent store under `dir`: measurements evaluated
    /// by this session spill to disk, and cells already spilled by an
    /// earlier run are served without re-measuring. Pick the directory
    /// **before** evaluating anything, like [`GridSession::set_engine`].
    ///
    /// The directory is fingerprinted against the session's workload
    /// suite ([`GridSession::suite_fingerprint`]); a directory built
    /// from a different suite has its spilled measurements dropped
    /// (recorded `.spec` files are kept — they are suite-independent).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating, fingerprinting, or
    /// warm-loading the directory.
    pub fn set_cache_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        assert_eq!(
            self.cells_cached(),
            0,
            "set_cache_dir after cells were measured"
        );
        std::fs::create_dir_all(dir)?;
        let fp = format!("{:016x}", self.suite_fingerprint());
        let marker = dir.join(SUITE_FP_FILE);
        match std::fs::read_to_string(&marker) {
            Ok(prev) if prev.trim() == fp => {}
            Ok(prev) => {
                eprintln!(
                    "grid: cache dir {} holds measurements for a different workload \
                     suite ({} != {fp}); dropping them",
                    dir.display(),
                    prev.trim()
                );
                for entry in std::fs::read_dir(dir)? {
                    let path = entry?.path();
                    if path.extension().and_then(|e| e.to_str()) == Some("sc") {
                        std::fs::remove_file(&path)?;
                    }
                }
                std::fs::write(&marker, format!("{fp}\n"))?;
            }
            Err(_) => std::fs::write(&marker, format!("{fp}\n"))?,
        }
        let metrics = self.cache.metrics().clone();
        let store = Store::new(GRID_STORE_CAPACITY, metrics.clone()).attach_dir(dir)?;
        self.cache = ResultCache::with_store(metrics, store);
        Ok(())
    }

    /// The persistent store's directory, if one is attached.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.store_dir()
    }

    /// FNV-1a fingerprint of the session's workload set — every
    /// program, memory image, and live-out contract, in suite order
    /// ([`Workload::identity_bytes`]). Two sessions share spilled
    /// measurements only when this matches.
    pub fn suite_fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for w in self.workloads.iter() {
            bytes.extend_from_slice(&w.identity_bytes());
        }
        fnv64(&bytes)
    }

    /// Whether cells compile with the inter-pass IR verifier on.
    pub fn verify_passes(&self) -> bool {
        self.verify_passes
    }

    /// Runs every cell's compile with the inter-pass IR verifier on,
    /// even in release builds (`--verify-passes`). Verification changes
    /// no measured number, so the result cache stays keyed by [`Cell`].
    pub fn set_verify_passes(&mut self, on: bool) {
        self.verify_passes = on;
    }

    /// The session's workloads, in suite order.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The workload named `bench`, if present.
    pub fn workload(&self, bench: &str) -> Option<&Workload> {
        self.by_name.get(bench).map(|&i| &self.workloads[i])
    }

    /// The metrics registry (cache hit/miss/evaluated counters and the
    /// per-cell timing histogram).
    pub fn metrics(&self) -> Metrics {
        self.cache.metrics().snapshot()
    }

    /// Number of distinct cells measured so far.
    pub fn cells_cached(&self) -> usize {
        self.cache.len()
    }

    /// Installs a test-only fault hook: any planned cell matched by
    /// `hook` panics instead of measuring. The panic is confined to the
    /// cell, which degrades to a [`CellError`] row.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Evaluates `cells`, returning one outcome per requested cell, in
    /// request order.
    ///
    /// Duplicates (within the request or against previous calls) are
    /// served from the cache; the distinct missing cells are measured
    /// on up to [`GridSession::jobs`] scoped worker threads. Results
    /// are deterministic: outcome order is the request order, and cache
    /// insertion follows the plan order, never thread completion order.
    ///
    /// Calls are expected to come from one coordinating thread at a
    /// time (the at-most-once guarantee is per `eval` pass; two fully
    /// concurrent `eval` calls could race to measure the same missing
    /// cell).
    pub fn eval(&self, cells: &[Cell]) -> Vec<CellOutcome> {
        // Plan: the distinct cells not already cached, in first-request
        // order. Lookups count one hit/miss per *distinct* cell per call.
        let mut seen: HashSet<&Cell> = HashSet::new();
        let mut missing: Vec<Cell> = Vec::new();
        for cell in cells {
            if seen.insert(cell) {
                let key = self.cell_key(cell);
                if self.cache.lookup(cell, key.as_deref()).is_none() {
                    missing.push(cell.clone());
                }
            }
        }

        self.run_missing(&missing);

        cells
            .iter()
            .map(|c| {
                self.cache
                    .peek(c)
                    .expect("evaluated cell must be in the cache")
            })
            .collect()
    }

    /// Evaluates one cell (cached like any other).
    pub fn cell(&self, cell: Cell) -> CellOutcome {
        self.eval(std::slice::from_ref(&cell)).pop().unwrap()
    }

    /// Evaluates one cell and unwraps it, panicking with the cell name
    /// on a degraded row (callers that cannot tolerate error rows).
    pub fn measurement(&self, cell: Cell) -> Measurement {
        let name = cell.to_string();
        self.cell(cell)
            .unwrap_or_else(|e| panic!("{name}: {}", e.message))
    }

    /// Measures the missing cells and commits them to the cache in plan
    /// order.
    fn run_missing(&self, missing: &[Cell]) {
        if missing.is_empty() {
            return;
        }
        let workers = self.jobs.min(missing.len());
        let slots: Vec<OnceLock<CellOutcome>> = missing.iter().map(|_| OnceLock::new()).collect();
        if workers <= 1 {
            for (cell, slot) in missing.iter().zip(&slots) {
                let _ = slot.set(self.run_cell(cell));
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = missing.get(i) else { break };
                        let _ = slots[i].set(self.run_cell(cell));
                    });
                }
            });
        }
        for (cell, slot) in missing.iter().zip(slots) {
            let outcome = slot.into_inner().expect("worker filled every slot");
            let key = self.cell_key(cell);
            self.cache.insert(cell.clone(), key.as_deref(), outcome);
        }
    }

    /// The store key for a cell — its canonical spec encoding — when a
    /// persistent store is attached (keys are pointless work otherwise).
    fn cell_key(&self, cell: &Cell) -> Option<String> {
        self.cache.has_store().then(|| cell.spec().canonical())
    }

    /// Schedules + simulates one cell with panic isolation.
    ///
    /// The compile half goes through the session's shared
    /// [`ProgramCache`]: cells that denote the same schedule point (same
    /// bench/model/width/recovery/store-buffer — the engine and the
    /// timing-only data cache do not affect scheduling) share one
    /// [`Prepared`], and compile-pass metrics are recorded inside the
    /// fill, once per compile rather than once per cell.
    fn run_cell(&self, cell: &Cell) -> CellOutcome {
        let Some(w) = self.workload(&cell.bench) else {
            return Err(CellError::new(format!(
                "unknown benchmark '{}'",
                cell.bench
            )));
        };
        let t0 = Instant::now();
        let hook = self.fault_hook.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &hook {
                if hook(cell) {
                    panic!("injected fault for {cell}");
                }
            }
            let mut cfg = cell.config();
            cfg.engine = self.engine;
            cfg.verify_passes = self.verify_passes;
            let key = cell.spec().schedule_hash();
            let metrics = self.cache.metrics().clone();
            let prepared = self.programs.get_or_fill(key, || {
                let p = prepare(w, &cfg)?;
                metrics.count(sentinel_trace::compile::PASS_RUNS, p.passes.total_runs());
                for r in p.passes.reports() {
                    if let Some(name) = pass_metric(r.name) {
                        metrics.observe(name, r.wall.as_micros() as u64);
                    }
                }
                Ok(p)
            });
            match prepared.as_ref() {
                Ok(p) => simulate_prepared(w, &cfg, p),
                Err(e) => Err(e.clone()),
            }
        }));
        self.cache
            .metrics()
            .observe(CELL_MICROS, t0.elapsed().as_micros() as u64);
        match result {
            // Measurement failures (schedule rejection included) degrade
            // to an error row naming the cell — no panic involved.
            Ok(Ok(m)) => Ok(m),
            Ok(Err(e)) => Err(CellError::new(format!("{cell}: {e}"))),
            Err(payload) => Err(CellError::new(panic_message(payload))),
        }
    }
}

/// Renders a panic payload as text (the common `&str` / `String` cases,
/// with a fallback for exotic payloads).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_string()
    }
}

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// returning results in item order (a deterministic parallel `map`).
///
/// Used by the ablations whose per-benchmark work is not a pure grid
/// cell (program-mutating transforms such as superblock re-formation or
/// unrolling) but is still embarrassingly parallel. A panic in `f`
/// propagates — unlike grid cells, these transforms are expected to be
/// infallible.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    // Mutex (not OnceLock) slots: OnceLock<R> is only Sync when R: Sync,
    // and results never contend — each slot is written exactly once.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    if workers <= 1 {
        for (item, slot) in items.iter().zip(&slots) {
            *slot.lock().expect("slot lock") = Some(f(item));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock().expect("slot lock") = Some(f(item));
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{EVAL_COUNTER, HIT_COUNTER, MISS_COUNTER};
    use sentinel_workloads::{generate, WorkloadSpec};

    fn tiny_session(jobs: usize) -> GridSession {
        let mut s = WorkloadSpec::test_default("tiny", 3);
        s.iterations = 10;
        let mut s2 = WorkloadSpec::test_default("tiny2", 5);
        s2.iterations = 10;
        GridSession::new(Arc::new(vec![generate(&s), generate(&s2)]), jobs)
    }

    fn grid_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for bench in ["tiny", "tiny2"] {
            cells.push(Cell::base(bench));
            for model in [
                SchedulingModel::RestrictedPercolation,
                SchedulingModel::Sentinel,
            ] {
                for width in [2, 4] {
                    cells.push(Cell::paper(bench, model, width));
                }
            }
        }
        cells
    }

    #[test]
    fn eval_is_deterministic_across_job_counts() {
        let cells = grid_cells();
        let serial = tiny_session(1).eval(&cells);
        let parallel = tiny_session(4).eval(&cells);
        assert_eq!(serial, parallel);
        // And across repeated runs of the same session (pure cache hits).
        let session = tiny_session(4);
        assert_eq!(session.eval(&cells), session.eval(&cells));
    }

    #[test]
    fn cells_are_evaluated_at_most_once() {
        let session = tiny_session(4);
        let cells = grid_cells();
        let doubled: Vec<Cell> = cells.iter().chain(cells.iter()).cloned().collect();
        session.eval(&doubled);
        session.eval(&cells);
        let m = session.metrics();
        assert_eq!(m.counter(EVAL_COUNTER), cells.len() as u64);
        assert_eq!(m.counter(MISS_COUNTER), cells.len() as u64);
        // Second eval: every distinct cell hits.
        assert_eq!(m.counter(HIT_COUNTER), cells.len() as u64);
        assert_eq!(session.cells_cached(), cells.len());
        assert_eq!(
            m.histogram(CELL_MICROS).unwrap().count(),
            cells.len() as u64
        );
    }

    #[test]
    fn faulting_cell_degrades_without_killing_the_run() {
        let mut session = tiny_session(4);
        session.set_fault_hook(Arc::new(|c: &Cell| {
            c.bench == "tiny" && c.model == SchedulingModel::Sentinel && c.width == 4
        }));
        let outcomes = session.eval(&grid_cells());
        let errors: Vec<_> = outcomes.iter().filter(|o| o.is_err()).collect();
        assert_eq!(errors.len(), 1);
        let msg = &errors[0].as_ref().unwrap_err().message;
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("tiny [S x4]"), "{msg}");
        // All other cells still measured.
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 9);
    }

    #[test]
    fn schedule_failure_degrades_to_error_row() {
        // A workload whose function the scheduler rejects: the cell must
        // become an error row naming the cell and the cause — without a
        // panic anywhere in the process.
        let mut s = WorkloadSpec::test_default("bad", 3);
        s.iterations = 10;
        let mut w = generate(&s);
        let entry = w.func.entry();
        w.func.block_mut(entry).insns[0].speculative = true;
        let session = GridSession::new(Arc::new(vec![w]), 2);
        let out = session.cell(Cell::base("bad"));
        let msg = out.unwrap_err().message;
        assert!(msg.contains("schedule failed"), "{msg}");
        assert!(msg.contains("bad [R x1]"), "{msg}");
    }

    #[test]
    fn compile_pass_timings_feed_metrics() {
        let session = tiny_session(1);
        session.cell(Cell::base("tiny")).unwrap();
        let m = session.metrics();
        assert!(m.counter(sentinel_trace::compile::PASS_RUNS) > 0);
        let h = m
            .histogram(pass_metric("list-schedule").unwrap())
            .expect("list-schedule timing histogram");
        assert!(h.count() > 0);
        assert!(pass_metric("no-such-pass").is_none());
    }

    #[test]
    fn verify_passes_does_not_change_measurements() {
        let cells = grid_cells();
        let plain = tiny_session(2).eval(&cells);
        let mut verified_session = tiny_session(2);
        verified_session.set_verify_passes(true);
        assert!(verified_session.verify_passes());
        let verified = verified_session.eval(&cells);
        assert_eq!(plain, verified);
    }

    #[test]
    fn unknown_bench_is_an_error_row() {
        let session = tiny_session(2);
        let out = session.cell(Cell::base("nonesuch"));
        assert!(out.unwrap_err().message.contains("unknown benchmark"));
    }

    #[test]
    fn measurement_panics_with_cell_name_on_error() {
        let session = tiny_session(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            session.measurement(Cell::base("nonesuch"))
        }))
        .unwrap_err();
        assert!(panic_message(err).contains("nonesuch"));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..50).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(1, &items, |&x| x * 2), doubled);
        assert!(parallel_map(4, &[] as &[u64], |&x| x).is_empty());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sentinel-grid-dir-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_dir_warm_starts_a_second_session() {
        let dir = temp_dir("warm");
        let cells = grid_cells();
        let cold = {
            let mut s = tiny_session(2);
            s.set_cache_dir(&dir).unwrap();
            assert_eq!(s.cache_dir(), Some(dir.as_path()));
            s.eval(&cells)
        };
        let mut warm = tiny_session(2);
        warm.set_cache_dir(&dir).unwrap();
        let again = warm.eval(&cells);
        assert_eq!(cold, again, "disk-served rows match measured rows");
        let m = warm.metrics();
        assert_eq!(m.counter(EVAL_COUNTER), 0, "nothing re-measured");
        assert!(m.counter("store.disk_hit") > 0);
    }

    #[test]
    fn cache_dir_for_a_different_suite_is_dropped() {
        let dir = temp_dir("stale");
        {
            let mut s = tiny_session(1);
            s.set_cache_dir(&dir).unwrap();
            s.eval(&[Cell::base("tiny")]);
        }
        // A session over a different workload set (here: a regenerated
        // "tiny" with more blocks) fingerprints differently, so the
        // stale spills must be dropped and the cell re-measured.
        let mut spec = WorkloadSpec::test_default("tiny", 4);
        spec.iterations = 10;
        let mut other = GridSession::new(Arc::new(vec![generate(&spec)]), 1);
        other.set_cache_dir(&dir).unwrap();
        other.eval(&[Cell::base("tiny")]);
        let m = other.metrics();
        assert_eq!(m.counter(EVAL_COUNTER), 1, "stale row not served");
        assert_eq!(m.counter("store.disk_hit"), 0);
    }

    /// The compile-once contract: across a full grid eval — duplicated
    /// cells, parallel workers — each distinct schedule point (bench,
    /// model, width, recovery, store buffer) is compiled exactly once,
    /// and cells differing only in the timing-only data cache share
    /// that one compile.
    #[test]
    fn shared_program_cache_compiles_each_schedule_point_once() {
        let session = tiny_session(4);
        let mut cells = grid_cells();
        // Differs from an existing cell only by the timing-only data
        // cache, which does not affect scheduling: must be a program hit.
        let mut ablated = Cell::paper("tiny", SchedulingModel::Sentinel, 4);
        ablated.cache = Some(CacheConfig::small_l1(10));
        cells.push(ablated);
        let doubled: Vec<Cell> = cells.iter().chain(cells.iter()).cloned().collect();
        let outcomes = session.eval(&doubled);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let distinct: HashSet<u64> = cells.iter().map(|c| c.spec().schedule_hash()).collect();
        assert_eq!(distinct.len(), cells.len() - 1, "ablated cell shares a key");
        let m = session.metrics();
        assert_eq!(
            m.counter(sentinel_trace::sim::SIM_PROGRAM_CACHE_MISS),
            distinct.len() as u64,
            "one compile per distinct schedule point"
        );
        assert_eq!(
            m.counter(sentinel_trace::sim::SIM_PROGRAM_CACHE_HIT),
            1,
            "the cache-ablated cell reuses its sibling's compile"
        );
        // Re-eval: the result cache serves every duplicate before the
        // program cache is ever consulted again.
        session.eval(&cells);
        let m = session.metrics();
        assert_eq!(
            m.counter(sentinel_trace::sim::SIM_PROGRAM_CACHE_MISS),
            distinct.len() as u64
        );
        assert!(
            m.counter(sentinel_trace::compile::PASS_RUNS) > 0,
            "pass metrics recorded once per compile"
        );
    }

    #[test]
    fn cell_spec_round_trips_and_varies_with_knobs() {
        let mut c = Cell::paper("wc", SchedulingModel::Sentinel, 4);
        let spec = c.spec();
        let parsed = sentinel_spec::JobSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(parsed, spec);
        let base = spec.content_hash();
        c.recovery = true;
        assert_ne!(c.spec().content_hash(), base);
        c.recovery = false;
        c.cache = Some(CacheConfig::small_l1(10));
        assert_ne!(c.spec().content_hash(), base);
    }

    #[test]
    fn engine_choice_changes_no_measurement() {
        let cells = grid_cells();
        let turbo = tiny_session(2).eval(&cells);
        let mut interp_session = tiny_session(2);
        interp_session.set_engine(Engine::Interpreter);
        assert_eq!(interp_session.eval(&cells), turbo);
    }

    #[test]
    fn cell_display_names_knobs() {
        let mut c = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
        c.store_buffer = 2;
        c.recovery = true;
        assert_eq!(c.to_string(), "grep [T x8 +recovery sb=2]");
        assert_eq!(Cell::base("wc").to_string(), "wc [R x1]");
    }
}
