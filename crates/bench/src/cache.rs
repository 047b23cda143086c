//! Memoizing result cache for evaluation-grid cells, optionally backed
//! by the shared persistent store.
//!
//! `reproduce all` used to re-measure identical (bench, model, width)
//! points in Figure 4, Figure 5, the §5.2 summary, and several
//! ablations. The cache guarantees each [`Cell`] is
//! scheduled and simulated **at most once per process**: every lookup
//! is counted in a [`SharedMetrics`] registry (`grid.cells.hit` /
//! `grid.cells.miss`), so tests can assert the at-most-once contract
//! instead of trusting it.
//!
//! With a store attached ([`ResultCache::with_store`]) the contract
//! extends across processes: successful measurements write through to
//! a [`sentinel_spec::Store`] keyed by the cell's canonical
//! [`JobSpec`](sentinel_spec::JobSpec) encoding, and a later
//! `reproduce --cache-dir` run warm-starts from its spill directory.
//! Because store keys are spec canonical strings, every spilled cell
//! is also addressable by its spec hash (`sentinel simulate --spec`).
//! Error rows stay process-local on purpose: they are deterministic
//! to recompute (warm stdout still matches cold stdout) and must
//! never pin a since-fixed panic to disk. A stored body that fails to
//! [`decode`](crate::persist::decode) — stale format, foreign writer
//! — counts a miss and is re-measured, never served.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use sentinel_spec::Store;
use sentinel_trace::SharedMetrics;

use crate::grid::{Cell, CellOutcome};
use crate::persist;

/// Metric name: lookups answered from the cache (memory- or
/// disk-served — either way an evaluation was avoided).
pub const HIT_COUNTER: &str = "grid.cells.hit";
/// Metric name: lookups that required a fresh schedule + simulation.
pub const MISS_COUNTER: &str = "grid.cells.miss";
/// Metric name: cells actually evaluated (== misses; kept separate so a
/// double evaluation of one cell would show up as `evaluated > miss`).
pub const EVAL_COUNTER: &str = "grid.cells.evaluated";
/// Metric name: per-cell wall time histogram, in microseconds.
pub const CELL_MICROS: &str = "grid.cell.micros";

/// Thread-safe memo table from [`Cell`] to its measured outcome.
///
/// Failed cells are cached too: a panicking measurement degrades to an
/// error row once, rather than re-panicking in every figure that asks
/// for the same point.
#[derive(Debug)]
pub struct ResultCache {
    map: Mutex<HashMap<Cell, CellOutcome>>,
    store: Option<Store>,
    metrics: SharedMetrics,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new(SharedMetrics::new())
    }
}

impl ResultCache {
    /// An empty in-process cache aggregating into `metrics`.
    pub fn new(metrics: SharedMetrics) -> ResultCache {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            store: None,
            metrics,
        }
    }

    /// A cache that writes successful measurements through to `store`
    /// (whose spill directory makes them survive the process). The
    /// store reports under the canonical `store.*` metric family,
    /// into the same registry as the `grid.cells.*` counters.
    pub fn with_store(metrics: SharedMetrics, store: Store) -> ResultCache {
        ResultCache {
            store: Some(store),
            ..ResultCache::new(metrics)
        }
    }

    /// Whether a persistent store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store's spill directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().and_then(|s| s.dir())
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<Cell, CellOutcome>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `cell` up, bumping the hit or miss counter. `key` is the
    /// cell's canonical spec encoding, consulted in the persistent
    /// store when the typed map misses; a decodable stored body is
    /// promoted into the map and counts as a hit.
    pub fn lookup(&self, cell: &Cell, key: Option<&str>) -> Option<CellOutcome> {
        if let Some(found) = self.map().get(cell).cloned() {
            self.metrics.count(HIT_COUNTER, 1);
            return Some(found);
        }
        if let (Some(store), Some(key)) = (&self.store, key) {
            if let Some(body) = store.lookup(key) {
                match persist::decode(&body) {
                    Ok(m) => {
                        let outcome: CellOutcome = Ok(m);
                        self.map().insert(cell.clone(), outcome.clone());
                        self.metrics.count(HIT_COUNTER, 1);
                        return Some(outcome);
                    }
                    Err(e) => {
                        // Stale or foreign body: re-measure (the
                        // insert overwrites it), never serve it.
                        eprintln!("grid: stored cell {cell}: {e} (re-measuring)");
                    }
                }
            }
        }
        self.metrics.count(MISS_COUNTER, 1);
        None
    }

    /// Looks `cell` up without touching the counters (assembly passes
    /// that re-read cells already accounted for by [`ResultCache::lookup`]).
    pub fn peek(&self, cell: &Cell) -> Option<CellOutcome> {
        self.map().get(cell).cloned()
    }

    /// Stores the outcome of an evaluated cell and bumps the evaluated
    /// counter. Insertion order is the planner's deterministic missing
    /// order, never the thread completion order. Successful
    /// measurements also write through to the persistent store under
    /// `key`; error rows stay in-memory only.
    pub fn insert(&self, cell: Cell, key: Option<&str>, outcome: CellOutcome) {
        self.metrics.count(EVAL_COUNTER, 1);
        if let (Some(store), Some(key), Ok(m)) = (&self.store, key, &outcome) {
            store.insert(key.to_string(), persist::encode(m));
        }
        self.map().insert(cell, outcome);
    }

    /// Number of distinct cells held.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no cells yet.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// The metrics registry the cache reports into.
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::SchedulingModel;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cell(width: usize) -> Cell {
        Cell::paper("cmp", SchedulingModel::Sentinel, width)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sentinel-grid-store-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = ResultCache::new(SharedMetrics::new());
        assert!(c.is_empty());
        assert!(!c.has_store());
        assert!(c.lookup(&cell(2), None).is_none());
        c.insert(
            cell(2),
            None,
            Err(crate::grid::CellError::new("placeholder".into())),
        );
        assert!(c.lookup(&cell(2), None).is_some());
        assert!(c.peek(&cell(2)).is_some());
        assert!(c.lookup(&cell(4), None).is_none());
        let m = c.metrics();
        assert_eq!(m.counter(HIT_COUNTER), 1);
        assert_eq!(m.counter(MISS_COUNTER), 2);
        assert_eq!(m.counter(EVAL_COUNTER), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn measurements_persist_across_cache_instances_but_errors_do_not() {
        let dir = temp_dir("persist");
        let ok_cell = cell(2);
        let ok_key = ok_cell.spec().canonical();
        let err_cell = cell(4);
        let err_key = err_cell.spec().canonical();
        let measurement = crate::runner::Measurement {
            bench: "cmp".to_string(),
            model: SchedulingModel::Sentinel,
            width: 2,
            cycles: 77,
            stats: sentinel_sim::Stats {
                cycles: 77,
                ..Default::default()
            },
            sched: Default::default(),
        };
        {
            let store = Store::new(64, SharedMetrics::new())
                .attach_dir(&dir)
                .unwrap();
            let c = ResultCache::with_store(SharedMetrics::new(), store);
            assert!(c.has_store());
            c.insert(ok_cell.clone(), Some(&ok_key), Ok(measurement.clone()));
            c.insert(
                err_cell.clone(),
                Some(&err_key),
                Err(crate::grid::CellError::new("boom".into())),
            );
        }
        // A fresh cache over the same directory serves the measurement
        // from disk; the error row was never spilled.
        let metrics = SharedMetrics::new();
        let store = Store::new(64, metrics.clone()).attach_dir(&dir).unwrap();
        let c = ResultCache::with_store(metrics.clone(), store);
        let served = c.lookup(&ok_cell, Some(&ok_key)).unwrap().unwrap();
        assert_eq!(served, measurement);
        assert!(c.lookup(&err_cell, Some(&err_key)).is_none());
        assert_eq!(metrics.counter(HIT_COUNTER), 1);
        assert_eq!(metrics.counter(MISS_COUNTER), 1);
        assert_eq!(metrics.counter("store.disk_hit"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_bodies_degrade_to_misses() {
        let dir = temp_dir("foreign");
        let key = cell(2).spec().canonical();
        let metrics = SharedMetrics::new();
        let store = Store::new(64, metrics.clone()).attach_dir(&dir).unwrap();
        // A foreign writer (e.g. serve) stored JSON under our key.
        store.insert(key.clone(), "{\"cycles\":42}".to_string());
        let c = ResultCache::with_store(metrics.clone(), store);
        assert!(c.lookup(&cell(2), Some(&key)).is_none());
        assert_eq!(metrics.counter(MISS_COUNTER), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
