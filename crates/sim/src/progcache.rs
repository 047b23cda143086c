//! A process-wide cache of compiled programs, keyed by schedule hash.
//!
//! Scheduling a function is pure: the result depends only on the
//! program and the schedule knobs. The evaluation grid visits the same
//! (benchmark, model, width) triple once per *cell*, and the serve pool
//! once per *request* — so without a cache, both pay the compile over
//! and over. `ProgramCache` makes the compile-once contract explicit:
//! callers derive a stable `u64` key (in practice
//! `sentinel_spec::JobSpec::schedule_hash`, which is engine-independent)
//! and the first caller per key fills the entry while concurrent callers
//! for the same key block on the fill instead of duplicating it.
//!
//! The cache is bounded (least-recently-used eviction) and counts its
//! traffic under the `sim.program_cache.*` metric family
//! ([`sentinel_trace::sim`]), which serve republishes through
//! `/metrics` and the bench grid asserts on in its compile-once tests.
//!
//! The value type is generic: the grid caches a prepared measurement
//! (scheduled function + pass log), serve caches its own prepared form,
//! and unit tests cache plain integers. Entries hold no decoded
//! [`TurboProgram`](crate::TurboProgram): sessions decode per run, which
//! keeps a full cache's resident memory to the scheduled functions.
//! Fallible fills are modeled by choosing a `Result` value type — errors
//! are cached like any other value, keeping retry behavior
//! deterministic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use sentinel_trace::sim::{SIM_PROGRAM_CACHE_EVICT, SIM_PROGRAM_CACHE_HIT, SIM_PROGRAM_CACHE_MISS};
use sentinel_trace::SharedMetrics;

struct Slot<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    seq: u64,
}

/// A bounded, thread-safe, fill-once cache of compile results.
///
/// Callers derive a stable `u64` key (in practice
/// `sentinel_spec::JobSpec::schedule_hash`); the first caller per key
/// fills the entry while concurrent callers for the same key block on
/// the fill instead of duplicating it. Cloning the handle is cheap and
/// shares the cache.
pub struct ProgramCache<V> {
    inner: Arc<Mutex<Inner<V>>>,
    capacity: usize,
    metrics: SharedMetrics,
}

impl<V> Clone for ProgramCache<V> {
    fn clone(&self) -> Self {
        ProgramCache {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
            metrics: self.metrics.clone(),
        }
    }
}

impl<V> ProgramCache<V> {
    /// A cache holding at most `capacity` entries (a capacity of zero
    /// is treated as one), with a private metrics registry.
    pub fn new(capacity: usize) -> ProgramCache<V> {
        ProgramCache::with_metrics(capacity, SharedMetrics::new())
    }

    /// A cache that counts `sim.program_cache.{hit,miss,evict}` into a
    /// caller-owned registry (the grid's stderr report, serve's
    /// `/metrics`).
    pub fn with_metrics(capacity: usize, metrics: SharedMetrics) -> ProgramCache<V> {
        ProgramCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                seq: 0,
            })),
            capacity: capacity.max(1),
            metrics,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the cached value for `key`, running `fill` to produce it
    /// if this is the first lookup. Concurrent callers for the same key
    /// block until the fill completes and share the result; the hit and
    /// miss counts depend only on the multiset of keys looked up, never
    /// on thread interleaving (the entry is admitted — and the miss
    /// charged — to exactly one caller per key lifetime).
    pub fn get_or_fill(&self, key: u64, fill: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut g = self.lock();
            g.seq += 1;
            let seq = g.seq;
            if let Some(slot) = g.map.get_mut(&key) {
                slot.last_used = seq;
                self.metrics.count(SIM_PROGRAM_CACHE_HIT, 1);
                Arc::clone(&slot.cell)
            } else {
                self.metrics.count(SIM_PROGRAM_CACHE_MISS, 1);
                let cell = Arc::new(OnceLock::new());
                g.map.insert(
                    key,
                    Slot {
                        cell: Arc::clone(&cell),
                        last_used: seq,
                    },
                );
                while g.map.len() > self.capacity {
                    let victim = g
                        .map
                        .iter()
                        .filter(|&(&k, _)| k != key)
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(&k, _)| k);
                    match victim {
                        Some(v) => {
                            g.map.remove(&v);
                            self.metrics.count(SIM_PROGRAM_CACHE_EVICT, 1);
                        }
                        None => break,
                    }
                }
                cell
            }
        };
        Arc::clone(cell.get_or_init(|| Arc::new(fill())))
    }

    /// Number of admitted entries (filled or in flight).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` if no entry has been admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The metrics registry this cache counts into.
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hit_miss_and_fill_once() {
        let cache: ProgramCache<u64> = ProgramCache::new(8);
        let fills = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = cache.get_or_fill(7, || {
                fills.fetch_add(1, Ordering::SeqCst);
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(fills.load(Ordering::SeqCst), 1);
        assert_eq!(cache.metrics().counter("sim.program_cache.miss"), 1);
        assert_eq!(cache.metrics().counter("sim.program_cache.hit"), 2);
        assert_eq!(cache.metrics().counter("sim.program_cache.evict"), 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: ProgramCache<u64> = ProgramCache::new(2);
        cache.get_or_fill(1, || 1);
        cache.get_or_fill(2, || 2);
        cache.get_or_fill(1, || 1); // touch 1 → 2 is now LRU
        cache.get_or_fill(3, || 3); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.metrics().counter("sim.program_cache.evict"), 1);
        let fills = AtomicUsize::new(0);
        cache.get_or_fill(1, || {
            fills.fetch_add(1, Ordering::SeqCst);
            1
        });
        assert_eq!(fills.load(Ordering::SeqCst), 0, "1 must have survived");
        cache.get_or_fill(2, || {
            fills.fetch_add(1, Ordering::SeqCst);
            2
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1, "2 must have been evicted");
    }

    #[test]
    fn concurrent_lookups_share_one_fill() {
        let cache: ProgramCache<u64> = ProgramCache::new(8);
        let fills = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let fills = &fills;
                s.spawn(move || {
                    let v = cache.get_or_fill(99, || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        5
                    });
                    assert_eq!(*v, 5);
                });
            }
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1);
        let m = cache.metrics();
        assert_eq!(m.counter("sim.program_cache.miss"), 1);
        assert_eq!(m.counter("sim.program_cache.hit"), 7);
    }

    #[test]
    fn cached_errors_stay_deterministic() {
        let cache: ProgramCache<Result<u64, String>> = ProgramCache::new(4);
        let fills = AtomicUsize::new(0);
        for _ in 0..2 {
            let v = cache.get_or_fill(1, || {
                fills.fetch_add(1, Ordering::SeqCst);
                Err("boom".to_string())
            });
            assert_eq!(*v, Err("boom".to_string()));
        }
        assert_eq!(fills.load(Ordering::SeqCst), 1, "errors are cached too");
    }
}
