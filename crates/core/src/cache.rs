//! The query path's one cache: a bounded CLOCK cache from mask to
//! decomposition.
//!
//! Every [`crate::server::Engine`] keeps one, and so does a shard router;
//! both build it through [`ClockCache::decompositions`] and probe it
//! through [`ClockCache::decomposition`], so a probe and a miss cost the
//! same stages on every backend.
//!
//! * **Lookup** hashes the key once, with a per-cache random hasher
//!   (masks arrive from clients, so collisions must not be craftable),
//!   and probes a hash → slot index under one lock. A hit compares the
//!   full key, sets the slot's reference bit and clones the value — no
//!   allocation.
//! * **Miss** computes the value outside the lock, clones the key once and
//!   inserts. Once the cache is full the CLOCK hand sweeps the slot ring:
//!   a referenced slot loses its bit and is passed over, the first
//!   unreferenced one is evicted. Every swept bit was set by an earlier
//!   hit or insert, so eviction is O(1) amortized.
//!
//! A decomposition depends only on the mask and the hierarchy, never on
//! the resolver or the published snapshot, so nothing ever invalidates an
//! entry. One slot exists per key hash. Two keys whose 64-bit hashes
//! collide share (and thrash) that slot; the full-key compare keeps the
//! answer exact.

use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::hierarchy::Hierarchy;
use o4a_grid::mask::Mask;
use o4a_obs::metrics::{Counter, Gauge};
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Masks a decomposition cache retains. It must hold a whole benchmark
/// batch: the `ensemble` bench re-answers 412 masks per round, and a
/// 256-entry cache would turn every one of its hits into a miss. A
/// 128x128 mask key is 2 KB, so a full cache holds ~10 MB.
pub const DECOMP_CACHE_CAP: usize = 4096;

/// The registry handles a cache bumps in lockstep with its own counters,
/// so a METRICS scrape reconciles exactly with [`ClockCache::stats`].
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    /// Lookups served from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that computed their value.
    pub misses: Arc<Counter>,
    /// Entries the CLOCK hand evicted.
    pub evictions: Arc<Counter>,
    /// Entries currently cached (set after every insert).
    pub entries: Arc<Gauge>,
}

/// Passes a key's (already randomized) 64-bit hash straight through as
/// the index map's bucket hash, so a lookup hashes its key exactly once.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the slot index only hashes u64 keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

struct Slot<K, V> {
    hash: u64,
    key: K,
    value: V,
    referenced: bool,
}

struct Ring<K, V> {
    /// Key hash → slot.
    index: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    /// Grows to the capacity, then is recycled in place.
    slots: Vec<Slot<K, V>>,
    /// Next slot the CLOCK hand inspects once the ring is full.
    hand: usize,
}

/// A bounded, thread-safe CLOCK cache of `V` keyed by `K` (see the module
/// docs).
pub struct ClockCache<K, V> {
    ring: Mutex<Ring<K, V>>,
    hasher: RandomState,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    metrics: CacheMetrics,
}

impl<K: Hash + Eq + Clone, V: Clone> ClockCache<K, V> {
    /// An empty cache holding at most `cap` entries (at least one).
    pub fn new(cap: usize, metrics: CacheMetrics) -> Self {
        ClockCache {
            ring: Mutex::new(Ring {
                index: HashMap::default(),
                slots: Vec::new(),
                hand: 0,
            }),
            hasher: RandomState::new(),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics,
        }
    }

    /// `(hits, misses, evictions)` since the cache was created.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Entries currently cached.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// The value cached for `key`; on a miss computes it with `make`
    /// outside the lock, caches it and returns it.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        let hash = self.hasher.hash_one(key);
        if let Some(value) = self.lookup(hash, key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.inc();
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let value = make();
        let slot = Slot {
            hash,
            key: key.clone(),
            value: value.clone(),
            referenced: false,
        };
        let (evicted, entries) = {
            let mut ring = self.ring.lock();
            let evicted = ring.insert(slot, self.cap);
            (evicted, ring.slots.len())
        };
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.metrics.evictions.inc();
        }
        self.metrics.entries.set(entries as f64);
        value
    }

    fn lookup(&self, hash: u64, key: &K) -> Option<V> {
        let mut ring = self.ring.lock();
        let i = *ring.index.get(&hash)?;
        let slot = &mut ring.slots[i];
        if slot.key != *key {
            return None;
        }
        slot.referenced = true;
        Some(slot.value.clone())
    }
}

impl ClockCache<Mask, Arc<[DecomposedGroup]>> {
    /// An empty mask → decomposition cache of [`DECOMP_CACHE_CAP`] masks,
    /// reporting through `metrics`.
    pub fn decompositions(metrics: CacheMetrics) -> Self {
        Self::new(DECOMP_CACHE_CAP, metrics)
    }

    /// `mask`'s decomposition against `hier`: cached, or decomposed and
    /// cached on a miss.
    pub fn decomposition(&self, hier: &Hierarchy, mask: &Mask) -> Arc<[DecomposedGroup]> {
        self.get_or_insert_with(mask, || decompose(hier, mask).into())
    }
}

impl<K, V> Ring<K, V> {
    /// Stores `slot`, returning whether an entry was evicted for it.
    fn insert(&mut self, slot: Slot<K, V>, cap: usize) -> bool {
        if let Some(&i) = self.index.get(&slot.hash) {
            // the same key (a concurrent miss) or a hash collision:
            // overwrite its slot in place
            self.slots[i] = slot;
            return false;
        }
        if self.slots.len() < cap {
            self.index.insert(slot.hash, self.slots.len());
            self.slots.push(slot);
            return false;
        }
        let n = self.slots.len();
        while std::mem::take(&mut self.slots[self.hand].referenced) {
            self.hand = (self.hand + 1) % n;
        }
        let victim = self.hand;
        self.index.remove(&self.slots[victim].hash);
        self.index.insert(slot.hash, victim);
        self.slots[victim] = slot;
        self.hand = (victim + 1) % n;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handles registered nowhere, so tests never touch the global
    /// registry.
    fn detached() -> CacheMetrics {
        CacheMetrics {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            entries: Arc::new(Gauge::new()),
        }
    }

    fn cache(cap: usize) -> ClockCache<u32, u32> {
        ClockCache::new(cap, detached())
    }

    #[test]
    fn hits_return_the_cached_value_without_recomputing() {
        let c = cache(4);
        assert_eq!(c.get_or_insert_with(&7, || 70), 70);
        assert_eq!(c.get_or_insert_with(&7, || unreachable!("must hit")), 70);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn size_stays_at_capacity() {
        let c = cache(8);
        for round in 0..3 {
            for k in 0..100u32 {
                c.get_or_insert_with(&k, || k + round);
                assert!(c.len() <= 8, "cache grew past its cap: {}", c.len());
            }
        }
        assert_eq!(c.len(), 8);
        // a cyclic scan larger than the cap never hits, and every miss
        // past the first eight evicts
        assert_eq!(c.stats(), (0, 300, 292));
    }

    #[test]
    fn a_re_referenced_entry_survives_one_sweep() {
        let c = cache(3);
        for k in [1u32, 2, 3] {
            c.get_or_insert_with(&k, || k);
        }
        // touch 1: the hand passes it over once and evicts 2 instead
        c.get_or_insert_with(&1, || unreachable!("must hit"));
        c.get_or_insert_with(&4, || 4);
        assert_eq!(c.get_or_insert_with(&1, || unreachable!("1 survived")), 1);
        assert_eq!(c.get_or_insert_with(&3, || unreachable!("3 survived")), 3);
        assert_eq!(c.get_or_insert_with(&2, || 20), 20, "2 was the victim");
        assert_eq!(c.stats().2, 2);
    }

    #[test]
    fn metrics_move_in_lockstep_with_stats() {
        let metrics = detached();
        let c: ClockCache<u32, u32> = ClockCache::new(2, metrics.clone());
        for k in [1u32, 1, 2, 3, 3] {
            c.get_or_insert_with(&k, || k);
        }
        let (h, m, e) = c.stats();
        assert_eq!(
            (
                metrics.hits.get(),
                metrics.misses.get(),
                metrics.evictions.get()
            ),
            (h, m, e)
        );
        assert_eq!((h, m, e), (2, 3, 1));
        assert_eq!(metrics.entries.get(), 2.0);
    }
}
