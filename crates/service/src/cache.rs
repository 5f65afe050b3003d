//! The solution cache: a sharded, mutex-per-shard LRU keyed by the
//! canonical content address of a (config, solver) pair
//! (see [`lt_core::wire::canonical_solve_key`]).
//!
//! Identical solve requests are common in serving (dashboards refreshing
//! the same design point, sweeps sharing corner configs), and an MVA solve
//! is pure — same key, same report — so caching is sound. Sharding keeps
//! lock hold times short under concurrent handlers: a key hashes (FNV-1a)
//! to one of [`SHARDS`] independent `Mutex<HashMap>`s, so two handlers
//! only contend when their keys collide on a shard.
//!
//! Eviction is LRU per shard, tracked with a monotone use tick; the
//! O(shard-size) scan on eviction is deliberate — shards are small
//! (capacity / 16) and the scan avoids the linked-list bookkeeping a
//! textbook LRU needs under a mutex.

use crate::metrics::Counter;
use crate::sync::lock_ok;
use lt_core::json::JsonValue;
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independent shards.
pub const SHARDS: usize = 16;

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    tick: u64,
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// A sharded LRU mapping canonical solve keys to cached values.
pub struct SolveCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
    /// Lookups that found a live entry.
    pub(crate) hits: Counter,
    /// Lookups that missed.
    pub(crate) misses: Counter,
    /// Entries inserted.
    pub(crate) insertions: Counter,
    /// Entries evicted to make room.
    pub(crate) evictions: Counter,
}

/// FNV-1a, the shard selector (stable, dependency-free).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl<V: Clone> SolveCache<V> {
    /// A cache of about `capacity` entries: each shard holds
    /// `ceil(capacity / SHARDS)`, so the bound is rounded up to a
    /// multiple of the shard count (see [`Self::capacity`]); a zero
    /// capacity disables caching.
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: Counter::default(),
            misses: Counter::default(),
            insertions: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// The most entries the cache can hold: the requested capacity
    /// rounded up to a whole number of entries per shard.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(fnv1a(key) as usize) % SHARDS]
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = lock_ok(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.inc();
                Some(entry.value.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert (or refresh) a key, evicting the least-recently-used entry
    /// of its shard if the shard is full. No-op when capacity is zero.
    pub fn insert(&self, key: String, value: V) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = lock_ok(self.shard(&key));
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                self.evictions.inc();
            }
        }
        self.insertions.inc();
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Current number of live entries (sums shard sizes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_ok(s).map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `cache` object of the `/metrics` document.
    pub fn metrics_doc(&self) -> JsonValue {
        JsonValue::object(vec![
            ("hits", (&self.hits).into()),
            ("misses", (&self.misses).into()),
            ("insertions", (&self.insertions).into()),
            ("evictions", (&self.evictions).into()),
            ("entries", self.len().into()),
            ("capacity", self.capacity().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn miss_then_hit() {
        let cache: SolveCache<u32> = SolveCache::new(8);
        assert_eq!(cache.get("k"), None);
        cache.insert("k".into(), 7);
        assert_eq!(cache.get("k"), Some(7));
        let counts = (cache.hits.get(), cache.misses.get(), cache.insertions.get());
        assert_eq!((counts, cache.len()), ((1, 1, 1), 1));
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // Capacity 0 rounds to 1 per shard... use per-shard capacity 1 by
        // asking for SHARDS entries total, then overfill one shard.
        let cache: SolveCache<u32> = SolveCache::new(SHARDS);
        // Find three keys that land on the same shard.
        let mut same: Vec<String> = Vec::new();
        let target = (fnv1a("seed") as usize) % SHARDS;
        let mut i = 0;
        while same.len() < 3 {
            let k = format!("key-{i}");
            if (fnv1a(&k) as usize) % SHARDS == target {
                same.push(k);
            }
            i += 1;
        }
        cache.insert(same[0].clone(), 0);
        cache.insert(same[1].clone(), 1); // evicts same[0] (shard cap 1)
        assert_eq!(cache.get(&same[0]), None);
        assert_eq!(cache.get(&same[1]), Some(1));
        cache.insert(same[2].clone(), 2); // evicts same[1]
        assert_eq!(cache.get(&same[1]), None);
        assert_eq!(cache.get(&same[2]), Some(2));
        assert_eq!(cache.evictions.get(), 2);
    }

    #[test]
    fn recency_is_refreshed_by_get() {
        let cache: SolveCache<u32> = SolveCache::new(SHARDS * 2);
        let target = 3usize;
        let mut same: Vec<String> = Vec::new();
        let mut i = 0;
        while same.len() < 3 {
            let k = format!("r{i}");
            if (fnv1a(&k) as usize) % SHARDS == target {
                same.push(k);
            }
            i += 1;
        }
        cache.insert(same[0].clone(), 0);
        cache.insert(same[1].clone(), 1);
        // Touch same[0] so same[1] is now the LRU entry.
        assert_eq!(cache.get(&same[0]), Some(0));
        cache.insert(same[2].clone(), 2);
        assert_eq!(cache.get(&same[0]), Some(0), "recently used survives");
        assert_eq!(cache.get(&same[1]), None, "LRU entry evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: SolveCache<u32> = SolveCache::new(0);
        cache.insert("k".into(), 1);
        assert_eq!(cache.get("k"), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn reinserting_same_key_does_not_grow_or_evict() {
        let cache: SolveCache<u32> = SolveCache::new(SHARDS);
        cache.insert("a".into(), 1);
        cache.insert("a".into(), 2);
        assert_eq!(cache.get("a"), Some(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions.get(), 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<SolveCache<usize>> = Arc::new(SolveCache::new(256));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", i % 50);
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, (i % 50) * 10, "thread {t}");
                        } else {
                            cache.insert(key, (i % 50) * 10);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.hits.get() > 0 && cache.insertions.get() > 0);
        assert!(cache.len() <= 256);
    }

    #[test]
    fn metrics_report_the_bound_the_cache_actually_keeps() {
        // 100 does not divide into 16 shards: each shard keeps 7, so the
        // cache holds up to 112 entries and must say so.
        let cache: SolveCache<u32> = SolveCache::new(100);
        for i in 0..1_000 {
            cache.insert(format!("k{i}"), i);
        }
        let doc = cache.metrics_doc();
        let field = |name: &str| doc.get(name).and_then(|v| v.as_u64()).unwrap();
        assert!(
            field("entries") <= field("capacity"),
            "entries {} > capacity {}",
            field("entries"),
            field("capacity")
        );
        assert_eq!(field("capacity"), 112);
        assert_eq!(SolveCache::<u32>::new(1).capacity(), SHARDS);
        assert_eq!(SolveCache::<u32>::new(0).capacity(), 0);
    }
}
