//! The hot-query result cache: sharded, exact-match, epoch-invalidated.
//!
//! Production ANN traffic is Zipf-skewed over a finite pool of queries
//! (the workload `datasets::queries::zipfian_indices` models), so a
//! large fraction of submissions are *bit-identical* repeats. The engine's
//! purity contract — per-query results are a function of the query alone,
//! at a fixed engine state — makes exact-match caching sound: a cached
//! result is exactly what recomputing would return, bit for bit.
//!
//! "At a fixed engine state" is the load-bearing clause, and it is
//! enforced structurally rather than by invalidation callbacks: the
//! [`CacheKey`] embeds the engine's result-validity
//! [`epoch`](drim_ann::engine::DrimEngine::epoch), so any mutation that
//! could change results bumps the epoch and every previously cached entry
//! simply stops matching. One cache serves one engine, whose `k` and
//! `nprobe` are fixed for its life, so neither is part of the key. Stale
//! entries are garbage, not hazards; [`ResultCache::purge_stale`] reclaims
//! their space when the driver notices an epoch change.
//!
//! Concurrency: the cache is sharded by key hash, each shard behind its
//! own mutex, so producer threads probing at admission time do not
//! serialize against each other or against the driver's inserts. Eviction
//! is per-shard CLOCK (second chance): hits set a reference bit, the
//! clock hand sweeps skipping referenced entries once — an LRU
//! approximation whose hit path is a single bit write, with no list
//! splicing under the lock.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use ann_core::hash::hash_words;
use ann_core::topk::Neighbor;
use rayon::sync::lock_unpoisoned;

/// Hot-query cache sizing. Enabled by setting
/// [`ServeConfig::cache`](crate::ServeConfig::cache) to `Some(..)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total cached results across all shards. Must be at least 1.
    pub capacity: usize,
    /// Mutex shards; probes on distinct shards never contend. Must be at
    /// least 1.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
        }
    }
}

/// Salt folded into every cache-key hash so the key space is disjoint
/// from the other `ann_core::hash` consumers (checksums, trace draws).
const KEY_SALT: u64 = 0xCAC4_E4E7_0000_0000;

/// Exact-match cache key: the query's f32 *bit patterns* plus the
/// engine's result-validity epoch — everything a result of one engine
/// depends on.
///
/// Equality compares the full key (bit patterns included), so hash
/// collisions can never alias two different queries; the precomputed hash
/// only routes to a shard and a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    qbits: Box<[u32]>,
    epoch: u64,
    hash: u64,
}

impl CacheKey {
    /// Build the key for `query` at the engine's result epoch `epoch`.
    pub fn new(query: &[f32], epoch: u64) -> Self {
        let qbits: Box<[u32]> = query.iter().map(|v| v.to_bits()).collect();
        let hash = hash_words(KEY_SALT ^ epoch, qbits.iter().map(|&b| b as u64));
        CacheKey { qbits, epoch, hash }
    }

    /// The engine epoch this key was built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One cached result plus its CLOCK reference bit.
#[derive(Debug)]
struct Entry {
    val: Vec<Neighbor>,
    referenced: bool,
}

/// One mutex shard: a bucket map plus the CLOCK ring over its keys.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Insertion ring the clock hand sweeps; always mirrors `map`'s keys.
    ring: Vec<CacheKey>,
    hand: usize,
    cap: usize,
}

impl Shard {
    /// Insert under the CLOCK policy; returns 1 if an entry was evicted.
    fn insert(&mut self, key: CacheKey, val: Vec<Neighbor>) -> u64 {
        if let Some(e) = self.map.get_mut(&key) {
            e.val = val;
            e.referenced = true;
            return 0;
        }
        if self.map.len() < self.cap {
            self.ring.push(key.clone());
            self.map.insert(
                key,
                Entry {
                    val,
                    referenced: false,
                },
            );
            return 0;
        }
        // Second-chance sweep: clear reference bits until an unreferenced
        // victim is found. Terminates within two laps by construction.
        loop {
            let victim = &self.ring[self.hand];
            let e = self.map.get_mut(victim).expect("ring mirrors map");
            if e.referenced {
                e.referenced = false;
                self.hand = (self.hand + 1) % self.ring.len();
                continue;
            }
            let victim = std::mem::replace(&mut self.ring[self.hand], key.clone());
            self.map.remove(&victim);
            self.map.insert(
                key,
                Entry {
                    val,
                    referenced: false,
                },
            );
            self.hand = (self.hand + 1) % self.ring.len();
            return 1;
        }
    }

    /// Drop every entry not built at `epoch`; returns how many were
    /// dropped.
    fn purge_stale(&mut self, epoch: u64) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, _| k.epoch == epoch);
        if self.map.len() != before {
            self.ring.retain(|k| k.epoch == epoch);
            self.hand = 0;
        }
        (before - self.map.len()) as u64
    }
}

/// The sharded hot-query result cache. See the module docs for the
/// soundness argument; see [`CacheConfig`] for sizing.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
}

impl ResultCache {
    /// Build an empty cache. Capacity is split evenly across shards
    /// (rounded up, so the total never falls below `cfg.capacity`).
    pub fn new(cfg: &CacheConfig) -> Self {
        let per_shard = cfg.capacity.div_ceil(cfg.shards).max(1);
        ResultCache {
            shards: (0..cfg.shards)
                .map(|_| {
                    Mutex::new(Shard {
                        cap: per_shard,
                        ..Shard::default()
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // upper hash bits pick the shard so the choice is independent of
        // the bucket the HashMap derives from the lower bits
        &self.shards[(key.hash >> 32) as usize % self.shards.len()]
    }

    /// Exact-match lookup; a hit marks the entry recently used and clones
    /// the result out (the lock is never held while the caller uses it).
    pub fn get(&self, key: &CacheKey) -> Option<Vec<Neighbor>> {
        let mut shard = lock_unpoisoned(self.shard(key));
        let e = shard.map.get_mut(key)?;
        e.referenced = true;
        Some(e.val.clone())
    }

    /// Insert (or refresh) a result; returns how many entries CLOCK
    /// evicted to make room (0 or 1).
    pub fn insert(&self, key: CacheKey, val: Vec<Neighbor>) -> u64 {
        lock_unpoisoned(self.shard(&key)).insert(key, val)
    }

    /// Drop every entry whose key epoch differs from `epoch`, returning
    /// how many were dropped. Stale entries can never be *served* (their
    /// keys no longer match any lookup), so this is space reclamation,
    /// not a correctness requirement.
    pub fn purge_stale(&self, epoch: u64) -> u64 {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).purge_stale(epoch))
            .sum()
    }

    /// Cached results across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(id: u64) -> Vec<Neighbor> {
        vec![Neighbor {
            id,
            dist: id as f32,
        }]
    }

    fn key(x: f32, epoch: u64) -> CacheKey {
        CacheKey::new(&[x, 2.0 * x], epoch)
    }

    #[test]
    fn exact_match_roundtrip() {
        let cache = ResultCache::new(&CacheConfig::default());
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1.0, 0)), None);
        cache.insert(key(1.0, 0), nb(7));
        assert_eq!(cache.get(&key(1.0, 0)), Some(nb(7)));
        assert_eq!(cache.len(), 1);
        // any differing key component misses
        assert_eq!(cache.get(&key(1.5, 0)), None, "different query bits");
        assert_eq!(cache.get(&key(1.0, 1)), None, "different epoch");
        // -0.0 and +0.0 are distinct bit patterns: exact-match semantics
        cache.insert(CacheKey::new(&[0.0], 0), nb(1));
        assert_eq!(cache.get(&CacheKey::new(&[-0.0], 0)), None);
    }

    #[test]
    fn insert_refreshes_in_place() {
        let cache = ResultCache::new(&CacheConfig {
            capacity: 4,
            shards: 1,
        });
        cache.insert(key(1.0, 0), nb(1));
        cache.insert(key(1.0, 0), nb(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1.0, 0)), Some(nb(2)));
    }

    #[test]
    fn clock_evicts_cold_entries_first() {
        let cache = ResultCache::new(&CacheConfig {
            capacity: 4,
            shards: 1,
        });
        for i in 0..4 {
            assert_eq!(cache.insert(key(i as f32, 0), nb(i)), 0);
        }
        // touch three of the four; the untouched one is the CLOCK victim
        for i in 0..3 {
            assert!(cache.get(&key(i as f32, 0)).is_some());
        }
        assert_eq!(cache.insert(key(9.0, 0), nb(9)), 1, "one eviction");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&key(3.0, 0)), None, "cold entry evicted");
        for i in 0..3 {
            assert!(
                cache.get(&key(i as f32, 0)).is_some(),
                "hot entry {i} survived"
            );
        }
        assert!(cache.get(&key(9.0, 0)).is_some());
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let cfg = CacheConfig {
            capacity: 16,
            shards: 4,
        };
        let cache = ResultCache::new(&cfg);
        let mut evictions = 0;
        for i in 0..500 {
            evictions += cache.insert(key(i as f32, 0), nb(i));
        }
        // per-shard cap is ceil(16/4) = 4, so at most 16 total live
        assert!(cache.len() <= 16, "len {}", cache.len());
        assert!(evictions > 0);
    }

    #[test]
    fn purge_drops_only_stale_epochs() {
        let cache = ResultCache::new(&CacheConfig::default());
        for i in 0..8 {
            cache.insert(key(i as f32, 0), nb(i));
        }
        for i in 0..3 {
            cache.insert(key(i as f32, 1), nb(100 + i));
        }
        assert_eq!(cache.len(), 11);
        assert_eq!(cache.purge_stale(1), 8);
        assert_eq!(cache.len(), 3);
        for i in 0..3 {
            assert_eq!(cache.get(&key(i as f32, 1)), Some(nb(100 + i)));
        }
        // a purged shard keeps evicting correctly afterwards
        let small = ResultCache::new(&CacheConfig {
            capacity: 2,
            shards: 1,
        });
        small.insert(key(1.0, 0), nb(1));
        small.insert(key(2.0, 0), nb(2));
        assert_eq!(small.purge_stale(1), 2);
        small.insert(key(1.0, 1), nb(1));
        small.insert(key(2.0, 1), nb(2));
        small.insert(key(3.0, 1), nb(3));
        assert_eq!(small.len(), 2);
    }
}
