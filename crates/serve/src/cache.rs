//! Byte-budgeted S3-FIFO map-output cache.
//!
//! The eviction policy is S3-FIFO (Yang et al., "FIFO queues are all you
//! need for cache eviction", SOSP 2023): three plain FIFO queues instead
//! of an LRU list.
//!
//! * **Small** — a probationary queue sized at 10 % of the byte budget.
//!   New keys enter here. One-hit-wonders (the bulk of a Zipfian job
//!   stream's unique map outputs) flow through and fall out without ever
//!   touching the main queue.
//! * **Main** — the protected queue holding the other 90 %. An entry
//!   evicted from small is *promoted* here when it was re-referenced while
//!   probationary (`freq > 1`); otherwise it is demoted to a ghost.
//!   Main evicts lazily: a head entry with `freq > 0` is reinserted at the
//!   tail with its frequency decayed (FIFO-Reinsertion), so repeatedly
//!   hit entries survive without any per-hit reordering.
//! * **Ghost** — a bounded FIFO of evicted *keys* (no payload). A `put`
//!   whose key is still ghosted readmits the entry directly into main:
//!   the key proved it gets re-referenced at a horizon longer than the
//!   small queue.
//!
//! Hits only saturate a 2-bit frequency counter (capped at
//! [`FREQ_CAP`]); they never move an entry between or within queues.
//! That makes the queue state — and therefore every later hit/miss
//! decision — a pure function of the *insertion* sequence, which the
//! engine drives sequentially in task-id order (see
//! [`textmr_engine::cache::MapOutputCache`]). Concurrent `get`s from the
//! map wave commute: each map task consults a distinct key exactly once
//! per wave, so per-key counter updates cannot race each other.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use textmr_engine::cache::{CachedMapOutput, MapOutputCache};

/// Saturation cap on the per-entry reference counter (2 bits, as in the
/// S3-FIFO paper).
pub const FREQ_CAP: u8 = 3;

/// Which resident queue an entry currently sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queue {
    Small,
    Main,
}

#[derive(Debug)]
enum Slot {
    /// Payload-bearing entry in small or main.
    Resident {
        value: Arc<CachedMapOutput>,
        bytes: u64,
        freq: u8,
        queue: Queue,
    },
    /// Evicted key remembered by the ghost queue.
    Ghost,
}

/// Counter snapshot; all counters are cumulative since construction
/// except the `resident_*` / `ghost_entries` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get`s that found a resident entry.
    pub hits: u64,
    /// `get`s that found nothing (or only a ghost).
    pub misses: u64,
    /// `put`s admitted as new resident entries.
    pub inserts: u64,
    /// `put`s that readmitted a ghosted key straight into main.
    pub ghost_readmits: u64,
    /// `put`s dropped because the payload alone exceeds the budget.
    pub rejected_oversize: u64,
    /// Entries whose payload left residency (demotion to ghost or final
    /// eviction from main).
    pub evictions: u64,
    /// Gauge: resident payload bytes (small + main).
    pub resident_bytes: u64,
    /// Gauge: resident entry count (small + main).
    pub resident_entries: u64,
    /// Gauge: ghost keys currently remembered.
    pub ghost_entries: u64,
}

#[derive(Debug)]
struct Inner {
    map: BTreeMap<String, Slot>,
    small: VecDeque<String>,
    main: VecDeque<String>,
    ghost: VecDeque<String>,
    small_bytes: u64,
    main_bytes: u64,
    stats: CacheStats,
}

/// The shared cache: one instance serves every job `textmr-serve` admits.
#[derive(Debug)]
pub struct S3FifoCache {
    budget_bytes: u64,
    small_budget: u64,
    ghost_capacity: usize,
    inner: Mutex<Inner>,
}

impl S3FifoCache {
    /// A cache holding at most `budget_bytes` of payload, with the small
    /// queue at 10 % of the budget and a 1024-key ghost queue.
    pub fn new(budget_bytes: u64) -> S3FifoCache {
        S3FifoCache::with_ghost_capacity(budget_bytes, 1024)
    }

    /// [`S3FifoCache::new`] with an explicit bound on remembered ghost
    /// keys.
    pub fn with_ghost_capacity(budget_bytes: u64, ghost_capacity: usize) -> S3FifoCache {
        S3FifoCache {
            budget_bytes,
            small_budget: budget_bytes / 10,
            ghost_capacity,
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                small: VecDeque::new(),
                main: VecDeque::new(),
                ghost: VecDeque::new(),
                small_bytes: 0,
                main_bytes: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured payload budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The ghost queue's key capacity.
    pub fn ghost_capacity(&self) -> usize {
        self.ghost_capacity
    }

    /// Diagnostic: the saturating reference counter of a resident key
    /// (`None` for absent or ghosted keys). Exposed so property tests can
    /// pin the [`FREQ_CAP`] invariant; not part of the caching contract.
    pub fn freq_of(&self, key: &str) -> Option<u8> {
        let inner = self.inner.lock().unwrap();
        match inner.map.get(key) {
            Some(Slot::Resident { freq, .. }) => Some(*freq),
            _ => None,
        }
    }

    /// Snapshot the counters and gauges.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        let mut s = inner.stats;
        s.resident_bytes = inner.small_bytes + inner.main_bytes;
        s.resident_entries = (inner.small.len() + inner.main.len()) as u64;
        s.ghost_entries = inner.ghost.len() as u64;
        s
    }
}

impl Inner {
    /// Remember `key` in the ghost queue, forgetting the oldest ghost
    /// when the queue is full.
    fn push_ghost(&mut self, key: String, capacity: usize) {
        if capacity == 0 {
            self.map.remove(&key);
            return;
        }
        while self.ghost.len() >= capacity {
            if let Some(old) = self.ghost.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key.clone(), Slot::Ghost);
        self.ghost.push_back(key);
    }

    /// Evict the small queue's head: promote it to main when it was
    /// re-referenced while probationary, demote it to a ghost otherwise.
    fn evict_small(&mut self, ghost_capacity: usize) {
        let Some(key) = self.small.pop_front() else {
            return;
        };
        let Some(Slot::Resident { bytes, freq, .. }) = self.map.get(&key) else {
            unreachable!("small queue member must be resident");
        };
        let (bytes, freq) = (*bytes, *freq);
        self.small_bytes -= bytes;
        if freq > 1 {
            if let Some(Slot::Resident { queue, freq, .. }) = self.map.get_mut(&key) {
                *queue = Queue::Main;
                *freq = 0;
            }
            self.main_bytes += bytes;
            self.main.push_back(key);
        } else {
            self.stats.evictions += 1;
            self.push_ghost(key, ghost_capacity);
        }
    }

    /// Evict from the main queue's head, reinserting still-referenced
    /// entries with decayed frequency (FIFO-Reinsertion). Terminates:
    /// every reinsertion strictly decreases a frequency counter.
    fn evict_main(&mut self) {
        while let Some(key) = self.main.pop_front() {
            let Some(Slot::Resident { bytes, freq, .. }) = self.map.get_mut(&key) else {
                unreachable!("main queue member must be resident");
            };
            if *freq > 0 {
                *freq -= 1;
                self.main.push_back(key);
                continue;
            }
            self.main_bytes -= *bytes;
            self.stats.evictions += 1;
            self.map.remove(&key);
            return;
        }
    }

    /// Shrink until the resident payload fits the budget again.
    fn enforce_budget(&mut self, budget: u64, small_budget: u64, ghost_capacity: usize) {
        while self.small_bytes + self.main_bytes > budget {
            if self.small_bytes > small_budget || self.main.is_empty() {
                self.evict_small(ghost_capacity);
            } else {
                self.evict_main();
            }
        }
    }
}

impl MapOutputCache for S3FifoCache {
    fn get(&self, key: &str) -> Option<Arc<CachedMapOutput>> {
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get_mut(key) {
            Some(Slot::Resident { value, freq, .. }) => {
                *freq = (*freq + 1).min(FREQ_CAP);
                let value = Arc::clone(value);
                inner.stats.hits += 1;
                Some(value)
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn put(&self, key: &str, value: Arc<CachedMapOutput>) {
        let bytes = value.payload_bytes();
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(key) {
            // Re-offering a resident key is a no-op (trait contract).
            Some(Slot::Resident { .. }) => return,
            Some(Slot::Ghost) => {
                // The key was evicted recently enough to still be
                // remembered: it re-references at a horizon the small
                // queue cannot see, so it skips probation.
                if bytes > self.budget_bytes {
                    inner.stats.rejected_oversize += 1;
                    return;
                }
                inner.ghost.retain(|k| k != key);
                inner.map.insert(
                    key.to_string(),
                    Slot::Resident {
                        value,
                        bytes,
                        freq: 0,
                        queue: Queue::Main,
                    },
                );
                inner.main_bytes += bytes;
                inner.main.push_back(key.to_string());
                inner.stats.ghost_readmits += 1;
            }
            None => {
                if bytes > self.budget_bytes {
                    inner.stats.rejected_oversize += 1;
                    return;
                }
                inner.map.insert(
                    key.to_string(),
                    Slot::Resident {
                        value,
                        bytes,
                        freq: 0,
                        queue: Queue::Small,
                    },
                );
                inner.small_bytes += bytes;
                inner.small.push_back(key.to_string());
                inner.stats.inserts += 1;
            }
        }
        inner.enforce_budget(self.budget_bytes, self.small_budget, self.ghost_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Arc<CachedMapOutput> {
        Arc::new(CachedMapOutput {
            partitions: vec![textmr_engine::cache::CachedPartition {
                part: 0,
                bytes: vec![0xabu8; n],
                records: 1,
            }],
            framed: false,
            input_records: 1,
            emitted_records: 1,
            freq_absorbed_records: 0,
            output_bytes: n as u64,
        })
    }

    #[test]
    fn one_hit_wonders_wash_through_small_without_touching_main() {
        let cache = S3FifoCache::new(100);
        for i in 0..30 {
            cache.put(&format!("k{i}"), payload(10));
        }
        let s = cache.stats();
        assert!(s.resident_bytes <= 100);
        // Nothing was ever re-referenced, so nothing was promoted: the
        // survivors all sit in small/main per the byte split, and the
        // overflow became ghosts (bounded) or fell off.
        assert_eq!(s.hits, 0);
        assert!(s.evictions >= 20);
        assert!(s.ghost_entries <= cache.ghost_capacity() as u64);
    }

    #[test]
    fn referenced_probationer_survives_eviction_via_main() {
        let cache = S3FifoCache::new(100);
        cache.put("hot", payload(10));
        // Two hits while probationary → freq 2 > 1 → promote on evict.
        assert!(cache.get("hot").is_some());
        assert!(cache.get("hot").is_some());
        for i in 0..20 {
            cache.put(&format!("cold{i}"), payload(10));
        }
        assert!(cache.get("hot").is_some(), "hot entry must be promoted");
        assert!(cache.stats().resident_bytes <= 100);
    }

    #[test]
    fn ghosted_key_readmits_into_main() {
        let cache = S3FifoCache::new(100);
        cache.put("seen", payload(10));
        for i in 0..20 {
            cache.put(&format!("cold{i}"), payload(10));
        }
        assert!(cache.get("seen").is_none(), "must have been demoted");
        let before = cache.stats();
        cache.put("seen", payload(10));
        let after = cache.stats();
        assert_eq!(after.ghost_readmits, before.ghost_readmits + 1);
        assert!(cache.get("seen").is_some());
    }

    #[test]
    fn oversize_payloads_are_rejected_not_looped() {
        let cache = S3FifoCache::new(50);
        cache.put("big", payload(51));
        assert!(cache.get("big").is_none());
        assert_eq!(cache.stats().rejected_oversize, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn reoffering_a_resident_key_is_a_noop() {
        let cache = S3FifoCache::new(100);
        cache.put("k", payload(10));
        let before = cache.stats();
        cache.put("k", payload(10));
        let after = cache.stats();
        assert_eq!(before.inserts, after.inserts);
        assert_eq!(before.resident_bytes, after.resident_bytes);
    }
}
