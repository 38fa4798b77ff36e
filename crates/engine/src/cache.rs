//! Map-output caching across jobs.
//!
//! `textmr-serve` admits repeated jobs over the same corpus; when a map
//! task's `(split, map_fn, config)` key was computed before, re-running it
//! buys nothing. This module defines the engine-side hook: a
//! [`MapOutputCache`] installed via [`MapCacheConfig`] on
//! [`JobConfig`] is consulted once per map
//! task, before the attempt loop. A hit skips execution entirely — the
//! cached partition blobs are rematerialized into the attempt's fresh
//! spill directory (a [`SpillFile`] deletes its backing file on drop, so
//! cached outputs live in memory as raw partition bytes) and the attempt
//! is charged a flat deterministic virtual lookup cost instead of its
//! map-pipeline duration. A miss runs the task as usual; the driver
//! offers the finished output back to the cache *sequentially in task-id
//! order* after the parallel map wave, so the cache's internal queue
//! state — and therefore the hit/miss sequence of every later job — is a
//! deterministic function of the job sequence, never of worker-pool
//! timing.
//!
//! The engine knows nothing about eviction: policy (the S3-FIFO
//! small/main/ghost rotation, byte budgets) lives in the `textmr-serve`
//! crate behind the trait. Keys are opaque strings; the engine composes
//! them from the caller's prefix (which must encode the map function and
//! every config knob that changes map output: reducer count, combiner,
//! filter, compression) plus the round, task id, and a content digest of
//! the split, so two jobs share an entry only when their map work is
//! byte-identical.

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::cluster::JobConfig;
use crate::io::input::InputSplit;
use crate::io::spill_file::SpillFile;
use crate::metrics::{Op, TaskProfile, VNanos};
use crate::task::map_task::MapOutput;
use crate::trace::{IdleKind, LaneBuilder, LaneRole, SpanKind, TaskTrace};

/// One partition of a cached map output: the raw bytes exactly as the
/// spill file stored them, plus the record count the partition index
/// carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedPartition {
    /// Partition (reducer) index.
    pub part: usize,
    /// Raw partition bytes (framed iff the output was framed).
    pub bytes: Vec<u8>,
    /// Records in the partition.
    pub records: u64,
}

/// A complete cached map output: everything needed to rematerialize the
/// attempt's spill file and reconstruct a truthful (data-side) profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedMapOutput {
    /// Partition blobs in ascending partition order.
    pub partitions: Vec<CachedPartition>,
    /// Whether the original output's partitions were framed runs.
    pub framed: bool,
    /// Input records the original run consumed.
    pub input_records: u64,
    /// Records the original run emitted (before combining).
    pub emitted_records: u64,
    /// Records the original run's frequency buffer absorbed.
    pub freq_absorbed_records: u64,
    /// Final output bytes of the original run.
    pub output_bytes: u64,
}

impl CachedMapOutput {
    /// Capture a finished map task's output for caching: read every
    /// partition back out of the spill file while it still exists.
    pub fn capture(out: &MapOutput, prof: &TaskProfile) -> io::Result<CachedMapOutput> {
        let mut partitions = Vec::with_capacity(out.file.index().len());
        for pi in out.file.index() {
            partitions.push(CachedPartition {
                part: pi.part,
                bytes: out.file.read_partition(pi.part)?,
                records: pi.records,
            });
        }
        Ok(CachedMapOutput {
            partitions,
            framed: out.framed,
            input_records: prof.input_records,
            emitted_records: prof.emitted_records,
            freq_absorbed_records: prof.freq_absorbed_records,
            output_bytes: prof.output_bytes,
        })
    }

    /// Total payload bytes — what a byte-budgeted cache charges the entry.
    pub fn payload_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.bytes.len() as u64).sum()
    }

    /// Rematerialize the cached output as a fresh spill file at `path` and
    /// build the hit's profile: the attempt's virtual duration is the flat
    /// `lookup_cost_ns` (shown on the map lane as a single read span when
    /// tracing, so the trace ↔ metrics invariants hold), while the
    /// data-side counters replay the original run's.
    pub fn materialize(
        &self,
        path: &Path,
        node: usize,
        lookup_cost_ns: VNanos,
        trace: bool,
    ) -> io::Result<(MapOutput, TaskProfile)> {
        let cost = lookup_cost_ns.max(1);
        let mut w = SpillFile::create(path.to_path_buf())?;
        for p in &self.partitions {
            w.write_raw_partition(p.part, &p.bytes, p.records)?;
        }
        let file = w.finish()?;
        let mut prof = TaskProfile {
            virtual_duration: cost,
            input_records: self.input_records,
            emitted_records: self.emitted_records,
            freq_absorbed_records: self.freq_absorbed_records,
            output_bytes: self.output_bytes,
            ..TaskProfile::default()
        };
        prof.ops.add_nanos(Op::Read, cost);
        if trace {
            let mut map = LaneBuilder::new(LaneRole::Map);
            map.push(cost, SpanKind::Op(Op::Read));
            let mut support = LaneBuilder::new(LaneRole::Support);
            support.pad_to(cost, IdleKind::Done);
            prof.trace = Some(Box::new(TaskTrace {
                lanes: vec![map.finish(), support.finish()],
            }));
        }
        Ok((
            MapOutput {
                file,
                node,
                framed: self.framed,
            },
            prof,
        ))
    }
}

/// The pluggable cache itself. Implementations must be thread-safe: `get`
/// is called from the parallel map wave (at most once per key per job, so
/// per-key state updates commute), while `put` is only ever called from
/// the driver thread, sequentially in task-id order.
pub trait MapOutputCache: Send + Sync {
    /// Look up `key`, returning the cached output on a hit.
    fn get(&self, key: &str) -> Option<Arc<CachedMapOutput>>;

    /// Offer a freshly computed output. Implementations decide admission
    /// and eviction; re-offering a resident key must be a no-op.
    fn put(&self, key: &str, value: Arc<CachedMapOutput>);
}

/// Cache installation on a [`JobConfig`].
#[derive(Clone)]
pub struct MapCacheConfig {
    /// The shared cache.
    pub cache: Arc<dyn MapOutputCache>,
    /// Caller-chosen prefix encoding the map function and every
    /// output-affecting config knob; the engine appends round, task, and
    /// split digest.
    pub key_prefix: String,
    /// Flat deterministic virtual cost charged per hit.
    pub lookup_cost_ns: VNanos,
}

impl std::fmt::Debug for MapCacheConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapCacheConfig")
            .field("key_prefix", &self.key_prefix)
            .field("lookup_cost_ns", &self.lookup_cost_ns)
            .finish_non_exhaustive()
    }
}

impl JobConfig {
    /// Convenience: install a map-output cache.
    pub fn with_map_cache(mut self, cache: MapCacheConfig) -> Self {
        self.map_cache = Some(cache);
        self
    }
}

/// Content digest of a split: FNV-1a over the split's byte range plus its
/// framing and source tags (the home node is placement, not content — two
/// replicas of the same block must share a cache entry). Disk-backed
/// splits are digested through a bounded chunk window, never
/// materialized; identical content digests identically on either backing.
pub fn split_digest(split: &InputSplit) -> u64 {
    // Seed with the FNV offset basis, then stream the range.
    let mut h = split.digest_content(0xcbf2_9ce4_8422_2325);
    h ^= u64::from(split.source) | (u64::from(split.framed) << 8);
    h.wrapping_mul(0x100_0000_01b3)
}

/// The full cache key for one map task.
pub fn map_cache_key(prefix: &str, round: usize, task: usize, split: &InputSplit) -> String {
    format!("{prefix}|rd{round}|t{task}|s{:016x}", split_digest(split))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(bytes: &[u8]) -> InputSplit {
        InputSplit {
            data: crate::io::input::SplitBytes::Mem(Arc::new(bytes.to_vec())),
            start: 0,
            end: bytes.len(),
            home_node: 0,
            source: 0,
            framed: false,
        }
    }

    #[test]
    fn digest_tracks_content_not_placement() {
        let a = split(b"hello world\n");
        let mut b = split(b"hello world\n");
        b.home_node = 3;
        assert_eq!(split_digest(&a), split_digest(&b));
        let c = split(b"hello there\n");
        assert_ne!(split_digest(&a), split_digest(&c));
        let mut d = split(b"hello world\n");
        d.framed = true;
        assert_ne!(split_digest(&a), split_digest(&d));
    }

    #[test]
    fn materialized_output_round_trips_partitions() {
        let cached = CachedMapOutput {
            partitions: vec![
                CachedPartition {
                    part: 0,
                    bytes: b"aaaa".to_vec(),
                    records: 2,
                },
                CachedPartition {
                    part: 2,
                    bytes: b"cc".to_vec(),
                    records: 1,
                },
            ],
            framed: false,
            input_records: 10,
            emitted_records: 12,
            freq_absorbed_records: 0,
            output_bytes: 6,
        };
        assert_eq!(cached.payload_bytes(), 6);
        let dir = std::env::temp_dir().join(format!("textmr-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (out, prof) = cached
            .materialize(&dir.join("m.spill"), 1, 500, true)
            .unwrap();
        assert_eq!(out.node, 1);
        assert_eq!(out.file.read_partition(0).unwrap(), b"aaaa");
        assert_eq!(out.file.read_partition(1).unwrap(), b"");
        assert_eq!(out.file.read_partition(2).unwrap(), b"cc");
        assert_eq!(prof.virtual_duration, 500);
        assert_eq!(prof.ops.get(Op::Read), 500);
        assert_eq!(prof.input_records, 10);
        let t = prof.trace.as_ref().unwrap();
        t.check_tiles(500).unwrap();
        drop(out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
