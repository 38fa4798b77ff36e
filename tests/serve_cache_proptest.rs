//! Property tests for the S3-FIFO map-output cache: for *any* seeded
//! op sequence the byte budget is never exceeded after any operation,
//! the ghost queue stays within its key capacity, reference counters
//! saturate at [`FREQ_CAP`], and — because hits never reorder queues —
//! replaying the same sequence on a fresh cache reproduces the exact
//! hit/miss decision string and final counters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use textmr_engine::cache::{CachedMapOutput, CachedPartition, MapOutputCache};
use textmr_serve::cache::{S3FifoCache, FREQ_CAP};

fn payload(n: usize) -> Arc<CachedMapOutput> {
    Arc::new(CachedMapOutput {
        partitions: vec![CachedPartition {
            part: 0,
            bytes: vec![0x5au8; n],
            records: 1,
        }],
        framed: false,
        input_records: 1,
        emitted_records: 1,
        freq_absorbed_records: 0,
        output_bytes: n as u64,
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u8),
    /// Key and payload size in bytes.
    Put(u8, u16),
}

/// The op sequence is itself a pure function of the seed, so a failing
/// case is reproducible from the printed inputs alone.
fn ops_for(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..300)
        .map(|_| {
            let key = rng.gen_range(0..24u8);
            if rng.gen::<f64>() < 0.5 {
                Op::Get(key)
            } else {
                Op::Put(key, rng.gen_range(0..300u16))
            }
        })
        .collect()
}

/// Drive `ops`, asserting the structural invariants after every single
/// operation; returns the hit/miss decision string for replay checks.
fn drive(cache: &S3FifoCache, ops: &[Op]) -> Vec<bool> {
    let mut decisions = Vec::new();
    for op in ops {
        let touched = match *op {
            Op::Get(k) => {
                let key = format!("k{k}");
                decisions.push(cache.get(&key).is_some());
                key
            }
            Op::Put(k, n) => {
                let key = format!("k{k}");
                cache.put(&key, payload(n as usize));
                key
            }
        };
        let s = cache.stats();
        assert!(
            s.resident_bytes <= cache.budget_bytes(),
            "budget exceeded after {op:?}: {} > {}",
            s.resident_bytes,
            cache.budget_bytes()
        );
        assert!(
            s.ghost_entries <= cache.ghost_capacity() as u64,
            "ghost overflow after {op:?}"
        );
        if let Some(f) = cache.freq_of(&touched) {
            assert!(f <= FREQ_CAP, "freq {f} over cap after {op:?}");
        }
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Invariants hold after every op, for any seed, across budget and
    /// ghost-capacity corners (including a zero-capacity ghost queue).
    #[test]
    fn budget_ghost_and_freq_invariants_hold(seed in any::<u64>()) {
        let budget = 128 + seed % 512;
        let ghost_cap = ((seed >> 16) % 16) as usize;
        let cache = S3FifoCache::with_ghost_capacity(budget, ghost_cap);
        drive(&cache, &ops_for(seed));
    }

    /// Two fresh caches fed the identical sequence make identical
    /// decisions and end in identical states: eviction depends only on
    /// the insertion order, never on lookup timing.
    #[test]
    fn hit_miss_sequence_replays_identically(seed in any::<u64>()) {
        let budget = 128 + seed % 512;
        let ghost_cap = ((seed >> 16) % 16) as usize;
        let ops = ops_for(seed);
        let a = S3FifoCache::with_ghost_capacity(budget, ghost_cap);
        let b = S3FifoCache::with_ghost_capacity(budget, ghost_cap);
        let da = drive(&a, &ops);
        let db = drive(&b, &ops);
        prop_assert_eq!(da, db);
        prop_assert_eq!(a.stats(), b.stats());
    }
}
