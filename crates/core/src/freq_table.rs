//! Frequency-buffering (paper Section III): the frequent-key combine
//! buffer, with its three-stage lifecycle.
//!
//! 1. **Pre-profile** (~1 % of input records): exact counts feed the
//!    [`ZipfEstimator`]; at the end, α̂ fixes the sampling fraction `s`
//!    via the auto-tuner (unless the caller pinned `s`, as the paper's
//!    experiments do).
//! 2. **Profile** (until `s·N` input records): a [`SpaceSaving`] sketch —
//!    seeded with the pre-profile's exact counts — tracks candidate keys.
//!    All records still take the normal spill path.
//! 3. **Optimize**: the sketch's top-k keys are frozen into a table that
//!    absorbs matching emissions: the keys sorted, indexed by an
//!    open-addressed slot array probed on one `fnv1a` per record. Per key,
//!    values accumulate until the key's space limit, then the user's
//!    `combine()` collapses them in place; if a combined record still does
//!    not fit, it overflows to the normal spill path. At end of input
//!    everything drains, combined, to the spill path, in key order.
//!
//! The table's memory is carved out of the spill buffer (the engine's
//! `filter_budget_fraction`), so total memory is constant — the paper's
//! 30 % split. The per-key limit is `budget / k`, making the whole table's
//! footprint ≤ budget by construction.
//!
//! A [`FrequentKeyRegistry`] lets the
//! node's *designated* task (the lowest task id scheduled on the node —
//! `FilterCtx::node_first_task`) publish its frozen top-k so every other
//! task on the node skips stages 1–2 entirely (Sec. III-B, last
//! paragraph). Non-designated tasks block on the designated outcome; if
//! the designated task never freezes a set, it declines on drop and the
//! waiters profile for themselves. Pinning the publisher (instead of
//! first-to-freeze-wins) makes absorption counts — and hence job
//! signatures — identical at any worker-thread count.

use crate::autotune::{sampling_fraction, TuneBounds};
use crate::registry::FrequentKeyRegistry;
use crate::space_saving::SpaceSaving;
use crate::zipf_estimator::ZipfEstimator;
use std::sync::Arc;
use textmr_engine::codec::{read_bytes, write_bytes};
use textmr_engine::controller::{EmitFilter, EmitFilterFactory, FilterCtx};
use textmr_engine::job::{fnv1a, Emit, Job, ValueCursor, ValueSink};
use textmr_engine::metrics::Stopwatch;

/// Tuning knobs for frequency-buffering.
#[derive(Debug, Clone)]
pub struct FreqBufferConfig {
    /// Number of frequent keys to track (the paper's `k`; 3000 for text,
    /// 10000 for logs).
    pub k: usize,
    /// Fixed sampling fraction `s` over input records; `None` enables the
    /// auto-tuner (Sec. III-C).
    pub sampling_fraction: Option<f64>,
    /// Fraction of input records used for the α-estimation pre-profile.
    pub pre_profile_fraction: f64,
    /// Auto-tuner clamps.
    pub bounds: TuneBounds,
}

impl Default for FreqBufferConfig {
    fn default() -> Self {
        FreqBufferConfig {
            k: 3000,
            sampling_fraction: None,
            pre_profile_fraction: 0.01,
            bounds: TuneBounds::default(),
        }
    }
}

/// Per-key value accumulator: values stored back to back, length-framed,
/// in one growing buffer whose allocation is reused across combines — the
/// hot absorption path performs no per-record allocation. It is also the
/// sink the combiner writes into.
#[derive(Debug, Default)]
struct KeyBuf {
    /// Length-framed values.
    data: Vec<u8>,
    /// Number of framed values in `data`.
    count: u32,
}

impl KeyBuf {
    fn clear(&mut self) {
        self.data.clear();
        self.count = 0;
    }

    /// A cursor over the buffered values, in the order they came.
    fn values(&self) -> FramedValues<'_> {
        FramedValues {
            data: &self.data,
            pos: 0,
        }
    }

    /// Hand every buffered value to `sink` under `key`.
    fn emit_all(&self, key: &[u8], sink: &mut dyn Emit) {
        let mut values = self.values();
        while let Some(v) = values.next() {
            sink.emit(key, v);
        }
    }
}

impl ValueSink for KeyBuf {
    #[inline]
    fn push(&mut self, value: &[u8]) {
        write_bytes(&mut self.data, value);
        self.count += 1;
    }
}

/// A [`ValueCursor`] over length-framed values, lent straight from a
/// [`KeyBuf`].
struct FramedValues<'a> {
    data: &'a [u8],
    pos: usize,
}

impl ValueCursor for FramedValues<'_> {
    #[inline]
    fn next(&mut self) -> Option<&[u8]> {
        read_bytes(self.data, &mut self.pos)
    }
}

/// Run `job`'s combiner over `values` into `out` (cleared first); returns
/// the time spent in the combiner.
fn combine_into(job: &dyn Job, key: &[u8], values: &KeyBuf, out: &mut KeyBuf) -> u64 {
    out.clear();
    let sw = Stopwatch::start();
    job.combine(key, &mut values.values(), out);
    sw.elapsed_ns()
}

/// The frozen keys, sorted and distinct, stored back to back.
struct SortedKeys {
    bytes: Vec<u8>,
    /// Key `i` is `bytes[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
}

impl SortedKeys {
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    #[inline]
    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.bounds[i]..self.bounds[i + 1]]
    }
}

/// One slot of the table's index: the low 32 bits of a key's `fnv1a`
/// and the key's position in [`SortedKeys`] plus one (0: empty).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u32,
    key: u32,
}

/// The frozen frequent-key table (Optimize stage).
///
/// The key set is fixed at freeze, so the table is built once and never
/// grows: the keys are stored sorted (the drain order), and an
/// open-addressed index of at least 2k slots maps a key to its position.
/// A lookup hashes the key once with [`fnv1a`] (the partitioner's
/// function), probes linearly from its [`home_slot`], and compares the
/// stored hash bits before the key bytes.
struct FreqTable {
    keys: SortedKeys,
    /// Key `i`'s buffered values.
    bufs: Vec<KeyBuf>,
    /// A power-of-two number of slots, at least twice the keys.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`, for [`home_slot`].
    shift: u32,
    per_key_limit: usize,
    /// The in-place combine's output, swapped with the key's buffer
    /// afterwards; its allocation is reused by every combine.
    combined: KeyBuf,
}

/// The slot a key with `fnv1a` hash `hash` probes first, of
/// `2^(64 - shift)`. FNV-1a's top bits barely depend on a key's last
/// byte ("cat", "cab" and "car" would share a home), so the hash is
/// spread by a Fibonacci multiply before its top bits are taken.
#[inline]
fn home_slot(hash: u64, shift: u32) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Minimum useful per-key value budget; below this, a key's values are
/// combined/flushed so often the table is pure overhead.
const MIN_PER_KEY_BYTES: usize = 256;

impl FreqTable {
    fn new(keys: &[Box<[u8]>], per_key_limit: usize) -> Self {
        let mut sorted: Vec<&[u8]> = keys.iter().map(|k| &**k).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut bytes = Vec::with_capacity(sorted.iter().map(|k| k.len()).sum());
        let mut bounds = Vec::with_capacity(sorted.len() + 1);
        bounds.push(0);
        let n_slots = (2 * sorted.len()).max(2).next_power_of_two();
        let mut slots = vec![Slot::default(); n_slots];
        let shift = 64 - n_slots.trailing_zeros();
        for (i, key) in sorted.iter().enumerate() {
            bytes.extend_from_slice(key);
            bounds.push(bytes.len());
            let hash = fnv1a(key);
            let mut s = home_slot(hash, shift);
            while slots[s].key != 0 {
                s = (s + 1) & (n_slots - 1);
            }
            // A key count past u32 would need terabytes of budget.
            slots[s] = Slot {
                tag: hash as u32,
                key: (i + 1) as u32,
            };
        }
        FreqTable {
            keys: SortedKeys { bytes, bounds },
            bufs: (0..sorted.len()).map(|_| KeyBuf::default()).collect(),
            slots,
            shift,
            per_key_limit: per_key_limit.max(MIN_PER_KEY_BYTES),
            combined: KeyBuf::default(),
        }
    }

    /// The position of `key` among the frozen keys, if it is one.
    #[inline]
    fn find(&self, key: &[u8]) -> Option<usize> {
        let hash = fnv1a(key);
        let mask = self.slots.len() - 1;
        let mut s = home_slot(hash, self.shift);
        loop {
            let slot = self.slots[s];
            if slot.key == 0 {
                return None;
            }
            let i = slot.key as usize - 1;
            if slot.tag == hash as u32 && self.keys.get(i) == key {
                return Some(i);
            }
            s = (s + 1) & mask;
        }
    }

    /// Key `i`'s values (its bytes are `key`) passed the per-key limit:
    /// combine them in place, and if even the aggregate does not fit
    /// (a storage-intensive combine), overflow them to `sink`. Returns
    /// the time spent in the combiner.
    fn make_room(&mut self, i: usize, key: &[u8], job: &dyn Job, sink: &mut dyn Emit) -> u64 {
        let buf = &mut self.bufs[i];
        let mut combine_ns = 0;
        if buf.count > 1 {
            combine_ns = combine_into(job, key, buf, &mut self.combined);
            std::mem::swap(buf, &mut self.combined);
        }
        if buf.data.len() > self.per_key_limit {
            buf.emit_all(key, sink);
            buf.clear();
        }
        combine_ns
    }

    /// Drain every buffered key to `sink` in key order, each combined when
    /// it holds more than one value. Returns the time spent in the
    /// combiner.
    fn drain(&mut self, job: &dyn Job, sink: &mut dyn Emit) -> u64 {
        let mut combine_ns = 0u64;
        for i in 0..self.keys.len() {
            let key = self.keys.get(i);
            let buf = &self.bufs[i];
            if buf.count > 1 {
                combine_ns =
                    combine_ns.saturating_add(combine_into(job, key, buf, &mut self.combined));
                self.combined.emit_all(key, sink);
            } else {
                buf.emit_all(key, sink);
            }
        }
        combine_ns
    }
}

enum Stage {
    /// The job has no combiner: buffering values per key could never
    /// shrink them, so the filter passes everything through at (near) zero
    /// cost. Hadoop's frequency buffering is likewise only meaningful for
    /// jobs with a combine function.
    Disabled,
    PreProfile {
        est: ZipfEstimator,
    },
    Profile {
        sketch: SpaceSaving,
        target_inputs: u64,
    },
    Optimize(FreqTable),
}

/// The frequency-buffering [`EmitFilter`]. One instance per map task.
pub struct FrequencyBuffer {
    job: Arc<dyn Job>,
    cfg: FreqBufferConfig,
    /// Effective number of tracked keys: `cfg.k` capped by the memory
    /// budget (each key needs a useful value allowance).
    k: usize,
    stage: Stage,
    /// Memory budget for the table (bytes), carved from the spill buffer.
    budget: usize,
    /// Input records expected for this task.
    estimated_inputs: u64,
    /// Input records seen.
    inputs_seen: u64,
    /// Intermediate records offered.
    offered: u64,
    /// Records absorbed into the table.
    absorbed: u64,
    /// Time spent inside the user's `combine()` since the last drain.
    user_combine_ns: u64,
    /// Node + registry for cross-task top-k sharing.
    node: usize,
    registry: Option<Arc<FrequentKeyRegistry>>,
    /// True when this task is the node's designated publisher (and a
    /// registry is in play): it must publish at freeze or decline on drop.
    publisher: bool,
    /// Whether the designated outcome has been recorded yet.
    published: bool,
}

impl FrequencyBuffer {
    /// Build a filter for one map task. With a registry, the node's
    /// designated task (`ctx.node_first_task`) profiles and publishes;
    /// every other task on the node waits for the designated outcome — a
    /// published top-k skips profiling entirely, a decline means profiling
    /// for itself (without publishing).
    pub fn new(
        ctx: &FilterCtx,
        cfg: FreqBufferConfig,
        registry: Option<Arc<FrequentKeyRegistry>>,
    ) -> Self {
        assert!(cfg.k > 0, "k must be positive");
        assert!(cfg.pre_profile_fraction > 0.0 && cfg.pre_profile_fraction < 1.0);
        let budget = ctx.budget_bytes.max(1024);
        // "k is largely fixed by the amount of memory available and the
        // size of intermediate data records" (Sec. III-C): cap the
        // requested k so every tracked key gets a useful value budget.
        let k = cfg.k.min(budget / MIN_PER_KEY_BYTES).max(1);
        let node = ctx.task.node;
        let designated = ctx.task.task == ctx.node_first_task;
        let publisher = designated && registry.is_some();
        let fresh_profile = || Stage::PreProfile {
            est: ZipfEstimator::default(),
        };
        let stage = if !ctx.job.has_combiner() {
            Stage::Disabled
        } else if publisher {
            fresh_profile()
        } else {
            match &registry {
                // Consumer: block on the designated task's outcome. Safe
                // because the worker pool claims task ids in ascending
                // order (the designated, lower-id task is already claimed)
                // and the wait polls the job's cancellation flag.
                Some(r) => {
                    let cancel = ctx.cancel.clone();
                    let cancelled = move || {
                        cancel
                            .as_ref()
                            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                    };
                    match r.wait_for(node, &cancelled) {
                        Some(keys) => Stage::Optimize(FreqTable::new(&keys, budget / k)),
                        None => fresh_profile(),
                    }
                }
                None => fresh_profile(),
            }
        };
        FrequencyBuffer {
            job: Arc::clone(&ctx.job),
            cfg,
            k,
            stage,
            budget,
            estimated_inputs: ctx.estimated_records.max(1),
            inputs_seen: 0,
            offered: 0,
            absorbed: 0,
            user_combine_ns: 0,
            node,
            registry,
            publisher,
            published: false,
        }
    }

    /// Records absorbed so far.
    pub fn absorbed_records(&self) -> u64 {
        self.absorbed
    }

    /// True once the filter is in its Optimize stage.
    pub fn is_optimizing(&self) -> bool {
        matches!(self.stage, Stage::Optimize(_))
    }

    fn pre_profile_target(&self) -> u64 {
        let raw = (self.estimated_inputs as f64 * self.cfg.pre_profile_fraction) as u64;
        // At least 20 records for a meaningful α fit — unless the whole
        // input is smaller than that.
        let lo = 20.min(self.estimated_inputs);
        raw.clamp(lo, self.estimated_inputs)
    }

    /// Transition PreProfile → Profile: fit α, choose `s`, seed the sketch.
    fn start_profile(&mut self, est: ZipfEstimator) {
        let fit = est.fit();
        let s = match self.cfg.sampling_fraction {
            Some(s) => s,
            None => {
                // Extrapolate the distinct-key universe m from the sample.
                let seen = est.seen().max(1);
                let scale = (self.estimated_intermediate() as f64 / seen as f64).max(1.0);
                let m = ((est.distinct() as f64) * scale.sqrt()) as usize;
                sampling_fraction(
                    self.estimated_intermediate(),
                    self.k,
                    fit.alpha,
                    m.max(self.k),
                    self.cfg.bounds,
                )
            }
        };
        // Profiling must extend at least one record past where we are now;
        // a tiny input can make that exceed the estimate, in which case the
        // filter simply never leaves the profile stage (harmless: all
        // records pass through).
        let lo = self.inputs_seen + 1;
        let hi = self.estimated_inputs.max(lo);
        let target_inputs = ((self.estimated_inputs as f64 * s) as u64).clamp(lo, hi);
        let mut sketch = SpaceSaving::new(self.k);
        for (key, count) in est.into_counts() {
            sketch.offer_n(&key, count);
        }
        self.stage = Stage::Profile {
            sketch,
            target_inputs,
        };
    }

    /// Estimated intermediate records for the task, extrapolated from the
    /// expansion observed so far.
    fn estimated_intermediate(&self) -> u64 {
        if self.inputs_seen == 0 {
            return self.estimated_inputs;
        }
        let expansion = self.offered as f64 / self.inputs_seen as f64;
        (self.estimated_inputs as f64 * expansion.max(1.0)) as u64
    }

    /// Transition Profile → Optimize: freeze top-k; the designated
    /// publisher shares it through the registry (consumers that profiled
    /// for themselves after a decline keep their set private).
    fn freeze(&mut self, sketch: &SpaceSaving) {
        let keys: Vec<Box<[u8]>> = sketch
            .top_k(self.k)
            .into_iter()
            .map(|k| k.into_boxed_slice())
            .collect();
        self.stage = Stage::Optimize(FreqTable::new(&keys, self.budget / self.k));
        if self.publisher {
            if let Some(r) = &self.registry {
                r.publish(self.node, keys);
            }
            self.published = true;
        }
    }
}

impl Drop for FrequencyBuffer {
    fn drop(&mut self) {
        // A designated publisher that never froze a set (input too small,
        // filter inactive, task failed/panicked) declines so the node's
        // waiters unblock and profile for themselves.
        if self.publisher && !self.published {
            if let Some(r) = &self.registry {
                r.decline(self.node);
            }
        }
    }
}

impl EmitFilter for FrequencyBuffer {
    fn on_input_record(&mut self) {
        self.inputs_seen += 1;
        // Stage transitions happen on input-record boundaries, matching the
        // paper's definition of `s` over input records.
        let pre_target = self.pre_profile_target();
        match &mut self.stage {
            Stage::Disabled => {}
            Stage::PreProfile { est } => {
                if self.inputs_seen > pre_target {
                    let est = std::mem::take(est);
                    self.start_profile(est);
                }
            }
            Stage::Profile {
                sketch,
                target_inputs,
            } => {
                if self.inputs_seen > *target_inputs {
                    let sketch = std::mem::replace(sketch, SpaceSaving::new(1));
                    self.freeze(&sketch);
                }
            }
            Stage::Optimize(_) => {}
        }
    }

    fn offer(&mut self, key: &[u8], value: &[u8], sink: &mut dyn Emit) -> bool {
        self.offered += 1;
        match &mut self.stage {
            Stage::Disabled => false,
            Stage::PreProfile { est } => {
                est.observe(key);
                false
            }
            Stage::Profile { sketch, .. } => {
                sketch.offer(key);
                false
            }
            Stage::Optimize(table) => {
                let Some(i) = table.find(key) else {
                    return false;
                };
                let buf = &mut table.bufs[i];
                buf.push(value);
                self.absorbed += 1;
                if buf.data.len() > table.per_key_limit {
                    let ns = table.make_room(i, key, self.job.as_ref(), sink);
                    self.user_combine_ns = self.user_combine_ns.saturating_add(ns);
                }
                true
            }
        }
    }

    fn finish(&mut self, sink: &mut dyn Emit) {
        // Only a job with a combiner reaches Optimize (`Stage::Disabled`).
        if let Stage::Optimize(table) = &mut self.stage {
            let ns = table.drain(self.job.as_ref(), sink);
            self.user_combine_ns = self.user_combine_ns.saturating_add(ns);
        }
    }

    fn absorbed(&self) -> u64 {
        self.absorbed
    }

    fn is_active(&self) -> bool {
        !matches!(self.stage, Stage::Disabled)
    }

    fn take_user_combine_ns(&mut self) -> u64 {
        std::mem::take(&mut self.user_combine_ns)
    }
}

/// Build an [`EmitFilterFactory`] plugging frequency-buffering into a
/// [`textmr_engine::cluster::JobConfig`]. Pass a registry to share each
/// node's frozen top-k across its tasks.
pub fn frequency_buffer_factory(
    cfg: FreqBufferConfig,
    registry: Option<Arc<FrequentKeyRegistry>>,
) -> EmitFilterFactory {
    Arc::new(move |ctx| Box::new(FrequencyBuffer::new(&ctx, cfg.clone(), registry.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use textmr_engine::codec::{decode_u64, encode_u64};
    use textmr_engine::controller::TaskCtx;
    use textmr_engine::job::{Record, ValueCursor, ValueSink, VecEmit};

    struct SumJob;
    impl Job for SumJob {
        fn name(&self) -> &str {
            "sum"
        }
        fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
        fn has_combiner(&self) -> bool {
            true
        }
        fn combine(&self, _k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
            let mut s = 0;
            while let Some(v) = values.next() {
                s += decode_u64(v).unwrap();
            }
            out.push(&encode_u64(s));
        }
        fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
    }

    fn ctx_task(task: usize, estimated: u64, budget: usize) -> FilterCtx {
        FilterCtx {
            task: TaskCtx { node: 0, task },
            job: Arc::new(SumJob),
            budget_bytes: budget,
            estimated_records: estimated,
            node_first_task: 0,
            cancel: None,
        }
    }

    fn ctx(estimated: u64, budget: usize) -> FilterCtx {
        ctx_task(0, estimated, budget)
    }

    /// Drive: each input record emits the given keys once.
    fn drive(fb: &mut FrequencyBuffer, inputs: &[Vec<&str>], sink: &mut VecEmit) -> (u64, u64) {
        let mut passed = 0;
        let mut absorbed = 0;
        for rec in inputs {
            fb.on_input_record();
            for key in rec {
                if fb.offer(key.as_bytes(), &encode_u64(1), sink) {
                    absorbed += 1;
                } else {
                    // Pass-through: the engine would append to the spill
                    // path; mirror that so mass accounting closes.
                    sink.emit(key.as_bytes(), &encode_u64(1));
                    passed += 1;
                }
            }
        }
        (passed, absorbed)
    }

    /// A skewed workload: "hot" appears in every record, cold keys rotate.
    fn skewed_inputs(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                vec![
                    "hot".to_string(),
                    "warm".to_string(),
                    format!("cold{}", i % 97),
                ]
            })
            .collect()
    }

    fn drive_strings(
        fb: &mut FrequencyBuffer,
        inputs: &[Vec<String>],
        sink: &mut VecEmit,
    ) -> (u64, u64) {
        let refs: Vec<Vec<&str>> = inputs
            .iter()
            .map(|r| r.iter().map(|s| s.as_str()).collect())
            .collect();
        drive(fb, &refs, sink)
    }

    #[test]
    fn lifecycle_reaches_optimize_and_absorbs_hot_keys() {
        let cfg = FreqBufferConfig {
            k: 4,
            sampling_fraction: Some(0.1),
            ..Default::default()
        };
        let inputs = skewed_inputs(1000);
        let mut fb = FrequencyBuffer::new(&ctx(1000, 1 << 16), cfg, None);
        let mut sink = VecEmit::default();
        let (_passed, absorbed) = drive_strings(&mut fb, &inputs, &mut sink);
        assert!(fb.is_optimizing());
        // "hot" appears 1000×; profiling covers ~10% → ≥ 800 absorbed
        // between hot and warm.
        assert!(absorbed >= 800, "absorbed={absorbed}");
        assert_eq!(absorbed, fb.absorbed_records());
    }

    #[test]
    fn every_offer_is_passed_or_absorbed() {
        let cfg = FreqBufferConfig {
            k: 2,
            sampling_fraction: Some(0.05),
            ..Default::default()
        };
        let inputs = skewed_inputs(400);
        let mut fb = FrequencyBuffer::new(&ctx(400, 1 << 16), cfg, None);
        let mut sink = VecEmit::default();
        let (passed, absorbed) = drive_strings(&mut fb, &inputs, &mut sink);
        fb.finish(&mut sink);
        assert_eq!(passed + absorbed, 400 * 3);
    }

    #[test]
    fn mass_conservation_via_totals() {
        let cfg = FreqBufferConfig {
            k: 3,
            sampling_fraction: Some(0.05),
            ..Default::default()
        };
        let inputs = skewed_inputs(300);
        let mut fb = FrequencyBuffer::new(&ctx(300, 1 << 16), cfg, None);
        let mut sink = VecEmit::default();
        drive_strings(&mut fb, &inputs, &mut sink);
        fb.finish(&mut sink);
        let total: u64 = sink.pairs.iter().map(|(_, v)| decode_u64(v).unwrap()).sum();
        assert_eq!(total, 300 * 3, "every unit of count must reach the sink");
    }

    #[test]
    fn per_key_limit_triggers_combining() {
        // Tiny budget → per-key limit small → combine kicks in during
        // absorption, keeping each entry's byte size bounded.
        let cfg = FreqBufferConfig {
            k: 1,
            sampling_fraction: Some(0.02),
            ..Default::default()
        };
        let inputs: Vec<Vec<String>> = (0..500).map(|_| vec!["hot".to_string()]).collect();
        let mut fb = FrequencyBuffer::new(&ctx(500, 2048), cfg, None);
        let mut sink = VecEmit::default();
        drive_strings(&mut fb, &inputs, &mut sink);
        fb.finish(&mut sink);
        let total: u64 = sink
            .pairs
            .iter()
            .filter(|(k, _)| k == b"hot")
            .map(|(_, v)| decode_u64(v).unwrap())
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn registry_lets_later_tasks_skip_profiling() {
        let registry = Arc::new(FrequentKeyRegistry::new());
        let cfg = FreqBufferConfig {
            k: 2,
            sampling_fraction: Some(0.1),
            ..Default::default()
        };
        // The designated task (lowest id on the node) profiles + publishes.
        let inputs = skewed_inputs(500);
        let mut fb1 = FrequencyBuffer::new(&ctx(500, 1 << 16), cfg.clone(), Some(registry.clone()));
        let mut sink = VecEmit::default();
        drive_strings(&mut fb1, &inputs, &mut sink);
        assert!(fb1.is_optimizing());
        assert_eq!(registry.nodes_published(), 1);
        // A later task on the same node starts already optimizing.
        let fb2 = FrequencyBuffer::new(&ctx_task(1, 500, 1 << 16), cfg, Some(registry));
        assert!(
            fb2.is_optimizing(),
            "second task must reuse the published top-k"
        );
    }

    #[test]
    fn designated_task_declines_on_drop_and_waiters_profile_themselves() {
        let registry = Arc::new(FrequentKeyRegistry::new());
        let cfg = FreqBufferConfig {
            k: 2,
            sampling_fraction: Some(0.5),
            ..Default::default()
        };
        // The designated task sees too little input to ever freeze...
        let mut fb1 =
            FrequencyBuffer::new(&ctx(10_000, 1 << 16), cfg.clone(), Some(registry.clone()));
        let mut sink = VecEmit::default();
        drive_strings(&mut fb1, &skewed_inputs(5), &mut sink);
        assert!(!fb1.is_optimizing());
        drop(fb1); // ...so dropping it declines the node's slot.
        assert_eq!(registry.nodes_published(), 0);
        // A later task is not blocked: it profiles for itself and reaches
        // Optimize without publishing.
        let mut fb2 = FrequencyBuffer::new(&ctx_task(1, 500, 1 << 16), cfg, Some(registry.clone()));
        drive_strings(&mut fb2, &skewed_inputs(500), &mut sink);
        assert!(fb2.is_optimizing());
        assert_eq!(registry.nodes_published(), 0);
    }

    #[test]
    fn consumer_wait_respects_cancellation() {
        use std::sync::atomic::AtomicBool;
        let registry = Arc::new(FrequentKeyRegistry::new());
        // Node slot never decided, but the job is already cancelled: the
        // consumer must construct (in PreProfile) instead of hanging.
        let mut c = ctx_task(3, 100, 1 << 16);
        c.cancel = Some(Arc::new(AtomicBool::new(true)));
        let fb = FrequencyBuffer::new(&c, FreqBufferConfig::default(), Some(registry));
        assert!(!fb.is_optimizing());
    }

    #[test]
    fn cold_keys_pass_through_in_optimize() {
        let cfg = FreqBufferConfig {
            k: 1,
            sampling_fraction: Some(0.05),
            ..Default::default()
        };
        let inputs = skewed_inputs(300);
        let mut fb = FrequencyBuffer::new(&ctx(300, 1 << 16), cfg, None);
        let mut sink = VecEmit::default();
        drive_strings(&mut fb, &inputs, &mut sink);
        assert!(fb.is_optimizing());
        // Offer a key that is definitely not hot.
        let mut sink2 = VecEmit::default();
        assert!(!fb.offer(b"definitely-cold", &encode_u64(1), &mut sink2));
    }

    #[test]
    fn keys_that_differ_in_their_last_byte_spread_over_the_slots() {
        let keys: Vec<Box<[u8]>> = (b'a'..=b'z')
            .map(|c| vec![b'c', b'a', c].into_boxed_slice())
            .collect();
        let table = FreqTable::new(&keys, 0);
        assert_eq!(table.slots.len(), 64);
        let homes: std::collections::BTreeSet<usize> = keys
            .iter()
            .map(|k| home_slot(fnv1a(k), table.shift))
            .collect();
        assert!(
            homes.len() >= 16,
            "26 keys share {} home slots",
            homes.len()
        );
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.find(key), Some(i), "sorted position of {key:?}");
        }
        assert_eq!(table.find(b"ca"), None);
        assert_eq!(table.find(b"caaa"), None);
    }

    #[test]
    fn finish_without_reaching_optimize_emits_nothing() {
        // A stream shorter than the pre-profile target: nothing buffered,
        // so nothing drains (all records passed through already).
        let cfg = FreqBufferConfig {
            k: 4,
            sampling_fraction: Some(0.5),
            ..Default::default()
        };
        let inputs = skewed_inputs(5);
        let mut fb = FrequencyBuffer::new(&ctx(10_000, 1 << 16), cfg, None);
        let mut sink = VecEmit::default();
        let (passed, absorbed) = drive_strings(&mut fb, &inputs, &mut sink);
        let before_finish = sink.pairs.len();
        fb.finish(&mut sink);
        assert_eq!(absorbed, 0);
        assert_eq!(passed, 15);
        // All 15 pairs passed straight through; finish drains nothing.
        assert_eq!(before_finish, 15);
        assert_eq!(sink.pairs.len(), 15);
    }
}
