//! The MapReduce programming interface.
//!
//! Jobs are defined at the byte level, Hadoop-style: user code serializes
//! keys/values at `emit` time, and the framework sorts/merges raw bytes with
//! the job's key comparator. This makes serialization, comparison and
//! buffering costs *real* — they are the abstraction overhead the paper
//! measures and attacks.
//!
//! A job provides:
//! * [`Job::map`] — transform one input [`Record`] into `(key, value)`
//!   pairs via an [`Emit`] sink;
//! * [`Job::combine`] — optional local aggregation of a key's values
//!   (enabled iff [`Job::has_combiner`]);
//! * [`Job::reduce`] — final aggregation per key;
//! * [`Job::compare_keys`] / [`Job::partition`] — ordering and routing.

use crate::cluster::JobConfig;
use std::cmp::Ordering;
use std::sync::Arc;

/// One input record handed to `map()`. For line-oriented text inputs the
/// key is the big-endian byte offset and the value is the line (without the
/// trailing newline). `source` tags which logical input the record came
/// from (0 unless the job has multiple inputs, e.g. a join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Record key bytes (input-format defined).
    pub key: &'a [u8],
    /// Record value bytes.
    pub value: &'a [u8],
    /// Logical input source index.
    pub source: u8,
}

/// Sink for `(key, value)` pairs emitted by user code.
pub trait Emit {
    /// Emit one serialized pair.
    fn emit(&mut self, key: &[u8], value: &[u8]);
}

/// An [`Emit`] that collects into a `Vec`, for tests and small outputs.
#[derive(Debug, Default)]
pub struct VecEmit {
    /// Collected pairs.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Emit for VecEmit {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.pairs.push((key.to_vec(), value.to_vec()));
    }
}

impl<F: FnMut(&[u8], &[u8])> Emit for F {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self(key, value)
    }
}

/// Sink for `combine()` output values (the key is fixed: combine must not
/// change keys, which the type system enforces here).
pub trait ValueSink {
    /// Emit one combined value for the current key.
    fn push(&mut self, value: &[u8]);
}

impl ValueSink for Vec<Vec<u8>> {
    fn push(&mut self, value: &[u8]) {
        Vec::push(self, value.to_vec());
    }
}

/// Lending cursor over the serialized values of one key group. `next`
/// borrows from the cursor, so values can be decoded without copying.
pub trait ValueCursor {
    /// Advance to the next value; `None` at end of group.
    fn next(&mut self) -> Option<&[u8]>;
}

/// A [`ValueCursor`] over an in-memory slice of value slices.
pub struct SliceValues<'a> {
    values: &'a [&'a [u8]],
    idx: usize,
}

impl<'a> SliceValues<'a> {
    /// Cursor over `values`.
    pub fn new(values: &'a [&'a [u8]]) -> Self {
        SliceValues { values, idx: 0 }
    }
}

impl<'a> ValueCursor for SliceValues<'a> {
    fn next(&mut self) -> Option<&[u8]> {
        let v = self.values.get(self.idx)?;
        self.idx += 1;
        Some(v)
    }
}

/// A MapReduce job: user code plus ordering/routing policy.
///
/// Implementations must be `Send + Sync` because the framework invokes
/// `map`/`combine`/`reduce` from many tasks concurrently.
///
/// **Equal keys.** The framework's order among values of one key does not
/// depend on a sort algorithm: within a spill they keep emit order, and a
/// merge takes equal keys from its runs in ascending run index. Value
/// order inside a group is still unspecified to the job, as in Hadoop.
pub trait Job: Send + Sync {
    /// Short name used in profiles and bench output.
    fn name(&self) -> &str;

    /// The map function: called once per input record.
    fn map(&self, record: &Record<'_>, emit: &mut dyn Emit);

    /// Whether this job has a combiner. When `false`, [`Job::combine`] is
    /// never invoked and spills are written uncombined.
    fn has_combiner(&self) -> bool {
        false
    }

    /// The combine function: aggregate `values` (all sharing `key`) into
    /// one or more output values pushed to `out`. Must be associative and
    /// commutative across repeated application, as in Hadoop.
    ///
    /// The default implementation forwards values unchanged.
    fn combine(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let _ = key;
        while let Some(v) = values.next() {
            out.push(v);
        }
    }

    /// The reduce function: called once per unique key with all its values.
    fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit);

    /// Key ordering used by sort/merge/group. Defaults to bytewise
    /// comparison, which matches order-preserving key encodings. The spill
    /// sort orders keys by their bytes first and checks that order with one
    /// call per distinct key; an override that disagrees is sorted by this
    /// alone.
    fn compare_keys(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// Route a key to one of `num_partitions` reducers. Defaults to an
    /// FNV-1a hash. Must be deterministic.
    fn partition(&self, key: &[u8], num_partitions: usize) -> usize {
        (fnv1a(key) % num_partitions as u64) as usize
    }
}

/// Where one DAG stage draws its map input from.
#[derive(Clone)]
pub enum StageInput {
    /// Named DFS files with logical source tags, exactly like
    /// [`run_job`](crate::cluster::run_job)'s `inputs`.
    Dfs(Vec<(String, u8)>),
    /// A prior stage's reduce output, handed off as typed framed splits —
    /// no re-materialization through the text codec. Partition `p` of the
    /// producing stage becomes map split (and task) `p` of this stage,
    /// homed on the node that reduced it.
    Prior {
        /// Index of the producing stage; must precede this stage.
        stage: usize,
        /// Source tag attached to the handed-off records.
        source: u8,
    },
}

impl StageInput {
    /// Convenience: input from one DFS file with source tag 0.
    pub fn dfs(name: &str) -> StageInput {
        StageInput::Dfs(vec![(name.to_string(), 0)])
    }

    /// Convenience: the immediately preceding stage's output (source 0).
    /// Resolved by [`JobDag::then`]; panics if used before resolution.
    pub fn prior(stage: usize) -> StageInput {
        StageInput::Prior { stage, source: 0 }
    }
}

/// One stage of a multi-round DAG job: user code, its per-round policy,
/// and where its input comes from.
pub struct Stage {
    /// The stage's MapReduce job.
    pub job: Arc<dyn Job>,
    /// Per-stage policy (reducers, plug-ins, faults, tracing). All stages
    /// of one DAG must agree on `trace` and on straggler factors, since
    /// they share one scheduler.
    pub cfg: JobConfig,
    /// Where the stage's map input comes from.
    pub input: StageInput,
}

/// A round-generic DAG plan: an ordered list of [`Stage`]s whose `Prior`
/// input edges point strictly backwards. Stage `k` executes as round `k`
/// on one shared virtual-time scheduler (see
/// [`DagExecutor`](crate::dag::DagExecutor)); a single-stage plan is
/// what [`run_job`](crate::cluster::run_job) runs.
#[derive(Default)]
pub struct JobDag {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl JobDag {
    /// An empty plan.
    pub fn new() -> JobDag {
        JobDag::default()
    }

    /// Append a stage with an explicit input.
    pub fn stage(mut self, job: Arc<dyn Job>, cfg: JobConfig, input: StageInput) -> JobDag {
        self.stages.push(Stage { job, cfg, input });
        self
    }

    /// Append a stage consuming the previous stage's output with source
    /// tag 0. Panics if the plan is still empty.
    pub fn then(self, job: Arc<dyn Job>, cfg: JobConfig) -> JobDag {
        assert!(!self.stages.is_empty(), "then() needs a preceding stage");
        let prior = self.stages.len() - 1;
        self.stage(job, cfg, StageInput::prior(prior))
    }

    /// Check the plan is executable: non-empty, every `Prior` edge points
    /// to an earlier stage, and every stage agrees with stage 0 on the
    /// `trace` flag (one scheduler, one trace).
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("empty DAG".into());
        }
        let trace = self.stages[0].cfg.trace;
        for (i, s) in self.stages.iter().enumerate() {
            if let StageInput::Prior { stage, .. } = s.input {
                if stage >= i {
                    return Err(format!("stage {i} consumes non-prior stage {stage}"));
                }
            }
            if s.cfg.trace != trace {
                return Err(format!("stage {i} disagrees with stage 0 on tracing"));
            }
        }
        Ok(())
    }
}

/// FNV-1a 64-bit hash (the engine's default partitioner and the hash used
/// by in-memory key tables; fast on short text keys per the perf guide).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming form of [`fnv1a`]: fold more bytes into a running hash, so
/// callers can digest disk-backed data one chunk at a time. Seed with the
/// FNV offset basis (what [`fnv1a`] does) and chain:
/// `fnv1a(ab) == fnv1a_update(fnv1a(a), b)`.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run `combine` over an owned value list, returning the combined values.
/// Convenience used by both the spill path and the frequency buffer.
pub fn combine_values(job: &dyn Job, key: &[u8], values: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut cursor = SliceValues::new(values);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(1);
    job.combine(key, &mut cursor, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64};

    /// Toy word-sum job used across engine unit tests.
    pub(crate) struct SumJob;

    impl Job for SumJob {
        fn name(&self) -> &str {
            "sum"
        }

        fn map(&self, record: &Record<'_>, emit: &mut dyn Emit) {
            for w in record.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                emit.emit(w, &encode_u64(1));
            }
        }

        fn has_combiner(&self) -> bool {
            true
        }

        fn combine(&self, _key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
            let mut sum = 0u64;
            while let Some(v) = values.next() {
                sum += decode_u64(v).unwrap();
            }
            out.push(&encode_u64(sum));
        }

        fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            let mut sum = 0u64;
            while let Some(v) = values.next() {
                sum += decode_u64(v).unwrap();
            }
            out.emit(key, &encode_u64(sum));
        }
    }

    #[test]
    fn map_emits_words() {
        let job = SumJob;
        let mut sink = VecEmit::default();
        job.map(
            &Record {
                key: b"",
                value: b"a b a",
                source: 0,
            },
            &mut sink,
        );
        assert_eq!(sink.pairs.len(), 3);
        assert_eq!(sink.pairs[0].0, b"a");
    }

    #[test]
    fn combine_aggregates() {
        let job = SumJob;
        let one = encode_u64(1);
        let vals: Vec<&[u8]> = vec![&one, &one, &one];
        let out = combine_values(&job, b"a", &vals);
        assert_eq!(out.len(), 1);
        assert_eq!(decode_u64(&out[0]), Some(3));
    }

    #[test]
    fn default_combine_is_identity() {
        struct NoCombine;
        impl Job for NoCombine {
            fn name(&self) -> &str {
                "nc"
            }
            fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
            fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
        }
        let vals: Vec<&[u8]> = vec![b"x", b"y"];
        let out = combine_values(&NoCombine, b"k", &vals);
        assert_eq!(out, vec![b"x".to_vec(), b"y".to_vec()]);
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        let job = SumJob;
        for key in [&b"alpha"[..], b"beta", b""] {
            let p = job.partition(key, 7);
            assert!(p < 7);
            assert_eq!(p, job.partition(key, 7));
        }
    }

    #[test]
    fn fnv_distinguishes_keys() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn closure_emit_works() {
        let job = SumJob;
        let mut count = 0usize;
        let mut emit = |_k: &[u8], _v: &[u8]| count += 1;
        job.map(
            &Record {
                key: b"",
                value: b"x y",
                source: 0,
            },
            &mut emit,
        );
        assert_eq!(count, 2);
    }
}
