//! Fine-grained abstraction-cost accounting (the paper's Table I operations).
//!
//! Section II of the paper breaks the three MapReduce phases into
//! fine-grained operations and asks "where does the time go?". This module
//! defines those operations ([`Op`]), per-task accumulators
//! ([`TaskProfile`]), and the job-level aggregate ([`JobProfile`]) from
//! which every profiling figure/table in the paper (Fig. 2, Fig. 8, Fig. 9,
//! Table II) is derived.
//!
//! All durations are in nanoseconds of *measured work* or *virtual time*
//! (see `task::pipeline`); `u64` nanoseconds are used throughout so profiles
//! are plain data.

use crate::shuffle::ShuffleStats;
use std::fmt;
use std::time::Duration;

/// Virtual-time instant / duration in nanoseconds.
pub type VNanos = u64;

/// Number of fine-grained operations tracked.
pub const NUM_OPS: usize = 15;

/// Fine-grained operations, following the paper's Table I decomposition of
/// the map, shuffle and reduce phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Op {
    /// Reading and deserializing input records (map phase, framework).
    Read = 0,
    /// Executing the user's `map()` function (user code).
    Map = 1,
    /// Serializing and collecting map output into the spill buffer,
    /// including frequency-buffering's profiling/hashing overhead when
    /// enabled (framework).
    Emit = 2,
    /// Sorting a spill by (partition, key) (framework).
    Sort = 3,
    /// Executing the user's `combine()` function (user code).
    Combine = 4,
    /// Writing sorted/combined spills to local disk (framework).
    SpillWrite = 5,
    /// End-of-task merge of spill files into the map output (framework).
    Merge = 6,
    /// Map thread blocked on a full spill buffer (idle).
    MapIdle = 7,
    /// Support thread waiting for a spill to be produced (idle).
    SupportIdle = 8,
    /// Transferring map output partitions to reducers (shuffle phase).
    ShuffleFetch = 9,
    /// Reduce-side merge-sort of fetched runs (framework).
    ReduceMerge = 10,
    /// Executing the user's `reduce()` function (user code).
    Reduce = 11,
    /// Writing final output (framework).
    OutputWrite = 12,
    /// Reduce task stalled on its single slowest shuffle source while the
    /// rest of its fetcher pool sat idle — the straggler tail of a parallel
    /// shuffle (idle; zero with one fetcher, which is never "stalled").
    ShuffleWait = 13,
    /// Virtual backoff a fetcher spent between a transiently failed
    /// shuffle fetch and its retry (see
    /// [`fault::shuffle_backoff_ns`](crate::fault::shuffle_backoff_ns)).
    /// Idle, like [`Op::ShuffleWait`]: the fetcher does no work while
    /// backing off, so retries never inflate the Fig. 2 work breakdown.
    ShuffleRetry = 14,
}

/// Coarse phases of a MapReduce job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Everything a map task does (read → merge).
    Map,
    /// Moving intermediate data to reducers.
    Shuffle,
    /// Reduce-side merge, user reduce, output write.
    Reduce,
}

impl Op {
    /// All operations in index order.
    pub const ALL: [Op; NUM_OPS] = [
        Op::Read,
        Op::Map,
        Op::Emit,
        Op::Sort,
        Op::Combine,
        Op::SpillWrite,
        Op::Merge,
        Op::MapIdle,
        Op::SupportIdle,
        Op::ShuffleFetch,
        Op::ReduceMerge,
        Op::Reduce,
        Op::OutputWrite,
        Op::ShuffleWait,
        Op::ShuffleRetry,
    ];

    /// Index in `0..NUM_OPS`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The phase this operation belongs to.
    pub fn phase(self) -> Phase {
        match self {
            Op::Read
            | Op::Map
            | Op::Emit
            | Op::Sort
            | Op::Combine
            | Op::SpillWrite
            | Op::Merge
            | Op::MapIdle
            | Op::SupportIdle => Phase::Map,
            Op::ShuffleFetch | Op::ShuffleWait | Op::ShuffleRetry => Phase::Shuffle,
            Op::ReduceMerge | Op::Reduce | Op::OutputWrite => Phase::Reduce,
        }
    }

    /// True for the operations that execute *user* code; everything else is
    /// the abstraction cost the paper attacks. (The paper counts `map()`,
    /// `combine()` and the reduce phase's `reduce()` as user code.)
    pub fn is_user_code(self) -> bool {
        matches!(self, Op::Map | Op::Combine | Op::Reduce)
    }

    /// True for the idle/wait pseudo-operations.
    pub fn is_idle(self) -> bool {
        matches!(
            self,
            Op::MapIdle | Op::SupportIdle | Op::ShuffleWait | Op::ShuffleRetry
        )
    }

    /// Display name used by the bench harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Map => "map",
            Op::Emit => "emit",
            Op::Sort => "sort",
            Op::Combine => "combine",
            Op::SpillWrite => "spill",
            Op::Merge => "merge",
            Op::MapIdle => "map-idle",
            Op::SupportIdle => "support-idle",
            Op::ShuffleFetch => "shuffle",
            Op::ReduceMerge => "reduce-merge",
            Op::Reduce => "reduce",
            Op::OutputWrite => "write",
            Op::ShuffleWait => "shuffle-wait",
            Op::ShuffleRetry => "shuffle-retry",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated nanoseconds per operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTimes {
    nanos: [u64; NUM_OPS],
}

impl OpTimes {
    /// Fresh zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to operation `op`.
    #[inline]
    pub fn add(&mut self, op: Op, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[op.index()] = self.nanos[op.index()].saturating_add(ns);
    }

    /// Add raw nanoseconds to operation `op`.
    #[inline]
    pub fn add_nanos(&mut self, op: Op, ns: u64) {
        self.nanos[op.index()] += ns;
    }

    /// Overwrite operation `op` with `ns` (the job driver uses this to
    /// patch virtual ops — e.g. `ShuffleWait` — after replaying a reduce
    /// attempt's schedule under shared node ingress).
    #[inline]
    pub fn set_nanos(&mut self, op: Op, ns: u64) {
        self.nanos[op.index()] = ns;
    }

    /// Accumulated nanoseconds for `op`.
    #[inline]
    pub fn get(&self, op: Op) -> u64 {
        self.nanos[op.index()]
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &OpTimes) {
        for i in 0..NUM_OPS {
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Total across all *work* operations (idle excluded): the "serialized
    /// view of the work performed" from Figure 2.
    pub fn total_work(&self) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| !o.is_idle())
            .map(|o| self.get(*o))
            .sum()
    }

    /// Total nanoseconds in user code (`map` + `combine` + `reduce`).
    pub fn user_code(&self) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| o.is_user_code())
            .map(|o| self.get(*o))
            .sum()
    }

    /// Total framework-overhead nanoseconds (work that is neither user code
    /// nor idle) — the paper's "abstraction cost".
    pub fn abstraction_cost(&self) -> u64 {
        self.total_work() - self.user_code()
    }

    /// Work nanoseconds per phase (idle excluded).
    pub fn phase_total(&self, phase: Phase) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| o.phase() == phase && !o.is_idle())
            .map(|o| self.get(*o))
            .sum()
    }

    /// Fractions of total work per op, for normalized breakdown charts.
    /// Returns zeros if no work was recorded.
    pub fn fractions(&self) -> [(Op, f64); NUM_OPS] {
        let total = self.total_work().max(1) as f64;
        let mut out = [(Op::Read, 0.0); NUM_OPS];
        for (slot, op) in out.iter_mut().zip(Op::ALL) {
            let v = if op.is_idle() {
                0.0
            } else {
                self.get(op) as f64 / total
            };
            *slot = (op, v);
        }
        out
    }
}

/// Timing-free summary of one task's profile: the counters and byte totals
/// that depend only on the input data and the job configuration, never on
/// measured wall-clock time. For a timing-independent configuration (fixed
/// spill fraction, no adaptive controller) these are identical across runs
/// and across sequential vs pooled execution — the determinism tests
/// compare them to prove the worker pool changes nothing observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSignature {
    /// Input records consumed.
    pub input_records: u64,
    /// Records emitted by user `map()` code.
    pub emitted_records: u64,
    /// Records absorbed by the frequency buffer.
    pub freq_absorbed_records: u64,
    /// Bytes in the final merged output.
    pub output_bytes: u64,
    /// Per-spill `(bytes, records, records_after_combine)`, in order.
    pub spills: Vec<(usize, usize, usize)>,
}

/// Timing-free summary of a whole job run (see [`TaskSignature`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSignature {
    /// Map-task signatures, in task-id order.
    pub map_tasks: Vec<TaskSignature>,
    /// Reduce-task signatures, in partition order.
    pub reduce_tasks: Vec<TaskSignature>,
    /// Total intermediate bytes shuffled across the virtual network.
    pub shuffled_bytes: u64,
}

/// Statistics of one spill produced by a map task.
#[derive(Debug, Clone)]
pub struct SpillStat {
    /// Serialized bytes in the spill segment (including per-record
    /// metadata accounted against the buffer budget).
    pub bytes: usize,
    /// Records in the segment before combining.
    pub records: usize,
    /// Records written to disk after combining.
    pub records_after_combine: usize,
    /// Measured time to produce the segment (map-thread work), ns.
    pub produce_ns: u64,
    /// Measured time to consume it (sort + combine + write), ns.
    pub consume_ns: u64,
    /// Spill fraction `x` in force when this segment started.
    pub fraction: f64,
}

/// Per-task profile: operation times plus the virtual-pipeline outcome.
#[derive(Debug, Clone, Default)]
pub struct TaskProfile {
    /// Operation-level accounting.
    pub ops: OpTimes,
    /// Virtual duration of the whole task (map: pipelined producer/consumer
    /// + merge; reduce: fetch + merge + reduce + write).
    pub virtual_duration: VNanos,
    /// Map-thread (producer) busy virtual time. Zero for reduce tasks.
    pub produce_busy: VNanos,
    /// Support-thread (consumer) busy virtual time. Zero for reduce tasks.
    pub consume_busy: VNanos,
    /// Map-thread blocked-on-full-buffer virtual time.
    pub producer_wait: VNanos,
    /// Support-thread waiting-for-spill virtual time.
    pub consumer_wait: VNanos,
    /// Per-spill statistics, in order.
    pub spills: Vec<SpillStat>,
    /// Input records consumed.
    pub input_records: u64,
    /// Map-output records emitted by user code (before combining).
    pub emitted_records: u64,
    /// Records absorbed by the frequency buffer (never entered the spill
    /// path individually).
    pub freq_absorbed_records: u64,
    /// Bytes written to the final (merged) map output / reduce output.
    pub output_bytes: u64,
    /// Peak tracked buffer bytes the task held at once: spill-buffer
    /// occupancy plus (out-of-core mode) the input chunk window, the open
    /// frame encoder, and decoded merge windows. This is the quantity the
    /// `map_budget_bytes` knob bounds. Deliberately **not** part of
    /// [`TaskSignature`]: window residency differs between streamed and
    /// materialized reads of the same bytes.
    pub peak_buffer_bytes: u64,
    /// Per-thread span timeline of this attempt, recorded only when the
    /// job ran with [`JobConfig::trace`](crate::cluster::JobConfig::trace)
    /// enabled (`None` otherwise — the untraced path allocates nothing).
    /// Boxed to keep the common untraced profile small.
    pub trace: Option<Box<crate::trace::TaskTrace>>,
}

impl TaskProfile {
    /// The timing-free part of this profile (see [`TaskSignature`]).
    pub fn signature(&self) -> TaskSignature {
        TaskSignature {
            input_records: self.input_records,
            emitted_records: self.emitted_records,
            freq_absorbed_records: self.freq_absorbed_records,
            output_bytes: self.output_bytes,
            spills: self
                .spills
                .iter()
                .map(|s| (s.bytes, s.records, s.records_after_combine))
                .collect(),
        }
    }

    /// Idle fraction of the map thread over the pipelined portion of the
    /// task (Table II's "Map, Idle").
    pub fn map_idle_fraction(&self) -> f64 {
        let span = self.pipeline_span();
        if span == 0 {
            return 0.0;
        }
        self.producer_wait as f64 / span as f64
    }

    /// Idle fraction of the support thread (Table II's "Support, Idle").
    pub fn support_idle_fraction(&self) -> f64 {
        let span = self.pipeline_span();
        if span == 0 {
            return 0.0;
        }
        (span.saturating_sub(self.consume_busy)) as f64 / span as f64
    }

    /// Virtual span of the producer/consumer pipeline (excludes the final
    /// merge, which is not pipelined).
    pub fn pipeline_span(&self) -> VNanos {
        self.produce_busy + self.producer_wait + self.consumer_trailing_wait()
    }

    fn consumer_trailing_wait(&self) -> VNanos {
        // The pipeline ends when the consumer finishes the final spill; any
        // consumer work after the producer finished extends the span.
        let producer_span = self.produce_busy + self.producer_wait;
        let consumer_span = self.consume_busy + self.consumer_wait;
        consumer_span.saturating_sub(producer_span)
    }
}

/// Speculative-execution counters for one job run. Deliberately *not* part
/// of [`JobSignature`]: a winning backup changes task placement (and hence
/// shuffle locality), so speculation is an opt-in scheduling policy rather
/// than a determinism-preserving knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Backup map attempts launched.
    pub map_backups: u64,
    /// Backup map attempts that finished before their primary.
    pub map_wins: u64,
    /// Backup reduce attempts launched.
    pub reduce_backups: u64,
    /// Backup reduce attempts that finished before their primary.
    pub reduce_wins: u64,
}

impl SpeculationStats {
    /// Total backups launched in either phase.
    pub fn backups(&self) -> u64 {
        self.map_backups + self.reduce_backups
    }

    /// Total backups that beat their primary.
    pub fn wins(&self) -> u64 {
        self.map_wins + self.reduce_wins
    }
}

/// Virtual schedule entry for one task (used for makespan accounting and
/// the bench harness's per-phase spans).
#[derive(Debug, Clone)]
pub struct TaskSpan {
    /// Node the task ran on.
    pub node: usize,
    /// Virtual start time.
    pub start: VNanos,
    /// Virtual end time.
    pub end: VNanos,
}

/// Aggregated profile of a complete job run.
#[derive(Debug, Clone, Default)]
pub struct JobProfile {
    /// Per-map-task profiles.
    pub map_tasks: Vec<TaskProfile>,
    /// Per-reduce-task profiles.
    pub reduce_tasks: Vec<TaskProfile>,
    /// Virtual schedule of map tasks.
    pub map_spans: Vec<TaskSpan>,
    /// Virtual schedule of reduce tasks (fetch+merge+reduce+write).
    pub reduce_spans: Vec<TaskSpan>,
    /// Virtual time when the map phase completed.
    pub map_phase_end: VNanos,
    /// Virtual job makespan.
    pub wall: VNanos,
    /// Total intermediate bytes shuffled across the (virtual) network.
    pub shuffled_bytes: u64,
    /// Per-reduce-task shuffle statistics (fetch histograms + NIC-model
    /// schedule), in partition order. See [`crate::shuffle`].
    pub reduce_shuffles: Vec<ShuffleStats>,
    /// Speculative-execution counters (zero unless
    /// [`JobConfig::speculation`](crate::cluster::JobConfig::speculation)
    /// was enabled).
    pub speculation: SpeculationStats,
}

impl JobProfile {
    /// The timing-free part of this profile (see [`JobSignature`]).
    pub fn signature(&self) -> JobSignature {
        JobSignature {
            map_tasks: self.map_tasks.iter().map(TaskProfile::signature).collect(),
            reduce_tasks: self
                .reduce_tasks
                .iter()
                .map(TaskProfile::signature)
                .collect(),
            shuffled_bytes: self.shuffled_bytes,
        }
    }

    /// Aggregate shuffle statistics across all reduce tasks (byte totals
    /// and virtual times add; `max_flow_ns` keeps the job-wide maximum).
    pub fn shuffle_stats(&self) -> ShuffleStats {
        let mut agg = ShuffleStats::default();
        for s in &self.reduce_shuffles {
            agg.merge(s);
        }
        agg
    }

    /// Sum of all operation times across all tasks.
    pub fn total_ops(&self) -> OpTimes {
        let mut agg = OpTimes::new();
        for t in self.map_tasks.iter().chain(self.reduce_tasks.iter()) {
            agg.merge(&t.ops);
        }
        agg
    }

    /// Mean map-thread idle fraction across map tasks (Table II row).
    pub fn map_idle_pct(&self) -> f64 {
        mean(self.map_tasks.iter().map(|t| t.map_idle_fraction())) * 100.0
    }

    /// Mean support-thread idle fraction across map tasks (Table II row).
    pub fn support_idle_pct(&self) -> f64 {
        mean(self.map_tasks.iter().map(|t| t.support_idle_fraction())) * 100.0
    }

    /// Total records removed from the intermediate data by combining
    /// (spill-time + merge-time + frequency-buffer).
    pub fn records_emitted(&self) -> u64 {
        self.map_tasks.iter().map(|t| t.emitted_records).sum()
    }

    /// Virtual makespan as a `Duration`.
    pub fn wall_duration(&self) -> Duration {
        Duration::from_nanos(self.wall)
    }
}

/// Timing-free summary of a whole multi-round DAG run: one
/// [`JobSignature`] per round, in execution order. Two DAG runs with equal
/// signatures produced byte-identical intermediate and final data at every
/// round boundary, whatever the cluster shape or fault timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagSignature {
    /// Per-round signatures, in round order.
    pub rounds: Vec<JobSignature>,
}

/// Aggregated profile of a multi-round DAG job: the per-round profiles
/// plus the cumulative virtual makespan (rounds run back to back on one
/// scheduler, so the DAG wall is the last round's wall).
#[derive(Debug, Clone, Default)]
pub struct DagProfile {
    /// Per-round profiles, in execution order.
    pub rounds: Vec<JobProfile>,
    /// Virtual makespan of the whole DAG.
    pub wall: VNanos,
}

impl DagProfile {
    /// The timing-free part of this profile (see [`DagSignature`]).
    pub fn signature(&self) -> DagSignature {
        DagSignature {
            rounds: self.rounds.iter().map(JobProfile::signature).collect(),
        }
    }

    /// Sum of all operation times across every round's tasks — the
    /// cumulative abstraction-cost account of the whole pipeline.
    pub fn total_ops(&self) -> OpTimes {
        let mut agg = OpTimes::new();
        for r in &self.rounds {
            agg.merge(&r.total_ops());
        }
        agg
    }

    /// Total intermediate bytes shuffled across all rounds.
    pub fn shuffled_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.shuffled_bytes).sum()
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Virtual makespan as a `Duration`.
    pub fn wall_duration(&self) -> Duration {
        Duration::from_nanos(self.wall)
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Convenience stopwatch measuring real elapsed time into an [`OpTimes`].
///
/// This is *the* measured-op site: abstraction-cost figures report how long
/// the host actually spent inside each operation, so host time is the
/// datum here, not a leak into the virtual schedule.
// textmr-lint: allow(wall-clock-in-virtual-path, reason = "measured-op stopwatch; real elapsed time is the quantity being reported, it never feeds the virtual schedule")
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing.
    #[inline]
    pub fn start() -> Self {
        // textmr-lint: allow(wall-clock-in-virtual-path, reason = "measured-op stopwatch start; see Stopwatch docs")
        Stopwatch(std::time::Instant::now())
    }

    /// Elapsed nanoseconds since start.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed nanoseconds since start or the previous lap, restarting the
    /// watch there: one clock read ends one interval and begins the next,
    /// so back-to-back laps tile the time with nothing left between them.
    #[inline]
    pub fn lap_ns(&mut self) -> u64 {
        // textmr-lint: allow(wall-clock-in-virtual-path, reason = "measured-op stopwatch lap; see Stopwatch docs")
        let now = std::time::Instant::now();
        let ns = u64::try_from(now.duration_since(self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }

    /// Stop and record into `times` under `op`; returns elapsed ns.
    #[inline]
    pub fn stop(self, times: &mut OpTimes, op: Op) -> u64 {
        let ns = self.elapsed_ns();
        times.add_nanos(op, ns);
        ns
    }
}

/// Calls per timed call of a [`SampledCost`]. One clock pair costs about
/// 60 ns on a 2-core KVM host, as much as the emit it would time, so
/// per-record sites time one call in this many.
const SAMPLE_EVERY: u64 = 16;

/// The cost of a per-record call, estimated from a sample of its calls.
///
/// Which calls are timed is decided by the caller's call counter (the
/// [`SAMPLE_EVERY`]-th, the 2×[`SAMPLE_EVERY`]-th, …), never by time, so
/// two runs of the same input time the same calls. Counting from 1 keeps
/// the cold first call and the growth of a vector pushed once per call
/// off the sample: such a vector reallocates on calls 1 and 2^k + 1,
/// never on a multiple of [`SAMPLE_EVERY`].
#[derive(Debug, Default)]
pub(crate) struct SampledCost {
    samples: u64,
    sampled_ns: u64,
}

impl SampledCost {
    /// Start a stopwatch if call number `count` (counted from 1) is
    /// sampled.
    #[inline]
    pub(crate) fn start(count: u64) -> Option<Stopwatch> {
        Self::is_sampled(count).then(Stopwatch::start)
    }

    /// Whether call number `count` (counted from 1) is sampled.
    #[inline]
    pub(crate) fn is_sampled(count: u64) -> bool {
        count.is_multiple_of(SAMPLE_EVERY)
    }

    /// Record one sampled call's cost.
    #[inline]
    pub(crate) fn record(&mut self, ns: u64) {
        self.samples += 1;
        self.sampled_ns = self.sampled_ns.saturating_add(ns);
    }

    /// Calls timed so far.
    #[cfg(test)]
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    /// Estimated cost of `calls` calls at the running mean of the samples
    /// so far (0 before the first sample).
    pub(crate) fn estimate(&self, calls: u64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let ns = u128::from(calls) * u128::from(self.sampled_ns) / u128::from(self.samples);
        u64::try_from(ns).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_cost_samples_by_counter_and_scales_the_mean() {
        let sampled: Vec<u64> = (1..=40)
            .filter(|&i| SampledCost::start(i).is_some())
            .collect();
        assert_eq!(sampled, vec![16, 32]);
        let mut c = SampledCost::default();
        assert_eq!(c.estimate(100), 0);
        c.record(30);
        c.record(50);
        assert_eq!(c.samples(), 2);
        assert_eq!(c.estimate(10), 400);
        assert_eq!(c.estimate(0), 0);
    }

    #[test]
    fn op_indices_match_all_order() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn user_vs_abstraction_partition_work() {
        let mut t = OpTimes::new();
        t.add_nanos(Op::Map, 70);
        t.add_nanos(Op::Sort, 20);
        t.add_nanos(Op::Combine, 10);
        t.add_nanos(Op::MapIdle, 999); // idle not counted as work
        assert_eq!(t.total_work(), 100);
        assert_eq!(t.user_code(), 80);
        assert_eq!(t.abstraction_cost(), 20);
    }

    #[test]
    fn phase_assignment() {
        assert_eq!(Op::Sort.phase(), Phase::Map);
        assert_eq!(Op::ShuffleFetch.phase(), Phase::Shuffle);
        assert_eq!(Op::Reduce.phase(), Phase::Reduce);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut t = OpTimes::new();
        t.add_nanos(Op::Read, 10);
        t.add_nanos(Op::Map, 30);
        t.add_nanos(Op::Emit, 60);
        let sum: f64 = t.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_fractions() {
        let t = TaskProfile {
            produce_busy: 60,
            producer_wait: 40,
            consume_busy: 50,
            consumer_wait: 30,
            ..Default::default()
        };
        // pipeline span = 60 + 40 = 100; consumer span = 80 < producer span,
        // so no trailing extension.
        assert_eq!(t.pipeline_span(), 100);
        assert!((t.map_idle_fraction() - 0.4).abs() < 1e-12);
        assert!((t.support_idle_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trailing_consumer_extends_span() {
        let t = TaskProfile {
            produce_busy: 50,
            producer_wait: 0,
            consume_busy: 70,
            consumer_wait: 10,
            ..Default::default()
        };
        // Consumer span 80 > producer span 50 → span 80.
        assert_eq!(t.pipeline_span(), 80);
    }

    #[test]
    fn profiles_are_plain_send_sync_data() {
        // Task results cross worker-thread boundaries in the parallel
        // driver; these types must stay plain data.
        fn check<T: Send + Sync>() {}
        check::<OpTimes>();
        check::<SpillStat>();
        check::<TaskProfile>();
        check::<TaskSpan>();
        check::<JobProfile>();
        check::<TaskSignature>();
        check::<JobSignature>();
    }

    #[test]
    fn signatures_strip_timing() {
        let mut t = TaskProfile {
            input_records: 3,
            emitted_records: 9,
            ..Default::default()
        };
        t.ops.add_nanos(Op::Map, 1234); // timing must not appear in the signature
        t.spills.push(SpillStat {
            bytes: 100,
            records: 9,
            records_after_combine: 4,
            produce_ns: 55,
            consume_ns: 66,
            fraction: 0.8,
        });
        let sig = t.signature();
        assert_eq!(sig.input_records, 3);
        assert_eq!(sig.spills, vec![(100, 9, 4)]);
        let mut later = t.clone();
        later.ops.add_nanos(Op::Sort, 999);
        later.spills[0].produce_ns = 1;
        assert_eq!(sig, later.signature());
    }

    #[test]
    fn job_profile_aggregation() {
        let mut a = TaskProfile::default();
        a.ops.add_nanos(Op::Map, 5);
        let mut b = TaskProfile::default();
        b.ops.add_nanos(Op::Reduce, 7);
        let p = JobProfile {
            map_tasks: vec![a],
            reduce_tasks: vec![b],
            ..Default::default()
        };
        let agg = p.total_ops();
        assert_eq!(agg.get(Op::Map), 5);
        assert_eq!(agg.get(Op::Reduce), 7);
    }
}
