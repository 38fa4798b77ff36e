//! The shuffle subsystem: a pooled parallel fetcher per reduce task and a
//! contention-aware per-node NIC model for shuffle virtual time.
//!
//! A reduce task fetches its partition from every map output. Two things
//! happen per fetch: *real* work (disk read of the stored partition), which
//! is measured, and *virtual* network time for remote sources.
//! Historically both lived in a sequential `for` loop inside the reduce
//! task; this module lifts them into a first-class subsystem with two
//! independent knobs:
//!
//! * **Fetcher pool**
//!   ([`ClusterConfig::shuffle_fetchers`](crate::cluster::ClusterConfig::shuffle_fetchers)):
//!   the real disk reads run on a bounded pool of scoped threads, like
//!   Hadoop's small pool of parallel copiers. Results are collected in
//!   **map-task-id order** (the same recipe the job driver uses for task
//!   results), so the merged reduce input is byte-identical at any fetcher
//!   count.
//! * **NIC-sharing virtual-time model**: with `f` fetchers, up to `f`
//!   flows are in flight at once and concurrent flows into the reducer's
//!   node share its ingress bandwidth fairly; the unified event loop in
//!   [`crate::event`] computes the resulting schedule
//!   ([`crate::event::simulate_attempt_flows`]) at every fetcher count.
//!   Fetch virtual time is therefore the *makespan* of overlapping flows —
//!   never more than the sequential sum, never less than the largest
//!   single flow. One fetcher is the degenerate case: flows run back to
//!   back on one slot, each with the NIC to itself, so virtual time is the
//!   plain sum of every flow's isolated cost (disk read, `latency +
//!   bytes/bandwidth`). Engine flows carry no post work: the stored bytes
//!   are the reduce input.
//!
//! The event loop also measures the **straggler tail**: the span during
//! which every other fetcher has drained and the reducer is stalled on its
//! single slowest source. That feeds
//! [`Op::ShuffleWait`](crate::metrics::Op::ShuffleWait) and the
//! `shuffle_scale` harness.
//!
//! Under a map budget
//! ([`ClusterConfig::map_budget_bytes`](crate::cluster::ClusterConfig::map_budget_bytes))
//! a map output partition is a *framed run* ([`crate::io::frame`]): the
//! fetcher ships the stored frames verbatim — frame-level decompression
//! is deferred to the reduce-side merge, which decodes one frame window at
//! a time. The bytes on the wire are the stored bytes, so
//! [`ShuffleStats`] counts the compressed `fetched_bytes`.
//!
//! The schedule computed *here* is the attempt-in-isolation one: this
//! reduce attempt's own flows sharing the destination NIC. Cross-task
//! contention — two reduce tasks scheduled onto the same node — is modeled
//! one level up, where the job driver replays the whole reduce phase
//! through [`crate::event::Scheduler::run_reduce_phase`] with node ingress
//! as a shared resource; [`ShuffleOutcome::inputs`] carries the per-flow
//! measured costs that replay needs. (Before the unified event loop this
//! was a documented modeling gap: co-located reducers did not contend.)

use crate::event::{simulate_attempt_flows, Flow, FlowSched};
use crate::fault::{shuffle_backoff_ns, FaultPlan};
use crate::metrics::{Stopwatch, VNanos};
use crate::net::NetworkConfig;
use crate::pool::run_indexed;
use crate::task::map_task::MapOutput;
use crate::trace::FlowTrace;
use std::io;

/// Hard cap on parallel fetchers per reduce task. Keeps the NIC event
/// loop's exact integer arithmetic in range ([`crate::event::SCALE32`] is
/// the LCM of all admissible flow counts); Hadoop's `parallel copies`
/// default is 5, so 16 is already generous.
pub const MAX_FETCHERS: usize = 16;

/// Number of power-of-two size buckets in a [`FetchHistogram`]
/// (bucket 39 holds fetches of 2^38 bytes = 256 GiB and above).
pub const NUM_FETCH_BUCKETS: usize = 40;

/// Power-of-two histogram of per-fetch stored sizes (bytes as shuffled,
/// i.e. compressed when map outputs are compressed).
///
/// Bucket `0` counts empty fetches; bucket `i > 0` counts fetches with
/// `bytes` in `[2^(i-1), 2^i)`. Timing-free and deterministic: identical
/// across worker and fetcher counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchHistogram {
    counts: [u64; NUM_FETCH_BUCKETS],
}

impl Default for FetchHistogram {
    fn default() -> Self {
        FetchHistogram {
            counts: [0; NUM_FETCH_BUCKETS],
        }
    }
}

impl FetchHistogram {
    /// Bucket index for a fetch of `bytes` stored bytes.
    pub fn bucket_of(bytes: u64) -> usize {
        ((u64::BITS - bytes.leading_zeros()) as usize).min(NUM_FETCH_BUCKETS - 1)
    }

    /// Count one fetch of `bytes` stored bytes.
    pub fn record(&mut self, bytes: u64) {
        self.counts[Self::bucket_of(bytes)] += 1;
    }

    /// Add another histogram's counts into this one.
    pub fn merge(&mut self, other: &FetchHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// All bucket counts, index `i` covering `[2^(i-1), 2^i)` (index 0:
    /// empty fetches).
    pub fn buckets(&self) -> &[u64; NUM_FETCH_BUCKETS] {
        &self.counts
    }

    /// Total fetches recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Per-reduce-task shuffle statistics: byte totals, the fetch-size
/// histogram, and the virtual-time outcome of the NIC model.
///
/// Byte totals and the histogram are timing-free (deterministic across
/// worker/fetcher counts); the `*_ns` fields are virtual times driven by
/// measured disk costs and carry the usual measurement noise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Number of map outputs fetched (one per map task).
    pub fetches: u64,
    /// Fetches whose source node differed from the reducer's node.
    pub remote_fetches: u64,
    /// Total stored bytes fetched (all sources).
    pub fetched_bytes: u64,
    /// Stored bytes fetched from remote sources (paid network time).
    pub remote_bytes: u64,
    /// Parallel fetchers the schedule was computed for (after clamping).
    pub fetchers: usize,
    /// Virtual shuffle makespan under the NIC-sharing model. Equals
    /// [`ShuffleStats::sequential_ns`] when `fetchers == 1`.
    pub virtual_ns: VNanos,
    /// The one-fetcher virtual time — the serial sum of every flow's
    /// isolated cost — computed from the same measured inputs for
    /// comparison.
    pub sequential_ns: VNanos,
    /// Largest single fetch (disk + latency + full-bandwidth transfer): a
    /// lower bound on any schedule's makespan.
    pub max_flow_ns: VNanos,
    /// Straggler tail: time the reducer was stalled on its single slowest
    /// source while every other fetcher was idle. Zero when `fetchers == 1`
    /// (a lone fetcher is always busy, never stalled).
    pub wait_ns: VNanos,
    /// Transiently failed fetch attempts that were retried (injected via
    /// [`FaultPlan::shuffle_fail`]). Deterministic: a pure function of the
    /// fault plan.
    pub retries: u64,
    /// Total virtual backoff charged before retries (capped exponential,
    /// [`crate::fault::shuffle_backoff_ns`]); flows into the NIC schedule
    /// as pre-flow time and into
    /// [`Op::ShuffleRetry`](crate::metrics::Op::ShuffleRetry).
    /// Deterministic, like `retries`.
    pub backoff_ns: VNanos,
    /// Histogram of per-fetch stored sizes.
    pub size_hist: FetchHistogram,
}

impl ShuffleStats {
    /// Merge another task's stats into this aggregate (virtual times add;
    /// `fetchers` keeps the maximum seen).
    pub fn merge(&mut self, other: &ShuffleStats) {
        self.fetches += other.fetches;
        self.remote_fetches += other.remote_fetches;
        self.fetched_bytes += other.fetched_bytes;
        self.remote_bytes += other.remote_bytes;
        self.fetchers = self.fetchers.max(other.fetchers);
        self.virtual_ns = self.virtual_ns.saturating_add(other.virtual_ns);
        self.sequential_ns = self.sequential_ns.saturating_add(other.sequential_ns);
        self.max_flow_ns = self.max_flow_ns.max(other.max_flow_ns);
        self.wait_ns = self.wait_ns.saturating_add(other.wait_ns);
        self.retries += other.retries;
        self.backoff_ns = self.backoff_ns.saturating_add(other.backoff_ns);
        self.size_hist.merge(&other.size_hist);
    }
}

/// One fetch's measured costs and routing, as the unified event loop's
/// phase-level replay needs them: the [`Flow`] the NIC model schedules
/// plus the source node it came from. Index == map task id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInput {
    /// The flow as the NIC model sees it (pre work, network, post work).
    pub flow: Flow,
    /// Node the partition was fetched from.
    pub src_node: usize,
}

/// Everything a reduce task needs from its shuffle: the fetched runs plus
/// accounting.
#[derive(Debug)]
pub struct ShuffleOutcome {
    /// Non-empty partition runs, in map-task-id order — byte-identical at
    /// any fetcher count. For plain outputs these are decompressed record
    /// bytes; for framed outputs they are the stored frames, decoded
    /// window-by-window later in the reduce-side merge.
    pub runs: Vec<Vec<u8>>,
    /// Measured real work (disk reads + decompression), for
    /// [`Op::ShuffleFetch`](crate::metrics::Op::ShuffleFetch).
    pub fetch_work_ns: u64,
    /// Per-task statistics including the virtual-time schedule.
    pub stats: ShuffleStats,
    /// Per-flow measured inputs in map-task-id order — what the job driver
    /// feeds back into [`crate::event::Scheduler::run_reduce_phase`] to
    /// model cross-task ingress contention. Always populated.
    pub inputs: Vec<FlowInput>,
    /// Per-flow schedule (phase boundaries per fetch, in map-task order),
    /// recorded only when `run_shuffle` was called with `trace = true`.
    pub flows: Option<Vec<FlowTrace>>,
}

/// One fetched partition (its stored bytes) with its measured costs.
struct FetchedRun {
    data: Vec<u8>,
    src_node: usize,
    io_ns: u64,
    retries: u64,
    backoff_ns: u64,
}

/// Read one map output's stored partition, measuring the read.
///
/// When the fault plan marks a fetch attempt of `map_task` as transiently
/// failed, the (real, measured) read is discarded and retried after a
/// capped exponential backoff charged in *virtual* time; the fetch errors
/// out only when `max_fetch_attempts` attempts have all failed.
fn fetch_one(
    mo: &MapOutput,
    map_task: usize,
    partition: usize,
    faults: Option<&FaultPlan>,
    max_fetch_attempts: usize,
) -> io::Result<FetchedRun> {
    let mut io_ns = 0u64;
    let mut retries = 0u64;
    let mut backoff_ns = 0u64;
    loop {
        let attempt = retries as usize;
        let sw = Stopwatch::start();
        let data = mo.file.read_partition(partition)?;
        io_ns = io_ns.saturating_add(sw.elapsed_ns());
        if faults.is_some_and(|f| f.shuffle_fault(map_task, attempt)) {
            retries += 1;
            if attempt + 1 >= max_fetch_attempts.max(1) {
                return Err(io::Error::other(format!(
                    "shuffle fetch of map output {map_task} (partition {partition}) \
                     failed {retries} attempts"
                )));
            }
            backoff_ns = backoff_ns.saturating_add(shuffle_backoff_ns(attempt));
            continue;
        }
        return Ok(FetchedRun {
            data,
            src_node: mo.node,
            io_ns,
            retries,
            backoff_ns,
        });
    }
}

/// Fetch a reduce task's partition from every map output.
///
/// Real disk reads run on up to `fetchers` scoped threads (1 = inline);
/// the virtual-time schedule is computed by the NIC-sharing model. Runs
/// come back in map-task-id order regardless of fetcher count.
///
/// `faults` injects transient fetch failures (keyed by map-task id and
/// fetch attempt); each failure costs a virtual backoff that is charged to
/// the flow's pre-work in the NIC schedule, and a fetch whose failures
/// reach `max_fetch_attempts` becomes a hard `io::Error`.
///
/// With `trace` enabled the per-flow schedule (phase boundaries per fetch)
/// is recorded into [`ShuffleOutcome::flows`]; the untraced path records
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_shuffle(
    map_outputs: &[MapOutput],
    partition: usize,
    dst_node: usize,
    net: &NetworkConfig,
    fetchers: usize,
    faults: Option<&FaultPlan>,
    max_fetch_attempts: usize,
    trace: bool,
) -> io::Result<ShuffleOutcome> {
    let fetchers = fetchers.clamp(1, MAX_FETCHERS);
    let fetched = run_indexed(fetchers.min(map_outputs.len()), map_outputs.len(), |i| {
        // Map outputs arrive in map-task-id order, so index == task id.
        fetch_one(&map_outputs[i], i, partition, faults, max_fetch_attempts)
    });

    let mut stats = ShuffleStats {
        fetchers,
        ..ShuffleStats::default()
    };
    let mut fetch_work_ns = 0u64;
    let mut inputs: Vec<FlowInput> = Vec::with_capacity(map_outputs.len());
    let mut runs = Vec::with_capacity(map_outputs.len());
    // Results arrive in map-task-id order; the first error seen is the one
    // a sequential fetch loop would have reported.
    for fr in fetched {
        let fr = fr?;
        let stored_bytes = fr.data.len() as u64;
        let remote = fr.src_node != dst_node;
        stats.fetches += 1;
        stats.fetched_bytes += stored_bytes;
        if remote {
            stats.remote_fetches += 1;
            stats.remote_bytes += stored_bytes;
        }
        stats.size_hist.record(stored_bytes);
        stats.retries += fr.retries;
        stats.backoff_ns = stats.backoff_ns.saturating_add(fr.backoff_ns);
        fetch_work_ns = fetch_work_ns.saturating_add(fr.io_ns);
        // Backoff is virtual pre-flow time: the fetcher holds its slot
        // while backing off, so retries delay this flow (and, under the
        // NIC model, anything queued behind it) but burn no real work.
        let flow = Flow {
            io_ns: fr.io_ns,
            backoff_ns: fr.backoff_ns,
            remote,
            latency_ns: net.latency_ns,
            rate_ns: net.full_rate_ns(stored_bytes),
            post_ns: 0,
        };
        stats.sequential_ns = stats.sequential_ns.saturating_add(flow.isolated_ns());
        stats.max_flow_ns = stats.max_flow_ns.max(flow.isolated_ns());
        inputs.push(FlowInput {
            flow,
            src_node: fr.src_node,
        });
        if !fr.data.is_empty() {
            runs.push(fr.data);
        }
    }

    let jobs: Vec<Flow> = inputs.iter().map(|i| i.flow).collect();
    let sim = simulate_attempt_flows(&jobs, fetchers);
    stats.virtual_ns = sim.virtual_ns;
    stats.wait_ns = sim.wait_ns;
    debug_assert!(
        stats.virtual_ns <= stats.sequential_ns,
        "NIC sharing cannot exceed the sequential sum"
    );
    debug_assert!(
        stats.virtual_ns >= stats.max_flow_ns,
        "no schedule beats the largest single flow"
    );
    let flows = trace.then(|| flow_traces(&sim.flows, &inputs));

    Ok(ShuffleOutcome {
        runs,
        fetch_work_ns,
        stats,
        inputs,
        flows,
    })
}

/// Trace rows for a shuffle schedule, in map-task order: each scheduled
/// flow's phase marks joined with its measured input.
pub(crate) fn flow_traces(sched: &[FlowSched], inputs: &[FlowInput]) -> Vec<FlowTrace> {
    let mut sched = sched.to_vec();
    sched.sort_by_key(|s| s.flow);
    sched
        .iter()
        .map(|s| {
            let inp = inputs[s.flow];
            FlowTrace {
                map_task: s.flow,
                src_node: inp.src_node,
                remote: inp.flow.remote,
                io_ns: inp.flow.io_ns,
                backoff_ns: inp.flow.backoff_ns,
                slot: s.slot,
                start: s.start,
                pre_end: s.pre_end,
                latency_end: s.latency_end,
                transfer_end: s.transfer_end,
                finish: s.finish,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remote(pre: u64, bytes_ns: u64, post: u64) -> Flow {
        Flow {
            io_ns: pre,
            backoff_ns: 0,
            remote: true,
            latency_ns: 100,
            rate_ns: bytes_ns,
            post_ns: post,
        }
    }

    fn local(pre: u64, post: u64) -> Flow {
        Flow {
            io_ns: pre,
            backoff_ns: 0,
            remote: false,
            latency_ns: 100,
            rate_ns: 0,
            post_ns: post,
        }
    }

    fn seq_sum(jobs: &[Flow]) -> u64 {
        jobs.iter().map(Flow::isolated_ns).sum()
    }

    fn max_flow(jobs: &[Flow]) -> u64 {
        jobs.iter().map(Flow::isolated_ns).max().unwrap_or(0)
    }

    /// The legacy `nic_schedule` signature over the unified event loop.
    fn nic_schedule(jobs: &[Flow], fetchers: usize) -> (VNanos, VNanos) {
        let sim = simulate_attempt_flows(jobs, fetchers);
        (sim.virtual_ns, sim.wait_ns)
    }

    #[test]
    fn one_fetcher_matches_sequential_sum() {
        let jobs = vec![remote(10, 1000, 5), local(7, 9), remote(3, 500, 2)];
        let (makespan, wait) = nic_schedule(&jobs, 1);
        assert_eq!(makespan, seq_sum(&jobs));
        assert_eq!(wait, 0);
    }

    #[test]
    fn two_equal_flows_share_the_nic() {
        // Two identical remote flows, no fixed work: each transfer takes
        // twice as long at half rate, but they overlap — makespan is
        // latency + 2 × full_rate (both drain together), not 2 × (latency
        // + full_rate).
        let jobs = vec![remote(0, 1000, 0), remote(0, 1000, 0)];
        let (makespan, _) = nic_schedule(&jobs, 2);
        assert_eq!(makespan, 100 + 2000);
        assert!(makespan < seq_sum(&jobs));
        assert!(makespan >= max_flow(&jobs));
    }

    #[test]
    fn unequal_flows_finish_shortest_first() {
        // 300 and 900 full-rate ns sharing: the short flow drains after
        // 600 shared ns (progress 300); the long one then has 600 left at
        // full rate. Makespan = latency + 600 + 600.
        let jobs = vec![remote(0, 300, 0), remote(0, 900, 0)];
        let (makespan, wait) = nic_schedule(&jobs, 2);
        assert_eq!(makespan, 100 + 600 + 600);
        // Tail where only the 900-flow remains: 600 ns.
        assert_eq!(wait, 600);
    }

    #[test]
    fn local_fetches_do_not_consume_bandwidth() {
        // A local fetch overlaps a remote flow without slowing it.
        let jobs = vec![remote(0, 1000, 0), local(500, 0)];
        let (makespan, _) = nic_schedule(&jobs, 2);
        assert_eq!(makespan, 100 + 1000);
    }

    #[test]
    fn bounds_hold_for_many_mixed_jobs() {
        let jobs: Vec<Flow> = (0..23)
            .map(|i| {
                if i % 3 == 0 {
                    local(17 * i as u64, 5)
                } else {
                    remote(11 * i as u64, 137 * i as u64, i as u64)
                }
            })
            .collect();
        for f in [2, 3, 4, 8, 16] {
            let (makespan, wait) = nic_schedule(&jobs, f);
            assert!(makespan <= seq_sum(&jobs), "f={f}");
            assert!(makespan >= max_flow(&jobs), "f={f}");
            assert!(wait <= makespan, "f={f}");
        }
        // More fetchers never slow the schedule down on flow-free work...
        // with shared bandwidth the makespan is monotone non-increasing.
        let (m2, _) = nic_schedule(&jobs, 2);
        let (m16, _) = nic_schedule(&jobs, 16);
        assert!(m16 <= m2);
    }

    #[test]
    fn local_decompress_occupies_the_fetcher_slot() {
        // Local flows with post work: the post phase is scheduled, so a
        // lone slot serializes pre + post per flow, while two slots overlap
        // the flows completely (local flows never contend for the NIC).
        let jobs = vec![local(100, 50), local(100, 50)];
        let (m1, _) = nic_schedule(&jobs, 1);
        assert_eq!(m1, 300);
        let (m2, _) = nic_schedule(&jobs, 2);
        assert_eq!(m2, 150);
    }

    #[test]
    fn local_flow_phase_marks_split_pre_and_post() {
        // A local flow's latency/transfer marks collapse onto the end of
        // its disk read; the post phase runs after them, giving the
        // trace the same phase granularity as a remote flow.
        let jobs = vec![local(100, 50), remote(100, 200, 50)];
        let sim = simulate_attempt_flows(&jobs, 2);
        let mut sched = sim.flows;
        sched.sort_by_key(|s| s.flow);
        let l = sched[0];
        assert_eq!(
            (l.start, l.pre_end, l.latency_end, l.transfer_end, l.finish),
            (0, 100, 100, 100, 150)
        );
        let r = sched[1];
        assert_eq!(
            (r.start, r.pre_end, r.latency_end, r.transfer_end, r.finish),
            (0, 100, 200, 400, 450)
        );
        assert_eq!(sim.virtual_ns, 450);
    }

    #[test]
    fn zero_cost_jobs_terminate() {
        let jobs = vec![local(0, 0), remote(0, 0, 0), local(0, 0)];
        for f in [1, 2, 4] {
            let (makespan, _) = nic_schedule(&jobs, f);
            // Only the remote latency costs anything, at any fetcher count.
            assert_eq!(makespan, 100, "f={f}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let (makespan, wait) = nic_schedule(&[], 4);
        assert_eq!((makespan, wait), (0, 0));
    }

    #[test]
    fn outcome_inputs_align_with_map_tasks() {
        let outputs = vec![
            test_output("inputs_a.bin", 1, &["alpha", "beta"]),
            test_output("inputs_b.bin", 0, &["gamma"]),
        ];
        let net = NetworkConfig::local_cluster();
        let out = run_shuffle(&outputs, 0, 0, &net, 2, None, 4, false).unwrap();
        assert_eq!(out.inputs.len(), 2);
        assert_eq!(out.inputs[0].src_node, 1);
        assert!(out.inputs[0].flow.remote);
        assert_eq!(out.inputs[1].src_node, 0);
        assert!(!out.inputs[1].flow.remote);
        // Replaying the recorded inputs through the event loop in isolation
        // reproduces the attempt's own schedule.
        let jobs: Vec<Flow> = out.inputs.iter().map(|i| i.flow).collect();
        let sim = simulate_attempt_flows(&jobs, 2);
        assert_eq!(sim.virtual_ns, out.stats.virtual_ns);
        assert_eq!(sim.wait_ns, out.stats.wait_ns);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(FetchHistogram::bucket_of(0), 0);
        assert_eq!(FetchHistogram::bucket_of(1), 1);
        assert_eq!(FetchHistogram::bucket_of(2), 2);
        assert_eq!(FetchHistogram::bucket_of(3), 2);
        assert_eq!(FetchHistogram::bucket_of(4), 3);
        assert_eq!(FetchHistogram::bucket_of(u64::MAX), NUM_FETCH_BUCKETS - 1);
        let mut h = FetchHistogram::default();
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.total(), 3);
        assert_eq!(h.buckets()[2], 2);
        let mut h2 = FetchHistogram::default();
        h2.record(3);
        h2.merge(&h);
        assert_eq!(h2.buckets()[2], 3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ShuffleStats {
            fetches: 2,
            remote_bytes: 10,
            fetched_bytes: 20,
            virtual_ns: 5,
            sequential_ns: 7,
            max_flow_ns: 4,
            wait_ns: 1,
            retries: 2,
            backoff_ns: 30,
            fetchers: 2,
            ..Default::default()
        };
        let b = ShuffleStats {
            fetches: 1,
            remote_bytes: 5,
            fetched_bytes: 5,
            virtual_ns: 3,
            sequential_ns: 3,
            max_flow_ns: 6,
            wait_ns: 0,
            retries: 1,
            backoff_ns: 12,
            fetchers: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.fetches, 3);
        assert_eq!(a.remote_bytes, 15);
        assert_eq!(a.fetched_bytes, 25);
        assert_eq!(a.virtual_ns, 8);
        assert_eq!(a.sequential_ns, 10);
        assert_eq!(a.max_flow_ns, 6);
        assert_eq!(a.retries, 3);
        assert_eq!(a.backoff_ns, 42);
        assert_eq!(a.fetchers, 4);
    }

    // ---- fetch-retry tests (injected transient faults) ---------------------

    use crate::io::spill_file::SpillFile;

    /// Build a single-partition map output on disk for fetch tests.
    fn test_output(name: &str, node: usize, words: &[&str]) -> MapOutput {
        let dir = std::env::temp_dir().join(format!("textmr-shuffle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SpillFile::create(dir.join(name)).unwrap();
        w.start_partition(0).unwrap();
        for word in words {
            w.write_record(word.as_bytes(), b"1").unwrap();
        }
        MapOutput {
            file: w.finish().unwrap(),
            node,
            framed: false,
        }
    }

    #[test]
    fn injected_fetch_faults_retry_with_virtual_backoff() {
        let outputs = vec![
            test_output("retry_a.bin", 1, &["alpha", "beta"]),
            test_output("retry_b.bin", 2, &["gamma"]),
        ];
        let net = NetworkConfig::local_cluster();
        let clean = run_shuffle(&outputs, 0, 0, &net, 1, None, 4, false).unwrap();
        // Map 0 fails twice, map 1 once — all within the 4-attempt budget.
        let plan = FaultPlan::new()
            .shuffle_fail(0, 0)
            .shuffle_fail(0, 1)
            .shuffle_fail(1, 0);
        let faulty = run_shuffle(&outputs, 0, 0, &net, 1, Some(&plan), 4, false).unwrap();
        // Byte-identical reduce input despite the retries.
        assert_eq!(faulty.runs, clean.runs);
        assert_eq!(faulty.stats.fetched_bytes, clean.stats.fetched_bytes);
        assert_eq!(faulty.stats.size_hist, clean.stats.size_hist);
        // Retries and their deterministic virtual backoff appear in stats.
        assert_eq!(clean.stats.retries, 0);
        assert_eq!(clean.stats.backoff_ns, 0);
        assert_eq!(faulty.stats.retries, 3);
        let expected_backoff =
            shuffle_backoff_ns(0) + shuffle_backoff_ns(1) + shuffle_backoff_ns(0);
        assert_eq!(faulty.stats.backoff_ns, expected_backoff);
        // Backoff is charged in virtual time: it is part of the flows'
        // pre-work, so even the one-fetcher sequential sum must cover it.
        assert!(faulty.stats.virtual_ns >= expected_backoff);
        assert_eq!(faulty.stats.virtual_ns, faulty.stats.sequential_ns);
    }

    #[test]
    fn exhausted_fetch_retries_error_out() {
        let outputs = vec![test_output("exhaust.bin", 1, &["k"])];
        let plan = FaultPlan::new()
            .shuffle_fail(0, 0)
            .shuffle_fail(0, 1)
            .shuffle_fail(0, 2);
        let err = run_shuffle(
            &outputs,
            0,
            0,
            &NetworkConfig::local_cluster(),
            1,
            Some(&plan),
            3,
            false,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("failed 3 attempts"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn one_fetcher_without_firing_faults_matches_legacy_path() {
        let outputs = vec![
            test_output("legacy_a.bin", 0, &["x", "y"]),
            test_output("legacy_b.bin", 3, &["z"]),
        ];
        let net = NetworkConfig::local_cluster();
        // A plan that targets a map task this shuffle never fetches: no
        // fault fires, so the legacy one-fetcher accounting is reproduced
        // bit-for-bit in every deterministic field.
        let plan = FaultPlan::new().shuffle_fail(99, 0);
        let base = run_shuffle(&outputs, 0, 0, &net, 1, None, 4, false).unwrap();
        let armed = run_shuffle(&outputs, 0, 0, &net, 1, Some(&plan), 4, false).unwrap();
        assert_eq!(armed.runs, base.runs);
        assert_eq!(armed.stats.fetches, base.stats.fetches);
        assert_eq!(armed.stats.remote_fetches, base.stats.remote_fetches);
        assert_eq!(armed.stats.fetched_bytes, base.stats.fetched_bytes);
        assert_eq!(armed.stats.remote_bytes, base.stats.remote_bytes);
        assert_eq!(armed.stats.size_hist, base.stats.size_hist);
        assert_eq!(armed.stats.retries, 0);
        assert_eq!(armed.stats.backoff_ns, 0);
        assert_eq!(armed.stats.wait_ns, 0);
        assert_eq!(armed.stats.virtual_ns, armed.stats.sequential_ns);
    }

    #[test]
    fn parallel_fetchers_with_faults_keep_bytes_and_bounds() {
        let outputs: Vec<MapOutput> = (0..6)
            .map(|i| test_output(&format!("par_{i}.bin"), i, &["w", "q", "r"]))
            .collect();
        let net = NetworkConfig::local_cluster();
        let clean = run_shuffle(&outputs, 0, 0, &net, 4, None, 4, false).unwrap();
        let plan = FaultPlan::new()
            .shuffle_fail(1, 0)
            .shuffle_fail(4, 0)
            .shuffle_fail(4, 1);
        let faulty = run_shuffle(&outputs, 0, 0, &net, 4, Some(&plan), 4, false).unwrap();
        assert_eq!(faulty.runs, clean.runs);
        assert_eq!(faulty.stats.retries, 3);
        assert!(faulty.stats.virtual_ns <= faulty.stats.sequential_ns);
        assert!(faulty.stats.virtual_ns >= faulty.stats.max_flow_ns);
    }
}
