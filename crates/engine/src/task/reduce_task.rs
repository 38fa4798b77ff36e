//! Execution of one reduce task: shuffle fetch → merge → reduce → write.
//!
//! The reducer fetches its partition from every map output (a real disk
//! read, plus virtual network time for remote sources), k-way merges the
//! sorted runs, groups by key, invokes the user's `reduce()`, and
//! serializes the output. Fetching is delegated to [`crate::shuffle`]: a
//! bounded pool of parallel fetchers (like Hadoop's parallel copiers) whose
//! virtual time comes from a contention-aware per-node NIC model — with one
//! fetcher it degenerates to the sequential independent-flow accounting,
//! which is where the EC2 configuration's shuffle penalty enters (Table IV).

use crate::fault::FaultPlan;
use crate::io::frame::{decode_run, scan_frames, RunHandle};
use crate::io::store::Store;
use crate::io::StreamingConfig;
use crate::job::{Emit, Job, SliceValues};
use crate::metrics::{Op, OpTimes, SampledCost, Stopwatch, TaskProfile};
use crate::net::NetworkConfig;
use crate::shuffle::{run_shuffle, FlowInput, ShuffleStats};
use crate::task::map_task::MapOutput;
use crate::task::merge::{
    merge_grouped, merge_grouped_cursors, reduce_sources_to_fan_in, reduce_to_fan_in_with,
    CursorSource, Grouper,
};
use crate::task::TaskError;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A finished reduce task.
#[derive(Debug)]
pub struct ReduceResult {
    /// Final `(key, value)` pairs in key order.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Task profile (ops + virtual duration).
    pub profile: TaskProfile,
    /// Shuffle statistics: byte totals, fetch-size histogram, and the
    /// NIC-model schedule for this task's fetches.
    pub shuffle: ShuffleStats,
    /// Per-flow measured inputs (map-task-id order), for the job driver's
    /// phase-level replay under shared node ingress.
    pub flow_inputs: Vec<FlowInput>,
    /// Post-shuffle time decomposed as `[merge, combine, reduce, write]`
    /// nanoseconds — the exact clamped cascade the profile's ops carry, so
    /// the driver can rebuild the trace's reduce lane around a replayed
    /// shuffle schedule.
    pub post_parts: [u64; 4],
}

/// Output sink: collects the pairs, counts their serialized bytes, and
/// times a counter-chosen sample of its calls (see [`SampledCost`]) so
/// that write cost is measured apart from user reduce time.
#[derive(Default)]
struct ReduceSink {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    output_bytes: u64,
    write_cost: SampledCost,
}

impl Emit for ReduceSink {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        let sw = SampledCost::start(self.pairs.len() as u64 + 1);
        self.output_bytes += crate::codec::record_len(key.len(), value.len()) as u64;
        self.pairs.push((key.to_vec(), value.to_vec()));
        if let Some(sw) = sw {
            self.write_cost.record(sw.elapsed_ns());
        }
    }
}

/// Configuration of one reduce-task execution.
#[derive(Debug, Clone)]
pub struct ReduceTaskConfig {
    /// Partition this reducer owns.
    pub partition: usize,
    /// Node the reducer runs on.
    pub node: usize,
    /// Maximum merge fan-in.
    pub merge_fan_in: usize,
    /// Directory of the attempt's store (`r{partition}.store`), which
    /// spooled runs and intermediate merge passes append to.
    pub scratch_dir: std::path::PathBuf,
    /// Parallel shuffle fetchers (1 = sequential; clamped to
    /// [`crate::shuffle::MAX_FETCHERS`]).
    pub fetchers: usize,
    /// Fault injection: abort (as a retryable task failure) after reducing
    /// this many key groups.
    pub fail_after_groups: Option<u64>,
    /// Fault plan consulted for transient shuffle-fetch failures (keyed by
    /// map-task id and fetch attempt). `None` disables fetch faults.
    pub faults: Option<Arc<FaultPlan>>,
    /// Attempts per shuffle fetch before it becomes a hard error (the
    /// driver passes the job's `max_attempts`; clamped to ≥ 1).
    pub max_fetch_attempts: usize,
    /// Cooperative cancellation token, set by the driver when the job is
    /// aborting; checked between key groups.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Record a per-thread span timeline (reduce lane + fetcher lanes)
    /// into `TaskProfile::trace`. Off by default.
    pub trace: bool,
    /// Out-of-core streaming knobs. Relevant only when the map outputs
    /// are framed: with `materialize_reads` off, fetched runs spool to the
    /// attempt's [`Store`] and merge through one-frame windows; with it on, every frame is decoded up front.
    /// Same bytes, same output — different residency.
    pub streaming: StreamingConfig,
}

#[inline]
fn is_cancelled(cancel: &Option<Arc<AtomicBool>>) -> bool {
    cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Why the group loop stopped before draining every key group.
enum Abort {
    Injected,
    Cancelled,
}

/// Run one reduce task against all map outputs.
pub fn run_reduce_task(
    job: &Arc<dyn Job>,
    map_outputs: &[MapOutput],
    net: &NetworkConfig,
    cfg: &ReduceTaskConfig,
) -> Result<ReduceResult, TaskError> {
    let partition = cfg.partition;
    let mut ops = OpTimes::new();
    if is_cancelled(&cfg.cancel) {
        return Err(TaskError::Cancelled);
    }

    // ---- shuffle fetch (see crate::shuffle) ----------------------------------
    // Network virtual time pays for the bytes as stored (framed runs stay
    // compressed until the merge decodes them).
    let fetched = run_shuffle(
        map_outputs,
        partition,
        cfg.node,
        net,
        cfg.fetchers,
        cfg.faults.as_deref(),
        cfg.max_fetch_attempts.max(1),
        cfg.trace,
    )?;
    ops.add_nanos(Op::ShuffleFetch, fetched.fetch_work_ns);
    ops.add_nanos(Op::ShuffleWait, fetched.stats.wait_ns);
    ops.add_nanos(Op::ShuffleRetry, fetched.stats.backoff_ns);
    let shuffle_virtual_ns = fetched.stats.virtual_ns;
    let runs = fetched.runs;
    let flows = fetched.flows;
    let flow_inputs = fetched.inputs;
    let shuffle = fetched.stats;

    let framed = map_outputs.iter().any(|m| m.framed);
    let sw_all = Stopwatch::start();
    let peak_buffer_bytes;
    let mut sink = ReduceSink::default();
    // Reduce calls are timed like combine calls (see `Grouper`): one in
    // 16 and the first.
    let mut reduce_cost = SampledCost::default();
    let mut input_records = 0u64;
    let intermediate_combine_ns;
    // Group-fault / cancellation bookkeeping: the merge drives a callback
    // and cannot early-return, so the callback records the abort and skips
    // the remaining groups' user work instead.
    let mut groups_done = 0u64;
    let mut aborted: Option<Abort> = None;
    // Created on its first append: a merge with no intermediate pass and
    // nothing to spool touches no file.
    let store = Store::create(cfg.scratch_dir.join(format!("r{partition}.store")));
    let mut on_group = |key: &[u8], values: &[&[u8]]| {
        if aborted.is_some() {
            return;
        }
        input_records += values.len() as u64;
        let sw_r = SampledCost::start_or_first(groups_done + 1);
        job.reduce(key, &mut SliceValues::new(values), &mut sink);
        if let Some(sw_r) = sw_r {
            reduce_cost.record_call(groups_done + 1, sw_r.elapsed_ns());
        }
        groups_done += 1;
        if cfg.fail_after_groups == Some(groups_done) {
            aborted = Some(Abort::Injected);
        } else if groups_done.is_multiple_of(64) && is_cancelled(&cfg.cancel) {
            aborted = Some(Abort::Cancelled);
        }
    };
    if framed && !cfg.streaming.materialize_reads {
        // ---- streamed framed merge --------------------------------------
        // Spool each fetched (stored, compressed) run into the store and
        // drop the in-memory copies; every later pass reads
        // one-frame windows, so at most `fan_in + 1` windows are
        // resident. The record stream — and hence the output — is
        // identical to the materialized path below.
        let mut sources: Vec<CursorSource<'_>> = Vec::with_capacity(runs.len());
        for run in &runs {
            let metas = scan_frames(run).map_err(io::Error::from)?;
            sources.push(CursorSource::Stored(RunHandle::append(
                &store, run, metas, 0,
            )?));
        }
        drop(runs);
        let multi = reduce_sources_to_fan_in(
            sources,
            job.as_ref(),
            job.has_combiner(),
            cfg.merge_fan_in,
            cfg.streaming.frame_bytes,
            &store,
        )?;
        intermediate_combine_ns = multi.combine_ns;
        let mut cursors = multi.cursors;
        peak_buffer_bytes = cursors.iter().map(|c| c.window_bytes() as u64).sum();
        merge_grouped_cursors(&mut cursors, &|a, b| job.compare_keys(a, b), &mut on_group)?;
    } else {
        // ---- multi-pass merge down to the fan-in limit ------------------
        let runs = if framed {
            // Materialized framed reads: decode every frame up front.
            runs.iter()
                .map(|r| decode_run(r).map_err(io::Error::from))
                .collect::<io::Result<Vec<_>>>()?
        } else {
            runs
        };
        peak_buffer_bytes = runs.iter().map(|r| r.len() as u64).sum();
        let mut grouper = Grouper::new(job.as_ref(), job.has_combiner());
        let multi = reduce_to_fan_in_with(runs, &mut grouper, cfg.merge_fan_in, &store)?;
        let runs = multi.runs;
        intermediate_combine_ns = multi.combine_ns;

        // ---- final merge + reduce + write --------------------------------
        // Comparator order: `reduce()` runs per group and cannot be redone.
        merge_grouped(&runs, &|a, b| job.compare_keys(a, b), &mut on_group)?;
    }
    match aborted {
        Some(Abort::Injected) => {
            // The dead attempt consumed its shuffle plus the partial reduce.
            return Err(TaskError::Injected {
                virtual_elapsed: shuffle_virtual_ns + sw_all.elapsed_ns(),
            });
        }
        Some(Abort::Cancelled) => return Err(TaskError::Cancelled),
        None => {}
    }
    let total_ns = sw_all.elapsed_ns();
    let reduce_ns = reduce_cost.estimate_calls(groups_done);
    // Decompose the post-shuffle time as a clamped cascade so the four
    // components sum to `total_ns` *exactly* (the trace's reduce lane must
    // tile it); in the normal case (components measured inside `sw_all`,
    // so their sum never exceeds it) each equals the plain subtraction
    // used before. Writes happen inside the reduce calls, so their
    // estimate is carved out of the reduce time's.
    let write_ns = sink
        .write_cost
        .estimate(sink.pairs.len() as u64)
        .min(reduce_ns);
    let reduce_c = (reduce_ns - write_ns).min(total_ns);
    let write_c = write_ns.min(total_ns - reduce_c);
    let ic_c = intermediate_combine_ns.min(total_ns - reduce_c - write_c);
    let merge_c = total_ns - reduce_c - write_c - ic_c;
    ops.add_nanos(Op::ReduceMerge, merge_c);
    ops.add_nanos(Op::Combine, ic_c);
    ops.add_nanos(Op::Reduce, reduce_c);
    ops.add_nanos(Op::OutputWrite, write_c);

    let trace = flows.map(|fl| {
        Box::new(crate::trace::build_reduce_trace(
            &fl,
            shuffle.wait_ns,
            shuffle_virtual_ns,
            merge_c,
            ic_c,
            reduce_c,
            write_c,
        ))
    });
    let profile = TaskProfile {
        ops,
        virtual_duration: shuffle_virtual_ns + total_ns,
        input_records,
        output_bytes: sink.output_bytes,
        peak_buffer_bytes,
        trace,
        ..Default::default()
    };
    Ok(ReduceResult {
        pairs: sink.pairs,
        profile,
        shuffle,
        flow_inputs,
        post_parts: [merge_c, ic_c, reduce_c, write_c],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64};
    use crate::controller::FixedSpill;
    use crate::io::dfs::SimDfs;
    use crate::io::input::InputSplit;
    use crate::job::{Record, ValueCursor, ValueSink};
    use crate::task::map_task::{run_map_task, MapTaskConfig};
    use std::path::PathBuf;

    struct WordSum;
    impl Job for WordSum {
        fn name(&self) -> &str {
            "wordsum"
        }
        fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
            for w in r.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                e.emit(w, &encode_u64(1));
            }
        }
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
        fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            let mut s = 0;
            while let Some(v) = values.next() {
                s += decode_u64(v).unwrap();
            }
            out.emit(k, &encode_u64(s));
        }
    }

    /// A fresh directory per call: tests run on parallel threads and map
    /// tasks with the same id would otherwise share spill files.
    fn tmpdir() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("textmr-reduce-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rcfg(partition: usize, node: usize, fetchers: usize) -> ReduceTaskConfig {
        ReduceTaskConfig {
            partition,
            node,
            merge_fan_in: 10,
            scratch_dir: tmpdir(),
            fetchers,
            fail_after_groups: None,
            faults: None,
            max_fetch_attempts: 4,
            cancel: None,
            trace: false,
            streaming: StreamingConfig::default(),
        }
    }

    fn map_all(texts: &[&str], parts: usize) -> Vec<MapOutput> {
        let job: Arc<dyn Job> = Arc::new(WordSum);
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut dfs = SimDfs::new(4, 1 << 20);
                dfs.put("in", t.as_bytes().to_vec());
                let split = InputSplit::from_file(dfs.get("in").unwrap(), 0).remove(0);
                let cfg = MapTaskConfig {
                    task_id: i,
                    node: i % 4,
                    num_partitions: parts,
                    buffer_capacity: 1 << 20,
                    controller: Box::new(FixedSpill(0.8)),
                    filter: None,
                    merge_fan_in: 10,
                    spill_dir: tmpdir(),
                    fail_after_records: None,
                    fail_spill: None,
                    cancel: None,
                    trace: false,
                    streaming: StreamingConfig::default(),
                };
                run_map_task(&job, &split, cfg)
                    .map_err(|e| format!("{e:?}"))
                    .unwrap()
                    .0
            })
            .collect()
    }

    #[test]
    fn reduce_aggregates_across_map_outputs() {
        let outputs = map_all(&["a b a\n", "a c\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let r = run_reduce_task(
            &job,
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 0, 1),
        )
        .unwrap();
        let m: std::collections::HashMap<String, u64> = r
            .pairs
            .iter()
            .map(|(k, v)| {
                (
                    String::from_utf8(k.clone()).unwrap(),
                    decode_u64(v).unwrap(),
                )
            })
            .collect();
        assert_eq!(m["a"], 3);
        assert_eq!(m["b"], 1);
        assert_eq!(m["c"], 1);
        // Output is key-sorted.
        let keys: Vec<_> = r.pairs.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let outputs = map_all(&["x y z w v u\n"], 3);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let mut all = Vec::new();
        for p in 0..3 {
            let r = run_reduce_task(
                &job,
                &outputs,
                &NetworkConfig::local_cluster(),
                &rcfg(p, 0, 1),
            )
            .unwrap();
            all.extend(r.pairs);
        }
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn remote_bytes_counted_only_for_remote_sources() {
        // Map task ran on node 1 (i % 4 with i=1... here single text → node 0).
        let outputs = map_all(&["k k k\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let local = run_reduce_task(
            &job,
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 0, 1),
        )
        .unwrap();
        assert_eq!(local.shuffle.remote_bytes, 0);
        let remote = run_reduce_task(
            &job,
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 1, 1),
        )
        .unwrap();
        assert!(remote.shuffle.remote_bytes > 0);
        assert_eq!(remote.shuffle.fetched_bytes, local.shuffle.fetched_bytes);
        // Remote fetch costs more virtual time.
        assert!(remote.profile.virtual_duration >= local.profile.virtual_duration);
    }

    #[test]
    fn parallel_fetchers_produce_identical_output() {
        let outputs = map_all(&["a b a\n", "a c d e\n", "b d f\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let run = |fetchers: usize| {
            // node 1: all sources remote → real flows in the NIC model
            run_reduce_task(
                &job,
                &outputs,
                &NetworkConfig::local_cluster(),
                &rcfg(0, 1, fetchers),
            )
            .unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.shuffle.virtual_ns, seq.shuffle.sequential_ns);
        assert_eq!(seq.shuffle.wait_ns, 0);
        for f in [2, 4] {
            let par = run(f);
            assert_eq!(par.pairs, seq.pairs, "fetchers={f}");
            assert_eq!(par.shuffle.fetched_bytes, seq.shuffle.fetched_bytes);
            assert_eq!(par.shuffle.size_hist, seq.shuffle.size_hist);
            assert!(par.shuffle.virtual_ns <= par.shuffle.sequential_ns);
            assert!(par.shuffle.virtual_ns >= par.shuffle.max_flow_ns);
        }
    }

    #[test]
    fn empty_partition_is_fine() {
        let outputs = map_all(&["solo\n"], 4);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let mut nonempty = 0;
        for p in 0..4 {
            let r = run_reduce_task(
                &job,
                &outputs,
                &NetworkConfig::local_cluster(),
                &rcfg(p, 0, 1),
            )
            .unwrap();
            if !r.pairs.is_empty() {
                nonempty += 1;
            }
        }
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn group_fault_reports_injected_failure() {
        let outputs = map_all(&["a b c d e f g h\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let mut cfg = rcfg(0, 0, 1);
        cfg.fail_after_groups = Some(3);
        let err =
            run_reduce_task(&job, &outputs, &NetworkConfig::local_cluster(), &cfg).unwrap_err();
        match err {
            TaskError::Injected { virtual_elapsed } => {
                assert!(virtual_elapsed > 0);
            }
            other => panic!("expected injected failure, got {other:?}"),
        }
        // A budget beyond the group count never fires.
        cfg.fail_after_groups = Some(1000);
        let ok = run_reduce_task(&job, &outputs, &NetworkConfig::local_cluster(), &cfg).unwrap();
        assert_eq!(ok.pairs.len(), 8);
    }

    /// Emits each word's key repeated `count²` times with a value of
    /// `count × 37` bytes: lengths on both sides of the one-byte varint
    /// limit (127).
    struct Widen;
    impl Job for Widen {
        fn name(&self) -> &str {
            "widen"
        }
        fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
            WordSum.map(r, e);
        }
        fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            let mut n = 0usize;
            while let Some(v) = values.next() {
                n += decode_u64(v).unwrap() as usize;
            }
            out.emit(&k.repeat(n * n), &vec![b'v'; n * 37]);
        }
    }

    #[test]
    fn output_bytes_count_the_serialized_output() {
        let text: String = (1..=40)
            .map(|i| format!("{}\n", vec![format!("k{i}"); i % 9 + 1].join(" ")))
            .collect();
        let outputs = map_all(&[&text], 1);
        let job: Arc<dyn Job> = Arc::new(Widen);
        let r = run_reduce_task(
            &job,
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 0, 1),
        )
        .unwrap();
        assert!(r.pairs.len() >= 32, "want several sampled writes");
        let mut serialized = Vec::new();
        for (k, v) in &r.pairs {
            crate::codec::write_record(&mut serialized, k, v);
        }
        assert!(r.pairs.iter().any(|(k, v)| k.len() > 127 && v.len() > 127));
        assert!(r.pairs.iter().any(|(k, v)| k.len() < 128 && v.len() < 128));
        assert_eq!(r.profile.output_bytes, serialized.len() as u64);
        assert!(r.profile.ops.get(Op::OutputWrite) > 0);
    }

    #[test]
    fn cancelled_reduce_task_stops_before_fetching() {
        let outputs = map_all(&["a b\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let mut cfg = rcfg(0, 0, 1);
        cfg.cancel = Some(Arc::new(AtomicBool::new(true)));
        let err =
            run_reduce_task(&job, &outputs, &NetworkConfig::local_cluster(), &cfg).unwrap_err();
        assert!(matches!(err, TaskError::Cancelled), "got {err:?}");
    }

    #[test]
    fn injected_shuffle_faults_retry_transparently() {
        let outputs = map_all(&["a b a\n", "a c\n"], 1);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let clean = run_reduce_task(
            &job,
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 0, 1),
        )
        .unwrap();
        let mut cfg = rcfg(0, 0, 1);
        cfg.faults = Some(Arc::new(
            crate::fault::FaultPlan::new()
                .shuffle_fail(0, 0)
                .shuffle_fail(1, 0),
        ));
        let faulty =
            run_reduce_task(&job, &outputs, &NetworkConfig::local_cluster(), &cfg).unwrap();
        assert_eq!(faulty.pairs, clean.pairs);
        assert_eq!(faulty.shuffle.retries, 2);
        // The virtual backoff lands on the idle ShuffleRetry op, keeping the
        // work breakdown (total_work) free of retry noise.
        assert_eq!(
            faulty.profile.ops.get(Op::ShuffleRetry),
            faulty.shuffle.backoff_ns
        );
        assert!(faulty.shuffle.backoff_ns > 0);
    }
}
