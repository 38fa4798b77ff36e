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
//!
//! An unbudgeted (record/blob) attempt whose fetched runs hold at least
//! 1 MiB splits its key range at one splitter key, the key at the byte
//! midpoint of the largest run. The reduce thread merges and reduces the
//! keys below it; a helper spawned in the attempt's scope (the fetchers
//! already joined) does the rest with its own grouper, sink and store
//! (`r{partition}.merge`); its pairs, written flat and made into pairs
//! after the join, follow the reduce thread's. Both sides keep every run
//! index, so the output is the one-thread reduce's, byte for byte. The
//! post-shuffle virtual leg and the reduce ops are the sum of both
//! threads' work, as Hadoop's one-thread reduce would spend it. A
//! budgeted (framed) attempt, or one under the floor, reduces on one
//! thread through the same loop: two cursor merges would hold twice the
//! frame windows, and a smaller partition cannot pay for a thread.

use crate::codec::read_record;
use crate::fault::FaultPlan;
use crate::io::frame::{scan_frames, RunHandle};
use crate::io::store::Store;
use crate::job::{Emit, Job, SliceValues};
use crate::metrics::{Op, OpTimes, SampledCost, Stopwatch, TaskProfile};
use crate::net::NetworkConfig;
use crate::shuffle::{run_shuffle, FlowInput, ShuffleStats};
use crate::task::map_task::MapOutput;
use crate::task::merge::{
    merge_grouped, merge_grouped_cursors, reduce_sources_to_fan_in, reduce_to_fan_in_with,
    CursorSource, Grouper,
};
use crate::task::support::{beside, merging_through};
use crate::task::TaskError;
use std::borrow::Cow;
use std::cmp::Ordering as CmpOrdering;
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

/// Output sink: collects the pairs (a split attempt's helper writes them
/// flat instead), counts their serialized bytes, and times a
/// counter-chosen sample of its calls (see [`SampledCost`]) so that write
/// cost is measured apart from user reduce time.
#[derive(Default)]
struct ReduceSink {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// The helper's pairs as serialized records, made into pairs on the
    /// reduce thread after the join: pairs allocated on the helper stay in
    /// its allocator arena, ≈ ×1.1 the join's peak RSS.
    flat: Option<Vec<u8>>,
    emitted: u64,
    output_bytes: u64,
    write_cost: SampledCost,
}

impl Emit for ReduceSink {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.emitted += 1;
        let sw = SampledCost::start(self.emitted);
        self.output_bytes += crate::codec::record_len(key.len(), value.len()) as u64;
        match &mut self.flat {
            Some(flat) => crate::codec::write_record(flat, key, value),
            None => self.pairs.push((key.to_vec(), value.to_vec())),
        }
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
    /// Target uncompressed bytes per frame of the intermediate merge
    /// passes over framed map outputs (unused for record/blob outputs).
    pub frame_bytes: usize,
}

#[inline]
fn is_cancelled(cancel: &Option<Arc<AtomicBool>>) -> bool {
    cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Fetched bytes from which an unbudgeted reduce splits its key range
/// over two threads: below about this, a thread cannot pay for itself.
const SPLIT_FLOOR_BYTES: u64 = 1 << 20;

/// One thread's share of a reduce attempt: its sink, its groups, their
/// sampled costs, and whether it stopped early.
struct Reducer<'a> {
    job: &'a dyn Job,
    cfg: &'a ReduceTaskConfig,
    /// Set by either thread of the attempt when it stops early; the other
    /// stops at its next poll.
    stop: &'a AtomicBool,
    sink: ReduceSink,
    reduce_cost: SampledCost,
    groups: u64,
    input_records: u64,
    combine_ns: u64,
    peak_bytes: u64,
    aborted: bool,
}

impl<'a> Reducer<'a> {
    fn new(job: &'a dyn Job, cfg: &'a ReduceTaskConfig, stop: &'a AtomicBool) -> Self {
        Reducer {
            job,
            cfg,
            stop,
            sink: ReduceSink::default(),
            reduce_cost: SampledCost::default(),
            groups: 0,
            input_records: 0,
            combine_ns: 0,
            peak_bytes: 0,
            aborted: false,
        }
    }

    /// Merge `runs` (each fetched run, or one side of its key range, in
    /// fetch order) down to the fan-in through `store`, then merge them
    /// once more and reduce each group: spooled as one-frame windows when
    /// `frame_bytes` is given, in memory otherwise.
    fn reduce_runs(
        &mut self,
        runs: Vec<Cow<'_, [u8]>>,
        frame_bytes: Option<usize>,
        store: &Arc<Store>,
    ) -> io::Result<()> {
        let (job, fan_in) = (self.job, self.cfg.merge_fan_in);
        // Comparator order: `reduce()` runs per group and cannot be redone.
        let cmp = |a: &[u8], b: &[u8]| job.compare_keys(a, b);
        let Some(frame_bytes) = frame_bytes else {
            self.peak_bytes = runs.iter().map(|r| r.len() as u64).sum();
            let mut grouper = Grouper::new(job, job.has_combiner());
            let multi = reduce_to_fan_in_with(runs, &mut grouper, fan_in, store)?;
            self.combine_ns = multi.combine_ns;
            return merge_grouped(&multi.runs, &cmp, |k, vs| self.on_group(k, vs));
        };
        // Spool each fetched (stored, compressed) run into the store and
        // drop the in-memory copies; every later pass reads one-frame
        // windows, so at most `fan_in` windows and one frame being
        // written are resident.
        let mut sources: Vec<CursorSource<'_>> = Vec::with_capacity(runs.len());
        for run in &runs {
            let metas = scan_frames(run).map_err(io::Error::from)?;
            sources.push(CursorSource::Stored(RunHandle::append(
                store, run, metas, 0,
            )?));
        }
        drop(runs);
        let multi =
            reduce_sources_to_fan_in(sources, job, job.has_combiner(), fan_in, frame_bytes, store)?;
        self.combine_ns = multi.combine_ns;
        let mut cursors = multi.cursors;
        let windows: u64 = cursors.iter().map(|c| c.window_bytes() as u64).sum();
        self.peak_bytes = windows.max(multi.peak_bytes);
        merge_grouped_cursors(&mut cursors, &cmp, |k, vs| self.on_group(k, vs))
    }

    /// Reduce one group, unless this thread stopped. The merge drives a
    /// callback and cannot early-return, so a stop skips the remaining
    /// groups' user work instead: at the `fail_after_groups`-th group of
    /// this thread, or at a poll (every 64 groups) that finds the attempt
    /// cancelled or the other thread stopped.
    fn on_group(&mut self, key: &[u8], values: &[&[u8]]) {
        if self.aborted {
            return;
        }
        self.input_records += values.len() as u64;
        let sw_r = SampledCost::start_or_first(self.groups + 1);
        self.job
            .reduce(key, &mut SliceValues::new(values), &mut self.sink);
        if let Some(sw_r) = sw_r {
            self.reduce_cost
                .record_call(self.groups + 1, sw_r.elapsed_ns());
        }
        self.groups += 1;
        self.aborted = self.cfg.fail_after_groups == Some(self.groups)
            || (self.groups.is_multiple_of(64)
                && (is_cancelled(&self.cfg.cancel) || self.stop.load(Ordering::Relaxed)));
        if self.aborted {
            self.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// Where each of `runs` splits for two threads: the byte offset of its
/// first record that `compare_keys` does not put below the splitter, the
/// key at the byte midpoint of the largest run (never its first record).
/// `None` when that run holds fewer than two records.
fn split_offsets(job: &dyn Job, runs: &[Vec<u8>]) -> Option<Vec<usize>> {
    let largest = runs.iter().max_by_key(|r| r.len())?;
    let mut pos = 0;
    read_record(largest, &mut pos)?;
    let splitter = loop {
        let (key, _) = read_record(largest, &mut pos)?;
        if pos > largest.len() / 2 {
            break key;
        }
    };
    let offset = |run: &[u8]| {
        let mut pos = 0;
        loop {
            let at = pos;
            match read_record(run, &mut pos) {
                Some((key, _)) if job.compare_keys(key, splitter) == CmpOrdering::Less => {}
                _ => return at,
            }
        }
    };
    Some(runs.iter().map(|r| offset(r)).collect())
}

/// Run one reduce task against all map outputs. A partition of at least
/// 1 MiB of record/blob runs is reduced on two threads (see the module
/// doc).
pub fn run_reduce_task(
    job: &Arc<dyn Job>,
    map_outputs: &[MapOutput],
    net: &NetworkConfig,
    cfg: &ReduceTaskConfig,
) -> Result<ReduceResult, TaskError> {
    reduce_attempt(job.as_ref(), map_outputs, net, cfg, SPLIT_FLOOR_BYTES)
}

/// [`run_reduce_task`], splitting record/blob partitions of at least
/// `split_floor` fetched bytes.
fn reduce_attempt(
    job: &dyn Job,
    map_outputs: &[MapOutput],
    net: &NetworkConfig,
    cfg: &ReduceTaskConfig,
    split_floor: u64,
) -> Result<ReduceResult, TaskError> {
    let partition = cfg.partition;
    let mut ops = OpTimes::new();
    if is_cancelled(&cfg.cancel) {
        return Err(TaskError::Cancelled);
    }

    // ---- shuffle fetch (see crate::shuffle) ----------------------------------
    // Network virtual time pays for the bytes as stored (framed runs stay
    // compressed until the merge decodes them). The fetchers are joined
    // before it returns.
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

    let sw_all = Stopwatch::start();
    let frame_bytes = map_outputs
        .iter()
        .any(|m| m.framed)
        .then_some(cfg.frame_bytes);
    // A framed (budgeted) merge stays on one thread: two cursor merges
    // would hold 2 × (fan-in + 1) frame windows.
    let fetched_bytes: u64 = runs.iter().map(|r| r.len() as u64).sum();
    let offsets = (frame_bytes.is_none() && fetched_bytes >= split_floor)
        .then(|| split_offsets(job, &runs))
        .flatten();
    // Each side keeps every run index, empty or not, so its passes batch
    // the runs as the one-thread merge does and each group's values
    // arrive in the same order.
    let (mine, theirs): (Vec<Cow<'_, [u8]>>, _) = match &offsets {
        Some(offsets) => {
            let (below, rest) = runs
                .iter()
                .zip(offsets)
                .map(|(run, &at)| (Cow::Borrowed(&run[..at]), Cow::Borrowed(&run[at..])))
                .unzip();
            (below, Some(rest))
        }
        None => (runs.into_iter().map(Cow::Owned).collect(), None),
    };
    let stop = AtomicBool::new(false);
    let mut reducer = Reducer::new(job, cfg, &stop);
    // Created on its first append: a merge with no intermediate pass and
    // nothing to spool touches no file.
    let store = Store::create(cfg.scratch_dir.join(format!("r{partition}.store")));
    // An error on either thread stops the other at its next poll.
    let stopped = |_: &io::Error| stop.store(true, Ordering::Relaxed);
    let (result, helper, overlap) = std::thread::scope(|scope| {
        // The helper reduces the keys from the splitter on, with a store
        // of its own; its pairs, written flat, follow the reduce thread's.
        let helper = theirs.map(|runs| {
            let mut helper = Reducer::new(job, cfg, &stop);
            helper.sink.flat = Some(Vec::new());
            let path = cfg.scratch_dir.join(format!("r{partition}.merge"));
            move || {
                let store = Store::create(path);
                let result = helper.reduce_runs(runs, None, &store).inspect_err(stopped);
                (helper, result.map_err(merging_through(&store)))
            }
        });
        beside(scope, helper, || {
            reducer
                .reduce_runs(mine, frame_bytes, &store)
                .inspect_err(stopped)
        })
    });
    result?;
    let mut pairs = std::mem::take(&mut reducer.sink.pairs);
    let mut reducers = vec![reducer];
    if let Some((helper, result)) = helper {
        result?;
        let flat = helper.sink.flat.as_deref().unwrap_or_default();
        let mut pos = 0;
        pairs.reserve(helper.sink.emitted as usize);
        while let Some((key, value)) = read_record(flat, &mut pos) {
            pairs.push((key.to_vec(), value.to_vec()));
        }
        reducers.push(helper);
    }
    let total_ns = overlap.work_ns(sw_all.elapsed_ns());
    let groups: u64 = reducers.iter().map(|r| r.groups).sum();
    // The fault fires at the N-th group in key order: the reduce thread's
    // groups come first, then the helper's.
    if cfg.fail_after_groups.is_some_and(|n| n > 0 && groups >= n) {
        // The dead attempt consumed its shuffle plus the partial reduce.
        return Err(TaskError::Injected {
            virtual_elapsed: shuffle_virtual_ns + total_ns,
        });
    }
    if reducers.iter().any(|r| r.aborted) {
        return Err(TaskError::Cancelled);
    }
    // Each thread's reduce and write costs are estimated over its own
    // call counts.
    let sum = |f: &dyn Fn(&Reducer<'_>) -> u64| reducers.iter().map(f).sum::<u64>();
    let reduce_ns = sum(&|r| r.reduce_cost.estimate_calls(r.groups));
    let write_ns = sum(&|r| r.sink.write_cost.estimate(r.sink.emitted));
    let intermediate_combine_ns = sum(&|r| r.combine_ns);
    let input_records = sum(&|r| r.input_records);
    let output_bytes = sum(&|r| r.sink.output_bytes);
    let peak_buffer_bytes = sum(&|r| r.peak_bytes);
    // Decompose the post-shuffle time as a clamped cascade so the four
    // components sum to `total_ns` *exactly* (the trace's reduce lane must
    // tile it); in the normal case (components measured inside `sw_all`,
    // so their sum never exceeds it) each equals the plain subtraction
    // used before. Writes happen inside the reduce calls, so their
    // estimate is carved out of the reduce time's.
    let write_ns = write_ns.min(reduce_ns);
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
        output_bytes,
        peak_buffer_bytes,
        trace,
        ..Default::default()
    };
    Ok(ReduceResult {
        pairs,
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
    use crate::io::frame::DEFAULT_FRAME_BYTES;
    use crate::io::input::{InputSplit, DEFAULT_INPUT_CHUNK};
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
            frame_bytes: DEFAULT_FRAME_BYTES,
        }
    }

    fn map_all(texts: &[&str], parts: usize) -> Vec<MapOutput> {
        map_with(Arc::new(WordSum), texts, parts)
    }

    fn map_with(job: Arc<dyn Job>, texts: &[&str], parts: usize) -> Vec<MapOutput> {
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
                    frame_bytes: None,
                    input_chunk_bytes: DEFAULT_INPUT_CHUNK,
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

    /// [`WordSum`] with or without its combiner, noting the threads its
    /// `reduce()` ran on.
    struct Threads {
        combiner: bool,
        seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }
    impl Threads {
        fn new(combiner: bool) -> Arc<Self> {
            Arc::new(Threads {
                combiner,
                seen: Default::default(),
            })
        }
    }
    impl Job for Threads {
        fn name(&self) -> &str {
            "threads"
        }
        /// Each word with a value of its line's and its place's, so that
        /// values from different runs differ.
        fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
            let line = r
                .key
                .iter()
                .fold(0u64, |h, &b| (h * 31 + b as u64) % 1_000_003);
            let words = r.value.split(|&b| b == b' ').filter(|w| !w.is_empty());
            for (i, w) in words.enumerate() {
                e.emit(w, &encode_u64(line * 16 + i as u64));
            }
        }
        fn has_combiner(&self) -> bool {
            self.combiner
        }
        fn combine(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
            WordSum.combine(k, values, out);
        }
        fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            let me = std::thread::current().id();
            self.seen.lock().unwrap().insert(me);
            // Each value in arrival order, so a reordering shows.
            let mut all = Vec::new();
            while let Some(v) = values.next() {
                all.extend_from_slice(v);
            }
            out.emit(k, &all);
        }
    }

    /// Reduce partition 0 of `texts` on one thread and with a split floor
    /// of `floor`, which must split it: both give the same result, and
    /// neither leaves a file behind.
    fn assert_split_is_invisible(texts: &[&str], combiner: bool, fan_in: usize, floor: u64) {
        let job = Threads::new(combiner);
        let outputs = map_with(job.clone(), texts, 1);
        let run = |floor| {
            job.seen.lock().unwrap().clear();
            let mut cfg = rcfg(0, 0, 2);
            cfg.merge_fan_in = fan_in;
            let r = reduce_attempt(
                job.as_ref(),
                &outputs,
                &NetworkConfig::local_cluster(),
                &cfg,
                floor,
            )
            .unwrap();
            let files: Vec<_> = std::fs::read_dir(&cfg.scratch_dir).unwrap().collect();
            assert!(files.is_empty(), "left behind: {files:?}");
            (r, job.seen.lock().unwrap().len())
        };
        let (one, one_threads) = run(u64::MAX);
        let (two, two_threads) = run(floor);
        assert_eq!((one_threads, two_threads), (1, 2));
        assert!(!one.pairs.is_empty());
        assert_eq!(two.pairs, one.pairs);
        assert_eq!(two.profile.input_records, one.profile.input_records);
        assert_eq!(two.profile.output_bytes, one.profile.output_bytes);
        assert_eq!(two.profile.peak_buffer_bytes, one.profile.peak_buffer_bytes);
    }

    /// `words` words `k<i % keys>` from `from`, several to a line.
    fn words(from: usize, words: usize, keys: usize) -> String {
        (from..from + words)
            .map(|i| format!("k{:05}{}", i % keys, if i % 7 == 6 { '\n' } else { ' ' }))
            .chain(std::iter::once('\n'.to_string()))
            .collect()
    }

    #[test]
    fn a_partition_over_the_floor_splits_with_passes_on_both_sides() {
        // 12 runs of ~96 KB each past a fan-in of 5: both sides run
        // intermediate passes.
        let texts: Vec<String> = (0..12).map(|i| words(i * 100, 6000, 60_000)).collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let outputs = map_all(&texts, 1);
        let fetched: u64 = outputs.iter().map(|m| m.file.total_bytes()).sum();
        assert!(fetched >= SPLIT_FLOOR_BYTES, "{fetched}");
        for combiner in [true, false] {
            assert_split_is_invisible(&texts, combiner, 5, SPLIT_FLOOR_BYTES);
        }
    }

    #[test]
    fn a_run_wholly_on_one_side_leaves_an_empty_half() {
        // The widest run spans k00000..k00299 and sets the splitter; the
        // `a…` run lies wholly below it and the `z…` run wholly above.
        // Two such runs, their values in different places: dropping the
        // empty halves would batch the runs differently and swap them.
        let (below, below_too) = ("a1 a2 a3 a1\n", "a0 a1 a2 a3\n");
        let above = "z1 z2 z1 z3\n";
        let wide = words(0, 900, 300);
        for combiner in [true, false] {
            assert_split_is_invisible(&[below, &wide, above, below_too], combiner, 2, 0);
        }
    }

    #[test]
    fn every_run_holds_the_splitter_key() {
        // Every run holds every key, so whichever key splits, its values
        // come from all runs and all go to the helper.
        let texts: Vec<String> = (0..7).map(|i| words(i, 400, 40)).collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        for combiner in [true, false] {
            assert_split_is_invisible(&texts, combiner, 3, 0);
        }
    }

    #[test]
    fn a_run_of_one_record_has_no_splitter() {
        let job = Threads::new(false);
        let outputs = map_with(job.clone(), &["solo\n"], 1);
        let r = reduce_attempt(
            job.as_ref(),
            &outputs,
            &NetworkConfig::local_cluster(),
            &rcfg(0, 0, 1),
            0,
        )
        .unwrap();
        assert_eq!(r.pairs.len(), 1);
        assert_eq!(job.seen.lock().unwrap().len(), 1);
    }
}
