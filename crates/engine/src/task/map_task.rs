//! Execution of one map task: read → map → emit → (filter) → spill buffer →
//! sort/combine/spill → merge (a lone spill is the output as it stands).
//!
//! All user and framework work runs for real and is measured; the
//! producer/consumer overlap between the map thread and the support thread
//! is advanced on the virtual clocks of [`Pipeline`]. An unbudgeted merge
//! splits its partitions between the map thread and a helper thread, and
//! is charged as the sum of both threads' work. The paper's
//! optimizations plug in here: an [`EmitFilter`] (frequency-buffering) sees
//! every emitted pair before the spill path, and a [`SpillController`]
//! (spill-matcher) picks the spill fraction after every spill.

use crate::controller::{EmitFilter, FixedSpill, SpillController, SpillObservation};
use crate::io::frame::FrameRunCursor;
use crate::io::input::{InputSplit, SplitReader};
use crate::io::spill_file::{SpillFile, SpillFileWriter};
use crate::io::store::Store;
use crate::job::{Emit, Job};
use crate::metrics::{Op, OpTimes, SampledCost, SpillStat, Stopwatch, TaskProfile, VNanos};
use crate::task::merge::{
    merge_grouped_cursors, merge_partition, reduce_sources_to_fan_in, CursorSource, Grouper,
    MergeOrder,
};
use crate::task::pipeline::{Admission, Pipeline};
use crate::task::segment::Segment;
use crate::task::spill::SpillOutcome;
use crate::task::support::{beside, merging_through, Support};
use crate::task::TaskError;
use crate::trace::MapTraceRecorder;
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Scope;

/// Lower clamp for controller-proposed spill fractions; guards against a
/// degenerate controller melting the task into per-record spills.
const MIN_FRACTION: f64 = 0.01;

/// Configuration of one map-task execution.
pub struct MapTaskConfig {
    /// Task index within the job.
    pub task_id: usize,
    /// Node the task runs on (for the output's shuffle source).
    pub node: usize,
    /// Number of reduce partitions.
    pub num_partitions: usize,
    /// Spill buffer capacity M in accounted bytes (already net of any
    /// filter carve-out).
    pub buffer_capacity: usize,
    /// Spill-fraction policy.
    pub controller: Box<dyn SpillController>,
    /// Optional map-side emit filter (frequency-buffering).
    pub filter: Option<Box<dyn EmitFilter>>,
    /// Maximum merge fan-in (Hadoop's `io.sort.factor`).
    pub merge_fan_in: usize,
    /// Directory for the attempt's spill store and output file.
    pub spill_dir: PathBuf,
    /// Fault injection: abort (as a task failure) after this many input
    /// records.
    pub fail_after_records: Option<u64>,
    /// Fault injection: fail the spill write with this 0-based index. The
    /// attempt dies like a record fault (an `Injected` error, retried by
    /// the driver), but from inside the I/O path rather than user code.
    pub fail_spill: Option<usize>,
    /// Cooperative cancellation token, set by the driver when the job is
    /// aborting (another task exhausted its retries or hit an I/O error).
    /// Checked between input records so a doomed job does not keep worker
    /// threads busy.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Record a per-thread span timeline into `TaskProfile::trace`. Off by
    /// default; the untraced path allocates nothing.
    pub trace: bool,
    /// Target uncompressed bytes per frame when spills and the map output
    /// are written as framed runs, merged through one-frame windows;
    /// `None` writes record/blob partitions, each merged whole.
    pub frame_bytes: Option<usize>,
    /// Chunk window for disk-backed input splits.
    pub input_chunk_bytes: usize,
}

/// A finished map task's output, fetchable by partition during shuffle.
#[derive(Debug)]
pub struct MapOutput {
    /// The partition-indexed output file: the merge of the task's spills,
    /// or its lone spill itself.
    pub file: SpillFile,
    /// Node that produced it (shuffle source).
    pub node: usize,
    /// Whether partitions are framed runs (per-frame compression with a
    /// frame index; see [`crate::io::frame`]).
    pub framed: bool,
}

/// The spill path: active segment + virtual pipeline + the support
/// thread that sorts, combines and writes each full segment into one store
/// (`t{task}.spills`, created by the first spill). Implements [`Emit`] so
/// it can serve directly as the filter's flush sink.
struct SpillPath<'a, 's> {
    job: &'a dyn Job,
    num_partitions: usize,
    pipeline: Pipeline,
    seg: Segment,
    /// The other half of the double buffer: the segment last back from
    /// the support thread, cleared.
    spare: Segment,
    controller: Box<dyn SpillController>,
    /// Where full segments are spilled, and the attempt's grouper.
    support: Support<'s, 'a>,
    /// The spill handed over and not back yet.
    in_flight: Option<Handover>,
    spills: Vec<SpillFile>,
    stats: Vec<SpillStat>,
    ops: OpTimes,
    task_id: usize,
    /// Time the map thread spent blocked on the support thread inside the
    /// current emit call; the producer's measured time must exclude it.
    blocked_ns: u64,
    /// Deferred I/O error (the `Emit` trait is infallible).
    io_error: Option<io::Error>,
    /// Injected spill fault: fail the spill write with this index.
    fail_spill: Option<usize>,
    /// Most bytes a framed spill held at once: its segment and its
    /// writer's frame.
    spill_peak: usize,
    /// Most input-window bytes seen since the last handover: a spill's
    /// bytes count as resident from its handover on, whenever its outcome
    /// arrives.
    window_since_handover: usize,
    /// High-water mark of tracked buffer residency (see `TaskProfile`).
    peak_buffer_bytes: u64,
    /// Set when `io_error` came from an injected fault, so the task is
    /// reported as `Injected` (retryable) instead of a hard I/O failure.
    injected: bool,
    /// Span recorder for the map/support lanes (tracing enabled only).
    trace: Option<Box<MapTraceRecorder>>,
}

/// What the map thread keeps of a segment it handed over.
struct Handover {
    bytes: usize,
    produce_ns: u64,
    fraction: f64,
    /// Producer clock at the handover: the consumer starts then.
    at: VNanos,
}

impl<'a, 's> SpillPath<'a, 's> {
    fn new(
        job: &'a dyn Job,
        cfg: &MapTaskConfig,
        mut controller: Box<dyn SpillController>,
        scope: &'s Scope<'s, 'a>,
    ) -> Self {
        let initial = controller.initial_fraction().clamp(MIN_FRACTION, 1.0);
        let store = Store::create(cfg.spill_dir.join(format!("t{}.spills", cfg.task_id)));
        let grouper = Grouper::new(job, job.has_combiner());
        SpillPath {
            job,
            num_partitions: cfg.num_partitions,
            pipeline: Pipeline::new(cfg.buffer_capacity, initial),
            seg: Segment::new(),
            spare: Segment::new(),
            controller,
            support: Support::new(scope, store, cfg.frame_bytes, grouper),
            in_flight: None,
            spills: Vec::new(),
            stats: Vec::new(),
            ops: OpTimes::new(),
            task_id: cfg.task_id,
            blocked_ns: 0,
            io_error: None,
            fail_spill: cfg.fail_spill,
            spill_peak: 0,
            window_since_handover: 0,
            peak_buffer_bytes: 0,
            injected: false,
            trace: cfg.trace.then(|| Box::new(MapTraceRecorder::new())),
        }
    }

    fn append(&mut self, key: &[u8], value: &[u8]) {
        let part = self.job.partition(key, self.num_partitions);
        let cost = Segment::record_cost(key, value);
        if self.admit(cost) == Admission::SpillThenAppend {
            self.hand_over();
        }
        self.seg.push(part, key, value);
        self.pipeline.appended(cost);
        if self.should_spill() {
            self.hand_over();
        }
    }

    /// [`Pipeline::admit`], waiting for the spill in flight only when the
    /// answer depends on its consume time.
    fn admit(&mut self, cost: usize) -> Admission {
        self.pipeline.admit(cost).unwrap_or_else(|| {
            self.settle();
            self.pipeline
                .admit(cost)
                .expect("nothing pending once settled")
        })
    }

    /// [`Pipeline::should_spill`], waiting like [`SpillPath::admit`].
    fn should_spill(&mut self) -> bool {
        self.pipeline.should_spill().unwrap_or_else(|| {
            self.settle();
            self.pipeline
                .should_spill()
                .expect("nothing pending once settled")
        })
    }

    /// Hand the active segment to the support thread and go on producing
    /// into the spare; the spill before it must be back first. No-op on an
    /// empty segment.
    fn hand_over(&mut self) {
        let Some((bytes, produce_ns)) = self.begin_spill() else {
            return;
        };
        let full = std::mem::replace(&mut self.seg, std::mem::take(&mut self.spare));
        self.support.hand_over(full);
        let support = &self.support;
        let ask = || support.consume_ns();
        let obs = SpillObservation::deferred(bytes, produce_ns, self.pipeline.capacity(), &ask);
        let next = self.controller.next_fraction(&obs).clamp(MIN_FRACTION, 1.0);
        self.pipeline.set_fraction(next);
        // A controller that asked for the consume time has waited for the
        // spill already: take it in now, as if it had run here.
        if self.support.has_arrived() {
            self.settle();
        }
    }

    /// The last segment, after the drain barrier: spilled on the map
    /// thread, the support thread (if one ran) joined first.
    fn spill_last(&mut self) {
        let Some((bytes, produce_ns)) = self.begin_spill() else {
            return;
        };
        let outcome = self.support.spill_here(&self.seg);
        self.seg.clear();
        let consume_ns = outcome.as_ref().map_or(0, SpillOutcome::consume_ns);
        self.arrive(outcome);
        let obs = SpillObservation::new(bytes, produce_ns, consume_ns, self.pipeline.capacity());
        let next = self.controller.next_fraction(&obs).clamp(MIN_FRACTION, 1.0);
        self.pipeline.set_fraction(next);
    }

    /// Settle the spill in flight, then hand the active segment over in
    /// the virtual pipeline; its `(bytes, produce_ns)`. `None` when there
    /// is nothing to spill or the attempt failed (an injected spill fault
    /// fails it here).
    fn begin_spill(&mut self) -> Option<(usize, u64)> {
        if self.seg.is_empty() || self.io_error.is_some() {
            return None;
        }
        self.settle();
        if self.io_error.is_some() {
            return None;
        }
        if self.fail_spill == Some(self.spills.len()) {
            self.injected = true;
            self.io_error = Some(io::Error::other(format!(
                "injected fault: spill write {} of map task {}",
                self.spills.len(),
                self.task_id
            )));
            return None;
        }
        let fraction = self.pipeline.fraction();
        let at = self.pipeline.producer_clock();
        let (bytes, produce_ns) = self.pipeline.handover();
        self.in_flight = Some(Handover {
            bytes,
            produce_ns,
            fraction,
            at,
        });
        self.window_since_handover = 0;
        Some((bytes, produce_ns))
    }

    /// Wait for the spill in flight, if any, and take in its outcome.
    fn settle(&mut self) {
        if self.in_flight.is_none() {
            return;
        }
        let back = self.support.wait();
        self.blocked_ns = self
            .blocked_ns
            .saturating_add(self.support.take_blocked_ns());
        self.spare = back.seg;
        self.arrive(back.outcome);
    }

    /// The in-flight spill's outcome: its consume time resolves the virtual
    /// pipeline, and its ops, stat, peak, trace spans and file are
    /// recorded.
    fn arrive(&mut self, outcome: io::Result<SpillOutcome>) {
        let spill = self.in_flight.take().expect("a spill in flight");
        let out = match outcome {
            Ok(out) => out,
            Err(e) => {
                self.io_error = Some(e);
                self.pipeline.resolve(0);
                return;
            }
        };
        self.ops.add_nanos(Op::Sort, out.sort_ns);
        self.ops.add_nanos(Op::Combine, out.combine_ns);
        self.ops.add_nanos(Op::SpillWrite, out.write_ns);
        let consume_ns = out.consume_ns();
        let late_wait = self.pipeline.resolve(consume_ns);
        // Only a framed spill's writer holds bytes besides the segment;
        // record/blob peaks stay the per-record samples.
        if out.held_bytes > 0 {
            let held = spill.bytes + out.held_bytes as usize;
            self.spill_peak = self.spill_peak.max(held);
            let resident = (held + self.window_since_handover) as u64;
            self.peak_buffer_bytes = self.peak_buffer_bytes.max(resident);
        }
        if let Some(tr) = &mut self.trace {
            if let Some(wait) = late_wait {
                tr.on_late_wait(wait);
            }
            tr.on_spill(spill.at, out.sort_ns, out.combine_ns, out.write_ns);
        }
        self.stats.push(SpillStat {
            bytes: spill.bytes,
            records: out.records_in as usize,
            records_after_combine: out.records_out as usize,
            produce_ns: spill.produce_ns,
            consume_ns,
            fraction: spill.fraction,
        });
        self.spills.push(out.file);
    }

    /// One producer record ended with the reader holding `window` bytes:
    /// raise the residency high-water mark, and trace the record.
    fn end_record(&mut self, window: usize, read: u64, map: u64, emit: u64, combine: u64) {
        self.window_since_handover = self.window_since_handover.max(window);
        let held = self.pipeline.active_bytes().max(self.spill_peak);
        self.peak_buffer_bytes = self.peak_buffer_bytes.max((held + window) as u64);
        self.trace_record(read, map, emit, combine);
    }

    /// When tracing, lay a producer record on the map lane after the wait
    /// that preceded it.
    fn trace_record(&mut self, read: u64, map: u64, emit: u64, combine: u64) {
        if let Some(tr) = &mut self.trace {
            match self.pipeline.end_record() {
                (wait, false) => tr.on_record(wait, read, map, emit, combine),
                (wait, true) => tr.on_blocked_record(wait, read, map, emit, combine),
            }
        }
    }

    fn take_blocked_ns(&mut self) -> u64 {
        std::mem::take(&mut self.blocked_ns)
    }

    /// The attempt's failure as its error, once the spill in flight is
    /// back: an I/O error, or an injected fault (a spill write's, or the
    /// record budget's) with the virtual time the attempt consumed.
    fn fail(&mut self) -> TaskError {
        self.settle();
        match self.io_error.take() {
            Some(e) if !self.injected => e.into(),
            _ => TaskError::Injected {
                virtual_elapsed: self.pipeline.pipeline_end(),
            },
        }
    }
}

impl<'a, 's> Emit for SpillPath<'a, 's> {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.append(key, value);
    }
}

/// The emitter handed to user `map()` code: routes pairs through the
/// optional filter, keeps producer-time bookkeeping, and times a counter-
/// chosen sample of emits (see [`SampledCost`]).
struct MapEmitter<'a, 's> {
    path: SpillPath<'a, 's>,
    filter: Option<Box<dyn EmitFilter>>,
    emit_cost: SampledCost,
    blocked_ns: u64,
    emitted: u64,
}

impl<'a, 's> Emit for MapEmitter<'a, 's> {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.emitted += 1;
        let sw = SampledCost::start(self.emitted);
        let absorbed = match &mut self.filter {
            Some(f) => f.offer(key, value, &mut self.path),
            None => false,
        };
        if !absorbed {
            self.path.append(key, value);
        }
        let blocked = self.path.take_blocked_ns();
        self.blocked_ns = self.blocked_ns.saturating_add(blocked);
        if let Some(sw) = sw {
            self.emit_cost
                .record(sw.elapsed_ns().saturating_sub(blocked));
        }
    }
}

/// The producer loop's clock: one clock read per input record. Each lap
/// ends one record, with the loop's bookkeeping after the record before
/// it, and starts the next, so the records' totals tile the producer's
/// time. Read time is sampled like emit time (see [`SampledCost`]): a
/// record whose counter is sampled has its read timed from the previous
/// lap to just after `SplitReader::next`.
struct RecordClock {
    lap: Stopwatch,
    read_cost: SampledCost,
    /// Input records read so far.
    records: u64,
}

impl RecordClock {
    fn start() -> Self {
        RecordClock {
            lap: Stopwatch::start(),
            read_cost: SampledCost::default(),
            records: 0,
        }
    }

    /// A record was just read: count it, and time its read if sampled.
    #[inline]
    fn on_read(&mut self) {
        self.records += 1;
        if SampledCost::is_sampled(self.records) {
            self.read_cost.record(self.lap.elapsed_ns());
        }
    }

    /// End the current record: its measured total since the previous lap,
    /// and the estimated cost of one read.
    #[inline]
    fn lap(&mut self) -> (u64, u64) {
        (self.lap.lap_ns(), self.read_cost.estimate(1))
    }
}

#[inline]
fn is_cancelled(cancel: &Option<Arc<AtomicBool>>) -> bool {
    cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Run one map task over `split`. Spills made before the input ends run
/// on a support thread of the attempt's own, and an unbudgeted merge on a
/// helper thread beside the map thread; both are joined before this
/// returns.
pub fn run_map_task(
    job: &Arc<dyn Job>,
    split: &InputSplit,
    cfg: MapTaskConfig,
) -> Result<(MapOutput, TaskProfile), TaskError> {
    std::thread::scope(|scope| run_attempt(job.as_ref(), split, cfg, scope))
}

fn run_attempt<'a, 's>(
    job: &'a dyn Job,
    split: &InputSplit,
    cfg: MapTaskConfig,
    scope: &'s Scope<'s, 'a>,
) -> Result<(MapOutput, TaskProfile), TaskError> {
    // The controller moves into the spill path; `cfg` keeps a stand-in.
    let mut cfg = cfg;
    let controller = std::mem::replace(&mut cfg.controller, Box::new(FixedSpill::default()));
    let mut emitter = MapEmitter {
        path: SpillPath::new(job, &cfg, controller, scope),
        filter: cfg.filter.take(),
        emit_cost: SampledCost::default(),
        blocked_ns: 0,
        emitted: 0,
    };

    // ---- producer loop: read → map → emit ---------------------------------
    let mut reader = SplitReader::with_chunk(split, cfg.input_chunk_bytes);
    // The path keeps the high-water mark of tracked buffer residency: the
    // input chunk window plus spill-buffer bytes, or a spill's segment and
    // its writer's frame, and (during the merge) cursor windows and the
    // writer's frame. This is the quantity a RAM budget bounds; see
    // `TaskProfile`.
    let mut clock = RecordClock::start();
    loop {
        let emitted_before = emitter.emitted;
        let Some(rec) = reader.next() else { break };
        clock.on_read();
        if let Some(f) = &mut emitter.filter {
            f.on_input_record();
        }
        job.map(&rec, &mut emitter);
        let (total_ns, read_ns) = clock.lap();

        // Read and emit times are estimated (the running means of the
        // sampled ones, times one read and this record's emits); the
        // record's total is measured, so the estimates only move time
        // between `read`, `emit` and `map`.
        let emit_ns = emitter.emit_cost.estimate(emitter.emitted - emitted_before);
        let blocked_ns = std::mem::take(&mut emitter.blocked_ns);
        // Combine work performed inside the filter is user code: report it
        // under `combine`, not `emit` (it remains producer-side time).
        let filter_combine_ns = emitter
            .filter
            .as_mut()
            .map_or(0, |f| f.take_user_combine_ns())
            .min(emit_ns);
        // Decompose the record's producer time as a clamped cascade so the
        // components sum to `produce_ns` *exactly* (the trace's map-lane
        // spans must tile the producer's busy time).
        let produce_ns = total_ns.saturating_sub(blocked_ns);
        let read_c = read_ns.min(produce_ns);
        let emit_c = emit_ns.min(produce_ns - read_c);
        let map_c = produce_ns - read_c - emit_c;
        let combine_c = filter_combine_ns.min(emit_c);
        let path = &mut emitter.path;
        path.ops.add_nanos(Op::Read, read_c);
        path.ops.add_nanos(Op::Emit, emit_c - combine_c);
        path.ops.add_nanos(Op::Combine, combine_c);
        path.ops.add_nanos(Op::Map, map_c);
        path.pipeline.produce(produce_ns);
        path.end_record(
            reader.window_bytes(),
            read_c,
            map_c,
            emit_c - combine_c,
            combine_c,
        );

        if path.io_error.is_some() || cfg.fail_after_records == Some(clock.records) {
            return Err(path.fail());
        }
        if is_cancelled(&cfg.cancel) {
            return Err(TaskError::Cancelled);
        }
    }
    // A disk-backed split that failed to read ended early: the attempt
    // fails with the error, which names the file.
    if let Some(e) = reader.take_error() {
        return Err(e.into());
    }
    // The last lap: the final record's bookkeeping and the `next()` that
    // found the split's end, charged as reading.
    let (tail_ns, _) = clock.lap();
    let input_records = clock.records;
    emitter.path.ops.add_nanos(Op::Read, tail_ns);
    emitter.path.pipeline.produce(tail_ns);
    if let Some(tr) = &mut emitter.path.trace {
        tr.on_record(0, tail_ns, 0, 0, 0);
    }

    // ---- drain the filter ---------------------------------------------------
    let mut freq_absorbed = 0u64;
    if let Some(mut f) = emitter.filter.take() {
        let sw = Stopwatch::start();
        f.finish(&mut emitter.path);
        let total = sw.elapsed_ns();
        let blocked = emitter.path.take_blocked_ns();
        let produce = total.saturating_sub(blocked);
        let combine = f.take_user_combine_ns().min(produce);
        emitter.path.ops.add_nanos(Op::Emit, produce - combine);
        emitter.path.ops.add_nanos(Op::Combine, combine);
        emitter.path.pipeline.produce(produce);
        emitter.path.trace_record(0, 0, produce - combine, combine);
        freq_absorbed = f.absorbed();
    }

    // ---- final spill ---------------------------------------------------------
    let mut path = emitter.path;
    path.settle();
    path.pipeline.drain_barrier();
    if let Some(tr) = &mut path.trace {
        tr.on_barrier(path.pipeline.end_record().0);
    }
    path.spill_last();
    if path.io_error.is_some() {
        return Err(path.fail());
    }
    let pipeline_end = path.pipeline.pipeline_end();
    let mut peak_buffer_bytes = path
        .peak_buffer_bytes
        .max((path.spill_peak + reader.window_bytes()) as u64);

    // ---- spills → the map output ----------------------------------------------
    if is_cancelled(&cfg.cancel) {
        return Err(TaskError::Cancelled);
    }
    let sw_merge = Stopwatch::start();
    let mut combine_in_merge_ns = 0u64;
    let (file, merge_total_ns) = if path.spills.len() == 1 {
        // A lone spill already is the map output: sorted, combined,
        // indexed by partition, and (when framed) encoded at the output's
        // frame size. Hadoop's `MapTask.mergeParts` renames it when
        // `numSpills == 1`; re-merging it would rewrite the same bytes.
        (path.spills.remove(0), sw_merge.elapsed_ns())
    } else {
        let out_path = cfg.spill_dir.join(format!("t{}_out.bin", cfg.task_id));
        let merge = SpillMerge {
            grouper: path.support.grouper(),
            spills: std::mem::take(&mut path.spills).into(),
            num_partitions: cfg.num_partitions,
            fan_in: cfg.merge_fan_in,
            frame_bytes: cfg.frame_bytes,
            helper_store: cfg
                .frame_bytes
                .is_none()
                .then(|| cfg.spill_dir.join(format!("t{}.merge", cfg.task_id))),
            combine_ns: &mut combine_in_merge_ns,
            peak_buffer_bytes: &mut peak_buffer_bytes,
        };
        merge.run(scope, out_path)?
    };
    // Clamp so Merge + Combine == merge_total_ns exactly (combine time is
    // measured inside the merge stopwatch, so the clamp never bites in
    // practice; the trace's merge spans must tile the merge interval).
    let cim = combine_in_merge_ns.min(merge_total_ns);
    path.ops.add_nanos(Op::Merge, merge_total_ns - cim);
    path.ops.add_nanos(Op::Combine, cim);

    // ---- profile -------------------------------------------------------------
    let trace = path
        .trace
        .take()
        .map(|tr| Box::new(tr.finish(pipeline_end, merge_total_ns - cim, cim)));
    let profile = TaskProfile {
        ops: path.ops,
        virtual_duration: pipeline_end + merge_total_ns,
        produce_busy: path.pipeline.produce_busy,
        consume_busy: path.pipeline.consume_busy,
        producer_wait: path.pipeline.producer_wait,
        consumer_wait: path.pipeline.consumer_wait,
        spills: path.stats,
        input_records,
        emitted_records: emitter.emitted,
        freq_absorbed_records: freq_absorbed,
        output_bytes: file.total_bytes(),
        peak_buffer_bytes,
        trace,
    };
    Ok((
        MapOutput {
            file,
            node: cfg.node,
            framed: cfg.frame_bytes.is_some(),
        },
        profile,
    ))
}

/// The merge of two or more spills (or none) into the map output, with the
/// combiner applied again to each merged group.
///
/// With a helper store, the partitions split into two contiguous halves
/// balanced by spilled bytes: the map thread merges and writes the first
/// while a helper thread merges the second with a grouper of its own into
/// its store, and the map thread copies the helper's partitions after its
/// own, so the output is the one-thread merge's, byte for byte.
/// Intermediate passes append to the spills' store, the helper's to its
/// own.
struct SpillMerge<'a, 'j> {
    /// The attempt's grouper.
    grouper: &'a mut Grouper<'j>,
    spills: Arc<[SpillFile]>,
    num_partitions: usize,
    fan_in: usize,
    /// Frame size of framed runs; `None` for record/blob partitions.
    frame_bytes: Option<usize>,
    /// Backing file of the helper's store; `None` merges on the map thread
    /// alone, as a budgeted attempt must: a second framed merge would hold
    /// another fan-in's frame windows, over the budget.
    helper_store: Option<PathBuf>,
    /// Combiner time spent inside the merge.
    combine_ns: &'a mut u64,
    /// The task's residency high-water mark, raised by the merge's runs:
    /// both threads' at once.
    peak_buffer_bytes: &'a mut u64,
}

/// One record/blob partition merged whole, from spill runs of
/// `runs_bytes` held at once.
struct MergedPart {
    bytes: Vec<u8>,
    records: u64,
    combine_ns: u64,
    runs_bytes: u64,
}

/// The helper's merged partitions, `(part, offset, bytes, records)` in
/// its store, and what merging them cost.
struct Half {
    store: Arc<Store>,
    parts: Vec<(usize, u64, usize, u64)>,
    combine_ns: u64,
    peak_bytes: u64,
}

impl<'j> SpillMerge<'_, 'j> {
    /// Merge into a new output store at `out`, a helper (if any) running in
    /// `scope`; the output and both threads' merge time, as one thread
    /// would have spent it.
    fn run<'s>(mut self, scope: &'s Scope<'s, 'j>, out: PathBuf) -> io::Result<(SpillFile, u64)> {
        let sw = Stopwatch::start();
        let mut writer = SpillFile::create(out)?;
        if let Some(frame_bytes) = self.frame_bytes {
            writer = writer.framed(frame_bytes);
        }
        // No spills (empty input): an empty output.
        let Some(store) = self.spills.first().map(|s| Arc::clone(s.store())) else {
            return Ok((writer.finish()?, sw.elapsed_ns()));
        };
        let parts = self.num_partitions;
        let cut = self
            .helper_store
            .as_ref()
            .map_or(parts, |_| self.balanced_cut());
        let helper = self
            .helper_store
            .take()
            .filter(|_| cut < parts)
            .map(|path| {
                let (job, order) = (self.grouper.job(), self.grouper.order());
                let (spills, fan_in) = (Arc::clone(&self.spills), self.fan_in);
                move || merge_half(job, order, &spills, cut..parts, fan_in, path)
            });
        let mut held = 0;
        let (mine, theirs, overlap) = beside(scope, helper, || {
            (0..cut).try_for_each(|part| {
                held = held.max(self.merge_into(part, &mut writer, &store)?);
                Ok::<_, io::Error>(())
            })
        });
        mine?;
        if let Some(half) = theirs.transpose()? {
            let mut bytes = Vec::new();
            for &(part, at, len, records) in &half.parts {
                bytes.resize(len, 0);
                half.store
                    .read_at(at, &mut bytes)
                    .map_err(merging_through(&half.store))?;
                writer.write_raw_partition(part, &bytes, records)?;
            }
            *self.combine_ns = self.combine_ns.saturating_add(half.combine_ns);
            held += half.peak_bytes;
        }
        *self.peak_buffer_bytes = (*self.peak_buffer_bytes).max(held);
        *self.combine_ns = self
            .combine_ns
            .saturating_add(self.grouper.take_combine_ns());
        let file = writer.finish()?;
        Ok((file, overlap.work_ns(sw.elapsed_ns())))
    }

    /// The first partition of the helper's half: the cut that best
    /// balances the halves' spilled bytes, leaving bytes on both sides;
    /// `num_partitions` when none does.
    fn balanced_cut(&self) -> usize {
        let bytes = |part| -> u64 {
            let entries = self.spills.iter().filter_map(|s| s.part_index(part));
            entries.map(|e| e.len).sum()
        };
        let total: u64 = (0..self.num_partitions).map(bytes).sum();
        let mut first = 0;
        (1..self.num_partitions)
            .filter_map(|cut| {
                first += bytes(cut - 1);
                (first > 0 && first < total).then(|| (first.abs_diff(total - first), cut))
            })
            .min()
            .map_or(self.num_partitions, |(_, cut)| cut)
    }

    /// Merge partition `part` on the map thread and write it; the bytes
    /// the merge held at once.
    fn merge_into(
        &mut self,
        part: usize,
        writer: &mut SpillFileWriter,
        store: &Arc<Store>,
    ) -> io::Result<u64> {
        let Some(frame_bytes) = self.frame_bytes else {
            let merged = merge_records(&self.spills, part, self.grouper, self.fan_in, store)?;
            let Some(p) = merged else { return Ok(0) };
            writer.write_raw_partition(part, &p.bytes, p.records)?;
            *self.combine_ns = self.combine_ns.saturating_add(p.combine_ns);
            return Ok(p.runs_bytes);
        };
        // Framed runs merge through one-frame windows and are written a
        // frame at a time; the final merge orders by the comparator.
        if self.spills.iter().all(|s| s.frames(part).is_none()) {
            return Ok(0);
        }
        let grouper = &mut *self.grouper;
        let job = grouper.job();
        let cmp = |a: &[u8], b: &[u8]| job.compare_keys(a, b);
        // Sources open lazily (batch by batch), so at most fan_in frame
        // windows are live at once.
        let sources: Vec<CursorSource<'_>> = self
            .spills
            .iter()
            .map(|s| CursorSource::Spill { file: s, part })
            .collect();
        let multi = reduce_sources_to_fan_in(
            sources,
            job,
            job.has_combiner(),
            self.fan_in,
            frame_bytes,
            store,
        )?;
        *self.combine_ns = self.combine_ns.saturating_add(multi.combine_ns);
        let mut cursors = multi.cursors;
        let windows: usize = cursors.iter().map(FrameRunCursor::window_bytes).sum();
        writer.start_partition(part)?;
        let mut written = Ok(());
        merge_grouped_cursors(&mut cursors, &cmp, |key, values| {
            grouper.combine(key, values, |v| {
                if written.is_ok() {
                    written = writer.write_record(key, v);
                }
            });
        })?;
        written?;
        writer.end_partition()?;
        Ok(((windows + writer.held_bytes()) as u64).max(multi.peak_bytes))
    }
}

/// Record/blob partition `part` of `spills` merged whole (see
/// [`merge_partition`]), bounding the final pass's fan-in through `store`
/// as Hadoop does when spills exceed io.sort.factor; `None` when every
/// spill's partition is empty.
fn merge_records(
    spills: &[SpillFile],
    part: usize,
    grouper: &mut Grouper<'_>,
    fan_in: usize,
    store: &Store,
) -> io::Result<Option<MergedPart>> {
    let runs: Vec<Vec<u8>> = spills
        .iter()
        .map(|s| s.read_partition(part))
        .collect::<io::Result<_>>()?;
    if runs.iter().all(|r| r.is_empty()) {
        return Ok(None);
    }
    let runs_bytes = runs.iter().map(|r| r.len() as u64).sum();
    let (bytes, records, combine_ns) = merge_partition(runs, grouper, fan_in, store)?;
    Ok(Some(MergedPart {
        bytes,
        records,
        combine_ns,
        runs_bytes,
    }))
}

/// The helper thread: record/blob partitions `parts` of `spills` merged by
/// a grouper of `job`'s starting in `order`, each appended, like its
/// intermediate passes, to a store at `store_path` (created by the first
/// append, removed with the returned half). Its peak holds one
/// partition's runs or merged bytes. An I/O error names the store.
fn merge_half(
    job: &dyn Job,
    order: MergeOrder,
    spills: &[SpillFile],
    parts: Range<usize>,
    fan_in: usize,
    store_path: PathBuf,
) -> io::Result<Half> {
    let store = Store::create(store_path);
    let mut grouper = Grouper::new(job, job.has_combiner()).with_order(order);
    let mut half = Half {
        store: Arc::clone(&store),
        parts: Vec::new(),
        combine_ns: 0,
        peak_bytes: 0,
    };
    for part in parts {
        let merged = merge_records(spills, part, &mut grouper, fan_in, &store)
            .and_then(|p| p.map(|p| Ok((store.append(&p.bytes)?, p))).transpose())
            .map_err(merging_through(&store))?;
        let Some((at, p)) = merged else { continue };
        half.peak_bytes = half.peak_bytes.max(p.runs_bytes.max(p.bytes.len() as u64));
        half.combine_ns = half.combine_ns.saturating_add(p.combine_ns);
        half.parts.push((part, at, p.bytes.len(), p.records));
    }
    Ok(half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64, read_record};
    use crate::controller::FixedSpill;
    use crate::io::dfs::SimDfs;
    use crate::io::frame::DEFAULT_FRAME_BYTES;
    use crate::io::input::DEFAULT_INPUT_CHUNK;
    use crate::job::{Record, ValueCursor, ValueSink};
    use crate::task::spill::spill_segment_into;
    use std::path::Path;

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

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("textmr-maptask-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn one_split(text: &str) -> InputSplit {
        let mut dfs = SimDfs::new(1, 1 << 20);
        dfs.put("in", text.as_bytes().to_vec());
        InputSplit::from_file(dfs.get("in").unwrap(), 0).remove(0)
    }

    fn cfg(buffer: usize) -> MapTaskConfig {
        MapTaskConfig {
            task_id: 0,
            node: 0,
            num_partitions: 2,
            buffer_capacity: buffer,
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
        }
    }

    fn output_counts(out: &MapOutput, parts: usize) -> std::collections::HashMap<String, u64> {
        let mut m = std::collections::HashMap::new();
        for p in 0..parts {
            let run = out.file.read_partition(p).unwrap();
            let mut pos = 0;
            while let Some((k, v)) = read_record(&run, &mut pos) {
                *m.entry(String::from_utf8(k.to_vec()).unwrap()).or_insert(0) +=
                    decode_u64(v).unwrap();
            }
        }
        m
    }

    #[test]
    fn small_input_single_spill() {
        let split = one_split("a b a\nb c\n");
        let (out, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, cfg(1 << 20))
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        assert_eq!(prof.input_records, 2);
        assert_eq!(prof.emitted_records, 5);
        assert_eq!(prof.spills.len(), 1);
        let counts = output_counts(&out, 2);
        assert_eq!(counts["a"], 2);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
    }

    #[test]
    fn tiny_buffer_forces_many_spills_same_result() {
        let text: String = (0..200)
            .map(|i| format!("w{} common x\n", i % 17))
            .collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let (out_big, _) = run_map_task(&job, &split, cfg(1 << 22))
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        let mut small = cfg(512);
        small.task_id = 1;
        let (out_small, prof_small) = run_map_task(&job, &split, small)
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        assert!(
            prof_small.spills.len() > 3,
            "expected many spills, got {}",
            prof_small.spills.len()
        );
        assert_eq!(output_counts(&out_big, 2), output_counts(&out_small, 2));
    }

    #[test]
    fn combiner_shrinks_output() {
        let text: String = "the the the the\n".repeat(100);
        let split = one_split(&text);
        let (out, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, cfg(1 << 20))
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        assert_eq!(prof.emitted_records, 400);
        assert_eq!(out.file.total_records(), 1);
        let counts = output_counts(&out, 2);
        assert_eq!(counts["the"], 400);
    }

    #[test]
    fn fault_injection_reports_partial_progress() {
        let split = one_split("a\nb\nc\nd\n");
        let mut c = cfg(1 << 20);
        c.fail_after_records = Some(2);
        let err = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, c).unwrap_err();
        match err {
            TaskError::Injected { .. } => {}
            other => panic!("expected injected failure, got {other:?}"),
        }
    }

    #[test]
    fn spill_fault_reports_injected_failure() {
        let text: String = (0..200)
            .map(|i| format!("w{} common x\n", i % 17))
            .collect();
        let split = one_split(&text);
        let mut c = cfg(512); // tiny buffer → several spills
        c.fail_spill = Some(1);
        let err = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, c).unwrap_err();
        match err {
            TaskError::Injected { .. } => {}
            other => panic!("expected injected spill failure, got {other:?}"),
        }
    }

    #[test]
    fn spill_fault_beyond_last_spill_never_fires() {
        let split = one_split("a b a\nb c\n");
        let mut c = cfg(1 << 20); // one final spill only
        c.fail_spill = Some(5);
        let (_, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, c)
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        assert_eq!(prof.spills.len(), 1);
    }

    #[test]
    fn cancelled_task_stops_early() {
        let split = one_split("a b\nc d\ne f\n");
        let mut c = cfg(1 << 20);
        c.cancel = Some(Arc::new(AtomicBool::new(true)));
        let err = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, c).unwrap_err();
        assert!(matches!(err, TaskError::Cancelled), "got {err:?}");
    }

    #[test]
    fn profile_times_are_consistent() {
        let text: String = (0..500)
            .map(|i| format!("word{} b c d e\n", i % 29))
            .collect();
        let split = one_split(&text);
        let (_, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, cfg(4096))
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        // Virtual duration covers at least the busy producer time.
        assert!(prof.virtual_duration >= prof.produce_busy);
        // Consume busy equals the sum of per-spill consume times.
        let consume_sum: u64 = prof.spills.iter().map(|s| s.consume_ns).sum();
        assert_eq!(prof.consume_busy, consume_sum);
        // Spilled bytes equal total emitted payload + metadata.
        assert!(
            prof.spills.iter().map(|s| s.records).sum::<usize>() as u64 == prof.emitted_records
        );
    }

    fn framed_output_counts(
        out: &MapOutput,
        parts: usize,
    ) -> std::collections::HashMap<String, u64> {
        assert!(out.framed);
        let mut m = std::collections::HashMap::new();
        for p in 0..parts {
            let stored = out.file.read_partition(p).unwrap();
            if stored.is_empty() {
                continue;
            }
            let mut raw = Vec::new();
            for meta in crate::io::frame::scan_frames(&stored).unwrap() {
                raw.extend(crate::io::frame::decode_frame(&stored, &meta).unwrap());
            }
            let mut pos = 0;
            while let Some((k, v)) = read_record(&raw, &mut pos) {
                *m.entry(String::from_utf8(k.to_vec()).unwrap()).or_insert(0) +=
                    decode_u64(v).unwrap();
            }
        }
        m
    }

    #[test]
    fn framed_output_matches_record_blob_and_repeats_byte_for_byte() {
        let text: String = (0..300)
            .map(|i| format!("w{} common tail{}\n", i % 23, i % 7))
            .collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordSum);

        let mut legacy = cfg(512);
        legacy.task_id = 10;
        let (out_legacy, _) = run_map_task(&job, &split, legacy).unwrap();

        let framed = |task_id| {
            let mut c = cfg(512);
            c.task_id = task_id;
            c.frame_bytes = Some(DEFAULT_FRAME_BYTES);
            run_map_task(&job, &split, c).unwrap()
        };
        let (out_a, prof_a) = framed(11);
        let (out_b, prof_b) = framed(12);

        // Same logical output as the record/blob path.
        assert_eq!(
            framed_output_counts(&out_a, 2),
            output_counts(&out_legacy, 2)
        );
        // Byte-identical partitions and timing-free signatures run to run.
        for p in 0..2 {
            assert_eq!(
                out_a.file.read_partition(p).unwrap(),
                out_b.file.read_partition(p).unwrap(),
                "partition {p} bytes differ between two framed runs"
            );
        }
        assert_eq!(prof_a.signature(), prof_b.signature());
        assert!(prof_a.spills.len() > 3, "want multi-spill coverage");
    }

    /// WordSum without a combiner: no `Combine` time on any side.
    struct WordList;
    impl Job for WordList {
        fn name(&self) -> &str {
            "wordlist"
        }
        fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
            WordSum.map(r, e);
        }
        fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            WordSum.reduce(k, values, out);
        }
    }

    #[test]
    fn sampled_emit_time_is_reported_and_tiles_the_producer() {
        let text: String = (0..300).map(|i| format!("w{} b c d\n", i % 31)).collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordList);
        let mut c = cfg(2048);
        c.task_id = 20;
        let (_, prof) = run_map_task(&job, &split, c).unwrap();
        assert!(prof.emitted_records >= 16 * 10 && prof.spills.len() > 1);
        assert!(prof.ops.get(Op::Emit) > 0, "sampled emits must report time");
        assert_eq!(prof.ops.get(Op::Combine), 0);
        assert_eq!(
            prof.ops.get(Op::Read) + prof.ops.get(Op::Map) + prof.ops.get(Op::Emit),
            prof.produce_busy,
            "producer ops must tile the producer's busy time exactly"
        );
    }

    #[test]
    fn repeated_runs_sample_the_same_emits() {
        let text: String = (0..300).map(|i| format!("w{} b c d\n", i % 31)).collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        let run = |task_id| {
            let mut c = cfg(2048);
            c.task_id = task_id;
            run_map_task(&job, &split, c).unwrap().1
        };
        assert_eq!(run(21).signature(), run(22).signature());
        // The emitter times the emits whose counter is a multiple of the
        // sampling period, whatever the clock reads.
        let samples: Vec<u64> = (23..25)
            .map(|task_id| {
                let mut c = cfg(1 << 20);
                c.task_id = task_id;
                std::thread::scope(|scope| {
                    let mut e = MapEmitter {
                        path: SpillPath::new(job.as_ref(), &c, Box::new(FixedSpill(0.8)), scope),
                        filter: None,
                        emit_cost: SampledCost::default(),
                        blocked_ns: 0,
                        emitted: 0,
                    };
                    let mut reader = SplitReader::new(&split);
                    while let Some(rec) = reader.next() {
                        job.map(&rec, &mut e);
                    }
                    assert_eq!(e.emitted, 1200);
                    e.emit_cost.samples()
                })
            })
            .collect();
        assert_eq!(samples, vec![1200 / 16; 2]);
    }

    #[test]
    fn repeated_runs_sample_the_same_reads() {
        let text: String = (0..300).map(|i| format!("w{} b c d\n", i % 31)).collect();
        let split = one_split(&text);
        // The clock times the reads whose record counter is a multiple of
        // the sampling period, whatever the clock reads.
        let samples: Vec<u64> = (0..2)
            .map(|_| {
                let mut clock = RecordClock::start();
                let mut reader = SplitReader::new(&split);
                while reader.next().is_some() {
                    clock.on_read();
                    clock.lap();
                }
                assert_eq!(clock.records, 300);
                clock.read_cost.samples()
            })
            .collect();
        assert_eq!(samples, vec![300 / 16; 2]);
        let mut c = cfg(2048);
        c.task_id = 25;
        let (_, prof) = run_map_task(&(Arc::new(WordList) as Arc<dyn Job>), &split, c).unwrap();
        assert_eq!(prof.input_records, 300);
        assert!(prof.ops.get(Op::Read) > 0, "sampled reads must report time");
    }

    /// File names in `dir`, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn many_spills_leave_only_the_output_file() {
        let text: String = (0..600)
            .map(|i| format!("w{} common x{}\n", i % 41, i % 13))
            .collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordSum);
        for (task_id, frame_bytes) in [(30, None), (31, Some(DEFAULT_FRAME_BYTES))] {
            let dir = tmpdir().join(format!("store-files-{task_id}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut c = cfg(512);
            c.task_id = task_id;
            c.merge_fan_in = 3;
            c.spill_dir = dir.clone();
            c.frame_bytes = frame_bytes;
            let (out, prof) = run_map_task(&job, &split, c).unwrap();
            assert!(prof.spills.len() >= 10, "got {} spills", prof.spills.len());
            assert_eq!(files_in(&dir), vec![format!("t{task_id}_out.bin")]);
            drop(out);
            assert!(files_in(&dir).is_empty(), "{frame_bytes:?}");
        }
    }

    #[test]
    fn a_lone_spill_output_keeps_the_store_alive() {
        let dir = tmpdir().join("store-files-lone");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut c = cfg(1 << 20);
        c.task_id = 33;
        c.spill_dir = dir.clone();
        let split = one_split("a b a\nb c\n");
        let (out, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, c).unwrap();
        assert_eq!(prof.spills.len(), 1);
        assert_eq!(files_in(&dir), vec!["t33.spills".to_string()]);
        assert_eq!(output_counts(&out, 2)["a"], 2);
        drop(out);
        assert!(files_in(&dir).is_empty());
    }

    #[test]
    fn a_merge_split_over_two_threads_writes_the_one_thread_output() {
        let job = WordSum;
        let dir = tmpdir().join("split-merge");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let parts = 12;
        let store = Store::create(dir.join("t40.spills"));
        let mut grouper = Grouper::new(&job, true);
        let spills: Vec<SpillFile> = (0..48)
            .map(|s| {
                let mut seg = Segment::new();
                for i in 0..60 {
                    let key = format!("w{}", (s * 7 + i * 13) % 97);
                    let part = job.partition(key.as_bytes(), parts);
                    seg.push(part, key.as_bytes(), &encode_u64(1));
                }
                spill_segment_into(&seg, &mut grouper, &store, None)
                    .unwrap()
                    .file
            })
            .collect();
        let spills: Arc<[SpillFile]> = spills.into();
        let merge = |helper: bool, out: &str| {
            let mut peak = 0;
            let (file, _) = std::thread::scope(|scope| {
                SpillMerge {
                    grouper: &mut Grouper::new(&job, true),
                    spills: Arc::clone(&spills),
                    num_partitions: parts,
                    fan_in: 5,
                    frame_bytes: None,
                    helper_store: helper.then(|| dir.join("t40.merge")),
                    combine_ns: &mut 0,
                    peak_buffer_bytes: &mut peak,
                }
                .run(scope, dir.join(out))
                .unwrap()
            });
            (file, peak)
        };
        let (one, one_peak) = merge(false, "one.bin");
        let (two, two_peak) = merge(true, "two.bin");
        assert_eq!(one.index().len(), parts);
        assert_eq!(one.index(), two.index());
        assert_eq!(one.total_records(), two.total_records());
        for part in 0..parts {
            assert_eq!(
                one.read_partition(part).unwrap(),
                two.read_partition(part).unwrap(),
                "partition {part}"
            );
        }
        // Both threads' buffers count at once.
        assert!(two_peak > one_peak);
        assert!(!dir.join("t40.merge").exists());
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let split = one_split("");
        let (out, prof) = run_map_task(&(Arc::new(WordSum) as Arc<dyn Job>), &split, cfg(1024))
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        assert_eq!(prof.emitted_records, 0);
        assert_eq!(out.file.total_records(), 0);
    }
}
