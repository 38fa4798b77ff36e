//! Execution of one map task: read → map → emit → (filter) → spill buffer →
//! sort/combine/spill → merge (a lone spill is the output as it stands).
//!
//! All user and framework work runs for real and is measured; the
//! producer/consumer overlap between the map thread and the support thread
//! is advanced on the virtual clocks of [`Pipeline`]. The paper's
//! optimizations plug in here: an [`EmitFilter`] (frequency-buffering) sees
//! every emitted pair before the spill path, and a [`SpillController`]
//! (spill-matcher) picks the spill fraction after every spill.

use crate::controller::{EmitFilter, SpillController, SpillObservation};
use crate::io::frame::{FrameEncoder, FrameRunCursor, RunStore};
use crate::io::input::{InputSplit, SplitReader};
use crate::io::spill_file::SpillFile;
use crate::io::StreamingConfig;
use crate::job::{Emit, Job};
use crate::metrics::{Op, OpTimes, SampledCost, SpillStat, Stopwatch, TaskProfile};
use crate::task::merge::{
    combine_group, merge_grouped, merge_grouped_cursors, reduce_sources_to_fan_in,
    reduce_to_fan_in, CursorSource,
};
use crate::task::pipeline::{Admission, Pipeline};
use crate::task::segment::Segment;
use crate::task::spill::{spill_segment, spill_segment_framed};
use crate::task::TaskError;
use crate::trace::MapTraceRecorder;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// Compress the final map-output partitions.
    pub compress_output: bool,
    /// Directory for spill and output files.
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
    /// Out-of-core streaming knobs. With `framed` off (the default) the
    /// task runs the legacy byte-for-byte paths; with it on, spills and
    /// the map output are written as framed runs and the final merge
    /// reads them either as one-frame windows (streamed) or whole runs
    /// (`materialize_reads`) — same bytes, different residency.
    pub streaming: StreamingConfig,
}

/// A finished map task's output, fetchable by partition during shuffle.
#[derive(Debug)]
pub struct MapOutput {
    /// The partition-indexed output file: the merge of the task's spills,
    /// or its lone spill itself.
    pub file: SpillFile,
    /// Node that produced it (shuffle source).
    pub node: usize,
    /// Whether partitions are stored compressed (reducers must
    /// decompress after fetching).
    pub compressed: bool,
    /// Whether partitions are framed runs (per-frame compression with a
    /// frame index; see [`crate::io::frame`]). Framed output supersedes
    /// whole-blob compression, so `compressed` and `framed` are mutually
    /// exclusive.
    pub framed: bool,
}

/// The spill path: active segment + virtual pipeline + spill files.
/// Implements [`Emit`] so it can serve directly as the filter's flush sink.
struct SpillPath<'a> {
    job: &'a dyn Job,
    num_partitions: usize,
    pipeline: Pipeline,
    seg: Segment,
    controller: Box<dyn SpillController>,
    spills: Vec<SpillFile>,
    stats: Vec<SpillStat>,
    ops: OpTimes,
    spill_dir: &'a Path,
    task_id: usize,
    /// Support-thread (consume) work performed inside the current emit
    /// call; the producer's measured time must exclude it.
    consume_pending_ns: u64,
    /// Deferred I/O error (the `Emit` trait is infallible).
    io_error: Option<io::Error>,
    /// Injected spill fault: fail the spill write with this index.
    fail_spill: Option<usize>,
    /// Write spills as framed runs (out-of-core format).
    framed: bool,
    /// Target uncompressed bytes per frame when `framed`.
    frame_bytes: usize,
    /// Set when `io_error` came from an injected fault, so the task is
    /// reported as `Injected` (retryable) instead of a hard I/O failure.
    injected: bool,
    /// Span recorder for the map/support lanes (tracing enabled only).
    trace: Option<Box<MapTraceRecorder>>,
}

impl<'a> SpillPath<'a> {
    fn append(&mut self, key: &[u8], value: &[u8]) {
        let part = self.job.partition(key, self.num_partitions);
        let cost = Segment::record_cost(key, value);
        if self.pipeline.admit(cost) == Admission::SpillThenAppend {
            self.do_spill();
        }
        self.seg.push(part, key, value);
        self.pipeline.appended(cost);
        if self.pipeline.should_spill() {
            self.do_spill();
        }
    }

    /// Sort/combine/write the active segment and advance the virtual
    /// pipeline. No-op on an empty segment.
    fn do_spill(&mut self) {
        if self.seg.is_empty() || self.io_error.is_some() {
            return;
        }
        if self.fail_spill == Some(self.spills.len()) {
            self.injected = true;
            self.io_error = Some(io::Error::other(format!(
                "injected fault: spill write {} of map task {}",
                self.spills.len(),
                self.task_id
            )));
            return;
        }
        let path = self
            .spill_dir
            .join(format!("t{}_s{}.spill", self.task_id, self.spills.len()));
        let spilled = if self.framed {
            spill_segment_framed(&self.seg, self.job, path, self.frame_bytes)
        } else {
            spill_segment(&self.seg, self.job, path)
        };
        match spilled {
            Ok(out) => {
                self.ops.add_nanos(Op::Sort, out.sort_ns);
                self.ops.add_nanos(Op::Combine, out.combine_ns);
                self.ops.add_nanos(Op::SpillWrite, out.write_ns);
                let consume_ns = out.consume_ns();
                let fraction = self.pipeline.fraction();
                // The consumer is idle at handover, so it starts at the
                // producer's clock — capture it for the support-lane span.
                let handover_at = self.pipeline.producer_clock();
                let (bytes, produce_ns) = self.pipeline.handover(consume_ns);
                if let Some(tr) = &mut self.trace {
                    tr.on_spill(handover_at, out.sort_ns, out.combine_ns, out.write_ns);
                }
                self.stats.push(SpillStat {
                    bytes,
                    records: out.records_in as usize,
                    records_after_combine: out.records_out as usize,
                    produce_ns,
                    consume_ns,
                    fraction,
                });
                let obs = SpillObservation {
                    bytes,
                    produce_ns,
                    consume_ns,
                    capacity: self.pipeline.capacity(),
                };
                let next = self.controller.next_fraction(&obs).clamp(MIN_FRACTION, 1.0);
                self.pipeline.set_fraction(next);
                self.consume_pending_ns = self.consume_pending_ns.saturating_add(consume_ns);
                self.seg.clear();
                self.spills.push(out.file);
            }
            Err(e) => self.io_error = Some(e),
        }
    }

    fn take_consume_pending(&mut self) -> u64 {
        std::mem::take(&mut self.consume_pending_ns)
    }
}

impl<'a> Emit for SpillPath<'a> {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.append(key, value);
    }
}

/// The emitter handed to user `map()` code: routes pairs through the
/// optional filter, keeps producer-time bookkeeping, and times a counter-
/// chosen sample of emits (see [`SampledCost`]).
struct MapEmitter<'a> {
    path: SpillPath<'a>,
    filter: Option<Box<dyn EmitFilter>>,
    emit_cost: SampledCost,
    handover_ns: u64,
    emitted: u64,
}

impl<'a> Emit for MapEmitter<'a> {
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
        let consumed = self.path.take_consume_pending();
        self.handover_ns = self.handover_ns.saturating_add(consumed);
        if let Some(sw) = sw {
            self.emit_cost
                .record(sw.elapsed_ns().saturating_sub(consumed));
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

/// Run one map task over `split`.
pub fn run_map_task(
    job: &Arc<dyn Job>,
    split: &InputSplit,
    cfg: MapTaskConfig,
) -> Result<(MapOutput, TaskProfile), TaskError> {
    let mut controller = cfg.controller;
    let initial = controller.initial_fraction().clamp(MIN_FRACTION, 1.0);
    let path = SpillPath {
        job: job.as_ref(),
        num_partitions: cfg.num_partitions,
        pipeline: Pipeline::new(cfg.buffer_capacity, initial),
        seg: Segment::new(),
        controller,
        spills: Vec::new(),
        stats: Vec::new(),
        ops: OpTimes::new(),
        spill_dir: &cfg.spill_dir,
        task_id: cfg.task_id,
        consume_pending_ns: 0,
        io_error: None,
        fail_spill: cfg.fail_spill,
        framed: cfg.streaming.framed,
        frame_bytes: cfg.streaming.frame_bytes,
        injected: false,
        trace: cfg.trace.then(|| Box::new(MapTraceRecorder::new())),
    };
    let mut emitter = MapEmitter {
        path,
        filter: cfg.filter,
        emit_cost: SampledCost::default(),
        handover_ns: 0,
        emitted: 0,
    };

    // ---- producer loop: read → map → emit ---------------------------------
    let mut reader = SplitReader::with_chunk(split, cfg.streaming.input_chunk_bytes);
    // High-water mark of tracked buffer residency: spill-buffer bytes plus
    // the input chunk window plus (during the merge) cursor windows. This
    // is the quantity a RAM budget bounds; see `TaskProfile`.
    let mut peak_buffer_bytes = 0u64;
    // Producer-wait watermark for the trace: the delta per record is the
    // blocked-on-full-buffer time that preceded the record's busy time.
    let mut last_pw = 0u64;
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
        let handover_ns = std::mem::take(&mut emitter.handover_ns);
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
        let produce_ns = total_ns.saturating_sub(handover_ns);
        let read_c = read_ns.min(produce_ns);
        let emit_c = emit_ns.min(produce_ns - read_c);
        let map_c = produce_ns - read_c - emit_c;
        let combine_c = filter_combine_ns.min(emit_c);
        let ops = &mut emitter.path.ops;
        ops.add_nanos(Op::Read, read_c);
        ops.add_nanos(Op::Emit, emit_c - combine_c);
        ops.add_nanos(Op::Combine, combine_c);
        ops.add_nanos(Op::Map, map_c);
        emitter.path.pipeline.produce(produce_ns);
        let resident = emitter.path.pipeline.active_bytes() + reader.window_bytes();
        peak_buffer_bytes = peak_buffer_bytes.max(resident as u64);
        if emitter.path.trace.is_some() {
            let pw = emitter.path.pipeline.producer_wait;
            let wait = pw - last_pw;
            last_pw = pw;
            if let Some(tr) = &mut emitter.path.trace {
                tr.on_record(wait, read_c, map_c, emit_c - combine_c, combine_c);
            }
        }

        if let Some(e) = emitter.path.io_error.take() {
            if emitter.path.injected {
                return Err(TaskError::Injected {
                    virtual_elapsed: emitter.path.pipeline.pipeline_end(),
                });
            }
            return Err(e.into());
        }
        if cfg.fail_after_records == Some(clock.records) {
            return Err(TaskError::Injected {
                virtual_elapsed: emitter.path.pipeline.pipeline_end(),
            });
        }
        if is_cancelled(&cfg.cancel) {
            return Err(TaskError::Cancelled);
        }
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
        let consumed = emitter.path.take_consume_pending();
        let produce = total.saturating_sub(consumed);
        let combine = f.take_user_combine_ns().min(produce);
        emitter.path.ops.add_nanos(Op::Emit, produce - combine);
        emitter.path.ops.add_nanos(Op::Combine, combine);
        emitter.path.pipeline.produce(produce);
        if emitter.path.trace.is_some() {
            let pw = emitter.path.pipeline.producer_wait;
            let wait = pw - last_pw;
            last_pw = pw;
            if let Some(tr) = &mut emitter.path.trace {
                tr.on_record(wait, 0, 0, produce - combine, combine);
            }
        }
        freq_absorbed = f.absorbed();
    }

    // ---- final spill ---------------------------------------------------------
    let mut path = emitter.path;
    path.pipeline.drain_barrier();
    if path.trace.is_some() {
        let wait = path.pipeline.producer_wait - last_pw;
        if let Some(tr) = &mut path.trace {
            tr.on_barrier(wait);
        }
    }
    path.do_spill();
    if let Some(e) = path.io_error.take() {
        if path.injected {
            return Err(TaskError::Injected {
                virtual_elapsed: path.pipeline.pipeline_end(),
            });
        }
        return Err(e.into());
    }
    let pipeline_end = path.pipeline.pipeline_end();

    // ---- spills → the map output ----------------------------------------------
    if is_cancelled(&cfg.cancel) {
        return Err(TaskError::Cancelled);
    }
    let sw_merge = Stopwatch::start();
    let mut combine_in_merge_ns = 0u64;
    let framed = cfg.streaming.framed;
    // Framed output supersedes whole-blob compression.
    let compressed = cfg.compress_output && !framed;
    let out_path = cfg.spill_dir.join(format!("t{}_out.bin", cfg.task_id));
    let file = if path.spills.len() == 1 {
        // A lone spill already is the map output: sorted, combined,
        // indexed by partition, and (when framed) encoded at the output's
        // frame size. Hadoop's `MapTask.mergeParts` renames it when
        // `numSpills == 1`; re-merging it would rewrite the same bytes.
        let spill = path.spills.remove(0);
        if compressed {
            compress_map_output(&spill, out_path, &mut peak_buffer_bytes)?
        } else {
            spill
        }
    } else {
        let merge = SpillMerge {
            job: job.as_ref(),
            spills: &path.spills,
            num_partitions: cfg.num_partitions,
            fan_in: cfg.merge_fan_in,
            spill_dir: &cfg.spill_dir,
            task_id: cfg.task_id,
            combine_ns: &mut combine_in_merge_ns,
            peak_buffer_bytes: &mut peak_buffer_bytes,
        };
        if framed {
            merge.framed(out_path, cfg.streaming)?
        } else {
            merge.records(out_path, compressed)?
        }
    };
    let merge_total_ns = sw_merge.elapsed_ns();
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
            compressed,
            framed,
        },
        profile,
    ))
}

/// Compress each partition of a lone record/blob spill straight into the
/// map output, one blob per partition; reducers decompress after fetching
/// (trading CPU for shuffle bytes — the paper's future-work item). The
/// spill's partition is resident while it is compressed.
fn compress_map_output(spill: &SpillFile, out: PathBuf, peak: &mut u64) -> io::Result<SpillFile> {
    let mut writer = SpillFile::create(out)?;
    for e in spill.index() {
        let run = spill.read_partition(e.part)?;
        *peak = (*peak).max(run.len() as u64);
        writer.write_raw_partition(e.part, &crate::io::compress::compress(&run), e.records)?;
    }
    writer.finish()
}

/// The merge of two or more spills (or none) into the map output, with the
/// combiner applied again to each merged group.
struct SpillMerge<'a> {
    job: &'a dyn Job,
    spills: &'a [SpillFile],
    num_partitions: usize,
    fan_in: usize,
    spill_dir: &'a Path,
    task_id: usize,
    /// Combiner time spent inside the merge.
    combine_ns: &'a mut u64,
    /// The task's residency high-water mark, raised by the merge's runs.
    peak_buffer_bytes: &'a mut u64,
}

impl SpillMerge<'_> {
    fn scratch(&self, ext: &str) -> PathBuf {
        self.spill_dir
            .join(format!("t{}_mergescratch.{ext}", self.task_id))
    }

    /// Record/blob spills into record/blob partitions, or into one
    /// compressed blob per partition when `compress`.
    fn records(self, out: PathBuf, compress: bool) -> io::Result<SpillFile> {
        let job = self.job;
        let has_combiner = job.has_combiner();
        let cmp = |a: &[u8], b: &[u8]| job.compare_keys(a, b);
        let mut writer = SpillFile::create(out)?;
        for part in 0..self.num_partitions {
            let runs: Vec<Vec<u8>> = self
                .spills
                .iter()
                .map(|s| s.read_partition(part))
                .collect::<io::Result<_>>()?;
            if runs.iter().all(|r| r.is_empty()) {
                continue;
            }
            let resident: usize = runs.iter().map(Vec::len).sum();
            *self.peak_buffer_bytes = (*self.peak_buffer_bytes).max(resident as u64);
            // Bound the final pass's fan-in, merging through scratch disk as
            // Hadoop does when spills exceed io.sort.factor.
            let multi =
                reduce_to_fan_in(runs, job, has_combiner, self.fan_in, &self.scratch("bin"))?;
            *self.combine_ns = self.combine_ns.saturating_add(multi.combine_ns);
            if compress {
                let mut merged = Vec::new();
                let mut records = 0u64;
                merge_grouped(&multi.runs, &cmp, |key, values| {
                    combine_group(job, has_combiner, key, values, self.combine_ns, |v| {
                        crate::codec::write_record(&mut merged, key, v);
                        records += 1;
                    });
                })?;
                let blob = crate::io::compress::compress(&merged);
                writer.write_raw_partition(part, &blob, records)?;
            } else {
                writer.start_partition(part)?;
                let mut written = Ok(());
                merge_grouped(&multi.runs, &cmp, |key, values| {
                    combine_group(job, has_combiner, key, values, self.combine_ns, |v| {
                        if written.is_ok() {
                            written = writer.write_record(key, v);
                        }
                    });
                })?;
                written?;
            }
        }
        writer.finish()
    }

    /// Framed spills into framed partitions. Streamed and materialized
    /// reads produce identical output bytes: multi-pass batching, combiner
    /// application, and the merged record stream are the same (pinned by
    /// the merge-module tests); only how much of each run is resident
    /// differs.
    fn framed(self, out: PathBuf, streaming: StreamingConfig) -> io::Result<SpillFile> {
        let job = self.job;
        let has_combiner = job.has_combiner();
        let frame_bytes = streaming.frame_bytes;
        let cmp = |a: &[u8], b: &[u8]| job.compare_keys(a, b);
        let mut writer = SpillFile::create(out)?;
        let mut run_store: Option<RunStore> = None;
        let mut group_combine_ns = 0u64;
        for part in 0..self.num_partitions {
            let mut enc = FrameEncoder::new(frame_bytes);
            let mut records = 0u64;
            let mut push = |key: &[u8], values: &[&[u8]]| {
                combine_group(job, has_combiner, key, values, &mut group_combine_ns, |v| {
                    enc.push_record(key, v);
                    records += 1;
                });
            };
            if streaming.materialize_reads {
                // Decode every frame of every run up front — whole-run
                // residency, the byte-identical reference point.
                let mut runs: Vec<Vec<u8>> = Vec::with_capacity(self.spills.len());
                for s in self.spills {
                    let stored = s.read_partition(part)?;
                    let mut raw = Vec::new();
                    if !stored.is_empty() {
                        let metas = s
                            .frames(part)
                            .expect("framed spill has a frame index for non-empty partitions");
                        for m in metas {
                            raw.extend(
                                crate::io::frame::decode_frame(&stored, m)
                                    .map_err(io::Error::from)?,
                            );
                        }
                    }
                    runs.push(raw);
                }
                if runs.iter().all(|r| r.is_empty()) {
                    continue;
                }
                let resident: usize = runs.iter().map(Vec::len).sum();
                *self.peak_buffer_bytes =
                    (*self.peak_buffer_bytes).max((resident + frame_bytes) as u64);
                let multi =
                    reduce_to_fan_in(runs, job, has_combiner, self.fan_in, &self.scratch("bin"))?;
                *self.combine_ns = self.combine_ns.saturating_add(multi.combine_ns);
                merge_grouped(&multi.runs, &cmp, |key, values| push(key, values))?;
            } else {
                // Streamed: sources open lazily (batch by batch), so at
                // most fan_in + 1 frame windows are live at once.
                if self.spills.iter().all(|s| s.frames(part).is_none()) {
                    continue;
                }
                let sources: Vec<CursorSource<'_>> = self
                    .spills
                    .iter()
                    .map(|s| CursorSource::Spill { file: s, part })
                    .collect();
                let store = match &mut run_store {
                    Some(s) => s,
                    None => run_store.insert(RunStore::create(self.scratch("frames"))?),
                };
                let multi = reduce_sources_to_fan_in(
                    sources,
                    job,
                    has_combiner,
                    self.fan_in,
                    frame_bytes,
                    store,
                )?;
                *self.combine_ns = self.combine_ns.saturating_add(multi.combine_ns);
                let mut cursors = multi.cursors;
                let resident: usize = cursors.iter().map(FrameRunCursor::window_bytes).sum();
                *self.peak_buffer_bytes =
                    (*self.peak_buffer_bytes).max((resident + frame_bytes) as u64);
                merge_grouped_cursors(&mut cursors, &cmp, |key, values| push(key, values))?;
            }
            let (stored, metas, _) = enc.finish();
            writer.write_framed_partition(part, &stored, metas, records)?;
        }
        *self.combine_ns = self.combine_ns.saturating_add(group_combine_ns);
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64, read_record};
    use crate::controller::FixedSpill;
    use crate::io::dfs::SimDfs;
    use crate::job::{Record, ValueCursor, ValueSink};

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
            compress_output: false,
            spill_dir: tmpdir(),
            fail_after_records: None,
            fail_spill: None,
            cancel: None,
            trace: false,
            streaming: StreamingConfig::default(),
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
    fn framed_streamed_matches_materialized_byte_for_byte() {
        let text: String = (0..300)
            .map(|i| format!("w{} common tail{}\n", i % 23, i % 7))
            .collect();
        let split = one_split(&text);
        let job: Arc<dyn Job> = Arc::new(WordSum);

        let mut legacy = cfg(512);
        legacy.task_id = 10;
        let (out_legacy, _) = run_map_task(&job, &split, legacy).unwrap();

        let mut streamed = cfg(512);
        streamed.task_id = 11;
        streamed.streaming = crate::io::StreamingConfig::streamed();
        let (out_s, prof_s) = run_map_task(&job, &split, streamed).unwrap();

        let mut mat = cfg(512);
        mat.task_id = 12;
        mat.streaming = crate::io::StreamingConfig::materialized();
        let (out_m, prof_m) = run_map_task(&job, &split, mat).unwrap();

        // Same logical output as the legacy path.
        assert_eq!(
            framed_output_counts(&out_s, 2),
            output_counts(&out_legacy, 2)
        );
        // Byte-identical partitions and timing-free signatures across
        // residency modes.
        for p in 0..2 {
            assert_eq!(
                out_s.file.read_partition(p).unwrap(),
                out_m.file.read_partition(p).unwrap(),
                "partition {p} bytes differ streamed vs materialized"
            );
        }
        assert_eq!(prof_s.signature(), prof_m.signature());
        assert!(prof_s.spills.len() > 3, "want multi-spill coverage");
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

    /// An emitter over `job` with a large buffer and no filter.
    fn emitter<'a>(job: &'a dyn Job, dir: &'a Path, task_id: usize) -> MapEmitter<'a> {
        MapEmitter {
            path: SpillPath {
                job,
                num_partitions: 2,
                pipeline: Pipeline::new(1 << 20, 0.8),
                seg: Segment::new(),
                controller: Box::new(FixedSpill(0.8)),
                spills: Vec::new(),
                stats: Vec::new(),
                ops: OpTimes::new(),
                spill_dir: dir,
                task_id,
                consume_pending_ns: 0,
                io_error: None,
                fail_spill: None,
                framed: false,
                frame_bytes: 0,
                injected: false,
                trace: None,
            },
            filter: None,
            emit_cost: SampledCost::default(),
            handover_ns: 0,
            emitted: 0,
        }
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
        let dir = tmpdir();
        let samples: Vec<u64> = (23..25)
            .map(|task_id| {
                let mut e = emitter(job.as_ref(), &dir, task_id);
                let mut reader = SplitReader::new(&split);
                while let Some(rec) = reader.next() {
                    job.map(&rec, &mut e);
                }
                assert_eq!(e.emitted, 1200);
                e.emit_cost.samples()
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
