//! Deterministic virtual-time tracing: per-task span timelines, the
//! job-level [`JobTrace`], and Chrome-trace/Perfetto export.
//!
//! The metrics module answers "how much time went to each operation?";
//! this module answers "*when*, and on which thread lane?". Every task
//! attempt records a set of [`TaskLane`]s — map thread, support thread,
//! reduce thread, shuffle fetcher slots — whose [`Span`]s exactly tile the
//! attempt's virtual duration with no gaps and no overlap. The job driver
//! then shifts each attempt onto its scheduled `(node, slot, start)` and
//! applies the node's straggler factor, producing a [`JobTrace`] whose
//! entries reproduce the virtual schedule the makespan was computed from.
//!
//! Determinism guarantees:
//!
//! * Spans are derived from the *same* measured nanosecond deltas that feed
//!   [`OpTimes`], never re-measured, so with tracing enabled the sum of all
//!   `Op` spans of the attempts of record equals
//!   [`JobProfile::total_ops`](crate::metrics::JobProfile::total_ops)
//!   exactly (each entry's durations are divided back by its straggler
//!   factor, which is exact because scaling multiplied them).
//! * Per-lane tiling is exact *by construction*: lanes are built with a
//!   cursor ([`LaneBuilder`]) and residual op components are computed as
//!   "interval minus the other components", so no rounding can open a gap.
//! * With tracing disabled nothing is recorded and nothing is allocated —
//!   the hot paths check one `bool` (or an `Option` that is `None`).
//!
//! Two exporters: [`JobTrace::to_chrome_json`] writes the Chrome trace
//! event format (open in Perfetto / `chrome://tracing`; `pid` = node,
//! `tid` = slot lane, timestamps in virtual microseconds), and
//! [`JobTrace::render_text`] draws a compact ASCII timeline for terminals
//! and tests. For out-of-core runs whose traces should never be resident
//! as one big string, [`stream::TraceStreamWriter`] spools the same span
//! events to disk incrementally and produces a byte-identical file. The
//! export is lossless for auditing purposes: [`validate_chrome_trace`]
//! checks a document against the event schema and
//! [`JobTrace::from_chrome_json`] rebuilds a `JobTrace` from its own
//! export, which is how `textmr-lint --trace` audits shipped trace files
//! offline. The format — both directions — lives in the private `chrome`
//! submodule; this module holds the span/lane/entry model.
//!
//! The [`race`] submodule is a vector-clock happens-before checker over a
//! `JobTrace`. Every trace carries its ordering edges explicitly in
//! [`JobTrace::edges`] — each [`TraceEdge`] is emitted by the scheduler's
//! event graph (slot reuse, retries, backups) or by the task recorders'
//! structure (spill hand-offs, map-output→fetch, shuffle barriers,
//! registry hand-offs) — and the checker consumes that ground truth
//! directly, never re-deriving an ordering from span timing. It reports
//! span pairs that touch the same logical resource without a
//! happens-before path — virtual-time races the per-lane tiling checks in
//! [`JobTrace::check`] cannot see.

mod chrome;
pub mod diff;
pub mod race;
pub mod stream;

pub use chrome::{validate_chrome_trace, ChromeTraceSummary};

use crate::metrics::{Op, OpTimes, VNanos};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Span model
// ---------------------------------------------------------------------------

/// Why a lane is idle during a span (idle time that is *not* charged to any
/// [`Op`] — the map-side idle fractions of Table II are derived from the
/// pipeline counters, never added to `OpTimes`, and the trace mirrors that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleKind {
    /// Map thread blocked on a full spill buffer (producer wait).
    BufferFull,
    /// Map thread at the end-of-input drain barrier / final-spill wait.
    Barrier,
    /// Support thread waiting for a segment to be handed over.
    SpillWait,
    /// Lane finished all its work; padding to the attempt's end.
    Done,
    /// Network latency phase of a shuffle flow (fetcher waits on the wire).
    NetLatency,
    /// Network transfer phase of a shuffle flow (bytes in flight at the
    /// NIC-shared rate).
    NetTransfer,
    /// Reduce thread waiting for its shuffle to complete.
    Shuffle,
    /// Fetcher slot idle between flows.
    FetcherIdle,
}

impl IdleKind {
    /// All idle kinds, for name lookups.
    pub const ALL: [IdleKind; 8] = [
        IdleKind::BufferFull,
        IdleKind::Barrier,
        IdleKind::SpillWait,
        IdleKind::Done,
        IdleKind::NetLatency,
        IdleKind::NetTransfer,
        IdleKind::Shuffle,
        IdleKind::FetcherIdle,
    ];

    /// Inverse of [`IdleKind::name`].
    pub fn from_name(name: &str) -> Option<IdleKind> {
        IdleKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Display name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            IdleKind::BufferFull => "buffer-full",
            IdleKind::Barrier => "barrier",
            IdleKind::SpillWait => "spill-wait",
            IdleKind::Done => "done",
            IdleKind::NetLatency => "net-latency",
            IdleKind::NetTransfer => "net-transfer",
            IdleKind::Shuffle => "shuffle",
            IdleKind::FetcherIdle => "fetcher-idle",
        }
    }
}

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Measured work (or virtual wait) charged to an [`Op`]. Summing these
    /// spans reproduces the profile's op totals.
    Op(Op),
    /// Idle time not charged to any op (see [`IdleKind`]).
    Idle(IdleKind),
}

impl SpanKind {
    /// Display name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op(op) => op.name(),
            SpanKind::Idle(k) => k.name(),
        }
    }

    /// Recover a span kind from its exported `name` and `cat`. The `cat`
    /// disambiguates the one collision in the name tables:
    /// `Op::ShuffleFetch` and `IdleKind::Shuffle` both print as "shuffle"
    /// but export with different categories.
    pub fn from_name(name: &str, cat: &str) -> Option<SpanKind> {
        if cat == "idle" {
            if let Some(k) = IdleKind::from_name(name) {
                return Some(SpanKind::Idle(k));
            }
        }
        Op::ALL
            .into_iter()
            .find(|op| op.name() == name)
            .map(SpanKind::Op)
    }
}

/// One half-open interval `[start, end)` on a lane, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Virtual start time.
    pub start: VNanos,
    /// Virtual end time.
    pub end: VNanos,
    /// What the lane was doing.
    pub kind: SpanKind,
    /// For shuffle-flow spans: the map task whose output the flow carries.
    /// `None` everywhere else. Gives the race checker (and the Chrome
    /// export's `src` arg) the flow ↔ map-output association.
    pub flow: Option<u32>,
}

/// Which thread of a task a lane models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneRole {
    /// Map task's producer (map) thread.
    Map,
    /// Map task's support (spill) thread.
    Support,
    /// Reduce task's main thread.
    Reduce,
    /// Reduce task's shuffle fetcher slot `i`.
    Fetcher(usize),
}

impl LaneRole {
    /// Short display label used in exports.
    pub fn label(self) -> String {
        match self {
            LaneRole::Map => "map".to_string(),
            LaneRole::Support => "support".to_string(),
            LaneRole::Reduce => "reduce".to_string(),
            LaneRole::Fetcher(i) => format!("fetcher {i}"),
        }
    }

    /// Lane index within its slot's thread group (`tid` offset).
    pub(crate) fn sub_index(self) -> usize {
        match self {
            LaneRole::Map | LaneRole::Reduce => 0,
            LaneRole::Support => 1,
            LaneRole::Fetcher(i) => 1 + i,
        }
    }
}

/// One thread lane of a task attempt: spans in ascending, gap-free order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskLane {
    /// Which thread this lane models.
    pub role: LaneRole,
    /// The lane's spans, tiling the attempt's duration.
    pub spans: Vec<Span>,
}

/// Trace of one task attempt in task-local virtual time `[0,
/// virtual_duration]`. Every lane tiles that interval exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskTrace {
    /// Thread lanes (map tasks: map + support; reduce tasks: reduce +
    /// one lane per fetcher slot).
    pub lanes: Vec<TaskLane>,
}

impl TaskTrace {
    /// Sum of all `Op` spans across lanes (must equal the attempt's
    /// `TaskProfile::ops` — the trace ↔ metrics cross-check).
    pub fn op_times(&self) -> OpTimes {
        let mut agg = OpTimes::new();
        for lane in &self.lanes {
            for s in &lane.spans {
                if let SpanKind::Op(op) = s.kind {
                    agg.add_nanos(op, s.end - s.start);
                }
            }
        }
        agg
    }

    /// Check every lane tiles `[0, virtual_duration]` exactly: ascending,
    /// gap-free, starting at 0 and ending at `virtual_duration`.
    pub fn check_tiles(&self, virtual_duration: VNanos) -> Result<(), String> {
        for lane in &self.lanes {
            check_lane_tiles(lane, 0, virtual_duration)?;
        }
        Ok(())
    }

    /// Shift this attempt's lanes to absolute virtual time: each boundary
    /// becomes `start + boundary × factor` (`factor` is the node's
    /// straggler multiplier). Exact — tiling is preserved.
    pub fn into_absolute(self, start: VNanos, factor: u64) -> Vec<TaskLane> {
        let f = factor.max(1);
        self.lanes
            .into_iter()
            .map(|mut lane| {
                for s in &mut lane.spans {
                    s.start = start + s.start * f;
                    s.end = start + s.end * f;
                }
                lane
            })
            .collect()
    }
}

fn check_lane_tiles(lane: &TaskLane, start: VNanos, end: VNanos) -> Result<(), String> {
    let role = lane.role.label();
    if lane.spans.is_empty() {
        if start == end {
            return Ok(());
        }
        return Err(format!(
            "{role}: empty lane over non-empty [{start}, {end})"
        ));
    }
    let mut cursor = start;
    for s in &lane.spans {
        if s.start != cursor {
            return Err(format!(
                "{role}: span {:?} starts at {} (expected {cursor})",
                s.kind, s.start
            ));
        }
        if s.end <= s.start {
            return Err(format!("{role}: empty/inverted span {:?}", s.kind));
        }
        cursor = s.end;
    }
    if cursor != end {
        return Err(format!("{role}: lane ends at {cursor} (expected {end})"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lane builder + task-side recorders
// ---------------------------------------------------------------------------

/// Cursor-based lane builder: spans are appended back to back, so the lane
/// tiles its interval by construction. Zero-duration pushes are skipped.
#[derive(Debug)]
pub struct LaneBuilder {
    role: LaneRole,
    spans: Vec<Span>,
    cursor: VNanos,
}

impl LaneBuilder {
    /// A fresh lane starting at virtual time 0.
    pub fn new(role: LaneRole) -> Self {
        LaneBuilder {
            role,
            spans: Vec::new(),
            cursor: 0,
        }
    }

    /// Append a span of `dur` nanoseconds (no-op when `dur == 0`).
    pub fn push(&mut self, dur: VNanos, kind: SpanKind) {
        self.push_flow(dur, kind, None);
    }

    /// Append a span tagged with the map task whose shuffle flow it belongs
    /// to (no-op when `dur == 0`).
    pub fn push_flow(&mut self, dur: VNanos, kind: SpanKind, flow: Option<u32>) {
        if dur == 0 {
            return;
        }
        self.spans.push(Span {
            start: self.cursor,
            end: self.cursor.saturating_add(dur),
            kind,
            flow,
        });
        self.cursor = self.cursor.saturating_add(dur);
    }

    /// Pad with idle time up to instant `t` (no-op when already there or
    /// past it).
    pub fn pad_to(&mut self, t: VNanos, kind: IdleKind) {
        if t > self.cursor {
            let dur = t - self.cursor;
            self.push(dur, SpanKind::Idle(kind));
        }
    }

    /// Current end of the lane.
    pub fn cursor(&self) -> VNanos {
        self.cursor
    }

    /// Finish building.
    pub fn finish(self) -> TaskLane {
        TaskLane {
            role: self.role,
            spans: self.spans,
        }
    }
}

/// Records a map attempt's two lanes while the task runs. Driven by
/// `task::map_task` with the same nanosecond deltas it adds to `OpTimes`,
/// positioned on the pipeline's virtual clocks, so the finished trace
/// tiles `[0, virtual_duration]` and its op spans sum to the profile ops.
///
/// Consecutive records' op components accumulate into one "bucket" that is
/// flushed (as one span per op, canonical order read → map → emit →
/// combine) whenever a producer wait interrupts the busy interval. Within
/// a busy interval the per-op presentation order is canonical rather than
/// interleaved — the *amounts* are exact, the micro-ordering inside one
/// uninterrupted busy stretch is not observable in virtual time.
#[derive(Debug, Default)]
pub struct MapTraceRecorder {
    map: Option<(LaneBuilder, LaneBuilder)>,
    /// Pending (read, map, emit, combine) nanoseconds not yet flushed.
    pending: [u64; 4],
}

const PENDING_OPS: [Op; 4] = [Op::Read, Op::Map, Op::Emit, Op::Combine];

impl MapTraceRecorder {
    /// A fresh recorder (map + support lanes at virtual time 0).
    pub fn new() -> Self {
        MapTraceRecorder {
            map: Some((
                LaneBuilder::new(LaneRole::Map),
                LaneBuilder::new(LaneRole::Support),
            )),
            pending: [0; 4],
        }
    }

    fn lanes(&mut self) -> &mut (LaneBuilder, LaneBuilder) {
        self.map.as_mut().expect("recorder already finished")
    }

    fn flush(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        let (map, _) = self.lanes();
        for (i, op) in PENDING_OPS.iter().enumerate() {
            map.push(pending[i], SpanKind::Op(*op));
        }
    }

    /// One input record (or the filter's end-of-input drain) completed.
    /// `wait_ns` is the producer wait the record incurred (buffer full);
    /// it precedes the record's own produce time in virtual order.
    pub fn on_record(&mut self, wait_ns: u64, read: u64, map: u64, emit: u64, combine: u64) {
        if wait_ns > 0 {
            self.flush();
            self.lanes()
                .0
                .push(wait_ns, SpanKind::Idle(IdleKind::BufferFull));
        }
        self.pending[0] += read;
        self.pending[1] += map;
        self.pending[2] += emit;
        self.pending[3] += combine;
    }

    /// A segment was handed to the support thread at producer instant
    /// `handover_at`; it sorts/combines/writes for the given durations.
    pub fn on_spill(&mut self, handover_at: VNanos, sort: u64, combine: u64, write: u64) {
        let (_, support) = self.lanes();
        support.pad_to(handover_at, IdleKind::SpillWait);
        support.push(sort, SpanKind::Op(Op::Sort));
        support.push(combine, SpanKind::Op(Op::Combine));
        support.push(write, SpanKind::Op(Op::SpillWrite));
    }

    /// The producer hit the end-of-input drain barrier, waiting `wait_ns`
    /// for in-flight spills.
    pub fn on_barrier(&mut self, wait_ns: u64) {
        self.flush();
        self.lanes()
            .0
            .push(wait_ns, SpanKind::Idle(IdleKind::Barrier));
    }

    /// Close both lanes: pad the map thread to `pipeline_end` (waiting on
    /// the final spill), append the merge phase, pad the support thread to
    /// the attempt's end.
    pub fn finish(
        mut self,
        pipeline_end: VNanos,
        merge_ns: u64,
        merge_combine_ns: u64,
    ) -> TaskTrace {
        self.flush();
        let (mut map, mut support) = self.map.take().expect("recorder already finished");
        map.pad_to(pipeline_end, IdleKind::Barrier);
        map.push(merge_ns, SpanKind::Op(Op::Merge));
        map.push(merge_combine_ns, SpanKind::Op(Op::Combine));
        let end = map.cursor();
        support.pad_to(end, IdleKind::Done);
        TaskTrace {
            lanes: vec![map.finish(), support.finish()],
        }
    }
}

// ---------------------------------------------------------------------------
// Shuffle flow traces → reduce-task lanes
// ---------------------------------------------------------------------------

/// One shuffle fetch as scheduled by the NIC model (or the sequential
/// degenerate case): absolute phase boundaries within the shuffle's
/// virtual time, plus the measured split of its pre-work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTrace {
    /// Map task whose output this flow fetched.
    pub map_task: usize,
    /// Source node of the fetched output.
    pub src_node: usize,
    /// Whether the flow crossed the network.
    pub remote: bool,
    /// Measured disk-read nanoseconds (across retries).
    pub io_ns: u64,
    /// Virtual retry backoff charged before this flow's transfer.
    pub backoff_ns: u64,
    /// Fetcher slot that carried the flow.
    pub slot: usize,
    /// Instant the slot claimed the flow.
    pub start: VNanos,
    /// End of the pre phase (disk read + backoff).
    pub pre_end: VNanos,
    /// End of the network latency phase (= `pre_end` for local flows).
    pub latency_end: VNanos,
    /// End of the shared-rate transfer phase (= `pre_end` for local flows).
    pub transfer_end: VNanos,
    /// Flow completion (after decompress, when any).
    pub finish: VNanos,
}

/// Assemble a reduce attempt's [`TaskTrace`] from its shuffle flow
/// schedule and its measured post-shuffle op components. The four op
/// components must partition the measured reduce time exactly (the caller
/// computes them as a clamped cascade); `virtual_duration` then equals
/// `shuffle_virtual_ns + merge + combine + reduce + write`.
#[allow(clippy::too_many_arguments)]
pub fn build_reduce_trace(
    flows: &[FlowTrace],
    wait_ns: VNanos,
    shuffle_virtual_ns: VNanos,
    merge_ns: u64,
    combine_ns: u64,
    reduce_ns: u64,
    write_ns: u64,
) -> TaskTrace {
    let slots = flows.iter().map(|f| f.slot + 1).max().unwrap_or(0).max(1);
    let mut fetchers: Vec<LaneBuilder> = (0..slots)
        .map(|i| LaneBuilder::new(LaneRole::Fetcher(i)))
        .collect();
    let mut order: Vec<&FlowTrace> = flows.iter().collect();
    order.sort_by_key(|f| (f.slot, f.start, f.map_task));
    for f in order {
        let lane = &mut fetchers[f.slot];
        let src = u32::try_from(f.map_task).ok();
        lane.pad_to(f.start, IdleKind::FetcherIdle);
        lane.push_flow(f.io_ns, SpanKind::Op(Op::ShuffleFetch), src);
        lane.push_flow(f.backoff_ns, SpanKind::Op(Op::ShuffleRetry), src);
        lane.push_flow(
            f.latency_end.saturating_sub(f.pre_end),
            SpanKind::Idle(IdleKind::NetLatency),
            src,
        );
        lane.push_flow(
            f.transfer_end.saturating_sub(f.latency_end),
            SpanKind::Idle(IdleKind::NetTransfer),
            src,
        );
        lane.push_flow(
            f.finish.saturating_sub(f.transfer_end),
            SpanKind::Op(Op::ShuffleFetch),
            src,
        );
    }
    // The straggler tail: only the slowest source's slot is busy; show the
    // stall (Op::ShuffleWait in the profile) on one of the idle slots.
    if wait_ns > 0 && slots > 1 {
        let last_slot = flows
            .iter()
            .max_by_key(|f| (f.finish, f.slot))
            .map(|f| f.slot)
            .unwrap_or(0);
        let idle_slot = (0..slots).find(|&i| i != last_slot).unwrap_or(0);
        let lane = &mut fetchers[idle_slot];
        lane.pad_to(
            shuffle_virtual_ns.saturating_sub(wait_ns),
            IdleKind::FetcherIdle,
        );
        lane.push(wait_ns, SpanKind::Op(Op::ShuffleWait));
    }
    let vd = shuffle_virtual_ns + merge_ns + combine_ns + reduce_ns + write_ns;
    let mut main = LaneBuilder::new(LaneRole::Reduce);
    main.pad_to(shuffle_virtual_ns, IdleKind::Shuffle);
    main.push(merge_ns, SpanKind::Op(Op::ReduceMerge));
    main.push(combine_ns, SpanKind::Op(Op::Combine));
    main.push(reduce_ns, SpanKind::Op(Op::Reduce));
    main.push(write_ns, SpanKind::Op(Op::OutputWrite));
    let mut lanes = vec![main.finish()];
    for mut f in fetchers {
        f.pad_to(shuffle_virtual_ns, IdleKind::FetcherIdle);
        f.pad_to(vd, IdleKind::Done);
        lanes.push(f.finish());
    }
    TaskTrace { lanes }
}

// ---------------------------------------------------------------------------
// Recorded happens-before edges
// ---------------------------------------------------------------------------

/// What kind of ordering a recorded [`TraceEdge`] asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Consecutive occupancy of one `(node, phase, slot)`: the source
    /// attempt vacated the slot before the destination attempt claimed it.
    Slot,
    /// Retry chain: attempt `k` of a task failed before attempt `k + 1`
    /// started.
    Retry,
    /// Speculative hand-off: the primary attempt had started when its
    /// backup launched.
    Backup,
    /// A map task's output was complete before a reduce attempt's flow
    /// fetched it.
    MapOut,
    /// Shuffle barrier: a flow group's last span precedes the reduce
    /// lane's first op (the merge cannot start before its runs arrive).
    Barrier,
    /// A spill segment was written before the map-side merge read it.
    Spill,
    /// Pipeline hand-off: a map-lane spill wait precedes the support-lane
    /// burst it handed the buffer to.
    Handoff,
    /// Frequent-key registry hand-off: the node's designated publisher
    /// froze the shared key set before a same-node waiter adopted it.
    /// Registry edges describe a *real-time* protocol — the virtual spans
    /// of publisher and waiter may overlap — so the race checker validates
    /// them as protocol edges instead of adding them to vector clocks.
    Registry,
    /// Cross-round hand-off in a DAG job: a round-`k` reduce partition was
    /// complete before the round-`k+1` map attempt that consumes it
    /// started.
    Round,
}

impl EdgeKind {
    /// Every edge kind, in serialization order.
    pub const ALL: [EdgeKind; 9] = [
        EdgeKind::Slot,
        EdgeKind::Retry,
        EdgeKind::Backup,
        EdgeKind::MapOut,
        EdgeKind::Barrier,
        EdgeKind::Spill,
        EdgeKind::Handoff,
        EdgeKind::Registry,
        EdgeKind::Round,
    ];

    /// Serialized name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Slot => "slot",
            EdgeKind::Retry => "retry",
            EdgeKind::Backup => "backup",
            EdgeKind::MapOut => "mapout",
            EdgeKind::Barrier => "barrier",
            EdgeKind::Spill => "spill",
            EdgeKind::Handoff => "handoff",
            EdgeKind::Registry => "registry",
            EdgeKind::Round => "round",
        }
    }

    /// Inverse of [`EdgeKind::name`].
    pub fn from_name(name: &str) -> Option<EdgeKind> {
        EdgeKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One endpoint of a recorded edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEnd {
    /// Index into [`JobTrace::entries`].
    pub entry: usize,
    /// Anchoring `(lane, span)` within the entry, or `None` when the edge
    /// constrains the whole entry (its last events on the source side, its
    /// first events on the destination side — across every lane).
    pub at: Option<(usize, usize)>,
}

impl EdgeEnd {
    /// An endpoint constraining the whole entry.
    pub fn entry(entry: usize) -> EdgeEnd {
        EdgeEnd { entry, at: None }
    }

    /// An endpoint anchored at one span.
    pub fn span(entry: usize, lane: usize, span: usize) -> EdgeEnd {
        EdgeEnd {
            entry,
            at: Some((lane, span)),
        }
    }
}

/// One recorded happens-before edge: the source event(s) enabled the
/// destination event(s). Emitted by the unified event loop's graph and the
/// task recorders; consumed by [`race::check_races`] as ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEdge {
    /// What ordering this edge asserts.
    pub kind: EdgeKind,
    /// Source (the enabling side).
    pub src: EdgeEnd,
    /// Destination (the enabled side).
    pub dst: EdgeEnd,
}

// ---------------------------------------------------------------------------
// Job-level trace
// ---------------------------------------------------------------------------

/// Which phase a trace entry's task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskKind {
    /// A map task attempt.
    Map,
    /// A reduce task attempt.
    Reduce,
}

impl TaskKind {
    /// Short display label ("map" / "reduce").
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

/// Fate of an attempt that left no detailed lanes behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// A failed attempt: it occupied its slot until it died, then the
    /// retry was rescheduled.
    Failed,
    /// The losing side of a speculative race (primary or backup),
    /// cancelled when the winner completed.
    Lost,
    /// A speculative backup killed by an injected fault before the race
    /// resolved.
    Dead,
}

impl AttemptKind {
    /// Display name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            AttemptKind::Failed => "attempt-failed",
            AttemptKind::Lost => "speculation-lost",
            AttemptKind::Dead => "backup-dead",
        }
    }

    /// Inverse of [`AttemptKind::name`].
    pub fn from_name(name: &str) -> Option<AttemptKind> {
        [AttemptKind::Failed, AttemptKind::Lost, AttemptKind::Dead]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// Payload of a [`TraceEntry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryDetail {
    /// Full thread lanes, in absolute virtual time (the attempt of record).
    Lanes(Vec<TaskLane>),
    /// A flat span: the attempt occupied its slot but kept no per-op
    /// detail (failed attempts, speculation losers, dead backups).
    Flat(AttemptKind),
}

/// One scheduled task attempt in the job trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Map or reduce phase.
    pub kind: TaskKind,
    /// Serve job the attempt belongs to (0 for single-job traces — the
    /// legacy export is byte-identical when every entry is job 0;
    /// `textmr-serve` numbers admitted jobs 1..=N). Edges carry job ids
    /// implicitly through their entry endpoints; cross-job edges (slot
    /// reuse) legitimately span two jobs.
    pub job: usize,
    /// DAG round the attempt belongs to (0 for single-round jobs — the
    /// legacy export is byte-identical when every entry is round 0).
    pub round: usize,
    /// Task id within its round (map task index / reduce partition).
    pub task: usize,
    /// Attempt number (0-based; backups restart at 0).
    pub attempt: usize,
    /// Whether this was a speculative backup attempt.
    pub backup: bool,
    /// Node the attempt was scheduled on.
    pub node: usize,
    /// Slot index within the node (map and reduce slots are separate
    /// spaces).
    pub slot: usize,
    /// The node's straggler factor applied to this attempt's durations.
    pub factor: u64,
    /// Scheduled virtual start.
    pub start: VNanos,
    /// Scheduled virtual end.
    pub end: VNanos,
    /// Lanes or a flat marker.
    pub detail: EntryDetail,
}

/// The whole job's deterministic virtual-time trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTrace {
    /// Cluster nodes.
    pub nodes: usize,
    /// Map slots per node.
    pub map_slots: usize,
    /// Reduce slots per node.
    pub reduce_slots: usize,
    /// Shuffle fetchers per reduce task (tid-layout width).
    pub fetchers: usize,
    /// Virtual end of the trace (≥ the profile's makespan; dead backups
    /// may outlive the last task of record).
    pub wall: VNanos,
    /// Every scheduled attempt, including failed ones and backups.
    pub entries: Vec<TraceEntry>,
    /// Recorded happens-before edges — the only ordering evidence the race
    /// checker accepts.
    pub edges: Vec<TraceEdge>,
}

impl JobTrace {
    /// Sum of all `Op` spans across the attempts of record, with each
    /// entry's straggler factor divided back out — comparable to
    /// [`JobProfile::total_ops`](crate::metrics::JobProfile::total_ops).
    pub fn op_times(&self) -> OpTimes {
        let mut agg = OpTimes::new();
        for e in &self.entries {
            if let EntryDetail::Lanes(lanes) = &e.detail {
                let f = e.factor.max(1);
                for lane in lanes {
                    for s in &lane.spans {
                        if let SpanKind::Op(op) = s.kind {
                            agg.add_nanos(op, (s.end - s.start) / f);
                        }
                    }
                }
            }
        }
        agg
    }

    /// Validate the trace's structural invariants: every entry's lanes
    /// tile `[start, end]` exactly, and attempts sharing a `(node, phase,
    /// slot)` never overlap.
    pub fn check(&self) -> Result<(), String> {
        type SlotSpans = Vec<(VNanos, VNanos, String)>;
        let mut by_slot: BTreeMap<(usize, TaskKind, usize), SlotSpans> = BTreeMap::new();
        for e in &self.entries {
            let who = format!(
                "{}{}{} {} attempt {}{}",
                if e.job > 0 {
                    format!("job {} ", e.job)
                } else {
                    String::new()
                },
                if e.round > 0 {
                    format!("round {} ", e.round)
                } else {
                    String::new()
                },
                e.kind.label(),
                e.task,
                e.attempt,
                if e.backup { " (backup)" } else { "" }
            );
            if e.end < e.start {
                return Err(format!("{who}: inverted span [{}, {}]", e.start, e.end));
            }
            if let EntryDetail::Lanes(lanes) = &e.detail {
                if lanes.is_empty() {
                    return Err(format!("{who}: no lanes"));
                }
                for lane in lanes {
                    check_lane_tiles(lane, e.start, e.end)
                        .map_err(|msg| format!("{who}: {msg}"))?;
                }
            }
            by_slot
                .entry((e.node, e.kind, e.slot))
                .or_default()
                .push((e.start, e.end, who));
        }
        for ((node, kind, slot), mut spans) in by_slot {
            spans.sort();
            for w in spans.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(format!(
                        "node {node} {} slot {slot}: {} [{}, {}] overlaps {} [{}, {}]",
                        kind.label(),
                        w[0].2,
                        w[0].0,
                        w[0].1,
                        w[1].2,
                        w[1].0,
                        w[1].1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render a compact ASCII timeline (`width` columns of virtual time per
    /// lane row), for terminals, docs, and quick eyeballing in tests.
    pub fn render_text(&self, width: usize) -> String {
        let width = width.clamp(20, 400);
        let wall = self.wall.max(1);
        // (node, round, kind, slot, lane sub-index) → row of
        // (start, end, glyph).
        type RowKey = (usize, usize, TaskKind, usize, usize);
        let mut rows: BTreeMap<RowKey, Vec<(VNanos, VNanos, char)>> = BTreeMap::new();
        for e in &self.entries {
            match &e.detail {
                EntryDetail::Lanes(lanes) => {
                    for lane in lanes {
                        let key = (e.node, e.round, e.kind, e.slot, lane.role.sub_index());
                        let row = rows.entry(key).or_default();
                        for s in &lane.spans {
                            row.push((s.start, s.end, glyph(s.kind)));
                        }
                    }
                }
                EntryDetail::Flat(kind) => {
                    let key = (e.node, e.round, e.kind, e.slot, 0);
                    rows.entry(key).or_default().push((
                        e.start,
                        e.end,
                        match kind {
                            AttemptKind::Failed => 'x',
                            AttemptKind::Lost => '-',
                            AttemptKind::Dead => 'X',
                        },
                    ));
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "virtual timeline: 0 .. {:.1} ms  ({} columns)",
            wall as f64 / 1e6,
            width
        );
        let multi_round = self.entries.iter().any(|e| e.round > 0);
        for ((node, round, kind, slot, sub), mut row) in rows {
            row.sort();
            let lane = match (kind, sub) {
                (TaskKind::Map, 0) => "map".to_string(),
                (TaskKind::Map, _) => "sup".to_string(),
                (TaskKind::Reduce, 0) => "red".to_string(),
                (TaskKind::Reduce, i) => format!("f{}", i - 1),
            };
            let prefix = match kind {
                TaskKind::Map => 'm',
                TaskKind::Reduce => 'r',
            };
            let round_tag = if multi_round {
                format!("R{round} ")
            } else {
                String::new()
            };
            let mut line = String::with_capacity(width);
            for col in 0..width {
                // Sample the column's midpoint.
                let t = u64::try_from((wall as u128 * (2 * col as u128 + 1)) / (2 * width as u128))
                    .expect("column midpoint is bounded by wall, which is u64");
                let c = row
                    .iter()
                    .find(|&&(s, e, _)| s <= t && t < e)
                    .map(|&(_, _, c)| c)
                    .unwrap_or(' ');
                line.push(c);
            }
            let _ = writeln!(out, "n{node} {round_tag}{prefix}{slot} {lane:<4}|{line}|");
        }
        out.push_str(
            "legend: r read  M map  e emit  s sort  c combine  w spill  g merge  \
             f fetch  ! retry  ~ stall  m rmerge  R reduce  o write  . idle  \
             x failed  - lost  X dead-backup\n",
        );
        out
    }
}

fn glyph(kind: SpanKind) -> char {
    match kind {
        SpanKind::Op(op) => match op {
            Op::Read => 'r',
            Op::Map => 'M',
            Op::Emit => 'e',
            Op::Sort => 's',
            Op::Combine => 'c',
            Op::SpillWrite => 'w',
            Op::Merge => 'g',
            Op::MapIdle | Op::SupportIdle => '.',
            Op::ShuffleFetch => 'f',
            Op::ReduceMerge => 'm',
            Op::Reduce => 'R',
            Op::OutputWrite => 'o',
            Op::ShuffleWait => '~',
            Op::ShuffleRetry => '!',
        },
        SpanKind::Idle(_) => '.',
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn map_trace() -> TaskTrace {
        // A tiny hand-driven map attempt: two records, a wait, a spill, a
        // barrier, and a merge — amounts chosen so everything is checkable.
        let mut rec = MapTraceRecorder::new();
        rec.on_record(0, 5, 10, 3, 2); // busy 20
        rec.on_record(4, 5, 10, 3, 2); // wait 4, busy 20
        rec.on_spill(24, 6, 1, 3); // handover at 24, consume 10
        rec.on_barrier(0);
        // pipeline_end = producer 44 + final consume 10 → 54 here the
        // producer finished at 44 and waits for the spill until 54.
        rec.finish(54, 7, 1)
    }

    #[test]
    fn map_recorder_tiles_and_sums() {
        let trace = map_trace();
        // virtual_duration = 54 + merge 8.
        trace.check_tiles(62).unwrap();
        let ops = trace.op_times();
        assert_eq!(ops.get(Op::Read), 10);
        assert_eq!(ops.get(Op::Map), 20);
        assert_eq!(ops.get(Op::Emit), 6);
        assert_eq!(ops.get(Op::Combine), 2 + 2 + 1 + 1); // records + spill + merge
        assert_eq!(ops.get(Op::Sort), 6);
        assert_eq!(ops.get(Op::SpillWrite), 3);
        assert_eq!(ops.get(Op::Merge), 7);
        // Waits landed as idle spans, not ops.
        assert_eq!(ops.get(Op::MapIdle), 0);
        assert_eq!(ops.get(Op::SupportIdle), 0);
        // The map lane shows the wait where it happened: after the first
        // record's busy bucket.
        let map_lane = &trace.lanes[0];
        assert!(map_lane
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Idle(IdleKind::BufferFull) && s.end - s.start == 4));
    }

    #[test]
    fn reduce_trace_tiles_and_shows_the_stall() {
        let flows = vec![
            FlowTrace {
                map_task: 0,
                src_node: 1,
                remote: true,
                io_ns: 10,
                backoff_ns: 2,
                slot: 0,
                start: 0,
                pre_end: 12,
                latency_end: 20,
                transfer_end: 50,
                finish: 55,
            },
            FlowTrace {
                map_task: 1,
                src_node: 2,
                remote: true,
                io_ns: 8,
                backoff_ns: 0,
                slot: 1,
                start: 0,
                pre_end: 8,
                latency_end: 16,
                transfer_end: 90,
                finish: 90,
            },
        ];
        // Virtual makespan 90, of which the last 35 are a single-flow tail.
        let trace = build_reduce_trace(&flows, 35, 90, 4, 1, 6, 2);
        trace.check_tiles(90 + 13).unwrap();
        let ops = trace.op_times();
        assert_eq!(ops.get(Op::ShuffleFetch), 10 + 5 + 8); // io + decompress
        assert_eq!(ops.get(Op::ShuffleRetry), 2);
        assert_eq!(ops.get(Op::ShuffleWait), 35);
        assert_eq!(ops.get(Op::ReduceMerge), 4);
        assert_eq!(ops.get(Op::Combine), 1);
        assert_eq!(ops.get(Op::Reduce), 6);
        assert_eq!(ops.get(Op::OutputWrite), 2);
        // The stall sits on the fetcher lane that finished early (slot 0):
        // flow 1 on slot 1 is the straggler.
        let lane0 = trace
            .lanes
            .iter()
            .find(|l| l.role == LaneRole::Fetcher(0))
            .unwrap();
        assert!(lane0
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Op(Op::ShuffleWait) && s.end == 90));
    }

    pub(crate) fn job_trace() -> JobTrace {
        let attempt = map_trace();
        let lanes = attempt.into_absolute(100, 1);
        JobTrace {
            nodes: 2,
            map_slots: 2,
            reduce_slots: 1,
            fetchers: 1,
            wall: 162,
            edges: Vec::new(),
            entries: vec![
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 0,
                    round: 0,
                    task: 0,
                    attempt: 1,
                    backup: false,
                    node: 0,
                    slot: 1,
                    factor: 1,
                    start: 100,
                    end: 162,
                    detail: EntryDetail::Lanes(lanes),
                },
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 0,
                    round: 0,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 0,
                    slot: 1,
                    factor: 1,
                    start: 0,
                    end: 100,
                    detail: EntryDetail::Flat(AttemptKind::Failed),
                },
            ],
        }
    }

    #[test]
    fn check_rejects_overlap_and_gaps() {
        let mut trace = job_trace();
        // Overlap: the failed attempt now runs past the retry's start.
        trace.entries[1].end = 101;
        assert!(trace.check().is_err());
        let mut trace = job_trace();
        // Gap: shift the retry's lanes without shifting the entry.
        if let EntryDetail::Lanes(lanes) = &mut trace.entries[0].detail {
            lanes[0].spans[0].start += 1;
        }
        assert!(trace.check().is_err());
    }

    #[test]
    fn straggler_scaling_is_exact_and_divides_back() {
        let attempt = map_trace();
        let ops = attempt.op_times();
        let lanes = attempt.into_absolute(40, 3);
        let trace = JobTrace {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
            wall: 40 + 62 * 3,
            edges: Vec::new(),
            entries: vec![TraceEntry {
                kind: TaskKind::Map,
                job: 0,
                round: 0,
                task: 0,
                attempt: 0,
                backup: false,
                node: 0,
                slot: 0,
                factor: 3,
                start: 40,
                end: 40 + 62 * 3,
                detail: EntryDetail::Lanes(lanes),
            }],
        };
        trace.check().unwrap();
        assert_eq!(trace.op_times(), ops);
    }
}
