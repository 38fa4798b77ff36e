//! The unified deterministic event loop behind all virtual-time scheduling.
//!
//! Before this module existed, four subsystems each advanced virtual time
//! with their own logic: the cluster scheduler's greedy slot recurrence,
//! the shuffle NIC model's step loop, the fault machinery's retry/backoff
//! arithmetic, and speculative execution's detection probes. The seams
//! showed twice over: the race checker had to *re-derive* happens-before
//! edges from span timings, and two reduce tasks scheduled onto the same
//! node did not contend for that node's ingress bandwidth.
//!
//! This module unifies them around one integer event loop:
//!
//! * **[`EventQueue`]** — a single priority queue of
//!   `(virtual_ns, seq, event)` tuples. Ties in virtual time break by the
//!   monotonically increasing sequence number, so the pop order is a pure
//!   function of the push order: no hash-map iteration, no floats, no
//!   wall-clock anywhere.
//! * **[`EventGraph`]** — every scheduling-level occurrence (attempt
//!   start/end, map-phase barrier, flow completion) is recorded as a node
//!   that lists its *enabling predecessors*. The happens-before edges the
//!   [`trace::race`](crate::trace::race) checker needs are read straight
//!   off this graph (see [`SchedEdge`]) instead of being reconstructed
//!   from span timings.
//! * **[`Scheduler`]** — owns the per-node slot tables and drives both
//!   placement modes:
//!   * *Reservation mode* ([`Scheduler::place_attempts`]) places a task's
//!     attempt ladder by the greedy recurrence — first minimum over
//!     `max(slot_free, floor)`, `start = max(that,
//!     previous_attempt_end)`. The engine passes `floor = 0`, which
//!     reproduces the legacy recurrence **bit-for-bit**, so every shipped
//!     1-fetcher figure is unchanged; `textmr-serve`'s multiplexer is the
//!     second caller, passing each job's phase floor.
//!   * *Dynamic mode* ([`Scheduler::run_reduce_phase`]) runs reduce
//!     attempts through the event loop with **shared node ingress**: all
//!     concurrent flows into a node fair-share its bandwidth regardless of
//!     which reduce task owns them. This fixes the documented
//!     co-located-reducer bug — two reducers on one node now see each
//!     other's traffic.
//!
//! # Exact integer bandwidth sharing
//!
//! Transfer progress is tracked in units of [`SCALE32`]-scaled full-rate
//! nanoseconds, where `SCALE32 = lcm(1..=32)`. With `n` concurrent flows
//! into a node, each drains `SCALE32 / n` units per virtual nanosecond —
//! an exact integer for every `n ≤ 32` (the default shape: 2 reduce slots
//! × 16 fetchers), so schedules are deterministic with no float drift.
//! Because `SCALE32` is an exact multiple of the per-attempt scale the
//! legacy shuffle loop used (`lcm(1..=16) = 720 720`), a single attempt
//! simulated here produces the **same event times** as the legacy
//! per-attempt loop: both the remaining-work numerator and the rate
//! denominator scale by the same factor, so every `ceil` division yields
//! the identical quotient. For `n > 32` the per-flow rate floors, which
//! only ever errs toward slower transfers.
//!
//! # Documented approximations (dynamic mode only)
//!
//! * Straggler factors scale an attempt's *total* duration (as in the
//!   legacy recurrence); its flows are simulated unscaled and the node
//!   factor is applied to the resulting makespan.
//! * Speculative reduce backups re-execute with an isolated shuffle (they
//!   race the primary from a detection probe, not the phase's NIC state),
//!   exactly as before this refactor.

use crate::metrics::VNanos;
use crate::trace::{EdgeKind, TaskKind};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// `lcm(1..=32)`: the exact-integer bandwidth-sharing scale. See the
/// module docs for why this makes the event loop drift-free.
pub const SCALE32: u128 = 144_403_552_893_600;

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

/// A deterministic min-priority queue of `(virtual_ns, seq, event)`.
///
/// Events pop in ascending `(virtual_ns, seq)` order; `seq` is assigned at
/// push time, so simultaneous events resolve in push order. The payload
/// type only needs `Ord` to satisfy the tuple ordering — two events never
/// share a `(virtual_ns, seq)` pair, so payload comparison never decides.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(VNanos, u64, E)>>,
    seq: u64,
}

impl<E: Ord> EventQueue<E> {
    /// An empty queue; sequence numbers start at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `ev` at virtual time `at`; returns its sequence number.
    pub fn push(&mut self, at: VNanos, ev: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, ev)));
        seq
    }

    /// Remove and return the earliest event as `(at, seq, event)`.
    pub fn pop(&mut self) -> Option<(VNanos, u64, E)> {
        self.heap.pop().map(|Reverse(t)| t)
    }

    /// Virtual time of the earliest pending event, without removing it.
    /// Lets a driver drain one same-instant batch before acting on it.
    pub fn peek_time(&self) -> Option<VNanos> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E: Ord> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

// ---------------------------------------------------------------------------
// Event graph
// ---------------------------------------------------------------------------

/// What a recorded event graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task attempt began executing on its scheduled slot.
    AttemptStart {
        /// Map or reduce phase.
        kind: TaskKind,
        /// Task id within its phase.
        task: usize,
        /// Zero-based attempt number (0 for backups).
        attempt: usize,
        /// True for a speculative backup attempt.
        backup: bool,
    },
    /// A task attempt released its slot.
    AttemptEnd {
        /// Map or reduce phase.
        kind: TaskKind,
        /// Task id within its phase.
        task: usize,
        /// Zero-based attempt number (0 for backups).
        attempt: usize,
        /// True for a speculative backup attempt.
        backup: bool,
    },
    /// All map attempts (including backups) completed; reduce slots open.
    MapPhaseEnd,
    /// One shuffle flow of a reduce attempt finished (dynamic mode).
    FlowFinish {
        /// The owning reduce task.
        task: usize,
        /// Flow index == source map task id.
        flow: usize,
    },
    /// A DAG round boundary: every attempt of rounds `< round` completed
    /// before any attempt of `round` starts. Enabled by all prior attempt
    /// ends; an enabling predecessor of every later attempt.
    RoundBoundary {
        /// The round that opens at this boundary (1-based; round 0 has no
        /// boundary — single-round jobs record the legacy graph
        /// unchanged).
        round: usize,
    },
}

/// Index of a node in an [`EventGraph`].
pub type EventId = usize;

/// One event with the events that enabled it.
#[derive(Debug, Clone)]
pub struct EventNode {
    /// Virtual time the event occurred.
    pub at: VNanos,
    /// What happened.
    pub kind: EventKind,
    /// Enabling predecessors: this event could not occur before any of
    /// them. Ground truth for happens-before edges.
    pub preds: Vec<EventId>,
}

/// The happens-before structure of one simulated job, recorded as events
/// with enabling-predecessor lists.
#[derive(Debug, Clone, Default)]
pub struct EventGraph {
    /// All recorded events, in recording order.
    pub nodes: Vec<EventNode>,
}

impl EventGraph {
    /// Record an event; returns its id for use as a later predecessor.
    pub fn push(&mut self, at: VNanos, kind: EventKind, preds: Vec<EventId>) -> EventId {
        self.nodes.push(EventNode { at, kind, preds });
        self.nodes.len() - 1
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Scheduler-level edge reporting
// ---------------------------------------------------------------------------

/// Identity of one task attempt, the unit the trace's entry list indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttemptKey {
    /// Map or reduce phase.
    pub kind: TaskKind,
    /// Task id within its phase.
    pub task: usize,
    /// Zero-based attempt number (0 for backups).
    pub attempt: usize,
    /// True for a speculative backup attempt.
    pub backup: bool,
}

/// A happens-before edge between two attempts, read off the event graph.
///
/// `kind` is one of the entry-level [`EdgeKind`]s — [`EdgeKind::Slot`]
/// (previous slot occupant → next), [`EdgeKind::Retry`] (attempt *k* →
/// attempt *k+1*), or [`EdgeKind::Backup`] (origin attempt → its
/// speculative backup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEdge {
    /// Which ordering relation this edge asserts.
    pub kind: EdgeKind,
    /// The attempt that must come first.
    pub src: AttemptKey,
    /// The attempt it enables.
    pub dst: AttemptKey,
}

// ---------------------------------------------------------------------------
// Flows and reduce attempts (dynamic-mode inputs)
// ---------------------------------------------------------------------------

/// One shuffle fetch as the NIC model sees it: fixed pre work (disk read,
/// then retry backoff), an optional network flow (latency, then bytes at
/// the shared rate), fixed post work (decompress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Measured disk-read nanoseconds (fixed pre work).
    pub io_ns: u64,
    /// Deterministic virtual retry backoff, charged before the flow like
    /// the legacy accounting (the fetcher holds its slot while backing
    /// off).
    pub backoff_ns: u64,
    /// True when the source node differs from the destination node.
    pub remote: bool,
    /// One-way network latency (remote flows only).
    pub latency_ns: u64,
    /// Transfer time at full NIC bandwidth (remote flows only).
    pub rate_ns: u64,
    /// Measured decompress nanoseconds (fixed post work).
    pub post_ns: u64,
}

impl Flow {
    /// Total fixed pre-flow time: disk read plus retry backoff.
    pub fn pre_ns(&self) -> u64 {
        self.io_ns.saturating_add(self.backoff_ns)
    }

    /// The flow's cost when it has the NIC to itself.
    pub fn isolated_ns(&self) -> u64 {
        let net = if self.remote {
            self.latency_ns.saturating_add(self.rate_ns)
        } else {
            0
        };
        self.pre_ns()
            .saturating_add(net)
            .saturating_add(self.post_ns)
    }
}

/// Phase boundaries of one completed flow, attempt-relative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSched {
    /// Flow index (== map task id for real shuffles).
    pub flow: usize,
    /// Fetcher sub-slot the flow ran on.
    pub slot: usize,
    /// Pre work (disk read + backoff) began.
    pub start: VNanos,
    /// Pre work ended; latency began (remote) or collapsed (local).
    pub pre_end: VNanos,
    /// Latency ended; transfer began. Equals `pre_end` for local flows.
    pub latency_end: VNanos,
    /// Transfer drained. Equals `pre_end` for local flows.
    pub transfer_end: VNanos,
    /// Post work (decompress) ended; the sub-slot freed.
    pub finish: VNanos,
}

/// One reduce attempt as scheduled by the dynamic event loop.
#[derive(Debug, Clone)]
pub enum ReduceAttempt {
    /// A failed or dead attempt: occupies its slot for a fixed duration
    /// (unscaled; the scheduler applies the node's straggler factor).
    Block {
        /// The attempt's virtual duration before it died.
        dur: VNanos,
    },
    /// The attempt of record: shuffle flows followed by fixed post-shuffle
    /// work (merge + combine + reduce + write).
    Work {
        /// One flow per map output, in map-task-id order.
        flows: Vec<Flow>,
        /// Post-shuffle virtual time (unscaled).
        post_ns: VNanos,
    },
}

/// The shuffle portion of a completed `Work` attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptShuffle {
    /// Shuffle makespan under shared node ingress, attempt-relative and
    /// unscaled.
    pub virtual_ns: VNanos,
    /// Straggler tail: time the attempt was stalled on its single slowest
    /// source while every other fetcher was idle.
    pub wait_ns: VNanos,
    /// Per-flow phase boundaries, in completion order (attempt-relative).
    pub flows: Vec<FlowSched>,
}

/// Where and when one attempt ran.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// Reduce slot index on the attempt's node.
    pub slot: usize,
    /// Absolute virtual start.
    pub start: VNanos,
    /// Absolute virtual end (straggler factor applied).
    pub end: VNanos,
    /// The shuffle schedule, for `Work` attempts only.
    pub shuffle: Option<AttemptShuffle>,
}

/// A static placement from reservation mode: `(slot, start, end)` exactly
/// as the legacy greedy recurrence computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Slot index on the attempt's node.
    pub slot: usize,
    /// Absolute virtual start.
    pub start: VNanos,
    /// Absolute virtual end (straggler factor applied).
    pub end: VNanos,
}

/// Cluster dimensions the scheduler needs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Number of nodes.
    pub nodes: usize,
    /// Map slots per node.
    pub map_slots: usize,
    /// Reduce slots per node.
    pub reduce_slots: usize,
    /// Parallel shuffle fetchers per reduce attempt (pre-clamp).
    pub fetchers: usize,
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// The unified virtual-time scheduler: slot tables, the event graph, and
/// both placement modes (legacy-exact reservation and dynamic
/// shared-ingress simulation). See the module docs for the overall shape.
#[derive(Debug)]
pub struct Scheduler {
    shape: ClusterShape,
    /// Per-node straggler factor (≥ 1), from the fault plan.
    factors: Vec<u64>,
    graph: EventGraph,
    edges: Vec<SchedEdge>,
    map_free: Vec<Vec<VNanos>>,
    map_last: Vec<Vec<Option<(EventId, AttemptKey)>>>,
    reduce_free: Vec<Vec<VNanos>>,
    reduce_last: Vec<Vec<Option<(EventId, AttemptKey)>>>,
    map_phase_ev: Option<EventId>,
    round_ev: Option<EventId>,
    reduce_phase_start: VNanos,
    /// Every recorded attempt, in the order it entered the graph.
    attempts: Vec<AttemptRecord>,
}

/// One attempt as recorded in the scheduler's log: its identity, where it
/// ran, and its start/end events in the graph. The log is in record order
/// (chronological per slot), which is what the driver walks to emit
/// [`EdgeKind::Slot`] chains between the attempts that made it into a
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The attempt's identity.
    pub key: AttemptKey,
    /// Node the attempt ran on.
    pub node: usize,
    /// Slot index within the node (map and reduce slots are separate
    /// tables).
    pub slot: usize,
    /// The attempt's start event in the graph.
    pub start_ev: EventId,
    /// The attempt's end event in the graph.
    pub end_ev: EventId,
}

impl Scheduler {
    /// A scheduler for `shape` with per-node straggler `factors` (missing
    /// entries and zeros are treated as 1).
    pub fn new(shape: ClusterShape, factors: Vec<u64>) -> Self {
        let nodes = shape.nodes.max(1);
        let map_slots = shape.map_slots.max(1);
        let reduce_slots = shape.reduce_slots.max(1);
        Scheduler {
            shape: ClusterShape {
                nodes,
                map_slots,
                reduce_slots,
                fetchers: shape.fetchers,
            },
            factors,
            graph: EventGraph::default(),
            edges: Vec::new(),
            map_free: vec![vec![0; map_slots]; nodes],
            map_last: vec![vec![None; map_slots]; nodes],
            reduce_free: vec![vec![0; reduce_slots]; nodes],
            reduce_last: vec![vec![None; reduce_slots]; nodes],
            map_phase_ev: None,
            round_ev: None,
            reduce_phase_start: 0,
            attempts: Vec::new(),
        }
    }

    /// The node's straggler factor applied to a duration.
    fn scale(&self, node: usize, ns: VNanos) -> VNanos {
        ns.saturating_mul(self.factors.get(node).copied().unwrap_or(1).max(1))
    }

    /// First minimum over `max(slot_free, floor)`: the lowest-indexed slot
    /// among those free earliest once the floor is applied (the legacy
    /// recurrence's `min_by_key` tie-break). Returns `(slot, max(free,
    /// floor))`.
    fn argmin(free: &[VNanos], floor: VNanos) -> (usize, VNanos) {
        let mut best = (0, free[0].max(floor));
        for (i, &f) in free.iter().enumerate().skip(1) {
            let at = f.max(floor);
            if at < best.1 {
                best = (i, at);
            }
        }
        best
    }

    /// Record one attempt's events, predecessors, slot chain, and edges.
    fn record_attempt(
        &mut self,
        key: AttemptKey,
        node: usize,
        slot: usize,
        start: VNanos,
        end: VNanos,
        origin: Option<AttemptKey>,
    ) -> EventId {
        let mut preds = Vec::new();
        let last = match key.kind {
            TaskKind::Map => &mut self.map_last[node][slot],
            TaskKind::Reduce => &mut self.reduce_last[node][slot],
        };
        let slot_src = *last;
        if let Some((ev, _)) = slot_src {
            preds.push(ev);
        }
        if key.attempt > 0 && !key.backup {
            if let Some(prev) = self.find_attempt(AttemptKey {
                attempt: key.attempt - 1,
                ..key
            }) {
                preds.push(prev.end_ev);
                self.edges.push(SchedEdge {
                    kind: EdgeKind::Retry,
                    src: AttemptKey {
                        attempt: key.attempt - 1,
                        ..key
                    },
                    dst: key,
                });
            }
        }
        if key.kind == TaskKind::Reduce {
            if let Some(mp) = self.map_phase_ev {
                preds.push(mp);
            }
        }
        if let Some(rb) = self.round_ev {
            preds.push(rb);
        }
        if let Some(o) = origin {
            if let Some(orig) = self.find_attempt(o) {
                preds.push(orig.start_ev);
            }
            self.edges.push(SchedEdge {
                kind: EdgeKind::Backup,
                src: o,
                dst: key,
            });
        }
        if let Some((_, prev_key)) = slot_src {
            self.edges.push(SchedEdge {
                kind: EdgeKind::Slot,
                src: prev_key,
                dst: key,
            });
        }
        let start_ev = self.graph.push(
            start,
            EventKind::AttemptStart {
                kind: key.kind,
                task: key.task,
                attempt: key.attempt,
                backup: key.backup,
            },
            preds,
        );
        let end_ev = self.graph.push(
            end,
            EventKind::AttemptEnd {
                kind: key.kind,
                task: key.task,
                attempt: key.attempt,
                backup: key.backup,
            },
            vec![start_ev],
        );
        let (free, last) = match key.kind {
            TaskKind::Map => (&mut self.map_free, &mut self.map_last),
            TaskKind::Reduce => (&mut self.reduce_free, &mut self.reduce_last),
        };
        free[node][slot] = free[node][slot].max(end);
        last[node][slot] = Some((end_ev, key));
        self.attempts.push(AttemptRecord {
            key,
            node,
            slot,
            start_ev,
            end_ev,
        });
        start_ev
    }

    fn find_attempt(&self, key: AttemptKey) -> Option<&AttemptRecord> {
        self.attempts.iter().find(|a| a.key == key)
    }

    /// The attempt log, in record order (chronological per slot).
    pub fn attempts(&self) -> &[AttemptRecord] {
        &self.attempts
    }

    /// The attempt-level happens-before edges recorded so far.
    pub fn sched_edges(&self) -> &[SchedEdge] {
        &self.edges
    }

    /// Place every attempt of task `task` on `node` with the reservation
    /// recurrence: each attempt takes the first minimum over
    /// `max(slot_free, floor)` and starts at `max(that, prev_attempt_end)`;
    /// durations are scaled by the node factor. The engine passes `floor =
    /// 0` (its [`Scheduler::begin_round`] / [`Scheduler::begin_reduce_phase`]
    /// raises already floor every slot), which is the legacy greedy
    /// recurrence bit for bit; `textmr-serve` passes each job's phase floor
    /// to multiplex many jobs onto one cluster.
    pub fn place_attempts(
        &mut self,
        kind: TaskKind,
        task: usize,
        node: usize,
        durs: &[VNanos],
        floor: VNanos,
    ) -> Vec<Placement> {
        let mut out = Vec::with_capacity(durs.len());
        let mut prev_end = 0;
        for (attempt, &dur) in durs.iter().enumerate() {
            let free = match kind {
                TaskKind::Map => &self.map_free[node],
                TaskKind::Reduce => &self.reduce_free[node],
            };
            let (slot, free_at) = Self::argmin(free, floor);
            let start = free_at.max(prev_end);
            let end = start.saturating_add(self.scale(node, dur));
            self.record_attempt(
                AttemptKey {
                    kind,
                    task,
                    attempt,
                    backup: false,
                },
                node,
                slot,
                start,
                end,
                None,
            );
            prev_end = end;
            out.push(Placement { slot, start, end });
        }
        out
    }

    /// The earliest-free slot on `node` for a speculative backup probe:
    /// `(slot, free_time)` without committing anything.
    pub fn probe_backup(&self, kind: TaskKind, node: usize) -> (usize, VNanos) {
        let free = match kind {
            TaskKind::Map => &self.map_free[node],
            TaskKind::Reduce => &self.reduce_free[node],
        };
        Self::argmin(free, 0)
    }

    /// Commit a speculative backup attempt at an explicit `(start, end)`
    /// (the driver decides win/lose/dead and hence the end). Records a
    /// [`EdgeKind::Backup`] edge from `origin`.
    pub fn commit_backup(
        &mut self,
        key: AttemptKey,
        origin: AttemptKey,
        node: usize,
        slot: usize,
        start: VNanos,
        end: VNanos,
    ) {
        self.record_attempt(key, node, slot, start, end, Some(origin));
        let free = match key.kind {
            TaskKind::Map => &mut self.map_free,
            TaskKind::Reduce => &mut self.reduce_free,
        };
        // The legacy speculation code *sets* the slot free time (a losing
        // backup may end before the slot's prior reservation).
        free[node][slot] = end;
    }

    /// Open DAG round `round` (1-based) at virtual instant `origin` — the
    /// end of the previous round's last reduce attempt. Records a
    /// [`EventKind::RoundBoundary`] enabled by every attempt so far and
    /// raises all slot free times to at least `origin`, so cross-round
    /// virtual time is continuous: round-`k+1` work starts no earlier
    /// than the round-`k` outputs it consumes. Never called for round 0,
    /// which keeps single-round jobs bit-identical to the legacy path.
    pub fn begin_round(&mut self, round: usize, origin: VNanos) {
        let preds = self.attempts.iter().map(|a| a.end_ev).collect();
        self.round_ev = Some(
            self.graph
                .push(origin, EventKind::RoundBoundary { round }, preds),
        );
        self.map_phase_ev = None;
        for free in self.map_free.iter_mut().chain(self.reduce_free.iter_mut()) {
            for slot in free.iter_mut() {
                *slot = (*slot).max(origin);
            }
        }
    }

    /// Open the reduce phase: all reduce slots free at `map_phase_end`,
    /// and the barrier event (enabled by every map attempt recorded so
    /// far) enters the graph.
    pub fn begin_reduce_phase(&mut self, map_phase_end: VNanos) {
        let preds = self
            .attempts
            .iter()
            .filter(|a| a.key.kind == TaskKind::Map)
            .map(|a| a.end_ev)
            .collect();
        self.map_phase_ev = Some(
            self.graph
                .push(map_phase_end, EventKind::MapPhaseEnd, preds),
        );
        self.reduce_phase_start = map_phase_end;
        for node in &mut self.reduce_free {
            for slot in node.iter_mut() {
                *slot = map_phase_end;
            }
        }
    }

    /// Run the whole reduce phase through the dynamic event loop with
    /// shared node ingress. `tasks[r] = (node, attempts)`; returns one
    /// [`AttemptOutcome`] per attempt per task. Attempt and flow-finish
    /// events are recorded as task `base + r`, keeping keys unique when a
    /// DAG job runs several rounds through one scheduler. Call
    /// [`Scheduler::begin_reduce_phase`] first.
    pub fn run_reduce_phase(
        &mut self,
        base: usize,
        tasks: Vec<(usize, Vec<ReduceAttempt>)>,
    ) -> Vec<Vec<AttemptOutcome>> {
        let nodes: Vec<usize> = tasks.iter().map(|(n, _)| *n).collect();
        let outcomes = ReduceSim::new(
            self.shape.nodes,
            self.shape.reduce_slots,
            self.shape.fetchers,
            self.factors.clone(),
            tasks,
        )
        .run(self.reduce_phase_start);
        // Record events/edges in chronological order so slot chains and
        // retry predecessors resolve, then the flow-finish nodes.
        let mut order: Vec<(VNanos, usize, usize)> = Vec::new();
        for (task, outs) in outcomes.iter().enumerate() {
            for (attempt, o) in outs.iter().enumerate() {
                order.push((o.start, task, attempt));
            }
        }
        order.sort();
        for (_, task, attempt) in order {
            let o = &outcomes[task][attempt];
            let key = AttemptKey {
                kind: TaskKind::Reduce,
                task: base + task,
                attempt,
                backup: false,
            };
            let start_ev = self.record_attempt(key, nodes[task], o.slot, o.start, o.end, None);
            if let Some(sh) = &outcomes[task][attempt].shuffle {
                for f in &sh.flows {
                    let at = o
                        .start
                        .saturating_add(self.scale(nodes[task], f.finish))
                        .min(o.end);
                    self.graph.push(
                        at,
                        EventKind::FlowFinish {
                            task: base + task,
                            flow: f.flow,
                        },
                        vec![start_ev],
                    );
                }
            }
        }
        outcomes
    }

    /// Consume the scheduler, yielding the event graph and the
    /// attempt-level happens-before edges read off it.
    pub fn into_parts(self) -> (EventGraph, Vec<SchedEdge>) {
        (self.graph, self.edges)
    }
}

/// Simulate one reduce attempt's shuffle in isolation: a single node with
/// one reduce slot, starting at virtual time zero. This is the event-loop
/// replacement for the legacy per-attempt NIC step loop and produces the
/// same schedule bit-for-bit (see the module docs).
pub fn simulate_attempt_flows(flows: &[Flow], fetchers: usize) -> AttemptShuffle {
    let mut outcomes = ReduceSim::new(
        1,
        1,
        fetchers,
        vec![1],
        vec![(
            0,
            vec![ReduceAttempt::Work {
                flows: flows.to_vec(),
                post_ns: 0,
            }],
        )],
    )
    .run(0);
    outcomes
        .pop()
        .and_then(|mut a| a.pop())
        .and_then(|o| o.shuffle)
        .unwrap_or(AttemptShuffle {
            virtual_ns: 0,
            wait_ns: 0,
            flows: Vec::new(),
        })
}

// ---------------------------------------------------------------------------
// Dynamic reduce-phase simulation
// ---------------------------------------------------------------------------

/// Internal events driving the dynamic reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SimEv {
    /// A fixed-duration phase (pre / latency / decompress) of `task`'s
    /// fetcher sub-slot `sub` completes.
    FixedDone { task: usize, sub: usize },
    /// Estimated earliest transfer completion on `node`; stale (ignored)
    /// unless the epoch still matches.
    NicDue { node: usize, epoch: u64 },
    /// `task`'s running attempt releases its reduce slot.
    SlotFree { task: usize },
}

/// Which phase a fetcher sub-slot's current flow is in. Each variant's
/// handler runs when that phase *completes*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pre,
    Latency,
    Transfer,
    Post,
}

#[derive(Debug, Clone, Copy)]
struct SubSlot {
    flow: usize,
    phase: Phase,
    start: VNanos,
    pre_end: VNanos,
    latency_end: VNanos,
    transfer_end: VNanos,
}

/// A transfer currently sharing a node's ingress.
#[derive(Debug, Clone, Copy)]
struct Active {
    task: usize,
    sub: usize,
    /// Remaining work in `SCALE32`-scaled full-rate nanoseconds.
    remaining: u128,
}

/// One node's shared ingress NIC, advanced lazily.
#[derive(Debug, Default)]
struct Nic {
    now: VNanos,
    epoch: u64,
    active: Vec<Active>,
}

impl Nic {
    /// Deplete all active transfers up to `t` at the current shared rate.
    /// Must be called before any mutation of `active` at time `t`.
    fn advance(&mut self, t: VNanos) {
        if t > self.now {
            let n = self.active.len();
            if n > 0 {
                let dep = (t - self.now) as u128 * (SCALE32 / n as u128);
                for a in &mut self.active {
                    a.remaining = a.remaining.saturating_sub(dep);
                }
            }
        }
        self.now = self.now.max(t);
    }
}

/// A running `Work` attempt's fetcher state.
#[derive(Debug)]
struct RunWork {
    flows: Vec<Flow>,
    post_ns: VNanos,
    f: usize,
    subs: Vec<Option<SubSlot>>,
    next_flow: usize,
    live: usize,
    wait_ns: VNanos,
    tail_mark: Option<VNanos>,
    sched: Vec<FlowSched>,
}

#[derive(Debug)]
struct SimTask {
    node: usize,
    attempts: Vec<ReduceAttempt>,
    next: usize,
    cur: Option<(usize, VNanos)>,
    run: Option<RunWork>,
    pending_shuffle: Option<AttemptShuffle>,
}

#[derive(Debug, Clone, Copy)]
struct SimSlot {
    free_at: VNanos,
    occupant: Option<usize>,
}

struct ReduceSim {
    fetchers: usize,
    factors: Vec<u64>,
    queue: EventQueue<SimEv>,
    nics: Vec<Nic>,
    nic_dirty: Vec<bool>,
    tasks: Vec<SimTask>,
    ready: Vec<BTreeSet<usize>>,
    slots: Vec<Vec<SimSlot>>,
    outcomes: Vec<Vec<AttemptOutcome>>,
}

impl ReduceSim {
    fn new(
        nodes: usize,
        reduce_slots: usize,
        fetchers: usize,
        factors: Vec<u64>,
        tasks: Vec<(usize, Vec<ReduceAttempt>)>,
    ) -> Self {
        let nodes = nodes.max(1);
        let n_tasks = tasks.len();
        let mut ready = vec![BTreeSet::new(); nodes];
        let sim_tasks: Vec<SimTask> = tasks
            .into_iter()
            .enumerate()
            .map(|(t, (node, attempts))| {
                let node = node % nodes;
                if !attempts.is_empty() {
                    ready[node].insert(t);
                }
                SimTask {
                    node,
                    attempts,
                    next: 0,
                    cur: None,
                    run: None,
                    pending_shuffle: None,
                }
            })
            .collect();
        ReduceSim {
            fetchers,
            factors,
            queue: EventQueue::new(),
            nics: (0..nodes).map(|_| Nic::default()).collect(),
            nic_dirty: vec![false; nodes],
            tasks: sim_tasks,
            ready,
            slots: vec![
                vec![
                    SimSlot {
                        free_at: 0,
                        occupant: None
                    };
                    reduce_slots.max(1)
                ];
                nodes
            ],
            outcomes: vec![Vec::new(); n_tasks],
        }
    }

    fn factor(&self, node: usize) -> u64 {
        self.factors.get(node).copied().unwrap_or(1).max(1)
    }

    fn run(mut self, t0: VNanos) -> Vec<Vec<AttemptOutcome>> {
        for node in self.slots.iter_mut().flatten() {
            node.free_at = t0;
        }
        for nic in &mut self.nics {
            nic.now = t0;
        }
        for node in 0..self.nics.len() {
            self.dispatch(node, t0);
        }
        self.flush_nics();
        while let Some((t, _seq, ev)) = self.queue.pop() {
            match ev {
                SimEv::FixedDone { task, sub } => {
                    self.phase_done(task, sub, t);
                    self.claim(task, t);
                    self.retally(task, t);
                    self.check_shuffle_done(task, t);
                }
                SimEv::NicDue { node, epoch } => {
                    if self.nics[node].epoch != epoch {
                        continue;
                    }
                    self.nics[node].advance(t);
                    let mut finished = Vec::new();
                    self.nics[node].active.retain(|a| {
                        if a.remaining == 0 {
                            finished.push((a.task, a.sub));
                            false
                        } else {
                            true
                        }
                    });
                    self.nic_dirty[node] = true;
                    let mut touched: Vec<usize> = Vec::new();
                    for (task, sub) in finished {
                        self.phase_done(task, sub, t);
                        if !touched.contains(&task) {
                            touched.push(task);
                        }
                    }
                    for task in touched {
                        self.claim(task, t);
                        self.retally(task, t);
                        self.check_shuffle_done(task, t);
                    }
                }
                SimEv::SlotFree { task } => {
                    let node = self.tasks[task].node;
                    let (slot, start) = self.tasks[task].cur.take().expect("freeing idle task");
                    let shuffle = self.tasks[task].pending_shuffle.take();
                    self.outcomes[task].push(AttemptOutcome {
                        slot,
                        start,
                        end: t,
                        shuffle,
                    });
                    self.slots[node][slot].occupant = None;
                    self.slots[node][slot].free_at = t;
                    self.tasks[task].next += 1;
                    if self.tasks[task].next < self.tasks[task].attempts.len() {
                        self.ready[node].insert(task);
                    }
                    self.dispatch(node, t);
                }
            }
            self.flush_nics();
        }
        self.outcomes
    }

    /// Assign ready tasks (lowest id first) to free slots (earliest-freed,
    /// lowest index first) at time `t`.
    fn dispatch(&mut self, node: usize, t: VNanos) {
        loop {
            let Some(&task) = self.ready[node].iter().next() else {
                return;
            };
            let mut best: Option<usize> = None;
            for (i, s) in self.slots[node].iter().enumerate() {
                if s.occupant.is_none()
                    && best.is_none_or(|b| s.free_at < self.slots[node][b].free_at)
                {
                    best = Some(i);
                }
            }
            let Some(slot) = best else {
                return;
            };
            self.ready[node].remove(&task);
            self.slots[node][slot].occupant = Some(task);
            self.tasks[task].cur = Some((slot, t));
            let idx = self.tasks[task].next;
            match &self.tasks[task].attempts[idx] {
                ReduceAttempt::Block { dur } => {
                    let end = t.saturating_add((*dur).saturating_mul(self.factor(node)));
                    self.queue.push(end, SimEv::SlotFree { task });
                }
                ReduceAttempt::Work { .. } => {
                    let taken = std::mem::replace(
                        &mut self.tasks[task].attempts[idx],
                        ReduceAttempt::Block { dur: 0 },
                    );
                    let ReduceAttempt::Work { flows, post_ns } = taken else {
                        unreachable!("matched Work above");
                    };
                    let f = self
                        .fetchers
                        .clamp(1, crate::shuffle::MAX_FETCHERS)
                        .min(flows.len().max(1));
                    self.tasks[task].run = Some(RunWork {
                        flows,
                        post_ns,
                        f,
                        subs: vec![None; f],
                        next_flow: 0,
                        live: 0,
                        wait_ns: 0,
                        tail_mark: None,
                        sched: Vec::new(),
                    });
                    self.claim(task, t);
                    self.retally(task, t);
                    self.check_shuffle_done(task, t);
                }
            }
        }
    }

    /// Claim pending flows into free fetcher sub-slots, in sub-slot order;
    /// a fully zero-cost flow completes instantly and frees its sub-slot
    /// for the next pending flow at the same instant (the legacy cascade).
    fn claim(&mut self, task: usize, t: VNanos) {
        let Some(f) = self.tasks[task].run.as_ref().map(|r| r.f) else {
            return;
        };
        for sub in 0..f {
            loop {
                let run = self.tasks[task].run.as_mut().expect("claiming without run");
                if run.subs[sub].is_some() || run.next_flow >= run.flows.len() {
                    break;
                }
                let flow = run.next_flow;
                run.next_flow += 1;
                run.subs[sub] = Some(SubSlot {
                    flow,
                    phase: Phase::Pre,
                    start: t,
                    pre_end: t,
                    latency_end: t,
                    transfer_end: t,
                });
                run.live += 1;
                let pre = run.flows[flow].pre_ns();
                if pre > 0 {
                    self.queue
                        .push(t.saturating_add(pre), SimEv::FixedDone { task, sub });
                    break;
                }
                if !self.phase_done(task, sub, t) {
                    break;
                }
            }
        }
    }

    /// The sub-slot's current phase completed at `t`: transition forward,
    /// falling through zero-duration phases. Returns true when the flow
    /// finished and the sub-slot freed.
    fn phase_done(&mut self, task: usize, sub: usize, t: VNanos) -> bool {
        let node = self.tasks[task].node;
        loop {
            let run = self.tasks[task].run.as_mut().expect("phase without run");
            let s = run.subs[sub].as_mut().expect("phase on empty sub-slot");
            let fl = run.flows[s.flow];
            match s.phase {
                Phase::Pre => {
                    s.pre_end = t;
                    if fl.remote {
                        s.phase = Phase::Latency;
                        if fl.latency_ns > 0 {
                            self.queue.push(
                                t.saturating_add(fl.latency_ns),
                                SimEv::FixedDone { task, sub },
                            );
                            return false;
                        }
                    } else {
                        // Local flow: the latency and transfer marks
                        // collapse onto the end of the disk read.
                        s.latency_end = t;
                        s.transfer_end = t;
                        s.phase = Phase::Post;
                        if fl.post_ns > 0 {
                            self.queue
                                .push(t.saturating_add(fl.post_ns), SimEv::FixedDone { task, sub });
                            return false;
                        }
                    }
                }
                Phase::Latency => {
                    s.latency_end = t;
                    s.phase = Phase::Transfer;
                    let remaining = fl.rate_ns as u128 * SCALE32;
                    if remaining > 0 {
                        self.nics[node].advance(t);
                        self.nics[node].active.push(Active {
                            task,
                            sub,
                            remaining,
                        });
                        self.nic_dirty[node] = true;
                        return false;
                    }
                }
                Phase::Transfer => {
                    s.transfer_end = t;
                    s.phase = Phase::Post;
                    if fl.post_ns > 0 {
                        self.queue
                            .push(t.saturating_add(fl.post_ns), SimEv::FixedDone { task, sub });
                        return false;
                    }
                }
                Phase::Post => {
                    let done = run.subs[sub].take().expect("double-free of sub-slot");
                    run.live -= 1;
                    run.sched.push(FlowSched {
                        flow: done.flow,
                        slot: sub,
                        start: done.start,
                        pre_end: done.pre_end,
                        latency_end: done.latency_end,
                        transfer_end: done.transfer_end,
                        finish: t,
                    });
                    return true;
                }
            }
        }
    }

    /// Close/open the straggler-tail interval: the attempt is stalled when
    /// exactly one fetcher is busy and no flow is left to claim (the
    /// legacy wait condition, integrated between the attempt's own
    /// events).
    fn retally(&mut self, task: usize, t: VNanos) {
        let Some(run) = self.tasks[task].run.as_mut() else {
            return;
        };
        if let Some(mark) = run.tail_mark.take() {
            run.wait_ns = run.wait_ns.saturating_add(t - mark);
        }
        if run.f > 1 && run.live == 1 && run.next_flow >= run.flows.len() {
            run.tail_mark = Some(t);
        }
    }

    /// When every flow has drained, finalize the shuffle and schedule the
    /// slot release after the post-shuffle work (straggler factor applied
    /// to the whole attempt, like the legacy recurrence).
    fn check_shuffle_done(&mut self, task: usize, t: VNanos) {
        let node = self.tasks[task].node;
        let done = self.tasks[task]
            .run
            .as_ref()
            .is_some_and(|r| r.live == 0 && r.next_flow >= r.flows.len());
        if !done {
            return;
        }
        let (_, start) = self.tasks[task].cur.expect("shuffle without a slot");
        let run = self.tasks[task].run.take().expect("checked above");
        let virtual_ns = t - start;
        let flows = run
            .sched
            .into_iter()
            .map(|s| FlowSched {
                start: s.start - start,
                pre_end: s.pre_end - start,
                latency_end: s.latency_end - start,
                transfer_end: s.transfer_end - start,
                finish: s.finish - start,
                ..s
            })
            .collect();
        self.tasks[task].pending_shuffle = Some(AttemptShuffle {
            virtual_ns,
            wait_ns: run.wait_ns,
            flows,
        });
        let total = virtual_ns
            .saturating_add(run.post_ns)
            .saturating_mul(self.factor(node));
        self.queue
            .push(start.saturating_add(total), SimEv::SlotFree { task });
    }

    /// Re-estimate transfer completions on every NIC whose active set (and
    /// hence shared rate) changed; stale estimates are invalidated by the
    /// epoch bump.
    fn flush_nics(&mut self) {
        for node in 0..self.nics.len() {
            if !self.nic_dirty[node] {
                continue;
            }
            self.nic_dirty[node] = false;
            let nic = &mut self.nics[node];
            nic.epoch += 1;
            let n = nic.active.len();
            if n == 0 {
                continue;
            }
            let rate = SCALE32 / n as u128;
            let mut due = VNanos::MAX;
            for a in &nic.active {
                let dt = u64::try_from(a.remaining.div_ceil(rate)).unwrap_or(u64::MAX);
                due = due.min(nic.now.saturating_add(dt));
            }
            let epoch = nic.epoch;
            self.queue.push(due, SimEv::NicDue { node, epoch });
        }
    }
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

    #[test]
    fn queue_pops_by_time_then_sequence() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(50, 1u32);
        q.push(10, 2);
        q.push(10, 3);
        q.push(0, 4);
        assert_eq!(q.len(), 4);
        let mut order: Vec<(VNanos, u32)> = Vec::new();
        while let Some(at) = q.peek_time() {
            let (t, _, e) = q.pop().expect("peeked");
            // The peeked time is the time of the event that pops next.
            assert_eq!(t, at);
            order.push((t, e));
        }
        // Simultaneous events resolve in push order (2 before 3).
        assert_eq!(order, vec![(0, 4), (10, 2), (10, 3), (50, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn scale32_is_an_exact_multiple_of_the_legacy_scale() {
        assert_eq!(SCALE32 % 720_720, 0);
        for n in 1..=32u128 {
            assert_eq!(SCALE32 % n, 0, "SCALE32 must divide evenly by {n}");
        }
    }

    // ---- reservation mode: the legacy recurrence, bit-for-bit ------------

    #[test]
    fn reservation_matches_the_legacy_greedy_recurrence() {
        let shape = ClusterShape {
            nodes: 2,
            map_slots: 2,
            reduce_slots: 1,
            fetchers: 1,
        };
        let mut sched = Scheduler::new(shape, vec![1, 3]);
        // Node 0: two slots. Task 0 (attempts 10, 20) then task 1 (5).
        let p0 = sched.place_attempts(TaskKind::Map, 0, 0, &[10, 20], 0);
        // Attempt 0 → slot 0 [0,10); attempt 1 → slot 1, start
        // max(free=0, prev_end=10) = 10, end 30.
        assert_eq!(
            p0[0],
            Placement {
                slot: 0,
                start: 0,
                end: 10
            }
        );
        assert_eq!(
            p0[1],
            Placement {
                slot: 1,
                start: 10,
                end: 30
            }
        );
        let p1 = sched.place_attempts(TaskKind::Map, 1, 0, &[5], 0);
        // Slot 0 frees first (10 < 30).
        assert_eq!(
            p1[0],
            Placement {
                slot: 0,
                start: 10,
                end: 15
            }
        );
        // Node 1 has straggler factor 3.
        let p2 = sched.place_attempts(TaskKind::Map, 2, 1, &[7], 0);
        assert_eq!(
            p2[0],
            Placement {
                slot: 0,
                start: 0,
                end: 21
            }
        );

        sched.begin_reduce_phase(30);
        let r0 = sched.place_attempts(TaskKind::Reduce, 0, 0, &[4], 0);
        assert_eq!(
            r0[0],
            Placement {
                slot: 0,
                start: 30,
                end: 34
            }
        );

        let (graph, edges) = sched.into_parts();
        // Slot chain on node 0 slot 0: map 0 attempt 0 → map 1.
        assert!(edges.iter().any(|e| e.kind == EdgeKind::Slot
            && e.src.task == 0
            && e.src.attempt == 0
            && e.dst.task == 1));
        // Retry edge: map 0 attempt 0 → attempt 1.
        assert!(edges
            .iter()
            .any(|e| e.kind == EdgeKind::Retry && e.src.task == 0 && e.dst.attempt == 1));
        // The reduce attempt is enabled by the map-phase barrier.
        let barrier = graph
            .nodes
            .iter()
            .position(|n| n.kind == EventKind::MapPhaseEnd)
            .expect("barrier event");
        let reduce_start = graph
            .nodes
            .iter()
            .find(|n| {
                matches!(
                    n.kind,
                    EventKind::AttemptStart {
                        kind: TaskKind::Reduce,
                        ..
                    }
                )
            })
            .expect("reduce start event");
        assert!(reduce_start.preds.contains(&barrier));
    }

    #[test]
    fn backup_commit_records_a_backup_edge_and_resets_the_slot() {
        let shape = ClusterShape {
            nodes: 2,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
        };
        let mut sched = Scheduler::new(shape, Vec::new());
        sched.place_attempts(TaskKind::Map, 0, 0, &[100], 0);
        let origin = AttemptKey {
            kind: TaskKind::Map,
            task: 0,
            attempt: 0,
            backup: false,
        };
        let (slot, free) = sched.probe_backup(TaskKind::Map, 1);
        assert_eq!((slot, free), (0, 0));
        let key = AttemptKey {
            backup: true,
            ..origin
        };
        sched.commit_backup(key, origin, 1, slot, 40, 80);
        let (graph, edges) = sched.into_parts();
        assert!(edges
            .iter()
            .any(|e| e.kind == EdgeKind::Backup && e.src == origin && e.dst == key));
        // The backup's start is enabled by the origin's start event.
        let origin_start = graph
            .nodes
            .iter()
            .position(|n| matches!(n.kind, EventKind::AttemptStart { backup: false, .. }))
            .unwrap();
        let backup_start = graph
            .nodes
            .iter()
            .find(|n| matches!(n.kind, EventKind::AttemptStart { backup: true, .. }))
            .unwrap();
        assert!(backup_start.preds.contains(&origin_start));
    }

    // ---- dynamic mode: exact agreement with the legacy NIC loop ----------

    #[test]
    fn isolated_attempt_reproduces_the_legacy_nic_examples() {
        // Two identical remote flows: latency + 2 × full-rate (they share).
        let sh = simulate_attempt_flows(&[remote(0, 1000, 0), remote(0, 1000, 0)], 2);
        assert_eq!(sh.virtual_ns, 100 + 2000);
        // Unequal flows: 300 drains after 600 shared ns, the 900 flow then
        // has 600 left at full rate; tail where only it remains is 600.
        let sh = simulate_attempt_flows(&[remote(0, 300, 0), remote(0, 900, 0)], 2);
        assert_eq!(sh.virtual_ns, 100 + 600 + 600);
        assert_eq!(sh.wait_ns, 600);
        // A local fetch overlaps a remote flow without slowing it.
        let sh = simulate_attempt_flows(&[remote(0, 1000, 0), local(500, 0)], 2);
        assert_eq!(sh.virtual_ns, 100 + 1000);
        // Local decompress occupies the fetcher sub-slot.
        let sh = simulate_attempt_flows(&[local(100, 50), local(100, 50)], 1);
        assert_eq!(sh.virtual_ns, 300);
        let sh = simulate_attempt_flows(&[local(100, 50), local(100, 50)], 2);
        assert_eq!(sh.virtual_ns, 150);
        // Zero-cost flows terminate; only the remote latency costs.
        for f in [1, 2, 4] {
            let sh = simulate_attempt_flows(&[local(0, 0), remote(0, 0, 0), local(0, 0)], f);
            assert_eq!(sh.virtual_ns, 100, "f={f}");
        }
        // Empty flow list.
        let sh = simulate_attempt_flows(&[], 4);
        assert_eq!((sh.virtual_ns, sh.wait_ns), (0, 0));
    }

    #[test]
    fn flow_phase_marks_match_the_legacy_schedule() {
        let sh = simulate_attempt_flows(&[local(100, 50), remote(100, 200, 50)], 2);
        let mut flows = sh.flows.clone();
        flows.sort_by_key(|s| s.flow);
        let l = flows[0];
        assert_eq!(
            (l.start, l.pre_end, l.latency_end, l.transfer_end, l.finish),
            (0, 100, 100, 100, 150)
        );
        let r = flows[1];
        assert_eq!(
            (r.start, r.pre_end, r.latency_end, r.transfer_end, r.finish),
            (0, 100, 200, 400, 450)
        );
        assert_eq!(sh.virtual_ns, 450);
    }

    // ---- the co-located-reducer fix --------------------------------------

    #[test]
    fn co_located_reducers_share_node_ingress() {
        let one_flow = || {
            vec![ReduceAttempt::Work {
                flows: vec![remote(0, 1000, 0)],
                post_ns: 0,
            }]
        };
        let isolated = simulate_attempt_flows(&[remote(0, 1000, 0)], 2).virtual_ns;
        assert_eq!(isolated, 100 + 1000);

        // Two reducers on ONE node: their transfers fair-share the node's
        // ingress, so each takes latency + 2 × full-rate.
        let shape = ClusterShape {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 2,
            fetchers: 2,
        };
        let mut sched = Scheduler::new(shape, Vec::new());
        sched.begin_reduce_phase(0);
        let outs = sched.run_reduce_phase(0, vec![(0, one_flow()), (0, one_flow())]);
        for (r, outs) in outs.iter().enumerate() {
            let sh = outs[0].shuffle.as_ref().unwrap();
            assert_eq!(sh.virtual_ns, 100 + 2000, "co-located reducer {r}");
            assert!(sh.virtual_ns > isolated);
        }

        // The same two reducers on DIFFERENT nodes reproduce the isolated
        // schedule exactly.
        let shape = ClusterShape {
            nodes: 2,
            map_slots: 1,
            reduce_slots: 2,
            fetchers: 2,
        };
        let mut sched = Scheduler::new(shape, Vec::new());
        sched.begin_reduce_phase(0);
        let outs = sched.run_reduce_phase(0, vec![(0, one_flow()), (1, one_flow())]);
        for (r, outs) in outs.iter().enumerate() {
            let sh = outs[0].shuffle.as_ref().unwrap();
            assert_eq!(sh.virtual_ns, isolated, "separated reducer {r}");
        }
    }

    #[test]
    fn dynamic_dispatch_queues_attempts_and_frees_slots() {
        // One node, one slot, two tasks: task 0 runs [t0, t0+dur), task 1
        // queues behind it; a failed attempt (Block) precedes task 1's
        // work, exercising the retry hand-off.
        let shape = ClusterShape {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 2,
        };
        let mut sched = Scheduler::new(shape, Vec::new());
        sched.begin_reduce_phase(1000);
        let outs = sched.run_reduce_phase(
            0,
            vec![
                (
                    0,
                    vec![ReduceAttempt::Work {
                        flows: vec![remote(10, 100, 0)],
                        post_ns: 40,
                    }],
                ),
                (
                    0,
                    vec![
                        ReduceAttempt::Block { dur: 30 },
                        ReduceAttempt::Work {
                            flows: vec![local(20, 0)],
                            post_ns: 5,
                        },
                    ],
                ),
            ],
        );
        // Task 0: starts at 1000, shuffle = 10 + 100 + 100 = 210, plus
        // post 40 → ends 1250.
        assert_eq!(outs[0][0].start, 1000);
        assert_eq!(outs[0][0].end, 1250);
        // Task 1 attempt 0 (Block) starts when the slot frees.
        assert_eq!(outs[1][0].start, 1250);
        assert_eq!(outs[1][0].end, 1280);
        // Attempt 1: local flow 20 + post 5.
        assert_eq!(outs[1][1].start, 1280);
        assert_eq!(outs[1][1].end, 1305);
        let (graph, edges) = sched.into_parts();
        assert!(edges
            .iter()
            .any(|e| e.kind == EdgeKind::Retry && e.src.task == 1 && e.dst.attempt == 1));
        assert!(edges
            .iter()
            .any(|e| e.kind == EdgeKind::Slot && e.src.task == 0 && e.dst.task == 1));
        assert!(graph
            .nodes
            .iter()
            .any(|n| matches!(n.kind, EventKind::FlowFinish { task: 0, flow: 0 })));
    }

    #[test]
    fn straggler_factor_scales_the_whole_attempt() {
        let shape = ClusterShape {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
        };
        let mut sched = Scheduler::new(shape, vec![3]);
        sched.begin_reduce_phase(0);
        let outs = sched.run_reduce_phase(
            0,
            vec![(
                0,
                vec![ReduceAttempt::Work {
                    flows: vec![local(100, 0)],
                    post_ns: 50,
                }],
            )],
        );
        // Shuffle 100 + post 50, scaled ×3.
        assert_eq!(outs[0][0].end, 450);
        assert_eq!(outs[0][0].shuffle.as_ref().unwrap().virtual_ns, 100);
    }
}
