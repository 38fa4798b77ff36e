//! Vector-clock happens-before race checking over a [`JobTrace`].
//!
//! [`JobTrace::check`] proves per-lane tiling and per-slot non-overlap, but
//! says nothing about *cross-lane* ordering: a trace can tile perfectly
//! while a reducer fetches a map output before the map task sealed it, or a
//! merge reads a spill file the support thread has not written yet. This
//! module checks the schedule's synchronization edges and reports any pair
//! of spans that touch the same logical resource without a happens-before
//! path between them — a virtual-time race.
//!
//! ## Model
//!
//! * **Threads**: every lane of every entry is a thread; a flat attempt
//!   (failed / speculation-lost / dead-backup) is a one-event thread.
//! * **Events**: a thread's spans in lane order. Program order within a
//!   thread is always a happens-before edge.
//! * **Synchronization edges** are the trace's recorded
//!   [`JobTrace::edges`], and nothing else: the unified event loop emitted
//!   them while scheduling — slot chains, retries, and speculative
//!   hand-offs off the event graph; map-output publication, spill
//!   hand-ins, and shuffle barriers off the producer-side task structure.
//!   The checker never reconstructs an ordering from span timings — that
//!   would verify the schedule against itself. A trace that has entries
//!   but no edges (its `edges` array was stripped, or it predates
//!   recording) therefore fails with one [`RaceKind::Structure`] finding
//!   on the resource `edges` rather than being audited on weaker evidence.
//!
//!   An edge is *applied* only when timing-consistent (the source event
//!   ends no later than the destination starts): an edge the timing
//!   contradicts is no evidence of ordering, and dropping it is what
//!   surfaces the race on the resource it was meant to order. Endpoints
//!   that no longer resolve (a mutated trace dropped an entry, lane, or
//!   span) are dropped the same way.
//! * **Resources**: scheduler slots, task attempt serialization, map
//!   outputs, spill files, fetched runs, and reduce output partitions.
//!   Accesses are always derived from the entries' structure — recorded
//!   edges assert *orderings*, never hide an access. Two accesses
//!   conflict when they share a resource and at least one writes; a
//!   conflict with no happens-before path in either direction is a race.
//!   Structural invariants (one attempt of record per task, support
//!   bursts paired with spill-wait hand-offs) are checked alongside.
//!
//! Because every applied edge is timing-consistent and consecutive lane
//! spans touch, any happens-before chain is monotone in virtual time — the
//! checker can never "order" two time-overlapping accesses, so a reported
//! race is always a genuine lack of synchronization evidence.
//!
//! ## The frequent-key registry
//!
//! The registry synchronizes in *real* time (publisher / waiter handshake
//! inside a map wave); its outcome is deterministic and its waits are
//! invisible in virtual time by design, so the publisher's and waiters'
//! virtual spans may freely overlap. Traces from the unified loop record
//! the designated-publisher hand-offs as [`EdgeKind::Registry`] edges;
//! the checker validates them as *protocol* edges — endpoints must be map
//! entries, the publisher must carry the node's lowest task id, no waiter
//! may have two publishers or be a publisher itself, and a publisher's
//! node must not host an unconnected map task — instead of feeding them
//! to the vector clocks, where their timing-overlap would be
//! misread as a race.
//!
//! ## Deliberate non-resources
//!
//! * The **NIC ingress** is a fairly-*shared* resource: concurrent
//!   transfers into one node are the NIC model's whole point, not a race.
//!   Transfer spans are tallied in [`RaceReport::accesses`] for visibility
//!   but carry no exclusivity obligation; per-fetcher-slot exclusivity is
//!   already proven by lane tiling.

use super::{
    EdgeEnd, EdgeKind, EntryDetail, IdleKind, JobTrace, LaneRole, Span, SpanKind, TaskKind,
};
use crate::metrics::{Op, VNanos};
use std::collections::BTreeMap;

/// A reference to one event: `(thread index, event index)`.
type EvRef = (usize, usize);

/// What a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two conflicting accesses with no happens-before path.
    Race,
    /// A structural invariant of the schedule shape is broken (duplicate
    /// attempt of record, support burst with no hand-off, missing
    /// producer).
    Structure,
}

/// One finding of the race checker.
#[derive(Debug, Clone)]
pub struct RaceDiagnostic {
    /// Race or structural violation.
    pub kind: RaceKind,
    /// The logical resource involved (e.g. `mapout:3`, `slot:n0/map/1`).
    pub resource: String,
    /// Human-readable description of the finding.
    pub message: String,
}

/// Result of [`check_races`].
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Logical threads examined (lanes + flat attempts).
    pub threads: usize,
    /// Total events across all threads.
    pub events: usize,
    /// Synchronization edges that were timing-consistent and used.
    pub edges: usize,
    /// Accesses tallied per resource kind (`slot`, `task`, `mapout`,
    /// `spill`, `runs`, `out`, `nic-shared`).
    pub accesses: BTreeMap<&'static str, usize>,
    /// All findings, races first.
    pub diagnostics: Vec<RaceDiagnostic>,
}

impl RaceReport {
    /// True when the trace shows no races and no structural violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render a compact text summary (one line per finding).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "race check: {} threads, {} events, {} edges, {} findings",
            self.threads,
            self.events,
            self.edges,
            self.diagnostics.len()
        );
        for (kind, n) in &self.accesses {
            let _ = writeln!(out, "  accesses[{kind}] = {n}");
        }
        for d in &self.diagnostics {
            let tag = match d.kind {
                RaceKind::Race => "RACE",
                RaceKind::Structure => "STRUCTURE",
            };
            let _ = writeln!(out, "  {tag} {}: {}", d.resource, d.message);
        }
        out
    }
}

/// One logical thread: a lane of an entry, or a flat attempt.
struct Thread {
    /// `(start, end)` per event, in lane order.
    events: Vec<(VNanos, VNanos)>,
}

/// One access to a logical resource, spanning `first..=last` events on a
/// single envelope (both ends may be the same event).
struct Access {
    resource: String,
    res_kind: &'static str,
    write: bool,
    first: EvRef,
    last: EvRef,
    who: String,
}

/// Run the happens-before race check over a job trace.
pub fn check_races(trace: &JobTrace) -> RaceReport {
    Checker::new(trace).run()
}

/// Attempts of record keyed by `(job, kind, round, task)` — job first so
/// one serve job's tasks never alias another's.
type OfRecord = BTreeMap<(usize, TaskKind, usize, usize), usize>;

struct Checker<'t> {
    trace: &'t JobTrace,
    threads: Vec<Thread>,
    /// `(entry index, lane index)` → thread index (flat attempts use lane 0).
    tix: BTreeMap<(usize, usize), usize>,
    edges: Vec<(EvRef, EvRef)>,
    accesses: Vec<Access>,
    diagnostics: Vec<RaceDiagnostic>,
}

impl<'t> Checker<'t> {
    fn new(trace: &'t JobTrace) -> Self {
        let mut threads = Vec::new();
        let mut tix = BTreeMap::new();
        for (ei, e) in trace.entries.iter().enumerate() {
            match &e.detail {
                EntryDetail::Lanes(lanes) => {
                    for (li, lane) in lanes.iter().enumerate() {
                        if lane.spans.is_empty() {
                            continue;
                        }
                        tix.insert((ei, li), threads.len());
                        threads.push(Thread {
                            events: lane.spans.iter().map(|s| (s.start, s.end)).collect(),
                        });
                    }
                }
                EntryDetail::Flat(_) => {
                    tix.insert((ei, 0), threads.len());
                    threads.push(Thread {
                        events: vec![(e.start, e.end)],
                    });
                }
            }
        }
        Checker {
            trace,
            threads,
            tix,
            edges: Vec::new(),
            accesses: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    fn who(&self, ei: usize) -> String {
        let e = &self.trace.entries[ei];
        format!(
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
        )
    }

    /// Round qualifier for resource names: empty for round 0 so every
    /// legacy (single-round) diagnostic string is unchanged.
    fn rq(round: usize) -> String {
        if round > 0 {
            format!("r{round}:")
        } else {
            String::new()
        }
    }

    /// Serve-job qualifier for resource names: empty for job 0 so every
    /// single-job diagnostic string is unchanged. Multi-job resource keys
    /// compose as `j{id}:r{k}:…` — data resources (tasks, map outputs,
    /// spills, runs, output partitions, hand-offs, registries) are private
    /// to a job, while physical resources (slots, NICs) stay shared.
    fn jq(job: usize) -> String {
        if job > 0 {
            format!("j{job}:")
        } else {
            String::new()
        }
    }

    /// Combined `j{id}:r{k}:` qualifier for an entry's data resources.
    fn jrq(job: usize, round: usize) -> String {
        format!("{}{}", Self::jq(job), Self::rq(round))
    }

    fn ev_time(&self, (t, i): EvRef) -> (VNanos, VNanos) {
        self.threads[t].events[i]
    }

    /// First event of every thread of entry `ei`.
    fn entry_firsts(&self, ei: usize) -> Vec<EvRef> {
        self.tix
            .range((ei, 0)..(ei + 1, 0))
            .map(|(_, &t)| (t, 0))
            .collect()
    }

    /// Last event of every thread of entry `ei`.
    fn entry_lasts(&self, ei: usize) -> Vec<EvRef> {
        self.tix
            .range((ei, 0)..(ei + 1, 0))
            .map(|(_, &t)| (t, self.threads[t].events.len() - 1))
            .collect()
    }

    /// Add a synchronization edge if the timing supports it; an edge the
    /// timing contradicts is dropped (the conflict it should have ordered
    /// then surfaces as a race).
    fn edge(&mut self, src: EvRef, dst: EvRef) {
        if self.ev_time(src).1 <= self.ev_time(dst).0 {
            self.edges.push((src, dst));
        }
    }

    fn edge_all(&mut self, srcs: &[EvRef], dsts: &[EvRef]) {
        for &s in srcs {
            for &d in dsts {
                self.edge(s, d);
            }
        }
    }

    /// Representative envelope (earliest-starting first event,
    /// latest-ending last event) of a whole entry, for entry-granular
    /// accesses.
    fn entry_envelope(&self, ei: usize) -> (EvRef, EvRef) {
        let first = self
            .entry_firsts(ei)
            .into_iter()
            .min_by_key(|&r| self.ev_time(r))
            .expect("entry has threads");
        let last = self
            .entry_lasts(ei)
            .into_iter()
            .max_by_key(|&r| (self.ev_time(r).1, self.ev_time(r).0))
            .expect("entry has threads");
        (first, last)
    }

    /// The lane index of `role` within entry `ei`'s lanes, if present.
    fn lane_of(&self, ei: usize, role: LaneRole) -> Option<usize> {
        match &self.trace.entries[ei].detail {
            EntryDetail::Lanes(lanes) => lanes.iter().position(|l| l.role == role),
            EntryDetail::Flat(_) => None,
        }
    }

    fn lane_spans(&self, ei: usize, li: usize) -> &'t [Span] {
        let trace = self.trace;
        match &trace.entries[ei].detail {
            EntryDetail::Lanes(lanes) => &lanes[li].spans,
            EntryDetail::Flat(_) => &[],
        }
    }

    fn run(mut self) -> RaceReport {
        if self.trace.edges.is_empty() && !self.trace.entries.is_empty() {
            // Without edges every conflicting pair would read as a race;
            // name the one cause instead of gathering accesses at all.
            self.diagnostics.push(RaceDiagnostic {
                kind: RaceKind::Structure,
                resource: "edges".into(),
                message: format!(
                    "{} entries but no recorded happens-before edges \
                     (stripped, or exported before edges were recorded): \
                     regenerate the trace",
                    self.trace.entries.len()
                ),
            });
        } else {
            self.slot_accesses();
            self.attempt_accesses();
            let of_record = self.of_record_map();
            self.map_entry_accesses(&of_record);
            self.reduce_entry_accesses(&of_record);
            self.apply_recorded_edges(&of_record);
        }
        self.check_races_on_accesses()
    }

    /// Resolve one recorded edge endpoint to concrete events. An
    /// entry-level endpoint fans out to every thread of the entry (last
    /// events on the source side, first events on the destination side); a
    /// span-level endpoint names one event. Endpoints that no longer
    /// resolve — a mutated trace dropped the entry, lane, or span — yield
    /// `None`, which drops the edge and lets the conflict it should have
    /// ordered surface as a race.
    fn resolve_end(&self, end: EdgeEnd, src_side: bool) -> Option<Vec<EvRef>> {
        if end.entry >= self.trace.entries.len() {
            return None;
        }
        match end.at {
            None => Some(if src_side {
                self.entry_lasts(end.entry)
            } else {
                self.entry_firsts(end.entry)
            }),
            Some((lane, span)) => {
                let &t = self.tix.get(&(end.entry, lane))?;
                if span >= self.threads[t].events.len() {
                    return None;
                }
                Some(vec![(t, span)])
            }
        }
    }

    /// Apply the trace's recorded edges. Every edge except
    /// [`EdgeKind::Registry`] feeds the vector clocks through the timing
    /// filter; registry hand-offs synchronize in real time, so they are
    /// validated as protocol edges instead (see the module docs).
    fn apply_recorded_edges(&mut self, of_record: &OfRecord) {
        let recorded = self.trace.edges.clone();
        let mut registry = Vec::new();
        for e in recorded {
            if e.kind == EdgeKind::Registry {
                registry.push(e);
                continue;
            }
            let (Some(srcs), Some(dsts)) = (
                self.resolve_end(e.src, true),
                self.resolve_end(e.dst, false),
            ) else {
                continue;
            };
            self.edge_all(&srcs, &dsts);
        }
        self.validate_registry_protocol(&registry, of_record);
    }

    /// Validate the frequent-key registry's designated-publisher protocol.
    ///
    /// Registry edges are exempt from the timing filter and the vector
    /// clocks — the publisher / waiter handshake happens in *real* time
    /// inside a map wave, so the endpoints' virtual spans legitimately
    /// overlap. What must hold is the protocol shape: both endpoints are
    /// map entries, the publisher carries the lower task id (the driver
    /// designates the node's first map task), no task is both a publisher
    /// and a waiter, no waiter has two publishers, endpoints share a node
    /// unless speculation moved a backup winner, and every non-backup map
    /// attempt of record on a publishing node is connected to that node's
    /// publisher.
    fn validate_registry_protocol(&mut self, edges: &[super::TraceEdge], of_record: &OfRecord) {
        if edges.is_empty() {
            return;
        }
        let structure = |resource: String, message: String| RaceDiagnostic {
            kind: RaceKind::Structure,
            resource,
            message,
        };
        let mut publishers: BTreeMap<usize, usize> = BTreeMap::new(); // src entry -> node
        let mut waiter_of: BTreeMap<usize, usize> = BTreeMap::new(); // dst entry -> src entry
        let mut diags = Vec::new();
        for e in edges {
            let resource = "registry".to_string();
            let ok = |end: EdgeEnd| {
                end.at.is_none()
                    && self
                        .trace
                        .entries
                        .get(end.entry)
                        .is_some_and(|t| t.kind == TaskKind::Map)
            };
            if !ok(e.src) || !ok(e.dst) {
                diags.push(structure(
                    resource,
                    "registry edge endpoint is not a map entry".into(),
                ));
                continue;
            }
            let (src, dst) = (
                &self.trace.entries[e.src.entry],
                &self.trace.entries[e.dst.entry],
            );
            if src.job != dst.job {
                diags.push(structure(
                    format!("{}registry:n{}", Self::jq(src.job), src.node),
                    format!(
                        "hand-off from job {} map {} to job {} map {} crosses jobs",
                        src.job, src.task, dst.job, dst.task
                    ),
                ));
                continue;
            }
            if src.task >= dst.task {
                diags.push(structure(
                    format!("{}registry:n{}", Self::jq(src.job), src.node),
                    format!(
                        "publisher map {} does not carry the lowest task id (waiter map {})",
                        src.task, dst.task
                    ),
                ));
            }
            if src.node != dst.node && !src.backup && !dst.backup {
                diags.push(structure(
                    format!("{}registry:n{}", Self::jq(src.job), src.node),
                    format!(
                        "hand-off from map {} (node {}) to map {} (node {}) crosses nodes \
                         without a backup winner",
                        src.task, src.node, dst.task, dst.node
                    ),
                ));
            }
            publishers.insert(e.src.entry, src.node);
            if let Some(&prev) = waiter_of.get(&e.dst.entry) {
                if prev != e.src.entry {
                    diags.push(structure(
                        format!("{}registry:n{}", Self::jq(dst.job), dst.node),
                        format!("waiter map {} has two publishers", dst.task),
                    ));
                }
            } else {
                waiter_of.insert(e.dst.entry, e.src.entry);
            }
        }
        for (&pei, &node) in &publishers {
            let p = &self.trace.entries[pei];
            if waiter_of.contains_key(&pei) {
                diags.push(structure(
                    format!("{}registry:n{node}", Self::jq(p.job)),
                    format!("map {} is both a publisher and a waiter", p.task),
                ));
            }
            // Per-node completeness: every other non-backup map attempt of
            // record on the publisher's node must be one of its waiters. A
            // backup publisher ran away from the home node, so its entry's
            // node says nothing about which tasks should wait on it.
            if p.backup {
                continue;
            }
            for (&(job, kind, round, task), &ei) in of_record {
                if kind != TaskKind::Map || job != p.job || round != p.round || ei == pei {
                    continue;
                }
                let w = &self.trace.entries[ei];
                if w.backup || w.node != node {
                    continue;
                }
                if waiter_of.get(&ei) != Some(&pei) {
                    diags.push(structure(
                        format!("{}registry:n{node}", Self::jq(job)),
                        format!(
                            "map {} on node {node} has no hand-off edge from publisher map {}",
                            task, p.task
                        ),
                    ));
                }
            }
        }
        self.diagnostics.extend(diags);
    }

    /// Every attempt is a write to its `(node, phase, slot)`; the recorded
    /// slot chains are what serializes consecutive occupants.
    fn slot_accesses(&mut self) {
        let mut by_slot: BTreeMap<(usize, TaskKind, usize), Vec<usize>> = BTreeMap::new();
        for (ei, e) in self.trace.entries.iter().enumerate() {
            by_slot
                .entry((e.node, e.kind, e.slot))
                .or_default()
                .push(ei);
        }
        for ((node, kind, slot), mut eis) in by_slot {
            eis.sort_by_key(|&ei| {
                let e = &self.trace.entries[ei];
                (e.start, e.end, ei)
            });
            for ei in eis {
                let (first, last) = self.entry_envelope(ei);
                self.accesses.push(Access {
                    resource: format!("slot:n{node}/{}/{slot}", kind.label()),
                    res_kind: "slot",
                    write: true,
                    first,
                    last,
                    who: self.who(ei),
                });
            }
        }
    }

    /// Non-backup attempts of one task are retries, serialized by the
    /// recorded retry chains; each is a write to the task's attempt slot.
    /// Backups race their primary by design (first completion wins) and
    /// are exempt.
    fn attempt_accesses(&mut self) {
        let mut by_task: BTreeMap<(usize, TaskKind, usize, usize), Vec<usize>> = BTreeMap::new();
        for (ei, e) in self.trace.entries.iter().enumerate() {
            if !e.backup {
                by_task
                    .entry((e.job, e.kind, e.round, e.task))
                    .or_default()
                    .push(ei);
            }
        }
        for ((job, kind, round, task), mut eis) in by_task {
            eis.sort_by_key(|&ei| self.trace.entries[ei].attempt);
            let rq = Self::jrq(job, round);
            for ei in eis {
                let (first, last) = self.entry_envelope(ei);
                self.accesses.push(Access {
                    resource: format!("task:{}/{rq}{task}", kind.label()),
                    res_kind: "task",
                    write: true,
                    first,
                    last,
                    who: self.who(ei),
                });
            }
        }
    }

    /// The attempt of record (the one `Lanes` entry) per `(job, round,
    /// task)`; duplicates and missing attempts of record are structural
    /// findings.
    fn of_record_map(&mut self) -> OfRecord {
        let mut of_record: OfRecord = BTreeMap::new();
        let mut seen: BTreeMap<(usize, TaskKind, usize, usize), bool> = BTreeMap::new();
        for (ei, e) in self.trace.entries.iter().enumerate() {
            seen.entry((e.job, e.kind, e.round, e.task))
                .or_insert(false);
            if matches!(e.detail, EntryDetail::Lanes(_)) {
                if let Some(&prev) = of_record.get(&(e.job, e.kind, e.round, e.task)) {
                    self.diagnostics.push(RaceDiagnostic {
                        kind: RaceKind::Structure,
                        resource: format!(
                            "task:{}/{}{}",
                            e.kind.label(),
                            Self::jrq(e.job, e.round),
                            e.task
                        ),
                        message: format!(
                            "two attempts of record: {} and {}",
                            self.who(prev),
                            self.who(ei)
                        ),
                    });
                } else {
                    of_record.insert((e.job, e.kind, e.round, e.task), ei);
                }
                seen.insert((e.job, e.kind, e.round, e.task), true);
            }
        }
        for ((job, kind, round, task), has) in seen {
            if !has {
                self.diagnostics.push(RaceDiagnostic {
                    kind: RaceKind::Structure,
                    resource: format!("task:{}/{}{task}", kind.label(), Self::jrq(job, round)),
                    message: "no attempt of record (every attempt is flat)".into(),
                });
            }
        }
        of_record
    }

    /// Map attempts of record: spill-file accesses + hand-off structure on
    /// the support lane, merge reads, and the map-output write envelope
    /// (from a lone spill's write, since that spill *is* the output).
    fn map_entry_accesses(&mut self, of_record: &OfRecord) {
        for (&(job, kind, round, task), &ei) in of_record {
            if kind != TaskKind::Map {
                continue;
            }
            let rq = Self::jrq(job, round);
            let who = self.who(ei);
            let map_lane = self.lane_of(ei, LaneRole::Map);
            let support_lane = self.lane_of(ei, LaneRole::Support);
            // The map lane's merge span reads every spill file.
            let merge = map_lane.and_then(|li| {
                let t = *self.tix.get(&(ei, li))?;
                let idx = self
                    .lane_spans(ei, li)
                    .iter()
                    .position(|s| s.kind == SpanKind::Op(Op::Merge))?;
                Some((t, idx))
            });
            let mut spill_writes: Vec<EvRef> = Vec::new();
            if let (Some(sli), Some(st)) = (
                support_lane,
                support_lane.and_then(|li| self.tix.get(&(ei, li)).copied()),
            ) {
                let spans = self.lane_spans(ei, sli);
                let mut spill = 0usize;
                for (i, s) in spans.iter().enumerate() {
                    // Hand-off structure: a support burst must begin right
                    // after a spill-wait (the producer's hand-off is the
                    // only synchronization the support thread has).
                    let is_op = matches!(s.kind, SpanKind::Op(_));
                    let starts_burst =
                        is_op && (i == 0 || !matches!(spans[i - 1].kind, SpanKind::Op(_)));
                    if starts_burst
                        && !matches!(
                            i.checked_sub(1).map(|p| spans[p].kind),
                            Some(SpanKind::Idle(IdleKind::SpillWait))
                        )
                    {
                        self.diagnostics.push(RaceDiagnostic {
                            kind: RaceKind::Structure,
                            resource: format!("handoff:{rq}{task}"),
                            message: format!(
                                "{who}: support burst at {} starts without a \
                                 preceding spill-wait (no hand-off from the producer)",
                                s.start
                            ),
                        });
                    }
                    if s.kind == SpanKind::Op(Op::SpillWrite) {
                        let resource = format!("spill:{rq}{task}/{spill}");
                        spill += 1;
                        spill_writes.push((st, i));
                        self.accesses.push(Access {
                            resource: resource.clone(),
                            res_kind: "spill",
                            write: true,
                            first: (st, i),
                            last: (st, i),
                            who: format!("{who} support"),
                        });
                        if let Some(m) = merge {
                            self.accesses.push(Access {
                                resource,
                                res_kind: "spill",
                                write: false,
                                first: m,
                                last: m,
                                who: format!("{who} merge"),
                            });
                        }
                    }
                }
            }
            // The map output is written from a lone spill's write (the
            // task adopts that spill as its output, whether or not the
            // adoption lasted long enough to leave a merge span), else
            // during the merge (fallback: the map lane's whole tail), and
            // published at the map lane's last event.
            if let Some(li) = map_lane {
                if let Some(&t) = self.tix.get(&(ei, li)) {
                    let last = self.threads[t].events.len() - 1;
                    let first = match spill_writes[..] {
                        [lone] => lone,
                        _ => merge.unwrap_or((t, last)),
                    };
                    self.accesses.push(Access {
                        resource: format!("mapout:{rq}{task}"),
                        res_kind: "mapout",
                        write: true,
                        first,
                        last: (t, last),
                        who: who.clone(),
                    });
                }
            }
        }
    }

    /// Reduce attempts of record: flow-group reads of map outputs, run
    /// writes, the merge's read of every fetched run, and the output
    /// partition write.
    fn reduce_entry_accesses(&mut self, of_record: &OfRecord) {
        for (&(job, kind, round, partition), &ei) in of_record {
            if kind != TaskKind::Reduce {
                continue;
            }
            let rq = Self::jrq(job, round);
            let who = self.who(ei);
            let trace = self.trace;
            let e = &trace.entries[ei];
            // First post-shuffle op span on the reduce lane: the merge that
            // consumes every fetched run.
            let reduce_first_op = self.lane_of(ei, LaneRole::Reduce).and_then(|li| {
                let t = *self.tix.get(&(ei, li))?;
                let idx = self
                    .lane_spans(ei, li)
                    .iter()
                    .position(|s| matches!(s.kind, SpanKind::Op(_)))?;
                Some((t, idx))
            });
            let lanes_n = match &e.detail {
                EntryDetail::Lanes(lanes) => lanes.len(),
                EntryDetail::Flat(_) => 0,
            };
            for li in 0..lanes_n {
                let Some(&t) = self.tix.get(&(ei, li)) else {
                    continue;
                };
                let role = match &e.detail {
                    EntryDetail::Lanes(lanes) => lanes[li].role,
                    EntryDetail::Flat(_) => continue,
                };
                if !matches!(role, LaneRole::Fetcher(_)) {
                    continue;
                }
                let spans = self.lane_spans(ei, li);
                // Flow groups: spans tagged with a source map task.
                let mut groups: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
                for (i, s) in spans.iter().enumerate() {
                    if let Some(src) = s.flow {
                        let g = groups.entry(src).or_insert((i, i));
                        g.0 = g.0.min(i);
                        g.1 = g.1.max(i);
                    }
                    if s.kind == SpanKind::Idle(IdleKind::NetTransfer) {
                        self.accesses.push(Access {
                            resource: format!("nic:n{}", e.node),
                            res_kind: "nic-shared",
                            write: false,
                            first: (t, i),
                            last: (t, i),
                            who: who.clone(),
                        });
                    }
                }
                for (src, (gf, gl)) in groups {
                    let flow_who = format!("{who} fetch of map {src}");
                    // The flow reads the published map output — shuffles
                    // stay within the entry's own job and round.
                    match of_record.get(&(job, TaskKind::Map, round, src as usize)) {
                        Some(_) => {
                            self.accesses.push(Access {
                                resource: format!("mapout:{rq}{src}"),
                                res_kind: "mapout",
                                write: false,
                                first: (t, gf),
                                last: (t, gl),
                                who: flow_who.clone(),
                            });
                        }
                        None => self.diagnostics.push(RaceDiagnostic {
                            kind: RaceKind::Structure,
                            resource: format!("mapout:{rq}{src}"),
                            message: format!("{flow_who}: no producing map task in the trace"),
                        }),
                    }
                    // ...and writes the fetched run the merge will read.
                    self.accesses.push(Access {
                        resource: format!("runs:{rq}{partition}/{src}"),
                        res_kind: "runs",
                        write: true,
                        first: (t, gf),
                        last: (t, gl),
                        who: flow_who,
                    });
                    // The merge reads the run; the recorded shuffle barrier
                    // (from the group's *last* event — transfer or
                    // decompress completion, not the fetch op that merely
                    // issued the request) is what orders it after the write.
                    if let Some(rf) = reduce_first_op {
                        self.accesses.push(Access {
                            resource: format!("runs:{rq}{partition}/{src}"),
                            res_kind: "runs",
                            write: false,
                            first: rf,
                            last: rf,
                            who: format!("{who} merge"),
                        });
                    }
                }
            }
            // The reduce output partition is written once, by the attempt
            // of record's output-write span.
            if let Some(li) = self.lane_of(ei, LaneRole::Reduce) {
                if let Some(&t) = self.tix.get(&(ei, li)) {
                    if let Some(ow) = self
                        .lane_spans(ei, li)
                        .iter()
                        .position(|s| s.kind == SpanKind::Op(Op::OutputWrite))
                    {
                        self.accesses.push(Access {
                            resource: format!("out:{rq}{partition}"),
                            res_kind: "out",
                            write: true,
                            first: (t, ow),
                            last: (t, ow),
                            who,
                        });
                    }
                }
            }
        }
    }

    /// Compute vector clocks over the edge set and report every
    /// conflicting access pair with no happens-before path.
    fn check_races_on_accesses(mut self) -> RaceReport {
        let n = self.threads.len();
        let events: usize = self.threads.iter().map(|t| t.events.len()).sum();

        // Process events in virtual-time order; every edge source is
        // processed before its destination because edges are
        // timing-consistent and spans are non-empty (a zero-length source
        // tied with its destination sorts first on the end key).
        let mut seq: Vec<(VNanos, VNanos, usize, usize)> = Vec::with_capacity(events);
        for (t, th) in self.threads.iter().enumerate() {
            for (i, &(s, e)) in th.events.iter().enumerate() {
                seq.push((s, e, t, i));
            }
        }
        seq.sort_unstable();

        let mut incoming: BTreeMap<EvRef, Vec<EvRef>> = BTreeMap::new();
        let mut is_src: std::collections::BTreeSet<EvRef> = std::collections::BTreeSet::new();
        for &(src, dst) in &self.edges {
            incoming.entry(dst).or_default().push(src);
            is_src.insert(src);
        }

        // cur[t] = the clock thread t carries right now; joins[t] = the
        // history of (event index, clock) at each point new knowledge
        // arrived, for happens-before queries.
        let mut cur: Vec<Vec<u32>> = vec![vec![0; n]; n];
        let mut joins: Vec<Vec<(usize, Vec<u32>)>> = vec![Vec::new(); n];
        let mut snap: BTreeMap<EvRef, Vec<u32>> = BTreeMap::new();
        for &(_, _, t, i) in &seq {
            let mut changed = false;
            if let Some(srcs) = incoming.get(&(t, i)) {
                for src in srcs {
                    if let Some(sc) = snap.get(src) {
                        for (a, b) in cur[t].iter_mut().zip(sc) {
                            if *b > *a {
                                *a = *b;
                                changed = true;
                            }
                        }
                    }
                }
            }
            if changed {
                joins[t].push((i, cur[t].clone()));
            }
            cur[t][t] = (i + 1) as u32;
            if is_src.contains(&(t, i)) {
                snap.insert((t, i), cur[t].clone());
            }
        }

        // hb(a, b): does event a happen before (or program-order precede)
        // event b?
        let hb = |a: EvRef, b: EvRef| -> bool {
            if a.0 == b.0 {
                return a.1 <= b.1;
            }
            let js = &joins[b.0];
            let at = js.partition_point(|(i, _)| *i <= b.1);
            at > 0 && js[at - 1].1[a.0] as usize > a.1
        };

        let mut access_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for a in &self.accesses {
            *access_counts.entry(a.res_kind).or_default() += 1;
        }

        let mut by_resource: BTreeMap<&str, Vec<&Access>> = BTreeMap::new();
        for a in &self.accesses {
            if a.res_kind == "nic-shared" {
                continue; // tallied, but shared by design
            }
            by_resource.entry(a.resource.as_str()).or_default().push(a);
        }
        let mut races = Vec::new();
        for (resource, accs) in by_resource {
            for (i, a) in accs.iter().enumerate() {
                for b in &accs[i + 1..] {
                    if !(a.write || b.write) {
                        continue;
                    }
                    if hb(a.last, b.first) || hb(b.last, a.first) {
                        continue;
                    }
                    let (a_start, _) = self.ev_time(a.first);
                    let (_, a_end) = self.ev_time(a.last);
                    let (b_start, _) = self.ev_time(b.first);
                    let (_, b_end) = self.ev_time(b.last);
                    races.push(RaceDiagnostic {
                        kind: RaceKind::Race,
                        resource: resource.to_string(),
                        message: format!(
                            "{} [{a_start}..{a_end}] and {} [{b_start}..{b_end}] \
                             are unordered",
                            a.who, b.who
                        ),
                    });
                }
            }
        }
        races.append(&mut self.diagnostics);
        RaceReport {
            threads: n,
            events,
            edges: self.edges.len(),
            accesses: access_counts,
            diagnostics: races,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        build_reduce_trace, AttemptKind, FlowTrace, JobTrace, MapTraceRecorder, TaskLane,
        TraceEdge, TraceEntry,
    };
    use super::*;
    use crate::cluster::{assemble_trace_edges, intra_entry_edges, EntryMeta, RegistryAssignment};
    use crate::event::{ClusterShape, Scheduler};

    /// Record `trace`'s edges the way the driver does: replay its attempts
    /// through a fresh [`Scheduler`] (each task's attempts in entry order,
    /// the reduce phase opening at the first reduce start), then assemble
    /// from the scheduler's log and each entry's own lane structure. The
    /// replay must land every attempt where the fixture put it.
    fn record_edges(trace: &mut JobTrace, registry: Option<RegistryAssignment>) {
        let mut sched = Scheduler::new(
            ClusterShape {
                nodes: trace.nodes,
                map_slots: trace.map_slots,
                reduce_slots: trace.reduce_slots,
                fetchers: trace.fetchers,
            },
            Vec::new(),
        );
        type Placed = (usize, VNanos, VNanos);
        let mut tasks: BTreeMap<(TaskKind, usize), (usize, Vec<Placed>)> = BTreeMap::new();
        for e in &trace.entries {
            let task = tasks
                .entry((e.kind, e.task))
                .or_insert((e.node, Vec::new()));
            task.1.push((e.slot, e.start, e.end));
        }
        for phase in [TaskKind::Map, TaskKind::Reduce] {
            if phase == TaskKind::Reduce {
                let reduces = trace.entries.iter().filter(|e| e.kind == phase);
                sched.begin_reduce_phase(reduces.map(|e| e.start).min().unwrap_or(0));
            }
            for (&(_, task), (node, placed)) in tasks.iter().filter(|(k, _)| k.0 == phase) {
                let durs: Vec<VNanos> = placed.iter().map(|&(_, s, e)| e - s).collect();
                let got = sched.place_attempts(phase, task, *node, &durs, 0);
                let got: Vec<Placed> = got.iter().map(|p| (p.slot, p.start, p.end)).collect();
                assert_eq!(&got, placed, "{} {task} replays elsewhere", phase.label());
            }
        }
        let metas: Vec<EntryMeta> = trace.entries.iter().map(EntryMeta::of).collect();
        let (mut spill, mut barrier) = (Vec::new(), Vec::new());
        for (i, e) in trace.entries.iter().enumerate() {
            let (s, b) = intra_entry_edges(i, e);
            spill.extend(s);
            barrier.extend(b);
        }
        trace.edges = assemble_trace_edges(&metas, &sched, &[registry], &[0], &[0], spill, barrier);
    }

    /// A small but complete one-map, one-reduce job trace whose cross-lane
    /// edges are all recorded and timing-consistent.
    fn micro_trace() -> JobTrace {
        micro_trace_merging(7, 1) // map ends at 62
    }

    /// [`micro_trace`] with the map task's one spill written at [31, 34]
    /// and a merge of `merge` + `combine` ns after its pipeline ends at 54.
    fn micro_trace_merging(merge: u64, combine: u64) -> JobTrace {
        let mut rec = MapTraceRecorder::new();
        rec.on_record(0, 5, 10, 3, 2);
        rec.on_record(4, 5, 10, 3, 2);
        rec.on_spill(24, 6, 1, 3);
        rec.on_barrier(0);
        let map = rec.finish(54, merge, combine);
        let map_end = 54 + merge + combine;
        let flows = vec![FlowTrace {
            map_task: 0,
            src_node: 1,
            remote: true,
            io_ns: 10,
            backoff_ns: 0,
            slot: 0,
            start: 0,
            pre_end: 10,
            latency_end: 20,
            transfer_end: 50,
            finish: 55,
        }];
        let reduce = build_reduce_trace(&flows, 0, 55, 4, 1, 6, 2); // ends at 68
        let mut trace = JobTrace {
            nodes: 2,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
            wall: 200,
            edges: Vec::new(),
            entries: vec![
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 0,
                    round: 0,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 0,
                    slot: 0,
                    factor: 1,
                    start: 0,
                    end: map_end,
                    detail: EntryDetail::Lanes(map.into_absolute(0, 1)),
                },
                TraceEntry {
                    kind: TaskKind::Reduce,
                    job: 0,
                    round: 0,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 1,
                    slot: 0,
                    factor: 1,
                    start: 100,
                    end: 168,
                    detail: EntryDetail::Lanes(reduce.into_absolute(100, 1)),
                },
            ],
        };
        record_edges(&mut trace, None);
        trace
    }

    fn lanes_mut(e: &mut TraceEntry) -> &mut Vec<TaskLane> {
        match &mut e.detail {
            EntryDetail::Lanes(l) => l,
            EntryDetail::Flat(_) => panic!("flat entry"),
        }
    }

    #[test]
    fn clean_micro_trace_has_no_findings() {
        let trace = micro_trace();
        trace.check().unwrap();
        let report = check_races(&trace);
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
        assert!(report.edges > 0);
        assert!(report.accesses["mapout"] >= 2); // one write + one read
        assert!(report.accesses["spill"] >= 2);
        assert!(report.accesses["runs"] >= 2);
    }

    #[test]
    fn entries_without_edges_are_one_structure_finding() {
        let mut trace = micro_trace();
        trace.edges.clear();
        let report = check_races(&trace);
        // Not a silent fallback to orderings re-derived from timing, and
        // not a flood of races either: the one cause, named.
        assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
        assert_eq!(report.diagnostics[0].kind, RaceKind::Structure);
        assert_eq!(report.diagnostics[0].resource, "edges");
        assert_eq!(report.edges, 0);
        // A trace with nothing to order has nothing to record.
        assert!(check_races(&JobTrace::default()).is_clean());
    }

    /// Shift the micro trace's reduce attempt to start at 10, before its
    /// map attempt sealed the output.
    fn fetch_early(trace: &mut JobTrace) {
        let e = &mut trace.entries[1];
        let shift = 90u64;
        e.start -= shift;
        e.end -= shift;
        for lane in lanes_mut(e) {
            for s in &mut lane.spans {
                s.start -= shift;
                s.end -= shift;
            }
        }
    }

    #[test]
    fn adopted_lone_spill_is_the_map_output() {
        // The map task adopted its one spill in 0 ns: no merge span, so
        // no spill→merge edge either. The output is written from the
        // spill's write [31, 34] and published at the map lane's end, 54.
        let mut trace = micro_trace_merging(0, 0);
        trace.check().unwrap();
        let report = check_races(&trace);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.accesses["mapout"] >= 2);
        fetch_early(&mut trace);
        let report = check_races(&trace);
        assert!(
            report.diagnostics.iter().any(|d| d.kind == RaceKind::Race
                && d.resource == "mapout:0"
                && d.message.contains("[31..54]")),
            "expected a mapout race over the spill-to-publish write:\n{}",
            report.render()
        );
    }

    #[test]
    fn fetch_before_map_output_is_a_race() {
        let mut trace = micro_trace();
        // Shift the whole reduce attempt to start before the map sealed
        // its output: tiling still holds, but the fetch now overlaps the
        // producing map attempt — the recorded MapOut edge is
        // timing-inconsistent, so it is dropped and the conflict surfaces.
        fetch_early(&mut trace);
        trace.check().unwrap(); // per-lane checks cannot see it
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource == "mapout:0"),
            "expected a mapout race:\n{}",
            report.render()
        );
    }

    /// Two copies of the micro trace interleaved as serve jobs 1 and 2:
    /// identical task ids on the same physical slots, disjoint in time.
    fn two_job_trace(shift: u64) -> JobTrace {
        let base = micro_trace();
        let n = base.entries.len();
        let mut trace = base.clone();
        for e in &mut trace.entries {
            e.job = 1;
        }
        for mut e in base.entries {
            e.job = 2;
            e.start += shift;
            e.end += shift;
            for lane in lanes_mut(&mut e) {
                for s in &mut lane.spans {
                    s.start += shift;
                    s.end += shift;
                }
            }
            trace.entries.push(e);
        }
        // Job 2's own edges are job 1's re-pointed at its entries, and each
        // job-2 attempt follows its job-1 twin on the slot they share.
        for e in base.edges {
            let moved = |end: EdgeEnd| EdgeEnd {
                entry: end.entry + n,
                ..end
            };
            trace.edges.push(TraceEdge {
                kind: e.kind,
                src: moved(e.src),
                dst: moved(e.dst),
            });
        }
        for i in 0..n {
            trace.edges.push(TraceEdge {
                kind: EdgeKind::Slot,
                src: EdgeEnd::entry(i),
                dst: EdgeEnd::entry(i + n),
            });
        }
        trace.wall = trace.entries.iter().map(|e| e.end).max().unwrap_or(0);
        trace
    }

    #[test]
    fn interleaved_jobs_with_identical_task_ids_do_not_alias() {
        let trace = two_job_trace(300);
        trace.check().unwrap();
        // Without the job id in the of-record key, job 2's "map 0" would
        // collide with job 1's as a duplicate attempt of record.
        let report = check_races(&trace);
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
    }

    #[test]
    fn races_inside_a_job_carry_its_qualifier() {
        let mut trace = two_job_trace(300);
        // Pull job 2's reduce attempt back before job 2's map sealed its
        // output (mirrors `fetch_before_map_output_is_a_race`).
        let e = trace
            .entries
            .iter_mut()
            .find(|e| e.job == 2 && e.kind == TaskKind::Reduce)
            .unwrap();
        let shift = 90u64;
        e.start -= shift;
        e.end -= shift;
        for lane in lanes_mut(e) {
            for s in &mut lane.spans {
                s.start -= shift;
                s.end -= shift;
            }
        }
        trace.check().unwrap();
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource == "mapout:j2:0"),
            "expected a job-qualified mapout race:\n{}",
            report.render()
        );
        // Job 1's identically-numbered task is untouched: no j1 findings.
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.resource.contains("j1:")),
            "job 1 must stay clean:\n{}",
            report.render()
        );
    }

    #[test]
    fn overlapping_slot_attempts_are_a_race() {
        let mut trace = micro_trace();
        // A duplicate map attempt occupying the same slot at the same time.
        let mut dup = trace.entries[0].clone();
        dup.attempt = 1;
        trace.entries.push(dup);
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource.starts_with("slot:")),
            "expected a slot race:\n{}",
            report.render()
        );
    }

    #[test]
    fn merge_before_spill_write_is_a_race() {
        let mut trace = micro_trace();
        // Pull the map lane's merge (and everything after the barrier)
        // before the support lane's spill write by rebuilding the map lane
        // shifted left; keep entry boundaries by padding at the end.
        let e = &mut trace.entries[0];
        let lanes = lanes_mut(e);
        let map_lane = lanes
            .iter_mut()
            .find(|l| matches!(l.role, LaneRole::Map))
            .unwrap();
        // The merge span currently sits at [54, 61]; the spill write ends
        // at 34. Move the merge to [20, 27]: now it reads a spill that has
        // not been written.
        for s in &mut map_lane.spans {
            if s.kind == SpanKind::Op(Op::Merge) {
                s.start = 20;
                s.end = 27;
            }
        }
        map_lane.spans.sort_by_key(|s| (s.start, s.end));
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource.starts_with("spill:")),
            "expected a spill race:\n{}",
            report.render()
        );
    }

    #[test]
    fn support_burst_without_handoff_is_structural() {
        let mut trace = micro_trace();
        let e = &mut trace.entries[0];
        let lanes = lanes_mut(e);
        let support = lanes
            .iter_mut()
            .find(|l| matches!(l.role, LaneRole::Support))
            .unwrap();
        // Swap the hand-off order: rotate the burst in front of its
        // spill-wait while keeping the lane tiled.
        let burst: Vec<_> = support
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Op(_)))
            .cloned()
            .collect();
        assert!(!burst.is_empty());
        let mut rebuilt = Vec::new();
        let mut cursor = 0;
        for b in &burst {
            let d = b.end - b.start;
            let mut s = *b;
            s.start = cursor;
            s.end = cursor + d;
            rebuilt.push(s);
            cursor += d;
        }
        for s in &support.spans {
            if !matches!(s.kind, SpanKind::Op(_)) {
                let d = s.end - s.start;
                let mut moved = *s;
                moved.start = cursor;
                moved.end = cursor + d;
                rebuilt.push(moved);
                cursor += d;
            }
        }
        assert_eq!(cursor, 62);
        support.spans = rebuilt;
        trace.check().unwrap();
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Structure && d.resource.starts_with("handoff:")),
            "expected a hand-off finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn dropped_shuffle_barrier_is_a_race() {
        let mut trace = micro_trace();
        // Move the reduce lane's post-shuffle ops before the flow finishes
        // (merge starts at 10 while the fetch is still in flight), padding
        // the tail so the lane still tiles.
        let e = &mut trace.entries[1];
        let (e_start, e_end) = (e.start, e.end);
        let lanes = lanes_mut(e);
        let rl = lanes
            .iter_mut()
            .find(|l| matches!(l.role, LaneRole::Reduce))
            .unwrap();
        let ops: Vec<_> = rl
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Op(_)))
            .cloned()
            .collect();
        let mut rebuilt = Vec::new();
        let mut cursor = e_start;
        for o in &ops {
            let d = o.end - o.start;
            let mut s = *o;
            s.start = cursor;
            s.end = cursor + d;
            rebuilt.push(s);
            cursor += d;
        }
        rebuilt.push(Span {
            start: cursor,
            end: e_end,
            kind: SpanKind::Idle(IdleKind::Done),
            flow: None,
        });
        rl.spans = rebuilt;
        trace.check().unwrap();
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource.starts_with("runs:")),
            "expected a runs race:\n{}",
            report.render()
        );
    }

    #[test]
    fn edge_with_dangling_endpoint_is_dropped() {
        let mut trace = micro_trace();
        // Point a barrier edge at a span past the end of its lane: the
        // endpoint no longer resolves, so the edge is dropped and the runs
        // conflict it ordered becomes a race.
        for e in &mut trace.edges {
            if e.kind == EdgeKind::Barrier {
                if let Some((_, span)) = &mut e.dst.at {
                    *span += 1000;
                }
            }
        }
        let report = check_races(&trace);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == RaceKind::Race && d.resource.starts_with("runs:")),
            "expected a runs race:\n{}",
            report.render()
        );
    }

    /// Two co-homed map tasks plus the reduce consumer, with a registry
    /// hand-off recorded from the designated publisher (lowest task id on
    /// the node) to its waiter. Publisher and waiter overlap in virtual
    /// time — that is the point of the real-time protocol.
    fn registry_trace() -> JobTrace {
        let mut trace = micro_trace();
        let mut second = trace.entries[0].clone();
        second.task = 1;
        second.slot = 1;
        trace.map_slots = 2;
        trace.entries.insert(1, second);
        // Node 0's publisher is map 0; both map tasks are homed there.
        record_edges(&mut trace, Some((vec![(0, 0)], vec![0, 0])));
        trace
    }

    #[test]
    fn registry_handoff_is_protocol_not_a_race() {
        let trace = registry_trace();
        let report = check_races(&trace);
        assert!(
            report.is_clean(),
            "overlapping publisher/waiter must not race:\n{}",
            report.render()
        );
    }

    #[test]
    fn registry_publisher_must_carry_lowest_task_id() {
        let mut trace = registry_trace();
        for e in &mut trace.edges {
            if e.kind == EdgeKind::Registry {
                std::mem::swap(&mut e.src, &mut e.dst);
            }
        }
        let report = check_races(&trace);
        assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Structure
                    && d.resource.starts_with("registry:")
                    && d.message.contains("lowest task id")
            }),
            "expected a publisher-designation finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn registry_waiter_without_handoff_is_structural() {
        let mut trace = registry_trace();
        // A third co-homed map task with no hand-off edge from the node's
        // publisher: the wave protocol covers every same-node map task.
        let mut third = trace.entries[0].clone();
        third.task = 2;
        third.slot = 2;
        trace.map_slots = 3;
        trace.entries.insert(2, third);
        // The assignment the driver recorded knows only maps 0 and 1.
        record_edges(&mut trace, Some((vec![(0, 0)], vec![0, 0])));
        let report = check_races(&trace);
        assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Structure
                    && d.resource.starts_with("registry:")
                    && d.message.contains("no hand-off edge")
            }),
            "expected a completeness finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn registry_publisher_cannot_also_wait() {
        let mut trace = registry_trace();
        let mut third = trace.entries[0].clone();
        third.task = 2;
        third.slot = 2;
        trace.map_slots = 3;
        trace.entries.insert(2, third);
        record_edges(&mut trace, Some((vec![(0, 0)], vec![0, 0])));
        // Chain 0 -> 1 -> 2: map 1 is both a waiter and a publisher.
        trace.edges.push(TraceEdge {
            kind: EdgeKind::Registry,
            src: EdgeEnd::entry(1),
            dst: EdgeEnd::entry(2),
        });
        let report = check_races(&trace);
        assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Structure
                    && d.resource.starts_with("registry:")
                    && d.message.contains("both a publisher and a waiter")
            }),
            "expected a publisher-is-waiter finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn registry_edge_must_join_map_entries() {
        let mut trace = registry_trace();
        let reduce_ei = trace
            .entries
            .iter()
            .position(|e| e.kind == TaskKind::Reduce)
            .unwrap();
        trace.edges.push(TraceEdge {
            kind: EdgeKind::Registry,
            src: EdgeEnd::entry(0),
            dst: EdgeEnd::entry(reduce_ei),
        });
        let report = check_races(&trace);
        assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Structure && d.message.contains("not a map entry")
            }),
            "expected an endpoint finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn failed_then_retried_attempts_are_ordered() {
        let mut trace = micro_trace();
        // A failed first attempt on the same slot before the retry.
        let retried = trace.entries[0].clone();
        trace.entries[0] = TraceEntry {
            attempt: 0,
            detail: EntryDetail::Flat(AttemptKind::Failed),
            start: 0,
            end: 0,
            ..retried.clone()
        };
        let mut retry = retried;
        retry.attempt = 1;
        trace.entries.insert(1, retry);
        record_edges(&mut trace, None);
        assert!(trace.edges.iter().any(|e| e.kind == EdgeKind::Retry));
        let report = check_races(&trace);
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
    }
}
