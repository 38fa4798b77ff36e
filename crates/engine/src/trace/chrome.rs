//! The Chrome trace event format, both directions, behind one module.
//!
//! **Out**: [`JobTrace::to_chrome_json`] (batch) and
//! [`TraceStreamWriter`](super::stream::TraceStreamWriter) (incremental)
//! route every byte through the same four emitters below, so a streamed
//! file is byte-identical to the batch export by construction, not by
//! parallel maintenance. `pid` = node, `tid` = slot thread lane,
//! timestamps in virtual microseconds; cluster layout and the recorded
//! happens-before edges ride along in a `textmr` metadata object Perfetto
//! ignores.
//!
//! **In**: [`validate_chrome_trace`] checks a document against the event
//! schema, and [`JobTrace::from_chrome_json`] inverts the export, which is
//! how `textmr-lint --trace` audits trace files offline. Both read files
//! from outside the program: they parse with [`crate::json`] (depth-capped,
//! linear) and convert every number with checked arithmetic, so malformed
//! input is an `Err`, never a panic.

use super::{
    AttemptKind, EdgeEnd, EdgeKind, EntryDetail, JobTrace, LaneRole, Span, SpanKind, TaskKind,
    TaskLane, TraceEdge, TraceEntry,
};
use crate::json::{self, Json};
use crate::metrics::VNanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;

impl JobTrace {
    /// Slot-lane geometry for Chrome-trace thread-id computation.
    fn layout(&self) -> LaneLayout {
        LaneLayout {
            map_slots: self.map_slots,
            reduce_slots: self.reduce_slots,
            fetchers: self.fetchers,
        }
    }

    /// Export as Chrome trace event format JSON (open in Perfetto or
    /// `chrome://tracing`): `pid` = node, `tid` = slot thread lane,
    /// timestamps and durations in virtual microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        write_trace_header(
            &mut out,
            self.nodes,
            self.map_slots,
            self.reduce_slots,
            self.fetchers,
            self.wall,
            &self.edges,
        );
        let layout = self.layout();
        let mut threads: BTreeMap<(usize, usize), String> = BTreeMap::new();
        for e in &self.entries {
            note_entry_threads(&layout, e, &mut threads);
        }
        let mut first = true;
        write_meta_events(&mut out, self.nodes, &threads, &mut first);
        // Span events. The `round` and `job` args are emitted only when
        // non-zero, so single-round single-job exports omit them.
        for e in &self.entries {
            write_entry_events(&mut out, &layout, e, &mut first);
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Slot-lane geometry needed to compute Chrome-trace thread ids without a
/// full [`JobTrace`] in hand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneLayout {
    /// Map slots per node.
    pub map_slots: usize,
    /// Reduce slots per node.
    pub reduce_slots: usize,
    /// Shuffle fetchers per reduce task (tid-layout width).
    pub fetchers: usize,
}

impl LaneLayout {
    /// Width of one round's tid block: map slots first (two lanes each),
    /// then reduce slots (1 + `fetchers` lanes each).
    fn lane_block(&self) -> usize {
        self.map_slots * 2 + self.reduce_slots * (1 + self.fetchers)
    }

    /// Stable Chrome-trace thread id for a lane. Each DAG round gets its
    /// own block of lanes above the previous round's, so a whole DAG
    /// renders as one Perfetto timeline with per-round lane groups.
    fn tid(&self, round: usize, kind: TaskKind, slot: usize, role: LaneRole) -> usize {
        let base = round * self.lane_block();
        base + match kind {
            TaskKind::Map => slot * 2 + role.sub_index(),
            TaskKind::Reduce => self.map_slots * 2 + slot * (1 + self.fetchers) + role.sub_index(),
        }
    }
}

/// Write everything up to and including the opening `"traceEvents":[`.
///
/// Cluster layout rides along in a `textmr` metadata object so the trace
/// is self-describing: [`JobTrace::from_chrome_json`] needs it to invert
/// the tid layout. Perfetto ignores unknown keys. Recorded happens-before
/// edges travel in the same object as compact arrays `[kind, srcEntry,
/// srcLane, srcSpan, dstEntry, dstLane, dstSpan]` (`-1` marks an
/// entry-level endpoint); the key is omitted when there are none (a trace
/// without entries).
pub(crate) fn write_trace_header(
    out: &mut String,
    nodes: usize,
    map_slots: usize,
    reduce_slots: usize,
    fetchers: usize,
    wall: VNanos,
    edges: &[TraceEdge],
) {
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"textmr\":{{\"nodes\":{nodes},\
         \"mapSlots\":{map_slots},\"reduceSlots\":{reduce_slots},\
         \"fetchers\":{fetchers},\"wall\":{wall}"
    );
    if !edges.is_empty() {
        out.push_str(",\"edges\":[");
        for (i, e) in edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (sl, ss) = e.src.at.map_or((-1, -1), |(l, s)| (l as i64, s as i64));
            let (dl, ds) = e.dst.at.map_or((-1, -1), |(l, s)| (l as i64, s as i64));
            let _ = write!(
                out,
                "[\"{}\",{},{sl},{ss},{},{dl},{ds}]",
                e.kind.name(),
                e.src.entry,
                e.dst.entry
            );
        }
        out.push(']');
    }
    out.push_str("},\"traceEvents\":[");
}

/// Record the thread-name labels one entry's lanes will render under.
/// Labels are keyed `(node, tid)`; first writer wins, so insertion order
/// (entry order) never changes an existing label.
pub(crate) fn note_entry_threads(
    layout: &LaneLayout,
    e: &TraceEntry,
    threads: &mut BTreeMap<(usize, usize), String>,
) {
    let roles: Vec<LaneRole> = match &e.detail {
        EntryDetail::Lanes(lanes) => lanes.iter().map(|l| l.role).collect(),
        EntryDetail::Flat(_) => vec![match e.kind {
            TaskKind::Map => LaneRole::Map,
            TaskKind::Reduce => LaneRole::Reduce,
        }],
    };
    for role in roles {
        let tid = layout.tid(e.round, e.kind, e.slot, role);
        threads.entry((e.node, tid)).or_insert_with(|| {
            format!(
                "{}{} slot {} \u{00b7} {}",
                if e.round > 0 {
                    format!("r{} ", e.round)
                } else {
                    String::new()
                },
                e.kind.label(),
                e.slot,
                role.label()
            )
        });
    }
}

/// Comma-separate `event` into `out`, tracking whether any event has been
/// written yet via `first`.
fn push_event(out: &mut String, first: &mut bool, event: String) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&event);
}

/// Write the process and thread metadata events: one "process" per node,
/// then a name and sort index for every `(node, tid)` lane in `threads`.
pub(crate) fn write_meta_events(
    out: &mut String,
    nodes: usize,
    threads: &BTreeMap<(usize, usize), String>,
    first: &mut bool,
) {
    for node in 0..nodes {
        push_event(
            out,
            first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ),
        );
        push_event(
            out,
            first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_sort_index\",\
                 \"args\":{{\"sort_index\":{node}}}}}"
            ),
        );
    }
    for ((node, tid), label) in threads {
        push_event(
            out,
            first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(label)
            ),
        );
        push_event(
            out,
            first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\
                 \"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ),
        );
    }
}

/// Write one entry's span events: every lane span for a detailed entry, or
/// the single flat attempt span for a lanes-less one.
pub(crate) fn write_entry_events(
    out: &mut String,
    layout: &LaneLayout,
    e: &TraceEntry,
    first: &mut bool,
) {
    let task = format!("{} {}", e.kind.label(), e.task);
    let mut tags = String::new();
    if e.job > 0 {
        let _ = write!(tags, ",\"job\":{}", e.job);
    }
    if e.round > 0 {
        let _ = write!(tags, ",\"round\":{}", e.round);
    }
    match &e.detail {
        EntryDetail::Lanes(lanes) => {
            for lane in lanes {
                let tid = layout.tid(e.round, e.kind, e.slot, lane.role);
                for s in &lane.spans {
                    let cat = match s.kind {
                        SpanKind::Op(op) if !op.is_idle() => match op.phase() {
                            crate::metrics::Phase::Map => "map",
                            crate::metrics::Phase::Shuffle => "shuffle",
                            crate::metrics::Phase::Reduce => "reduce",
                        },
                        _ => "idle",
                    };
                    let src = s.flow.map(|f| format!(",\"src\":{f}")).unwrap_or_default();
                    push_event(
                        out,
                        first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\
                             \"dur\":{},\"name\":\"{}\",\"cat\":\"{cat}\",\
                             \"args\":{{\"task\":\"{}\",\"attempt\":{},\
                             \"backup\":{}{tags}{src}}}}}",
                            e.node,
                            fmt_us(s.start),
                            fmt_us(s.end - s.start),
                            json::escape(s.kind.name()),
                            json::escape(&task),
                            e.attempt,
                            e.backup
                        ),
                    );
                }
            }
        }
        EntryDetail::Flat(kind) => {
            let role = match e.kind {
                TaskKind::Map => LaneRole::Map,
                TaskKind::Reduce => LaneRole::Reduce,
            };
            let tid = layout.tid(e.round, e.kind, e.slot, role);
            push_event(
                out,
                first,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\
                     \"dur\":{},\"name\":\"{}\",\"cat\":\"attempt\",\
                     \"args\":{{\"task\":\"{}\",\"attempt\":{},\"backup\":{}{tags}}}}}",
                    e.node,
                    fmt_us(e.start),
                    fmt_us(e.end - e.start),
                    kind.name(),
                    json::escape(&task),
                    e.attempt,
                    e.backup
                ),
            );
        }
    }
}

/// Format virtual nanoseconds as decimal microseconds with three fraction
/// digits — exact, deterministic, no floats.
fn fmt_us(ns: VNanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`"ph":"X"`) span events.
    pub complete_events: usize,
    /// Distinct `pid` values seen on complete events.
    pub pids: usize,
}

/// Check `text` is valid JSON in the Chrome trace event format: a
/// top-level object with a `traceEvents` array whose elements are objects;
/// every complete event (`"ph":"X"`) must carry a string `name` and
/// numeric `pid`/`tid`/`ts`/`dur` with `ts, dur ≥ 0`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let top = json::parse(text)?;
    if !matches!(top, Json::Obj(_)) {
        return Err("top level is not an object".into());
    }
    let events = top.get("traceEvents").ok_or("missing traceEvents")?;
    let events = events.as_arr().ok_or("traceEvents is not an array")?;
    let mut complete = 0usize;
    let mut pids = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Json::Obj(_)) {
            return Err(format!("event {i} is not an object"));
        }
        let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
            return Err(format!("event {i}: missing string ph"));
        };
        if ph == "X" {
            complete += 1;
            if ev.get("name").and_then(Json::as_str).is_none() {
                return Err(format!("event {i}: complete event without a name"));
            }
            for key in ["pid", "tid", "ts", "dur"] {
                let Some(n) = ev.get(key).and_then(Json::as_num) else {
                    return Err(format!("event {i}: missing numeric {key}"));
                };
                if (key == "ts" || key == "dur") && n < 0.0 {
                    return Err(format!("event {i}: negative {key}"));
                }
                if key == "pid" {
                    pids.insert(n as i64);
                }
            }
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        complete_events: complete,
        pids: pids.len(),
    })
}

// ---------------------------------------------------------------------------
// Import (the inverse of `to_chrome_json`)
// ---------------------------------------------------------------------------

fn num_field(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric {key}"))
}

fn usize_field(obj: &Json, key: &str, ctx: &str) -> Result<usize, String> {
    let n = num_field(obj, key, ctx)?;
    // `usize::MAX as f64` rounds up to 2^64, which `as usize` would
    // saturate: the bound must be strict.
    if n < 0.0 || n.fract() != 0.0 || n >= usize::MAX as f64 {
        return Err(format!("{ctx}: {key} = {n} is not a valid index"));
    }
    Ok(n as usize)
}

/// An exported microsecond field (three exact fraction digits) back to
/// nanoseconds. Exact for any virtual time below 2^53 ns (~104 virtual
/// days); anything that does not fit a `u64` is an error.
fn ns_field(obj: &Json, key: &str, ctx: &str) -> Result<VNanos, String> {
    let us = num_field(obj, key, ctx)?;
    let ns = (us * 1000.0).round();
    if !(0.0..u64::MAX as f64).contains(&ns) {
        return Err(format!("{ctx}: {key} = {us} is out of range"));
    }
    Ok(ns as u64)
}

/// Parse an exported task label ("map 3" / "reduce 7").
fn parse_task(label: &str, ctx: &str) -> Result<(TaskKind, usize), String> {
    let (kind, id) = label
        .split_once(' ')
        .ok_or_else(|| format!("{ctx}: malformed task label {label:?}"))?;
    let kind = match kind {
        "map" => TaskKind::Map,
        "reduce" => TaskKind::Reduce,
        other => return Err(format!("{ctx}: unknown task kind {other:?}")),
    };
    let id = id
        .parse::<usize>()
        .map_err(|_| format!("{ctx}: malformed task id in {label:?}"))?;
    Ok((kind, id))
}

/// One task attempt being reassembled from its exported events.
struct EntryBuild {
    kind: TaskKind,
    job: usize,
    round: usize,
    task: usize,
    attempt: usize,
    backup: bool,
    node: usize,
    slot: usize,
    flat: Option<(AttemptKind, VNanos, VNanos)>,
    /// Lane sub-index → spans (sub-index order is the builders' lane order).
    lanes: BTreeMap<usize, Vec<Span>>,
}

impl JobTrace {
    /// Rebuild a `JobTrace` from its own Chrome-trace export.
    ///
    /// The export carries the cluster layout in a top-level `textmr`
    /// metadata object; complete (`"ph":"X"`) events are grouped back into
    /// task attempts by `(node, task, attempt, backup)` and their lanes are
    /// recovered by inverting the tid layout. Straggler factors are not
    /// exported, so every reconstructed entry has `factor == 1`: the result
    /// supports structural auditing ([`JobTrace::check`],
    /// [`check_races`](super::race::check_races)) and lossless re-export,
    /// but not op-time accounting of straggler-scaled jobs
    /// ([`JobTrace::op_times`] divides durations by the factor).
    pub fn from_chrome_json(text: &str) -> Result<JobTrace, String> {
        let top = json::parse(text)?;
        if !matches!(top, Json::Obj(_)) {
            return Err("top level is not an object".into());
        }
        let Some(meta @ Json::Obj(_)) = top.get("textmr") else {
            return Err("missing textmr layout metadata (not a textmr-exported trace)".into());
        };
        let nodes = usize_field(meta, "nodes", "textmr")?;
        let map_slots = usize_field(meta, "mapSlots", "textmr")?;
        let reduce_slots = usize_field(meta, "reduceSlots", "textmr")?;
        let fetchers = usize_field(meta, "fetchers", "textmr")?;
        let wall = num_field(meta, "wall", "textmr")? as u64;
        // The tid layout, inverted per event below: each DAG round owns one
        // block of lanes; within a block, map slots first (two lanes each),
        // then reduce slots (1 + `fetchers` lanes each).
        let layout = || {
            let map_lanes = map_slots.checked_mul(2)?;
            let width = fetchers.checked_add(1)?;
            let block = map_lanes.checked_add(width.checked_mul(reduce_slots)?)?;
            Some((map_lanes, width, block))
        };
        let (map_lanes, width, block) = layout().ok_or("textmr: slot layout overflows")?;
        let mut edges = Vec::new();
        if let Some(raw) = meta.get("edges").and_then(Json::as_arr) {
            for (i, e) in raw.iter().enumerate() {
                edges.push(parse_edge(e, i)?);
            }
        }
        let Some(events) = top.get("traceEvents").and_then(Json::as_arr) else {
            return Err("missing traceEvents".into());
        };

        let mut order: Vec<EntryBuild> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut index: BTreeMap<
            (usize, usize, usize, TaskKind, usize, usize, bool),
            usize,
        > = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            let ctx = format!("event {i}");
            if !matches!(ev, Json::Obj(_)) {
                return Err(format!("{ctx}: not an object"));
            }
            let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
                return Err(format!("{ctx}: missing string ph"));
            };
            if ph != "X" {
                continue;
            }
            let node = usize_field(ev, "pid", &ctx)?;
            let tid = usize_field(ev, "tid", &ctx)?;
            let start = ns_field(ev, "ts", &ctx)?;
            let end = start
                .checked_add(ns_field(ev, "dur", &ctx)?)
                .ok_or_else(|| format!("{ctx}: ts + dur overflows"))?;
            let Some(name) = ev.get("name").and_then(Json::as_str) else {
                return Err(format!("{ctx}: missing string name"));
            };
            let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
            let Some(args @ Json::Obj(_)) = ev.get("args") else {
                return Err(format!("{ctx}: missing args"));
            };
            let Some(task_label) = args.get("task").and_then(Json::as_str) else {
                return Err(format!("{ctx}: missing args.task"));
            };
            let (kind, task) = parse_task(task_label, &ctx)?;
            let attempt = usize_field(args, "attempt", &ctx)?;
            let backup = args.get("backup") == Some(&Json::Bool(true));
            // Serve job id (omitted for job 0, like `round`).
            let job = match args.get("job") {
                Some(Json::Num(_)) => usize_field(args, "job", &ctx)?,
                _ => 0,
            };
            let round = tid.checked_div(block).unwrap_or(0);
            let rem = tid.checked_rem(block).unwrap_or(tid);
            let (slot, sub) = if rem < map_lanes {
                if kind != TaskKind::Reduce {
                    (rem / 2, rem % 2)
                } else {
                    return Err(format!("{ctx}: reduce task on map-region tid {tid}"));
                }
            } else {
                let r = rem - map_lanes;
                if kind != TaskKind::Map {
                    (r / width, r % width)
                } else {
                    return Err(format!("{ctx}: map task on reduce-region tid {tid}"));
                }
            };
            let key = (node, job, round, kind, task, attempt, backup);
            let at = *index.entry(key).or_insert_with(|| {
                order.push(EntryBuild {
                    kind,
                    job,
                    round,
                    task,
                    attempt,
                    backup,
                    node,
                    slot,
                    flat: None,
                    lanes: BTreeMap::new(),
                });
                order.len() - 1
            });
            let b = &mut order[at];
            if b.slot != slot {
                return Err(format!(
                    "{ctx}: {task_label} attempt {attempt} spans slots {} and {slot}",
                    b.slot
                ));
            }
            if cat == "attempt" {
                let k = AttemptKind::from_name(name)
                    .ok_or_else(|| format!("{ctx}: unknown attempt fate {name:?}"))?;
                if b.flat.replace((k, start, end)).is_some() {
                    return Err(format!("{ctx}: duplicate flat event for {task_label}"));
                }
            } else {
                let kind = SpanKind::from_name(name, cat)
                    .ok_or_else(|| format!("{ctx}: unknown span kind {name:?}"))?;
                let flow = args
                    .get("src")
                    .and_then(Json::as_num)
                    .and_then(|n| u32::try_from(n as u64).ok());
                b.lanes.entry(sub).or_default().push(Span {
                    start,
                    end,
                    kind,
                    flow,
                });
            }
        }

        let mut entries = Vec::with_capacity(order.len());
        for b in order {
            let who = format!("{} {} attempt {}", b.kind.label(), b.task, b.attempt);
            let (start, end, detail) = if let Some((k, s, e)) = b.flat {
                if !b.lanes.is_empty() {
                    return Err(format!("{who}: both flat and lane events"));
                }
                (s, e, EntryDetail::Flat(k))
            } else {
                let mut start = VNanos::MAX;
                let mut end = 0;
                let mut lanes = Vec::with_capacity(b.lanes.len());
                for (sub, mut spans) in b.lanes {
                    spans.sort_by_key(|s| (s.start, s.end));
                    start = start.min(spans.first().map_or(VNanos::MAX, |s| s.start));
                    end = end.max(spans.last().map_or(0, |s| s.end));
                    let role = match (b.kind, sub) {
                        (TaskKind::Map, 0) => LaneRole::Map,
                        (TaskKind::Map, _) => LaneRole::Support,
                        (TaskKind::Reduce, 0) => LaneRole::Reduce,
                        (TaskKind::Reduce, s) => LaneRole::Fetcher(s - 1),
                    };
                    lanes.push(TaskLane { role, spans });
                }
                if lanes.is_empty() {
                    return Err(format!("{who}: no events"));
                }
                (start, end, EntryDetail::Lanes(lanes))
            };
            entries.push(TraceEntry {
                kind: b.kind,
                job: b.job,
                round: b.round,
                task: b.task,
                attempt: b.attempt,
                backup: b.backup,
                node: b.node,
                slot: b.slot,
                factor: 1,
                start,
                end,
                detail,
            });
        }
        Ok(JobTrace {
            nodes,
            map_slots,
            reduce_slots,
            fetchers,
            wall,
            entries,
            edges,
        })
    }
}

/// Parse one serialized edge array
/// `[kind, srcEntry, srcLane, srcSpan, dstEntry, dstLane, dstSpan]`.
fn parse_edge(v: &Json, i: usize) -> Result<TraceEdge, String> {
    let Some(a) = v.as_arr() else {
        return Err(format!("edge {i}: not an array"));
    };
    if a.len() != 7 {
        return Err(format!("edge {i}: expected 7 elements, got {}", a.len()));
    }
    let Some(kind_name) = a[0].as_str() else {
        return Err(format!("edge {i}: kind is not a string"));
    };
    let kind = EdgeKind::from_name(kind_name)
        .ok_or_else(|| format!("edge {i}: unknown kind {kind_name:?}"))?;
    let int = |j: usize| -> Result<i64, String> {
        a[j].as_num()
            .map(|n| n as i64)
            .ok_or_else(|| format!("edge {i}: element {j} is not a number"))
    };
    let end = |entry: i64, lane: i64, span: i64| -> Result<EdgeEnd, String> {
        if entry < 0 {
            return Err(format!("edge {i}: negative entry index"));
        }
        Ok(if lane < 0 || span < 0 {
            EdgeEnd::entry(entry as usize)
        } else {
            EdgeEnd::span(entry as usize, lane as usize, span as usize)
        })
    };
    Ok(TraceEdge {
        kind,
        src: end(int(1)?, int(2)?, int(3)?)?,
        dst: end(int(4)?, int(5)?, int(6)?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{job_trace, map_trace};
    use super::super::{build_reduce_trace, FlowTrace};
    use super::*;
    use crate::metrics::Op;

    #[test]
    fn job_trace_checks_and_exports_valid_chrome_json() {
        let trace = job_trace();
        trace.check().unwrap();
        assert_eq!(trace.op_times().get(Op::Merge), 7);
        let json = trace.to_chrome_json();
        let summary = validate_chrome_trace(&json).unwrap();
        assert!(summary.complete_events > 0);
        assert_eq!(summary.pids, 1);
        assert!(json.contains("\"attempt-failed\""));
        // The text renderer shows the failed attempt and real work glyphs.
        let text = trace.render_text(60);
        assert!(text.contains('x'), "timeline:\n{text}");
        assert!(text.contains('g'), "timeline:\n{text}");
    }

    #[test]
    fn chrome_export_round_trips_through_import() {
        let trace = job_trace();
        let json = trace.to_chrome_json();
        let back = JobTrace::from_chrome_json(&json).unwrap();
        back.check().unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_chrome_json(), json);
    }

    #[test]
    fn multi_round_export_round_trips_and_separates_lanes() {
        // Two rounds of the same map attempt on the same physical slot:
        // round 1 starts after round 0 ends (cross-round continuity).
        let lanes0 = map_trace().into_absolute(0, 1);
        let lanes1 = map_trace().into_absolute(100, 1);
        let trace = JobTrace {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
            wall: 162,
            edges: vec![TraceEdge {
                kind: EdgeKind::Round,
                src: EdgeEnd::entry(0),
                dst: EdgeEnd::entry(1),
            }],
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
                    end: 62,
                    detail: EntryDetail::Lanes(lanes0),
                },
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 0,
                    round: 1,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 0,
                    slot: 0,
                    factor: 1,
                    start: 100,
                    end: 162,
                    detail: EntryDetail::Lanes(lanes1),
                },
            ],
        };
        trace.check().unwrap();
        let json = trace.to_chrome_json();
        // Round 1 lanes land in their own tid block (block width = 1*2 +
        // 1*(1+1) = 4) and carry the round arg; round 0 stays legacy.
        assert!(json.contains("\"tid\":4"), "missing per-round lane: {json}");
        assert!(json.contains("\"round\":1"), "missing round arg: {json}");
        assert!(json.contains("[\"round\",0,-1,-1,1,-1,-1]"), "{json}");
        let back = JobTrace::from_chrome_json(&json).unwrap();
        back.check().unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_chrome_json(), json);
        // The ASCII renderer labels per-round rows.
        let text = trace.render_text(40);
        assert!(text.contains("R1"), "timeline:\n{text}");
    }

    #[test]
    fn multi_job_export_round_trips_and_keeps_tasks_apart() {
        // Two serve jobs interleaved on the same physical slot: both are
        // "map 0", distinguished only by the job id.
        let lanes1 = map_trace().into_absolute(0, 1);
        let lanes2 = map_trace().into_absolute(100, 1);
        let trace = JobTrace {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
            wall: 162,
            edges: vec![TraceEdge {
                kind: EdgeKind::Slot,
                src: EdgeEnd::entry(0),
                dst: EdgeEnd::entry(1),
            }],
            entries: vec![
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 1,
                    round: 0,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 0,
                    slot: 0,
                    factor: 1,
                    start: 0,
                    end: 62,
                    detail: EntryDetail::Lanes(lanes1),
                },
                TraceEntry {
                    kind: TaskKind::Map,
                    job: 2,
                    round: 0,
                    task: 0,
                    attempt: 0,
                    backup: false,
                    node: 0,
                    slot: 0,
                    factor: 1,
                    start: 100,
                    end: 162,
                    detail: EntryDetail::Lanes(lanes2),
                },
            ],
        };
        trace.check().unwrap();
        let json = trace.to_chrome_json();
        assert!(json.contains("\"job\":1"), "missing job arg: {json}");
        assert!(json.contains("\"job\":2"), "missing job arg: {json}");
        let back = JobTrace::from_chrome_json(&json).unwrap();
        back.check().unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_chrome_json(), json);
        // Without the job id in the grouping key the two "map 0 attempt 0"
        // event sets would collapse into one malformed entry.
        assert_eq!(back.entries.len(), 2);
    }

    #[test]
    fn flow_tags_survive_the_round_trip() {
        let flows = vec![FlowTrace {
            map_task: 3,
            src_node: 1,
            remote: true,
            io_ns: 10,
            backoff_ns: 2,
            slot: 0,
            start: 5,
            pre_end: 17,
            latency_end: 25,
            transfer_end: 60,
            finish: 66,
        }];
        let attempt = build_reduce_trace(&flows, 0, 66, 4, 1, 6, 2);
        let trace = JobTrace {
            nodes: 1,
            map_slots: 0,
            reduce_slots: 1,
            fetchers: 1,
            wall: 79,
            edges: Vec::new(),
            entries: vec![TraceEntry {
                kind: TaskKind::Reduce,
                job: 0,
                round: 0,
                task: 0,
                attempt: 0,
                backup: false,
                node: 0,
                slot: 0,
                factor: 1,
                start: 0,
                end: 79,
                detail: EntryDetail::Lanes(attempt.into_absolute(0, 1)),
            }],
        };
        trace.check().unwrap();
        let json = trace.to_chrome_json();
        assert!(json.contains("\"src\":3"), "missing src arg: {json}");
        let back = JobTrace::from_chrome_json(&json).unwrap();
        assert_eq!(back, trace);
        let fetcher = match &back.entries[0].detail {
            EntryDetail::Lanes(lanes) => lanes
                .iter()
                .find(|l| l.role == LaneRole::Fetcher(0))
                .unwrap(),
            EntryDetail::Flat(_) => panic!("flat"),
        };
        assert!(fetcher.spans.iter().any(|s| s.flow == Some(3)));
    }

    #[test]
    fn import_rejects_non_textmr_traces() {
        let err = JobTrace::from_chrome_json("{\"traceEvents\":[]}").unwrap_err();
        assert!(err.contains("textmr"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"n\",\"pid\":0,\"tid\":0,\
             \"ts\":-1,\"dur\":0}]}"
        )
        .is_err());
        let ok = validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"n\",\"pid\":0,\"tid\":0,\
             \"ts\":0.5,\"dur\":3,\"args\":{\"x\":[true,null,\"s\"]}}]}",
        )
        .unwrap();
        assert_eq!(ok.events, 1);
        assert_eq!(ok.complete_events, 1);
    }

    /// A minimal one-event textmr export with the given untrusted numbers.
    fn hostile_doc(reduce_slots: &str, fetchers: &str, ts: &str, dur: &str) -> String {
        format!(
            "{{\"textmr\":{{\"nodes\":1,\"mapSlots\":1,\"reduceSlots\":{reduce_slots},\
             \"fetchers\":{fetchers},\"wall\":0}},\"traceEvents\":[{{\"ph\":\"X\",\
             \"pid\":0,\"tid\":0,\"ts\":{ts},\"dur\":{dur},\"name\":\"map\",\
             \"cat\":\"map\",\"args\":{{\"task\":\"map 0\",\"attempt\":0,\
             \"backup\":false}}}}]}}"
        )
    }

    #[test]
    fn import_rejects_out_of_range_numbers_instead_of_overflowing() {
        JobTrace::from_chrome_json(&hostile_doc("1", "1", "0.5", "2"))
            .unwrap()
            .check()
            .unwrap();
        for (doc, what) in [
            (hostile_doc("1", "1", "1e300", "1e300"), "event 0: ts"),
            (hostile_doc("1", "1", "-1", "1"), "event 0: ts"),
            (hostile_doc("1", "1", "1e16", "1e16"), "event 0: ts + dur"),
            (
                hostile_doc("1", "18446744073709551615", "0", "1"),
                "textmr: fetchers",
            ),
            (
                hostile_doc("4", "9223372036854775808", "0", "1"),
                "textmr: slot layout overflows",
            ),
        ] {
            let err = JobTrace::from_chrome_json(&doc).unwrap_err();
            assert!(err.starts_with(what), "got {err:?}, wanted {what:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(2_000_000);
        assert!(validate_chrome_trace(&deep)
            .unwrap_err()
            .contains("nesting"));
        assert!(JobTrace::from_chrome_json(&deep)
            .unwrap_err()
            .contains("nesting"));
    }
}
