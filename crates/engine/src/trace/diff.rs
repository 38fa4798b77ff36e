//! Lane-aligned diffing of two [`JobTrace`]s.
//!
//! The Fig. 9 harness tabulates busy/wait per thread *within one run*;
//! this module answers the cross-run question — "where did the waiting
//! move?" — by aligning two traces of the same logical job (e.g. baseline
//! vs. spill-matcher, or two DAG variants) and tabulating, per round and
//! per lane role, each side's busy and wait time plus the wait delta.
//!
//! Attempts are aligned by schedule identity `(round, kind, task,
//! attempt, backup)`; attempts present on only one side are counted, not
//! silently dropped. Within an aligned pair, lanes match by role (all
//! fetcher lanes collapse into one `fetcher` row — their count may
//! legitimately differ between the traces). Busy is time in non-idle
//! [`Op`](crate::metrics::Op) spans; wait is idle-op and [`IdleKind`](super::IdleKind)
//! spans, broken down by span name in the JSON form.
//!
//! [`TraceDiff::render_text`] prints the Fig. 9-style ASCII table;
//! [`TraceDiff::to_json`] emits the same data (plus the per-kind wait
//! breakdown) as deterministic JSON for downstream tooling.

use super::{EntryDetail, JobTrace, LaneRole, SpanKind, TaskKind};
use crate::json::escape;
use crate::metrics::VNanos;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Busy/wait tallies for one `(round, lane)` row, on both sides.
#[derive(Debug, Clone, Default)]
pub struct LaneDelta {
    /// DAG round the lanes belong to.
    pub round: usize,
    /// Lane role label: `map`, `support`, `reduce`, or `fetcher`.
    pub lane: String,
    /// Non-idle op time, `[a, b]`, in virtual nanoseconds.
    pub busy: [VNanos; 2],
    /// Idle time (idle ops + idle spans), `[a, b]`.
    pub wait: [VNanos; 2],
    /// Wait time per span name, `[a, b]` keyed by name.
    pub wait_by_kind: BTreeMap<String, [VNanos; 2]>,
    /// Attempts of record contributing on each side.
    pub attempts: [usize; 2],
}

impl LaneDelta {
    /// `b - a` wait, signed.
    pub fn wait_delta(&self) -> i128 {
        self.wait[1] as i128 - self.wait[0] as i128
    }
}

/// Result of [`diff_traces`].
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Display labels for the two traces.
    pub labels: [String; 2],
    /// Virtual makespan of each trace.
    pub wall: [VNanos; 2],
    /// Per `(round, lane)` tallies, sorted by round then lane.
    pub rows: Vec<LaneDelta>,
    /// Attempt identities present only in trace A / only in trace B.
    pub only_a: usize,
    /// See [`TraceDiff::only_a`].
    pub only_b: usize,
}

/// Identity by which attempts align across traces.
type Identity = (usize, TaskKind, usize, usize, bool);

fn identities(t: &JobTrace) -> BTreeSet<Identity> {
    t.entries
        .iter()
        .map(|e| (e.round, e.kind, e.task, e.attempt, e.backup))
        .collect()
}

fn lane_label(role: LaneRole) -> &'static str {
    match role {
        LaneRole::Map => "map",
        LaneRole::Support => "support",
        LaneRole::Reduce => "reduce",
        LaneRole::Fetcher(_) => "fetcher",
    }
}

/// Order rows map-side first, then reduce-side, mirroring the Fig. 9
/// column order.
fn lane_order(lane: &str) -> usize {
    match lane {
        "map" => 0,
        "support" => 1,
        "reduce" => 2,
        _ => 3,
    }
}

fn tally(t: &JobTrace, side: usize, rows: &mut BTreeMap<(usize, String), LaneDelta>) {
    for e in &t.entries {
        let EntryDetail::Lanes(lanes) = &e.detail else {
            continue;
        };
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for lane in lanes {
            let label = lane_label(lane.role);
            let row = rows
                .entry((e.round, label.to_string()))
                .or_insert_with(|| LaneDelta {
                    round: e.round,
                    lane: label.to_string(),
                    ..LaneDelta::default()
                });
            if seen.insert(label) {
                row.attempts[side] += 1;
            }
            for s in &lane.spans {
                let dur = s.end - s.start;
                let is_wait = match s.kind {
                    SpanKind::Op(op) => op.is_idle(),
                    SpanKind::Idle(_) => true,
                };
                if is_wait {
                    row.wait[side] += dur;
                    row.wait_by_kind
                        .entry(s.kind.name().to_string())
                        .or_insert([0, 0])[side] += dur;
                } else {
                    row.busy[side] += dur;
                }
            }
        }
    }
}

/// Align two traces and tabulate per-round, per-lane busy/wait deltas.
pub fn diff_traces(label_a: &str, a: &JobTrace, label_b: &str, b: &JobTrace) -> TraceDiff {
    let (ids_a, ids_b) = (identities(a), identities(b));
    let mut rows: BTreeMap<(usize, String), LaneDelta> = BTreeMap::new();
    tally(a, 0, &mut rows);
    tally(b, 1, &mut rows);
    let mut rows: Vec<LaneDelta> = rows.into_values().collect();
    rows.sort_by_key(|x| (x.round, lane_order(&x.lane)));
    TraceDiff {
        labels: [label_a.to_string(), label_b.to_string()],
        wall: [a.wall, b.wall],
        rows,
        only_a: ids_a.difference(&ids_b).count(),
        only_b: ids_b.difference(&ids_a).count(),
    }
}

fn ms(ns: VNanos) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

fn ms_signed(delta: i128) -> String {
    let sign = if delta < 0 { "-" } else { "+" };
    let d = delta.unsigned_abs();
    format!("{sign}{}.{:03}", d / 1_000_000, (d % 1_000_000) / 1_000)
}

impl TraceDiff {
    /// Render the Fig. 9-style wait-delta table as ASCII.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace diff: A = {} (wall {} ms), B = {} (wall {} ms)",
            self.labels[0],
            ms(self.wall[0]),
            self.labels[1],
            ms(self.wall[1]),
        );
        if self.only_a + self.only_b > 0 {
            let _ = writeln!(
                out,
                "unaligned attempts: {} only in A, {} only in B",
                self.only_a, self.only_b
            );
        }
        let header = [
            "round",
            "lane",
            "att_a",
            "att_b",
            "busy_a_ms",
            "busy_b_ms",
            "wait_a_ms",
            "wait_b_ms",
            "wait_delta_ms",
        ];
        let mut cells: Vec<[String; 9]> = vec![header.map(str::to_string)];
        for r in &self.rows {
            cells.push([
                r.round.to_string(),
                r.lane.clone(),
                r.attempts[0].to_string(),
                r.attempts[1].to_string(),
                ms(r.busy[0]),
                ms(r.busy[1]),
                ms(r.wait[0]),
                ms(r.wait[1]),
                ms_signed(r.wait_delta()),
            ]);
        }
        let widths: Vec<usize> = (0..9)
            .map(|c| cells.iter().map(|row| row[c].len()).max().unwrap_or(0))
            .collect();
        for row in &cells {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = widths[c]);
            }
            out.push('\n');
        }
        out
    }

    /// Emit the diff as deterministic JSON, including the per-kind wait
    /// breakdown the ASCII table folds into one column.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"a\":\"{}\",\"b\":\"{}\",\"wallA\":{},\"wallB\":{},\
             \"onlyA\":{},\"onlyB\":{},\"rows\":[",
            escape(&self.labels[0]),
            escape(&self.labels[1]),
            self.wall[0],
            self.wall[1],
            self.only_a,
            self.only_b
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"lane\":\"{}\",\"attemptsA\":{},\"attemptsB\":{},\
                 \"busyA\":{},\"busyB\":{},\"waitA\":{},\"waitB\":{},\"waitDelta\":{},\
                 \"waitByKind\":{{",
                r.round,
                escape(&r.lane),
                r.attempts[0],
                r.attempts[1],
                r.busy[0],
                r.busy[1],
                r.wait[0],
                r.wait[1],
                r.wait_delta()
            );
            for (j, (kind, [wa, wb])) in r.wait_by_kind.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":[{wa},{wb}]", escape(kind));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Op;
    use crate::trace::{IdleKind, Span, TaskLane, TraceEntry};

    fn entry(round: usize, kind: TaskKind, task: usize, lanes: Vec<TaskLane>) -> TraceEntry {
        let (start, end) = lanes
            .first()
            .and_then(|l| Some((l.spans.first()?.start, l.spans.last()?.end)))
            .unwrap_or((0, 0));
        TraceEntry {
            kind,
            job: 0,
            round,
            task,
            attempt: 0,
            backup: false,
            node: 0,
            slot: 0,
            factor: 1,
            start,
            end,
            detail: EntryDetail::Lanes(lanes),
        }
    }

    fn lane(role: LaneRole, spans: &[(VNanos, VNanos, SpanKind)]) -> TaskLane {
        TaskLane {
            role,
            spans: spans
                .iter()
                .map(|&(start, end, kind)| Span {
                    start,
                    end,
                    kind,
                    flow: None,
                })
                .collect(),
        }
    }

    fn two_lane_trace(map_wait: VNanos) -> JobTrace {
        JobTrace {
            nodes: 1,
            map_slots: 1,
            reduce_slots: 1,
            fetchers: 1,
            wall: 100,
            entries: vec![
                entry(
                    0,
                    TaskKind::Map,
                    0,
                    vec![
                        lane(
                            LaneRole::Map,
                            &[
                                (0, 60, SpanKind::Op(Op::Map)),
                                (60, 60 + map_wait, SpanKind::Op(Op::MapIdle)),
                            ],
                        ),
                        lane(
                            LaneRole::Support,
                            &[(0, 60 + map_wait, SpanKind::Op(Op::Sort))],
                        ),
                    ],
                ),
                entry(
                    0,
                    TaskKind::Reduce,
                    0,
                    vec![lane(
                        LaneRole::Reduce,
                        &[
                            (70, 90, SpanKind::Op(Op::Reduce)),
                            (90, 100, SpanKind::Idle(IdleKind::Barrier)),
                        ],
                    )],
                ),
            ],
            edges: Vec::new(),
        }
    }

    #[test]
    fn wait_deltas_align_by_round_and_lane() {
        let a = two_lane_trace(40);
        let b = two_lane_trace(10);
        let diff = diff_traces("base", &a, "opt", &b);
        assert_eq!(diff.only_a, 0);
        assert_eq!(diff.only_b, 0);
        let map = diff
            .rows
            .iter()
            .find(|r| r.lane == "map" && r.round == 0)
            .unwrap();
        assert_eq!(map.busy, [60, 60]);
        assert_eq!(map.wait, [40, 10]);
        assert_eq!(map.wait_delta(), -30);
        assert_eq!(map.attempts, [1, 1]);
        let reduce = diff.rows.iter().find(|r| r.lane == "reduce").unwrap();
        assert_eq!(reduce.wait, [10, 10]);
        assert_eq!(reduce.wait_by_kind["barrier"], [10, 10]);
        // Lane order mirrors Fig. 9: map, support, reduce.
        let lanes: Vec<&str> = diff.rows.iter().map(|r| r.lane.as_str()).collect();
        assert_eq!(lanes, ["map", "support", "reduce"]);
    }

    #[test]
    fn unaligned_attempts_are_counted() {
        let a = two_lane_trace(5);
        let mut b = two_lane_trace(5);
        b.entries.push(entry(
            1,
            TaskKind::Map,
            0,
            vec![lane(LaneRole::Map, &[(100, 110, SpanKind::Op(Op::Map))])],
        ));
        let diff = diff_traces("a", &a, "b", &b);
        assert_eq!(diff.only_a, 0);
        assert_eq!(diff.only_b, 1);
        // The extra round-1 attempt gets its own row.
        assert!(diff.rows.iter().any(|r| r.round == 1 && r.lane == "map"));
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let a = two_lane_trace(40);
        let b = two_lane_trace(10);
        let diff = diff_traces("base", &a, "opt", &b);
        let text = diff.render_text();
        assert!(text.contains("trace diff: A = base"));
        assert!(text.contains("wait_delta_ms"));
        assert_eq!(text, diff_traces("base", &a, "opt", &b).render_text());
        let json = diff.to_json();
        assert!(json.starts_with("{\"a\":\"base\",\"b\":\"opt\""));
        assert!(json.contains("\"waitDelta\":-30"));
        assert!(json.contains("\"waitByKind\":{"));
        assert_eq!(json, diff_traces("base", &a, "opt", &b).to_json());
    }
}
