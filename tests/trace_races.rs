//! End-to-end audit of the happens-before race checker
//! ([`textmr_engine::trace::race`]) against *real* traces.
//!
//! Three claims, each load-bearing for the determinism audit:
//!
//! 1. A genuinely traced job — real scheduler, real shuffle, real spill
//!    hand-offs — produces a trace the checker accepts (no false races).
//! 2. Every shipped `results/trace_*.json` round-trips through
//!    [`JobTrace::from_chrome_json`] and audits clean on its *recorded*
//!    edges, so the published figures rest on race-free schedules — and
//!    a trace whose edges were stripped fails the audit outright instead
//!    of being re-audited on orderings derived from its own timing.
//! 3. Seeded corruptions of a valid trace — a swapped spill hand-off, an
//!    attempt shifted onto a busy interval, a dropped shuffle barrier —
//!    are all rejected, even when the per-lane tiling checks still pass.
//!    Proptest drives the victim selection so every eligible entry in the
//!    real trace gets mutated across runs, not just a hand-picked one.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::metrics::Op;
use textmr_engine::trace::race::{check_races, RaceKind};
use textmr_engine::trace::{
    validate_chrome_trace, EntryDetail, IdleKind, JobTrace, LaneRole, Span, SpanKind, TaskKind,
    TraceEntry,
};

fn corpus_dfs() -> SimDfs {
    let mut dfs = SimDfs::new(6, 8 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 600,
            vocab_size: 300,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-races-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real traced run, computed once and cloned per mutation.
fn real_trace() -> &'static JobTrace {
    static TRACE: OnceLock<JobTrace> = OnceLock::new();
    TRACE.get_or_init(|| traced_run("baseline", 64 << 10))
}

/// A traced WordCount run over 8 KiB splits with `spill_buffer` bytes of
/// spill buffer.
fn traced_run(tag: &str, spill_buffer: usize) -> JobTrace {
    let root = temp_root(tag);
    let mut cluster = ClusterConfig::local()
        .with_worker_threads(2)
        .with_shuffle_fetchers(2);
    cluster.spill_buffer_bytes = spill_buffer;
    cluster.temp_dir = Some(root.clone());
    let run = run_job(
        &cluster,
        &JobConfig::default().with_trace(),
        Arc::new(WordCount),
        &corpus_dfs(),
        &[("corpus", 0)],
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let trace = run.trace.expect("trace requested");
    trace.check().unwrap();
    trace
}

fn lanes_mut(e: &mut TraceEntry) -> &mut Vec<textmr_engine::trace::TaskLane> {
    match &mut e.detail {
        EntryDetail::Lanes(l) => l,
        EntryDetail::Flat(_) => panic!("flat entry in a fault-free trace"),
    }
}

fn lanes_of(e: &TraceEntry) -> &[textmr_engine::trace::TaskLane] {
    match &e.detail {
        EntryDetail::Lanes(l) => l,
        EntryDetail::Flat(_) => panic!("flat entry in a fault-free trace"),
    }
}

/// Entries whose Support lane does real spill work strictly after the
/// attempt starts — rotating that burst in front of its hand-off is the
/// "support consumed a segment before the map produced it" corruption.
fn handoff_victims(trace: &JobTrace) -> Vec<usize> {
    trace
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            e.kind == TaskKind::Map
                && lanes_of(e).iter().any(|l| {
                    matches!(l.role, LaneRole::Support)
                        && l.spans
                            .iter()
                            .any(|s| matches!(s.kind, SpanKind::Op(_)) && s.start > e.start)
                })
        })
        .map(|(i, _)| i)
        .collect()
}

/// Reduce entries that wait on their shuffle before the first op — the
/// candidates for the dropped-barrier and early-start corruptions.
fn reduce_victims(trace: &JobTrace) -> Vec<usize> {
    trace
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            e.kind == TaskKind::Reduce && e.start > 0 && {
                let lanes = lanes_of(e);
                let fetch_flows = lanes.iter().any(|l| {
                    matches!(l.role, LaneRole::Fetcher(_))
                        && l.spans.iter().any(|s| s.flow.is_some())
                });
                let reduce_waits = lanes.iter().any(|l| {
                    matches!(l.role, LaneRole::Reduce)
                        && l.spans
                            .iter()
                            .any(|s| matches!(s.kind, SpanKind::Op(_)) && s.start > e.start)
                });
                fetch_flows && reduce_waits
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// Rotate a Support lane's op burst in front of the spill-waits that
/// synchronize it, keeping the lane exactly tiled.
fn swap_handoff(trace: &mut JobTrace, entry: usize) {
    let e = &mut trace.entries[entry];
    let (e_start, e_end) = (e.start, e.end);
    let support = lanes_mut(e)
        .iter_mut()
        .find(|l| matches!(l.role, LaneRole::Support))
        .unwrap();
    let mut rebuilt = Vec::new();
    let mut cursor = e_start;
    for pass in [true, false] {
        for s in &support.spans {
            if matches!(s.kind, SpanKind::Op(_)) == pass {
                let d = s.end - s.start;
                let mut moved = *s;
                moved.start = cursor;
                moved.end = cursor + d;
                rebuilt.push(moved);
                cursor += d;
            }
        }
    }
    assert_eq!(cursor, e_end, "rotation must preserve tiling");
    support.spans = rebuilt;
}

/// Compact the Reduce lane's ops to the attempt start — the merge now
/// begins while the fetchers are still pulling runs (no shuffle barrier).
fn drop_shuffle_barrier(trace: &mut JobTrace, entry: usize) {
    let e = &mut trace.entries[entry];
    let (e_start, e_end) = (e.start, e.end);
    let rl = lanes_mut(e)
        .iter_mut()
        .find(|l| matches!(l.role, LaneRole::Reduce))
        .unwrap();
    let mut rebuilt = Vec::new();
    let mut cursor = e_start;
    for s in &rl.spans {
        if matches!(s.kind, SpanKind::Op(_)) {
            let d = s.end - s.start;
            let mut moved = *s;
            moved.start = cursor;
            moved.end = cursor + d;
            rebuilt.push(moved);
            cursor += d;
        }
    }
    assert!(cursor < e_end, "victim lane had no idle to absorb");
    rebuilt.push(Span {
        start: cursor,
        end: e_end,
        kind: SpanKind::Idle(IdleKind::Done),
        flow: None,
    });
    rl.spans = rebuilt;
}

/// Shift a whole reduce attempt to virtual time zero: its fetches now
/// overlap (or precede) the map attempts that publish the outputs it
/// reads.
fn shift_reduce_to_origin(trace: &mut JobTrace, entry: usize) {
    let e = &mut trace.entries[entry];
    let shift = e.start;
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
fn real_traced_job_is_race_free() {
    let report = check_races(real_trace());
    assert!(
        report.is_clean(),
        "real run must audit clean:\n{}",
        report.render()
    );
    assert!(report.edges > 0, "a real job must have cross-lane edges");
    assert!(report.accesses.get("mapout").copied().unwrap_or(0) > 0);
    assert!(report.accesses.get("runs").copied().unwrap_or(0) > 0);
    // The export the offline audit reads is lossless for this run.
    let json = real_trace().to_chrome_json();
    validate_chrome_trace(&json).unwrap();
    assert_eq!(&JobTrace::from_chrome_json(&json).unwrap(), real_trace());
}

/// With a buffer that holds a whole split, every map task spills once and
/// adopts that spill as its output, most with no merge span at all.
#[test]
fn lone_spill_map_outputs_audit_clean() {
    let trace = &traced_run("lone", 1 << 20);
    let maps: Vec<&TraceEntry> = trace
        .entries
        .iter()
        .filter(|e| e.kind == TaskKind::Map)
        .collect();
    assert!(maps.len() > 1);
    for e in &maps {
        let spill_writes = lanes_of(e)
            .iter()
            .filter(|l| l.role == LaneRole::Support)
            .flat_map(|l| &l.spans)
            .filter(|s| s.kind == SpanKind::Op(Op::SpillWrite))
            .count();
        assert_eq!(spill_writes, 1, "map task {} must spill once", e.task);
    }
    validate_chrome_trace(&trace.to_chrome_json()).unwrap();
    let report = check_races(trace);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.accesses["mapout"] >= maps.len());
}

#[test]
fn stripped_edges_fail_the_audit() {
    let mut trace = real_trace().clone();
    trace.edges.clear();
    let report = check_races(&trace);
    assert!(!report.is_clean());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.kind == RaceKind::Structure && d.resource == "edges"),
        "expected a finding on `edges`:\n{}",
        report.render()
    );
}

#[test]
fn shipped_result_traces_audit_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut audited = 0usize;
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("results/ directory")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("trace_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path).unwrap();
        let trace =
            JobTrace::from_chrome_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        trace
            .check()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !trace.edges.is_empty(),
            "{} carries no recorded edges",
            path.display()
        );
        let report = check_races(&trace);
        assert!(
            report.is_clean(),
            "{} must audit clean:\n{}",
            path.display(),
            report.render()
        );
        assert!(report.edges > 0, "{}: no edge applied", path.display());
        audited += 1;
    }
    assert!(
        audited >= 5,
        "expected the five shipped traces, audited {audited}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A swapped spill hand-off stays invisible to the per-lane tiling
    /// checks but the happens-before pass flags it.
    #[test]
    fn swapped_handoff_is_rejected(pick in any::<u64>()) {
        let victims = handoff_victims(real_trace());
        prop_assert!(!victims.is_empty(), "real run must spill");
        let mut trace = real_trace().clone();
        swap_handoff(&mut trace, victims[(pick % victims.len() as u64) as usize]);
        trace.check().unwrap(); // tiling still holds
        let report = check_races(&trace);
        prop_assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Structure && d.resource.starts_with("handoff:")
            }),
            "expected a hand-off finding:\n{}",
            report.render()
        );
    }

    /// Removing the shuffle barrier (merge starts while runs are still
    /// arriving) is a `runs` race.
    #[test]
    fn dropped_barrier_is_rejected(pick in any::<u64>()) {
        let victims = reduce_victims(real_trace());
        prop_assert!(!victims.is_empty(), "real run must shuffle");
        let mut trace = real_trace().clone();
        drop_shuffle_barrier(&mut trace, victims[(pick % victims.len() as u64) as usize]);
        trace.check().unwrap(); // tiling still holds
        let report = check_races(&trace);
        prop_assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Race && d.resource.starts_with("runs:")
            }),
            "expected a runs race:\n{}",
            report.render()
        );
    }

    /// A reduce attempt rescheduled to time zero overlaps something it
    /// must not: the map outputs it fetches, or another attempt's slot.
    #[test]
    fn early_reduce_attempt_is_rejected(pick in any::<u64>()) {
        let victims = reduce_victims(real_trace());
        prop_assert!(!victims.is_empty(), "real run must shuffle");
        let mut trace = real_trace().clone();
        shift_reduce_to_origin(&mut trace, victims[(pick % victims.len() as u64) as usize]);
        let report = check_races(&trace);
        prop_assert!(
            report.diagnostics.iter().any(|d| d.kind == RaceKind::Race),
            "expected a race:\n{}",
            report.render()
        );
    }

    /// A duplicate attempt on an occupied slot is the canonical
    /// overlapping-resource-span corruption.
    #[test]
    fn duplicate_slot_attempt_is_rejected(pick in any::<u64>()) {
        let base = real_trace();
        let eligible: Vec<usize> = base
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.end > e.start)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!eligible.is_empty());
        let mut trace = base.clone();
        let mut dup = trace.entries[eligible[(pick % eligible.len() as u64) as usize]].clone();
        dup.attempt += 1;
        trace.entries.push(dup);
        let report = check_races(&trace);
        prop_assert!(
            report.diagnostics.iter().any(|d| {
                d.kind == RaceKind::Race && d.resource.starts_with("slot:")
            }),
            "expected a slot race:\n{}",
            report.render()
        );
    }
}
