//! Determinism suite for the round-generic DAG executor
//! ([`textmr_engine::dag`]): chaining rounds on one scheduler must neither
//! perturb the published single-round schedules nor let cluster shape or
//! fault timing leak into any round's data.
//!
//! 1. Every shipped fault-free 1-fetcher figure in `results/` replays
//!    through the round-aware replay (round 0, no boundary) to the
//!    identical `(slot, start, end)` schedule — `run_job` is a
//!    single-stage run of the executor and places through exactly this
//!    recurrence, so the published figures pin the one driver there is.
//! 2. A live traced single-stage DAG run replays its own schedule through
//!    a fresh scheduler — the executor adds nothing to round 0.
//! 3. A live traced three-round DAG replays with only the recorded
//!    per-round origins (`begin_round`) added — cross-round virtual-time
//!    continuity is the BSP barrier plus the same recurrence, nothing
//!    hidden.
//! 4. Workers × fetchers × seeded-fault sweep: a chained three-stage DAG
//!    produces byte-identical final pairs and an identical timing-free
//!    [`DagSignature`] whatever the worker pool, fetcher count, or
//!    (survivable) fault plan timing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::event::{ClusterShape, Scheduler};
use textmr_engine::fault::{ChaosShape, FaultPlan};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{Emit, Job, JobDag, Record, StageInput, ValueCursor};
use textmr_engine::metrics::VNanos;
use textmr_engine::prelude::{decode_u64, encode_u64, run_dag, DagRun};
use textmr_engine::trace::{JobTrace, TaskKind, TraceEntry};

// ---------------------------------------------------------------------------
// Round-aware replay
// ---------------------------------------------------------------------------

/// The virtual instants later rounds were barriered on: a fault-free
/// round's makespan is its last attempt's end, so the per-round origins
/// are recoverable from the trace itself (pinned against the recorded
/// profile in `live_multi_round_dag_replays_with_recorded_origins`).
fn derived_origins(trace: &JobTrace) -> Vec<VNanos> {
    let rounds = trace.entries.iter().map(|e| e.round).max().unwrap_or(0) + 1;
    (0..rounds.saturating_sub(1))
        .map(|r| {
            trace
                .entries
                .iter()
                .filter(|e| e.round == r)
                .map(|e| e.end)
                .max()
                .expect("round with no entries")
        })
        .collect()
}

/// Replay a (possibly multi-round) trace's schedule through a fresh
/// [`Scheduler`], demanding the identical `(slot, start, end)` for every
/// entry. `origins[r - 1]` is the virtual instant round `r` was barriered
/// on (`begin_round`) — the producing round's makespan; a single-round
/// trace passes `&[]` and this collapses to the legacy replay discipline.
///
/// Trace durations are measured wall time — machine-dependent — so this,
/// not byte equality of regenerated files, is what "bit-for-bit" means
/// for a schedule.
fn replay_dag_trace(name: &str, trace: &JobTrace, origins: &[VNanos]) {
    let mut factors: Vec<Option<u64>> = vec![None; trace.nodes];
    for e in &trace.entries {
        let f = e.factor.max(1);
        match factors[e.node] {
            None => factors[e.node] = Some(f),
            Some(seen) => assert_eq!(seen, f, "{name}: node {} straggler factor flaps", e.node),
        }
    }
    let factors: Vec<u64> = factors.into_iter().map(|f| f.unwrap_or(1)).collect();

    // Group attempts into per-round, per-task chains. Task ids in the
    // trace are round-local; the executor places them at a global base so
    // they stay unique on the shared scheduler — rebuild those bases from
    // the per-round task counts, exactly as `DagExecutor` accumulates
    // them.
    let rounds = trace.entries.iter().map(|e| e.round).max().unwrap_or(0) + 1;
    let mut maps: Vec<BTreeMap<usize, Vec<&TraceEntry>>> = vec![BTreeMap::new(); rounds];
    let mut reduces: Vec<BTreeMap<usize, Vec<&TraceEntry>>> = vec![BTreeMap::new(); rounds];
    for e in &trace.entries {
        match e.kind {
            TaskKind::Map => maps[e.round].entry(e.task).or_default().push(e),
            TaskKind::Reduce => reduces[e.round].entry(e.task).or_default().push(e),
        }
    }
    for chain in maps
        .iter_mut()
        .chain(reduces.iter_mut())
        .flat_map(|m| m.values_mut())
    {
        chain.sort_by_key(|e| e.attempt);
    }

    let unscaled = |e: &TraceEntry, node: usize| -> u64 {
        let scaled = e.end - e.start;
        assert_eq!(
            scaled % factors[node],
            0,
            "{name}: entry duration not a multiple of the node factor"
        );
        scaled / factors[node]
    };

    let shape = ClusterShape {
        nodes: trace.nodes,
        map_slots: trace.map_slots,
        reduce_slots: trace.reduce_slots,
        fetchers: 1,
    };
    let mut sched = Scheduler::new(shape, factors.clone());

    let (mut map_base, mut reduce_base) = (0usize, 0usize);
    for round in 0..rounds {
        if round > 0 {
            let origin = *origins
                .get(round - 1)
                .unwrap_or_else(|| panic!("{name}: no recorded origin for round {round}"));
            sched.begin_round(round, origin);
        }

        let mut map_end = 0u64;
        for (task, chain) in &maps[round] {
            let node = chain[0].node;
            for e in chain {
                assert_eq!(e.node, node, "{name}: r{round} map task {task} hops nodes");
            }
            let durs: Vec<u64> = chain.iter().map(|e| unscaled(e, node)).collect();
            let got = sched.place_attempts(TaskKind::Map, map_base + task, node, &durs, 0);
            for (p, e) in got.iter().zip(chain) {
                assert_eq!(
                    (p.slot, p.start, p.end),
                    (e.slot, e.start, e.end),
                    "{name}: r{round} map task {task} attempt {} replayed differently",
                    e.attempt
                );
            }
            map_end = map_end.max(chain.last().expect("non-empty chain").end);
        }

        sched.begin_reduce_phase(map_end);
        for (task, chain) in &reduces[round] {
            let node = chain[0].node;
            for e in chain {
                assert_eq!(
                    e.node, node,
                    "{name}: r{round} reduce task {task} hops nodes"
                );
            }
            let durs: Vec<u64> = chain.iter().map(|e| unscaled(e, node)).collect();
            let got = sched.place_attempts(TaskKind::Reduce, reduce_base + task, node, &durs, 0);
            for (p, e) in got.iter().zip(chain) {
                assert_eq!(
                    (p.slot, p.start, p.end),
                    (e.slot, e.start, e.end),
                    "{name}: r{round} reduce task {task} attempt {} replayed differently",
                    e.attempt
                );
            }
        }
        map_base += maps[round].len();
        reduce_base += reduces[round].len();
    }
}

/// Case 1: every shipped fault-free 1-fetcher figure — the four legacy
/// single-round figures and the multi-round DAG figure alike — replays
/// through the round-aware replay exactly: the DAG refactor left the
/// published schedules untouched. Backup attempts are excluded because their
/// detection times are a driver input the trace does not record;
/// multi-fetcher `_f4` traces are dynamic-loop schedules with their own
/// invariants (`tests/event_equivalence.rs`), and multi-tenant serve
/// traces (job-tagged entries) interleave many jobs whose task ids
/// overlap — their replay identity is pinned at the multiplexer level
/// by `tests/serve_determinism.rs` and the `serve` harness instead.
#[test]
fn shipped_single_fetcher_figures_replay_through_the_dag_recurrence() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut replayed = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ directory") {
        let path = entry.expect("read results entry").path();
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        if !name.starts_with("trace_") || !name.ends_with(".json") || name == "trace_diff.json" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read trace json");
        let trace = JobTrace::from_chrome_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if trace.fetchers != 1
            || trace.entries.iter().any(|e| e.backup)
            || trace.entries.iter().any(|e| e.job > 0)
        {
            continue;
        }
        replay_dag_trace(&name, &trace, &derived_origins(&trace));
        replayed.push(name);
    }
    assert!(
        replayed.len() >= 4,
        "expected the four shipped fault-free figures, replayed only {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// Harness: a chained word-total DAG over a shared corpus
// ---------------------------------------------------------------------------

/// A later stage: consumes framed `(word, count)` pairs untouched and
/// re-aggregates — totals must survive any number of chained rounds.
struct Resum;
impl Job for Resum {
    fn name(&self) -> &str {
        "resum"
    }
    fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
        e.emit(r.key, r.value);
    }
    fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        let mut s = 0;
        while let Some(v) = values.next() {
            s += decode_u64(v).unwrap();
        }
        out.emit(k, &encode_u64(s));
    }
}

fn corpus_dfs() -> SimDfs {
    let mut dfs = SimDfs::new(6, 8 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 400,
            vocab_size: 200,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn cluster(root: &Path, workers: usize, fetchers: usize) -> ClusterConfig {
    let mut c = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_shuffle_fetchers(fetchers);
    c.spill_buffer_bytes = 64 << 10;
    c.temp_dir = Some(root.to_path_buf());
    c
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-dagdet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// WordCount → Resum(3) → Resum(2), every stage carrying the same fault
/// plan (straggler factors cannot change mid-DAG) and the same trace flag.
fn chained_dag(plan: &FaultPlan, trace: bool) -> JobDag {
    let cfg = |reducers: usize| {
        let mut c = JobConfig::default()
            .with_reducers(reducers)
            .with_fault_plan(plan.clone());
        if trace {
            c = c.with_trace();
        }
        c
    };
    JobDag::new()
        .stage(Arc::new(WordCount), cfg(4), StageInput::dfs("corpus"))
        .then(Arc::new(Resum), cfg(3))
        .then(Arc::new(Resum), cfg(2))
}

fn run_chained(tag: &str, plan: &FaultPlan, workers: usize, fetchers: usize) -> DagRun {
    let root = temp_root(tag);
    let dfs = corpus_dfs();
    let run = run_dag(
        &cluster(&root, workers, fetchers),
        &chained_dag(plan, false),
        &dfs,
    )
    .unwrap_or_else(|e| panic!("{tag}: chained DAG failed: {e}"));
    let _ = std::fs::remove_dir_all(&root);
    run
}

// ---------------------------------------------------------------------------
// 2–3. Live DAG runs replay their own schedules
// ---------------------------------------------------------------------------

/// Case 2: a single-stage DAG's trace replays through a fresh scheduler with no
/// round boundary at all — the executor adds nothing to round 0.
#[test]
fn live_single_stage_dag_replays_its_own_schedule() {
    let root = temp_root("single");
    let dfs = corpus_dfs();
    let dag = JobDag::new().stage(
        Arc::new(WordCount),
        JobConfig::default().with_trace(),
        StageInput::dfs("corpus"),
    );
    let run = run_dag(&cluster(&root, 1, 1), &dag, &dfs).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let trace = run.trace.as_ref().expect("trace requested");
    assert!(trace.entries.iter().all(|e| e.round == 0));
    replay_dag_trace("live-single", trace, &[]);
}

/// Case 3: a three-round chained DAG's trace replays given only the recorded
/// per-round origins: cross-round continuity is `begin_round` at the prior
/// round's makespan plus the unchanged placement recurrence.
#[test]
fn live_multi_round_dag_replays_with_recorded_origins() {
    let root = temp_root("multi");
    let dfs = corpus_dfs();
    let run = run_dag(
        &cluster(&root, 1, 1),
        &chained_dag(&FaultPlan::new(), true),
        &dfs,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let trace = run.trace.as_ref().expect("trace requested");
    assert_eq!(run.profile.num_rounds(), 3);
    let origins: Vec<VNanos> = run.profile.rounds.iter().map(|p| p.wall).collect();
    // A fault-free round's recorded makespan IS its last attempt's end —
    // the derivation the shipped-figure replay leans on.
    assert_eq!(derived_origins(trace), &origins[..2]);
    replay_dag_trace("live-multi", trace, &origins[..2]);
}

// ---------------------------------------------------------------------------
// 4. Workers × fetchers × seeded-fault sweep
// ---------------------------------------------------------------------------

/// The chaos shape matching this file's corpus/cluster geometry, derived
/// once from a fault-free run's first round. Later rounds have no more
/// map tasks or reducers than round 0, so a plan survivable for round 0
/// is survivable for every round.
fn chaos_shape() -> &'static ChaosShape {
    static SHAPE: OnceLock<ChaosShape> = OnceLock::new();
    SHAPE.get_or_init(|| {
        let run = run_chained("shape", &FaultPlan::new(), 1, 1);
        ChaosShape {
            map_tasks: run.profile.rounds[0].map_tasks.len(),
            reducers: 4,
            nodes: 6,
            max_attempts: 4,
            ..ChaosShape::default()
        }
    })
}

/// For seeded survivable fault plans, the chained DAG's final pairs and
/// whole-DAG timing-free signature are invariant across worker pools and
/// fetcher counts — cluster shape and fault timing never reach any
/// round's data.
#[test]
fn chained_dag_outputs_and_signatures_survive_the_sweep() {
    for seed in [0u64, 0x5eed, 0x00da_60de_7e57_ab1e] {
        let plan = FaultPlan::generate(seed, chaos_shape());
        let reference = run_chained(&format!("ref-{seed:016x}"), &plan, 1, 1);
        let pairs = reference.sorted_pairs();
        let signature = reference.profile.signature();
        assert_eq!(reference.profile.num_rounds(), 3);
        for (workers, fetchers) in [(2usize, 2usize), (1, 4), (4, 1)] {
            let run = run_chained(
                &format!("sweep-{seed:016x}-w{workers}f{fetchers}"),
                &plan,
                workers,
                fetchers,
            );
            assert_eq!(
                run.sorted_pairs(),
                pairs,
                "outputs diverged: seed={seed} workers={workers} fetchers={fetchers}"
            );
            assert_eq!(
                run.profile.signature(),
                signature,
                "signature diverged: seed={seed} workers={workers} fetchers={fetchers}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Streamed DAG trace export == batch export, byte for byte
// ---------------------------------------------------------------------------

/// The `--smoke` PageRank graph from the dag bench: a ring plus a second
/// irregular out-link, so the uniform start vector is not stationary and
/// tolerance 0 forces exactly `max_rounds` rounds.
fn pagerank_graph(pages: u64) -> Vec<u8> {
    let mut buf = String::new();
    let init = 1.0 / pages as f64;
    for p in 0..pages {
        let a = (p + 1) % pages;
        let b = (3 * p + 1) % pages;
        if a == b || p % 3 == 0 {
            buf.push_str(&format!("{p}|{init}|{a}\n"));
        } else {
            buf.push_str(&format!("{p}|{init}|{a},{b}\n"));
        }
    }
    buf.into_bytes()
}

/// `JobConfig::trace_stream` through the `DagExecutor`: the 3-round
/// PageRank trace streamed to disk round by round must equal the batch
/// `to_chrome_json()` byte for byte. Two *runs* cannot be diffed (virtual
/// durations come from measured real work), so the byte comparison pivots
/// on one run's entries pushed through the streaming writer with the
/// DAG-assembled edges; a second, fully streamed run then pins the
/// structural and data-level invariants end to end.
#[test]
fn streamed_dag_trace_export_matches_batch_bytes() {
    use textmr_apps::pagerank_to_convergence;
    use textmr_engine::trace::stream::TraceStreamWriter;

    let root = temp_root("stream");
    let pages = 24u64;
    let mut dfs = SimDfs::new(6, 256);
    dfs.put("graph", pagerank_graph(pages));
    let cluster = cluster(&root, 1, 2);
    let cfg = JobConfig::default().with_reducers(4).with_trace();

    // Batch run: three rounds, whole-DAG trace in memory.
    let batch = pagerank_to_convergence(&cluster, &cfg, &dfs, "graph", pages, 0, 3).unwrap();
    assert_eq!(batch.run.profile.num_rounds(), 3);
    let trace = batch.run.trace.as_ref().expect("trace requested");
    trace.check().unwrap();

    // Byte parity: this run's entries (per-round lanes, cross-round
    // hand-off edges and all) through the streaming writer must
    // reproduce the batch string exactly.
    let parity = root.join("parity.json");
    let mut w = TraceStreamWriter::create(
        parity.clone(),
        trace.nodes,
        trace.map_slots,
        trace.reduce_slots,
        trace.fetchers,
    )
    .unwrap();
    for e in &trace.entries {
        w.push_entry(e).unwrap();
    }
    w.finish(trace.wall, &trace.edges).unwrap();
    assert_eq!(
        std::fs::read_to_string(&parity).unwrap(),
        trace.to_chrome_json(),
        "streamed DAG export diverged from the batch bytes"
    );

    // End-to-end stream mode: the executor spools entries to disk as each
    // round retires, keeps no JobTrace, and the same ranks come out. The
    // file validates as Chrome-trace JSON and imports back into a trace
    // that passes the structural checks with all three rounds present.
    let path = root.join("streamed.json");
    let streamed = pagerank_to_convergence(
        &cluster,
        &cfg.clone().with_trace_stream(path.clone()),
        &dfs,
        "graph",
        pages,
        0,
        3,
    )
    .unwrap();
    assert!(
        streamed.run.trace.is_none(),
        "stream mode keeps no JobTrace"
    );
    assert_eq!(streamed.rounds, 3);
    assert_eq!(batch.run.sorted_pairs(), streamed.run.sorted_pairs());
    assert_eq!(
        batch.run.profile.signature(),
        streamed.run.profile.signature()
    );
    let file = std::fs::read_to_string(&path).unwrap();
    textmr_engine::trace::validate_chrome_trace(&file).unwrap();
    let imported = JobTrace::from_chrome_json(&file).unwrap();
    imported.check().unwrap();
    assert_eq!(
        (0..3)
            .map(|r| imported.entries.iter().filter(|e| e.round == r).count())
            .collect::<Vec<_>>(),
        (0..3)
            .map(|r| trace.entries.iter().filter(|e| e.round == r).count())
            .collect::<Vec<_>>(),
        "streamed file lost a round's entries"
    );
    let _ = std::fs::remove_dir_all(&root);
}
