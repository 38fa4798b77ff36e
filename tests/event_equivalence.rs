//! Equivalence suite for the unified event-loop scheduler
//! ([`textmr_engine::event`]): the refactor must be invisible wherever the
//! legacy behaviour was correct, and visibly different only where the
//! co-located-reducer ingress bug was fixed.
//!
//! 1. Reservation mode (`place_attempts`) reproduces the pre-refactor
//!    greedy recurrence bit-for-bit, against an independent inline
//!    oracle, for any durations × factors × cluster shape × per-task
//!    floor (the floor `textmr-serve`'s multiplexer places under).
//! 2. The dynamic reduce phase at one fetcher with no network contention
//!    lands every attempt at exactly the static reservation's `(start,
//!    end)` — the event loop is a refactor, not a reschedule.
//! 3. A single-fetcher shuffle is the serial sum of its flows' isolated
//!    costs, with no straggler tail.
//! 4. Co-located reducers fair-share their node's ingress NIC (the bug
//!    fix); non-co-located layouts keep their isolated transfer times.
//! 5. Every shipped fault-free 1-fetcher figure in `results/` replays
//!    through the unified scheduler to the identical `(slot, start, end)`
//!    schedule — the published figures are pinned.
//! 6. Full jobs: for any survivable generated fault plan, the dynamic
//!    event loop (fetchers > 1) and the legacy path (fetchers = 1) produce
//!    byte-identical output pairs and timing-free signatures across worker
//!    pools.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::event::{
    simulate_attempt_flows, ClusterShape, Flow, FlowSched, Placement, ReduceAttempt, Scheduler,
};
use textmr_engine::fault::{ChaosShape, FaultPlan};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::trace::{JobTrace, TaskKind, TraceEntry};

// ---------------------------------------------------------------------------
// 1. Reservation mode vs the legacy recurrence, written independently
// ---------------------------------------------------------------------------

/// The legacy tie-break, floored: lowest-indexed slot among the
/// earliest-free once every slot's free time is raised to `floor`.
fn oracle_argmin(free: &[u64], floor: u64) -> usize {
    let floored: Vec<u64> = free.iter().map(|&f| f.max(floor)).collect();
    let earliest = *floored.iter().min().expect("a node has slots");
    floored
        .iter()
        .position(|&f| f == earliest)
        .expect("the minimum is present")
}

/// One placement step of the pre-refactor recurrence under `floor`,
/// advancing `free`.
fn oracle_place(free: &mut [u64], floor: u64, prev_end: u64, scaled_dur: u64) -> Placement {
    let slot = oracle_argmin(free, floor);
    let start = free[slot].max(floor).max(prev_end);
    let end = start + scaled_dur;
    free[slot] = end;
    Placement { slot, start, end }
}

/// A task's floor: often 0 (the engine's own calls), otherwise anywhere
/// from before to well past the slots' free times.
fn floor() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..400_000]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `place_attempts` equals the inline oracle for every attempt of
    /// every task, under each task's floor: same slot, same start, same
    /// end.
    #[test]
    fn reservation_mode_matches_the_legacy_recurrence(
        factors in proptest::collection::vec(1u64..5, 1..5),
        map_slots in 1usize..4,
        reduce_slots in 1usize..4,
        tasks in proptest::collection::vec(
            (proptest::collection::vec(1u64..50_000, 1..4), floor(), floor()),
            1..12,
        ),
    ) {
        let nodes = factors.len();
        let shape = ClusterShape { nodes, map_slots, reduce_slots, fetchers: 1 };
        let mut sched = Scheduler::new(shape, factors.clone());

        let mut free = vec![vec![0u64; map_slots]; nodes];
        let mut map_end = 0u64;
        for (task, (durs, map_floor, _)) in tasks.iter().enumerate() {
            let node = task % nodes;
            let got = sched.place_attempts(TaskKind::Map, task, node, durs, *map_floor);
            let mut prev_end = 0u64;
            for (attempt, &dur) in durs.iter().enumerate() {
                let want =
                    oracle_place(&mut free[node], *map_floor, prev_end, dur * factors[node]);
                prop_assert_eq!(got[attempt], want, "map task {} attempt {}", task, attempt);
                prev_end = want.end;
                map_end = map_end.max(want.end);
            }
        }

        sched.begin_reduce_phase(map_end);
        let mut rfree = vec![vec![map_end; reduce_slots]; nodes];
        for (task, (durs, _, reduce_floor)) in tasks.iter().enumerate() {
            let node = (task + 1) % nodes;
            let got = sched.place_attempts(TaskKind::Reduce, task, node, durs, *reduce_floor);
            let mut prev_end = 0u64;
            for (attempt, &dur) in durs.iter().enumerate() {
                let want =
                    oracle_place(&mut rfree[node], *reduce_floor, prev_end, dur * factors[node]);
                prop_assert_eq!(got[attempt], want, "reduce task {} attempt {}", task, attempt);
                prev_end = want.end;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Dynamic event loop vs static reservation (no network contention)
// ---------------------------------------------------------------------------

/// Attempts whose cost never touches a NIC: dead blocks and local-only
/// shuffles. With nothing shared, the dynamic loop must be a pure refactor
/// of the reservation arithmetic.
fn uncontended_attempt() -> impl Strategy<Value = ReduceAttempt> {
    prop_oneof![
        (1u64..20_000).prop_map(|dur| ReduceAttempt::Block { dur }),
        (
            proptest::collection::vec((1u64..5_000, 0u64..2_000), 0..4),
            1u64..5_000,
        )
            .prop_map(|(fl, post)| ReduceAttempt::Work {
                flows: fl
                    .into_iter()
                    .map(|(io, dec)| Flow {
                        io_ns: io,
                        backoff_ns: 0,
                        remote: false,
                        latency_ns: 0,
                        rate_ns: 0,
                        post_ns: dec,
                    })
                    .collect(),
                post_ns: post,
            }),
    ]
}

/// The static duration the legacy path would charge for an attempt.
fn isolated_dur(attempt: &ReduceAttempt) -> u64 {
    match attempt {
        ReduceAttempt::Block { dur } => *dur,
        ReduceAttempt::Work { flows, post_ns } => flows
            .iter()
            .map(Flow::isolated_ns)
            .sum::<u64>()
            .saturating_add(*post_ns),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// With one attempt per task and no shared ingress, every dynamic
    /// outcome's `(start, end)` equals the static reservation's. (Slot
    /// labels may swap when two slots free at the same instant; the
    /// timing is what the figures pin.)
    #[test]
    fn dynamic_phase_matches_static_reservation_without_contention(
        factors in proptest::collection::vec(1u64..4, 1..4),
        reduce_slots in 1usize..3,
        attempts in proptest::collection::vec(uncontended_attempt(), 1..10),
        phase_start in 0u64..100_000,
    ) {
        let nodes = factors.len();
        let shape = ClusterShape { nodes, map_slots: 1, reduce_slots, fetchers: 1 };

        let mut dynamic = Scheduler::new(shape, factors.clone());
        dynamic.begin_reduce_phase(phase_start);
        let layout: Vec<(usize, Vec<ReduceAttempt>)> = attempts
            .iter()
            .enumerate()
            .map(|(t, a)| (t % nodes, vec![a.clone()]))
            .collect();
        let outcomes = dynamic.run_reduce_phase(0, layout);

        let mut fixed = Scheduler::new(shape, factors.clone());
        fixed.begin_reduce_phase(phase_start);
        for (task, attempt) in attempts.iter().enumerate() {
            let want = fixed.place_attempts(
                TaskKind::Reduce,
                task,
                task % nodes,
                &[isolated_dur(attempt)],
                0,
            );
            prop_assert_eq!(
                (outcomes[task][0].start, outcomes[task][0].end),
                (want[0].start, want[0].end),
                "task {} diverged from the reservation schedule", task
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Single-fetcher shuffles serialize exactly
// ---------------------------------------------------------------------------

fn any_flow() -> impl Strategy<Value = Flow> {
    (
        (0u64..5_000, 0u64..2_000),
        (any::<bool>(), 0u64..1_000),
        (0u64..10_000, 0u64..3_000),
    )
        .prop_map(
            |((io_ns, backoff_ns), (remote, latency_ns), (rate_ns, post_ns))| Flow {
                io_ns,
                backoff_ns,
                remote,
                latency_ns,
                rate_ns,
                post_ns,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One fetcher, one reducer: no sharing, no tail — the shuffle is the
    /// serial sum of isolated flow costs, and every flow's schedule is the
    /// back-to-back serial one: submission order, slot 0, each flow
    /// starting when its predecessor finished and paying its full isolated
    /// cost (a local flow's network marks collapse onto its read's end).
    #[test]
    fn single_fetcher_shuffle_is_the_serial_sum_of_isolated_flows(
        flows in proptest::collection::vec(any_flow(), 0..12),
    ) {
        let shuffle = simulate_attempt_flows(&flows, 1);
        let serial: u64 = flows.iter().map(Flow::isolated_ns).sum();
        prop_assert_eq!(shuffle.virtual_ns, serial);
        prop_assert_eq!(shuffle.wait_ns, 0);
        let mut cursor = 0u64;
        let back_to_back: Vec<FlowSched> = flows
            .iter()
            .enumerate()
            .map(|(flow, f)| {
                let start = cursor;
                let pre_end = start + f.pre_ns();
                let (latency_end, transfer_end) = if f.remote {
                    let latency_end = pre_end + f.latency_ns;
                    (latency_end, latency_end + f.rate_ns)
                } else {
                    (pre_end, pre_end)
                };
                cursor = transfer_end + f.post_ns;
                FlowSched { flow, slot: 0, start, pre_end, latency_end, transfer_end, finish: cursor }
            })
            .collect();
        prop_assert_eq!(shuffle.flows, back_to_back);
    }
}

// ---------------------------------------------------------------------------
// 4. The co-located-reducer ingress fix
// ---------------------------------------------------------------------------

/// Two reducers pulling one remote flow each: on separate nodes each
/// transfer runs at full rate; co-located on one node they fair-share its
/// ingress, so both transfers take exactly twice as long. This is the bug
/// the legacy per-attempt NIC model missed (each attempt modelled the NIC
/// as private, so co-location was free).
#[test]
fn co_located_reducers_fair_share_node_ingress() {
    let flow = Flow {
        io_ns: 0,
        backoff_ns: 0,
        remote: true,
        latency_ns: 1_000,
        rate_ns: 1_000_000,
        post_ns: 0,
    };
    let run = |homes: [usize; 2]| {
        let shape = ClusterShape {
            nodes: 2,
            map_slots: 1,
            reduce_slots: 2,
            fetchers: 2,
        };
        let mut sched = Scheduler::new(shape, vec![1, 1]);
        sched.begin_reduce_phase(0);
        sched.run_reduce_phase(
            0,
            homes
                .iter()
                .map(|&n| {
                    (
                        n,
                        vec![ReduceAttempt::Work {
                            flows: vec![flow],
                            post_ns: 0,
                        }],
                    )
                })
                .collect(),
        )
    };

    // Separate nodes: latency then a full-rate transfer.
    let separate = run([0, 1]);
    for outcome in &separate {
        assert_eq!((outcome[0].start, outcome[0].end), (0, 1_001_000));
    }
    // Co-located: the two concurrent transfers halve the shared rate.
    let together = run([0, 0]);
    for outcome in &together {
        assert_eq!((outcome[0].start, outcome[0].end), (0, 2_001_000));
    }
}

// ---------------------------------------------------------------------------
// 5. Shipped figures replay bit-for-bit
// ---------------------------------------------------------------------------

/// Replay one shipped trace's schedule through a fresh [`Scheduler`]: feed
/// back the unscaled attempt durations and demand the identical `(slot,
/// start, end)` for every entry. Trace durations are measured wall time —
/// machine-dependent — so this, not byte equality of regenerated files, is
/// what "bit-for-bit" means for the published figures.
fn replay_trace(name: &str, trace: &JobTrace) {
    let mut factors: Vec<Option<u64>> = vec![None; trace.nodes];
    for e in &trace.entries {
        let f = e.factor.max(1);
        match factors[e.node] {
            None => factors[e.node] = Some(f),
            Some(seen) => assert_eq!(seen, f, "{name}: node {} straggler factor flaps", e.node),
        }
    }
    let factors: Vec<u64> = factors.into_iter().map(|f| f.unwrap_or(1)).collect();

    let mut maps: BTreeMap<usize, Vec<&TraceEntry>> = BTreeMap::new();
    let mut reduces: BTreeMap<usize, Vec<&TraceEntry>> = BTreeMap::new();
    for e in &trace.entries {
        match e.kind {
            TaskKind::Map => maps.entry(e.task).or_default().push(e),
            TaskKind::Reduce => reduces.entry(e.task).or_default().push(e),
        }
    }
    for chain in maps.values_mut().chain(reduces.values_mut()) {
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

    let mut map_end = 0u64;
    for (task, chain) in &maps {
        let node = chain[0].node;
        for e in chain {
            assert_eq!(e.node, node, "{name}: map task {task} hops nodes");
        }
        let durs: Vec<u64> = chain.iter().map(|e| unscaled(e, node)).collect();
        let got = sched.place_attempts(TaskKind::Map, *task, node, &durs, 0);
        for (p, e) in got.iter().zip(chain) {
            assert_eq!(
                (p.slot, p.start, p.end),
                (e.slot, e.start, e.end),
                "{name}: map task {task} attempt {} replayed differently",
                e.attempt
            );
        }
        map_end = map_end.max(chain.last().expect("non-empty chain").end);
    }

    sched.begin_reduce_phase(map_end);
    for (task, chain) in &reduces {
        let node = chain[0].node;
        for e in chain {
            assert_eq!(e.node, node, "{name}: reduce task {task} hops nodes");
        }
        let durs: Vec<u64> = chain.iter().map(|e| unscaled(e, node)).collect();
        let got = sched.place_attempts(TaskKind::Reduce, *task, node, &durs, 0);
        for (p, e) in got.iter().zip(chain) {
            assert_eq!(
                (p.slot, p.start, p.end),
                (e.slot, e.start, e.end),
                "{name}: reduce task {task} attempt {} replayed differently",
                e.attempt
            );
        }
    }
}

/// Every shipped fault-free 1-fetcher figure replays exactly. Backup
/// attempts are excluded because their detection times are a driver input
/// the trace does not record; multi-fetcher `_f4` traces are dynamic-loop
/// schedules with their own invariants (tests 2–4); multi-round DAG
/// figures reuse task ids across rounds and are replayed by the
/// round-aware discipline in `tests/dag_determinism.rs` instead.
#[test]
fn shipped_single_fetcher_traces_replay_exactly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut replayed = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ directory") {
        let path = entry.expect("read results entry").path();
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        if !name.starts_with("trace_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read trace json");
        let trace = JobTrace::from_chrome_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if trace.fetchers != 1 || trace.entries.iter().any(|e| e.backup || e.round > 0) {
            continue;
        }
        replay_trace(&name, &trace);
        replayed.push(name);
    }
    assert!(
        replayed.len() >= 4,
        "expected the four shipped fault-free figures, replayed only {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// 6. Full jobs: unified loop vs legacy path under generated fault plans
// ---------------------------------------------------------------------------

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

fn cluster(root: &Path, workers: usize, fetchers: usize) -> ClusterConfig {
    let mut c = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_shuffle_fetchers(fetchers);
    c.spill_buffer_bytes = 64 << 10;
    c.temp_dir = Some(root.to_path_buf());
    c
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-eventeq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_with_plan(tag: &str, plan: &FaultPlan, workers: usize, fetchers: usize) -> JobRun {
    let root = temp_root(tag);
    let dfs = corpus_dfs();
    let run = run_job(
        &cluster(&root, workers, fetchers),
        &JobConfig::default().with_fault_plan(plan.clone()),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    run
}

/// The chaos shape matching this file's corpus/cluster geometry, derived
/// once from a fault-free run.
fn chaos_shape() -> &'static ChaosShape {
    static SHAPE: OnceLock<ChaosShape> = OnceLock::new();
    SHAPE.get_or_init(|| {
        let run = run_with_plan("shape", &FaultPlan::new(), 1, 1);
        ChaosShape {
            map_tasks: run.profile.map_tasks.len(),
            reducers: 4,
            nodes: 6,
            max_attempts: 4,
            ..ChaosShape::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For any survivable seeded fault plan, runs through the dynamic
    /// event loop (fetchers > 1) and through the legacy 1-fetcher path
    /// produce byte-identical sorted output pairs and identical
    /// timing-free signatures, at every worker count.
    #[test]
    fn unified_loop_matches_the_legacy_schedule_for_any_survivable_plan(seed in any::<u64>()) {
        let plan = FaultPlan::generate(seed, chaos_shape());
        let legacy = run_with_plan(&format!("legacy-{seed:016x}"), &plan, 1, 1);
        let pairs = legacy.sorted_pairs();
        let signature = legacy.profile.signature();
        for (workers, fetchers) in [(2usize, 2usize), (1, 4), (4, 1)] {
            let run = run_with_plan(
                &format!("ev-{seed:016x}-w{workers}f{fetchers}"),
                &plan,
                workers,
                fetchers,
            );
            prop_assert_eq!(&run.sorted_pairs(), &pairs,
                "outputs diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
            prop_assert_eq!(&run.profile.signature(), &signature,
                "signature diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
        }
    }
}
