//! Deterministic chaos: for *any* seeded [`FaultPlan`] whose faults stay
//! under the attempt budget, recovery must be invisible — output pairs and
//! the timing-free job signature are identical to a fault-free run at every
//! worker/fetcher count — and plans that exhaust the budget must abort
//! cleanly: a named error, no hung pool, and no leaked spill directories.
//!
//! Every job here runs under a dedicated temp root so the suite can assert
//! the engine left nothing behind (the shared per-process root is polluted
//! by other test threads).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::fault::{ChaosShape, FaultPlan, SpeculationConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::metrics::JobSignature;

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

/// A local cluster writing all spills under `root` (so tests can assert
/// the root is empty afterwards).
fn cluster(root: &Path, workers: usize, fetchers: usize) -> ClusterConfig {
    let mut c = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_shuffle_fetchers(fetchers);
    c.spill_buffer_bytes = 64 << 10;
    c.temp_dir = Some(root.to_path_buf());
    c
}

/// Fresh, empty, per-call temp root.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts the engine removed every job directory under `root`, then
/// removes `root` itself.
fn assert_empty_and_remove(root: &Path) {
    let leftovers: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(leftovers.is_empty(), "leaked spill dirs: {leftovers:?}");
    let _ = std::fs::remove_dir_all(root);
}

struct Baseline {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    signature: JobSignature,
    shape: ChaosShape,
    /// Home node of each map task in the fault-free schedule.
    map_nodes: Vec<usize>,
}

/// The fault-free reference run (workers = 1, fetchers = 1), computed once.
fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let root = temp_root("baseline");
        let dfs = corpus_dfs();
        let run = run_job(
            &cluster(&root, 1, 1),
            &JobConfig::default(),
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .unwrap();
        assert_empty_and_remove(&root);
        let shape = ChaosShape {
            map_tasks: run.profile.map_tasks.len(),
            reducers: 4,
            nodes: 6,
            max_attempts: 4,
            ..ChaosShape::default()
        };
        Baseline {
            pairs: run.sorted_pairs(),
            signature: run.profile.signature(),
            shape,
            map_nodes: run.profile.map_spans.iter().map(|s| s.node).collect(),
        }
    })
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
    assert_empty_and_remove(&root);
    run
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The headline invariance property: any survivable generated plan —
    /// map/reduce record faults, spill-write faults, transient shuffle
    /// faults, straggler nodes — yields byte-identical output and an
    /// identical timing-free signature, sequentially and on pools, with no
    /// spill directory left behind.
    #[test]
    fn recovery_is_invisible_for_any_survivable_plan(seed in any::<u64>()) {
        let base = baseline();
        let plan = FaultPlan::generate(seed, &base.shape);
        for (workers, fetchers) in [(1usize, 1usize), (4, 4)] {
            let run = run_with_plan(
                &format!("inv-{seed:016x}-w{workers}f{fetchers}"),
                &plan,
                workers,
                fetchers,
            );
            prop_assert_eq!(&run.sorted_pairs(), &base.pairs,
                "outputs diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
            prop_assert_eq!(&run.profile.signature(), &base.signature,
                "signature diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Plans that exhaust the attempt budget abort with a named error —
    /// and still clean up every spill directory, on the pool included.
    #[test]
    fn over_budget_plans_abort_cleanly(seed in any::<u64>()) {
        let base = baseline();
        let max_attempts = base.shape.max_attempts;
        // Doom one target past the budget: every allowed attempt fails.
        let (mut plan, needle) = match seed % 3 {
            0 => {
                let t = (seed / 3) as usize % base.shape.map_tasks;
                let mut p = FaultPlan::new();
                for a in 0..max_attempts {
                    p = p.map_fail_at(t, a, 1 + seed % 20);
                }
                (p, format!("map task {t} failed {max_attempts} attempts"))
            }
            1 => {
                let r = (seed / 3) as usize % base.shape.reducers;
                let mut p = FaultPlan::new();
                for a in 0..max_attempts {
                    p = p.reduce_fail_at(r, a, 1 + seed % 20);
                }
                (p, format!("reduce task {r} failed {max_attempts} attempts"))
            }
            _ => {
                let m = (seed / 3) as usize % base.shape.map_tasks;
                let mut p = FaultPlan::new();
                for a in 0..max_attempts {
                    p = p.shuffle_fail(m, a);
                }
                (p, format!("shuffle fetch of map output {m}"))
            }
        };
        // Half the cases also stretch a node, so the abort path is
        // exercised under straggler scheduling too.
        if seed.is_multiple_of(2) {
            plan = plan.slow_node(0, 3);
        }

        let root = temp_root(&format!("abort-{seed:016x}"));
        let dfs = corpus_dfs();
        for workers in [1usize, 4] {
            let cfg = JobConfig {
                max_attempts,
                ..JobConfig::default().with_fault_plan(plan.clone())
            };
            let err = run_job(
                &cluster(&root, workers, 2),
                &cfg,
                Arc::new(WordCount),
                &dfs,
                &[("corpus", 0)],
            );
            let err = match err {
                Err(e) => e,
                Ok(_) => panic!("over-budget plan completed: seed={seed} workers={workers}"),
            };
            prop_assert!(err.to_string().contains(&needle),
                "seed={} workers={}: expected {:?} in {:?}", seed, workers, needle, err.to_string());
        }
        assert_empty_and_remove(&root);
    }
}

/// Speculative execution earns its keep: with one straggler node, a
/// speculation-enabled run finishes in strictly less virtual time than the
/// same plan without speculation, with identical output pairs.
#[test]
fn speculation_beats_a_straggler_node() {
    let plan = FaultPlan::new().slow_node(0, 24);
    let dfs = corpus_dfs();

    let root = temp_root("spec-off");
    let slow = run_job(
        &cluster(&root, 1, 1),
        &JobConfig::default().with_fault_plan(plan.clone()),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_empty_and_remove(&root);

    let root = temp_root("spec-on");
    let spec = run_job(
        &cluster(&root, 1, 1),
        &JobConfig::default()
            .with_fault_plan(plan)
            .with_speculation(SpeculationConfig::default()),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_empty_and_remove(&root);

    assert_eq!(slow.sorted_pairs(), spec.sorted_pairs());
    let stats = spec.profile.speculation;
    assert!(stats.backups() > 0, "no backups launched: {stats:?}");
    assert!(stats.wins() > 0, "no backup won: {stats:?}");
    assert!(
        spec.profile.wall < slow.profile.wall,
        "speculation did not help: spec wall {} !< straggler wall {}",
        spec.profile.wall,
        slow.profile.wall
    );
    // Without speculation the stats stay zeroed.
    assert_eq!(slow.profile.speculation.backups(), 0);
}

/// A fault injected into a *speculative backup* attempt must never disturb
/// the job: the backup dies, the primary still wins, the output is
/// identical to the fault-free baseline, and the trace records the dead
/// backup lane.
#[test]
fn faulty_backup_dies_and_primary_still_wins() {
    use textmr_engine::trace::{AttemptKind, EntryDetail, TaskKind};

    let base = baseline();
    // Stretch a node that actually hosts a map task so a map backup
    // launches; every backup is doomed.
    let slow = base.map_nodes[0];
    let mut plan = FaultPlan::new().slow_node(slow, 24);
    for t in 0..base.shape.map_tasks {
        plan = plan.map_backup_fail_after(t, 2);
    }

    let root = temp_root("backup-fault");
    let dfs = corpus_dfs();
    let run = run_job(
        &cluster(&root, 1, 1),
        &JobConfig::default()
            .with_fault_plan(plan)
            .with_speculation(SpeculationConfig::default())
            .with_trace(),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_empty_and_remove(&root);

    assert_eq!(run.sorted_pairs(), base.pairs);
    let stats = run.profile.speculation;
    assert!(stats.map_backups > 0, "no map backup launched: {stats:?}");

    let trace = run.trace.as_ref().expect("trace requested");
    trace.check().unwrap();
    let dead: Vec<_> = trace
        .entries
        .iter()
        .filter(|e| matches!(e.detail, EntryDetail::Flat(AttemptKind::Dead)))
        .collect();
    assert!(!dead.is_empty(), "no dead backup lane in the trace");
    for e in &dead {
        assert!(e.backup, "dead lane not marked as a backup: {e:?}");
        assert!(matches!(e.kind, TaskKind::Map));
        assert!(e.end > e.start, "dead backup burned no virtual time");
    }
}

/// Speculation in both phases, as the trace records it: a 24× straggler
/// hosting both a map task and a reducer gets backups in each phase. Every
/// backup entry hangs off its primary's final attempt by exactly one
/// `Backup` edge; a winning backup carries the task's lanes while that
/// primary attempt renders as a flat "speculation-lost" span; and the
/// winners in the trace are exactly the profile's win counts.
#[test]
fn winning_backups_in_both_phases_own_the_trace() {
    use textmr_engine::trace::{AttemptKind, EdgeKind, EntryDetail, TaskKind};

    let base = baseline();
    // Reducer `r` runs on node `r % nodes`, so nodes below the reducer
    // count host one; pick such a node that also hosts a map task.
    let slow = base
        .map_nodes
        .iter()
        .copied()
        .find(|&n| n < base.shape.reducers)
        .expect("a map task on a reducer's node");
    let root = temp_root("spec-both");
    let dfs = corpus_dfs();
    let run = run_job(
        &cluster(&root, 1, 1),
        &JobConfig::default()
            .with_fault_plan(FaultPlan::new().slow_node(slow, 24))
            .with_speculation(SpeculationConfig::default())
            .with_trace(),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_empty_and_remove(&root);
    assert_eq!(run.sorted_pairs(), base.pairs);

    let trace = run.trace.as_ref().expect("trace requested");
    trace.check().unwrap();
    let (mut map_wins, mut reduce_wins) = (0u64, 0u64);
    for (i, e) in trace.entries.iter().enumerate() {
        if !e.backup {
            continue;
        }
        let same_task = |p: &&textmr_engine::trace::TraceEntry| {
            !p.backup && p.kind == e.kind && p.round == e.round && p.task == e.task
        };
        let final_attempt = trace
            .entries
            .iter()
            .filter(same_task)
            .map(|p| p.attempt)
            .max()
            .expect("a backup has a primary");
        let origin = trace
            .entries
            .iter()
            .position(|p| same_task(&p) && p.attempt == final_attempt)
            .expect("the primary's final attempt is traced");
        let edges: Vec<_> = trace
            .edges
            .iter()
            .filter(|x| x.kind == EdgeKind::Backup && x.dst.entry == i)
            .collect();
        assert_eq!(
            edges.len(),
            1,
            "backup entry {i} has {} Backup edges",
            edges.len()
        );
        assert_eq!(
            edges[0].src.entry, origin,
            "backup entry {i} not launched off its primary"
        );
        if matches!(e.detail, EntryDetail::Lanes(_)) {
            assert!(
                matches!(
                    trace.entries[origin].detail,
                    EntryDetail::Flat(AttemptKind::Lost)
                ),
                "winning backup {i}'s primary is not marked lost"
            );
            match e.kind {
                TaskKind::Map => map_wins += 1,
                TaskKind::Reduce => reduce_wins += 1,
            }
        }
    }
    let stats = run.profile.speculation;
    assert_eq!(map_wins, stats.map_wins, "{stats:?}");
    assert_eq!(reduce_wins, stats.reduce_wins, "{stats:?}");
    assert!(map_wins > 0, "no map backup won: {stats:?}");
    assert!(reduce_wins > 0, "no reduce backup won: {stats:?}");
}

/// Speculation composes with fault injection: backups plus retries still
/// produce exact output.
#[test]
fn speculation_and_faults_compose() {
    let base = baseline();
    let plan = FaultPlan::generate(0xC0FFEE, &base.shape).slow_node(2, 16);
    let root = temp_root("spec-chaos");
    let dfs = corpus_dfs();
    let run = run_job(
        &cluster(&root, 4, 4),
        &JobConfig::default()
            .with_fault_plan(plan)
            .with_speculation(SpeculationConfig::default()),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_empty_and_remove(&root);
    assert_eq!(run.sorted_pairs(), base.pairs);
}
