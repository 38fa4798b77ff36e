//! Multi-tenant determinism: interleaving jobs on the shared serve
//! cluster must be *invisible* in every job's data — outputs and
//! timing-free signatures identical to running the same plan alone — and
//! a single-tenant serve must replay the legacy engine schedule slot for
//! slot. Virtual *durations* are measured (they legitimately differ
//! between any two runs), so every comparison here is either against a
//! solo run of the same process-independent data, or within one process
//! against the serve call's own solo traces, or over generated plans with
//! fixed durations.

use proptest::prelude::*;
use std::sync::Arc;
use textmr_apps::{PrefixApply, PrefixLocal, PrefixScan, WordCount};
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::dag::run_dag;
use textmr_engine::event::{ClusterShape, Scheduler};
use textmr_engine::fault::FaultPlan;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{JobDag, StageInput};
use textmr_engine::trace::race::check_races;
use textmr_engine::trace::{JobTrace, TaskKind};
use textmr_serve::sched::{multiplex, AttemptInfo, JobPlan, TaskChain};
use textmr_serve::workload::{self, WorkloadConfig};
use textmr_serve::{serve, JobRequest, ServeCacheConfig, ServeConfig, TenantSpec};

fn small_workload_cfg() -> WorkloadConfig {
    WorkloadConfig {
        jobs: 8,
        tenants: 3,
        lines: 120,
        ..Default::default()
    }
}

/// Inject the same deterministic retry into a regenerated workload, so
/// the serve run and the solo reference both exercise a failed attempt.
fn inject_fault(wl: &mut workload::Workload) {
    wl.requests[0].plan.stages[0].cfg.fault_plan = FaultPlan::new().map_fail_at(0, 0, 5);
}

/// N tenants' jobs interleaved on the shared cluster produce exactly the
/// outputs and timing-free signatures of solo runs (cache off), and the
/// merged multi-job trace validates and race-checks clean.
#[test]
fn interleaved_tenants_match_their_solo_runs() {
    let cfg = small_workload_cfg();
    let cluster = ClusterConfig::local();
    let mut wl = workload::generate(cluster.nodes, &cfg);
    inject_fault(&mut wl);
    let run = serve(
        &cluster,
        &wl.tenants,
        wl.requests,
        &wl.dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty(), "unexpected rejections");
    assert_eq!(run.jobs.len(), cfg.jobs);

    run.trace.check().expect("merged trace invariants violated");
    let report = check_races(&run.trace);
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        run.trace.entries.iter().all(|e| e.job > 0),
        "every merged entry must carry its job id"
    );

    // Fresh solo runs of byte-identical plans (regenerated workload).
    let mut reference = workload::generate(cluster.nodes, &cfg);
    inject_fault(&mut reference);
    for (job, req) in run.jobs.iter().zip(reference.requests) {
        let solo = run_dag(&cluster, &req.plan, &reference.dfs).expect("solo run failed");
        assert_eq!(
            job.outputs, solo.outputs,
            "job {} outputs drifted",
            job.name
        );
        assert_eq!(
            job.profile.signature(),
            solo.profile.signature(),
            "job {} signature drifted",
            job.name
        );
        assert!(job.start >= job.arrival, "job {} started early", job.name);
        assert!(job.finish >= job.start);
    }
    // The injected fault really produced a retry in the merged trace.
    assert!(
        run.trace
            .entries
            .iter()
            .any(|e| e.job == 1 && e.attempt > 0),
        "fault plan produced no retry attempt"
    );
}

fn wordcount_request(tenant: usize, arrival: u64, name: &str) -> JobRequest {
    JobRequest {
        tenant,
        arrival,
        name: name.to_string(),
        plan: JobDag::new().stage(
            Arc::new(WordCount),
            JobConfig::default().with_reducers(3),
            StageInput::dfs("corpus"),
        ),
        cache_prefix: None,
    }
}

fn corpus_dfs(nodes: usize) -> SimDfs {
    let mut dfs = SimDfs::new(nodes, 4 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 200,
            vocab_size: 150,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn one_tenant() -> Vec<TenantSpec> {
    vec![TenantSpec {
        name: "solo".into(),
        weight: 1,
        max_jobs: 8,
    }]
}

/// The merged trace of a lone job must equal its solo trace entry for
/// entry (modulo the job id) and edge for edge: the multiplexer's
/// per-job floors degenerate to the engine's own free-time raises.
/// Pinned at `shuffle_fetchers = 1`, where the engine places reduces
/// with the same static recurrence the multiplexer replays.
fn assert_single_tenant_replay(trace: &JobTrace, solo: &JobTrace) {
    assert_eq!(trace.entries.len(), solo.entries.len());
    for (m, s) in trace.entries.iter().zip(&solo.entries) {
        assert_eq!(m.job, 1, "merged entry must be tagged job 1");
        let mut expect = s.clone();
        expect.job = 1;
        assert_eq!(*m, expect, "entry diverged from the legacy schedule");
    }
    let canon = |t: &JobTrace| {
        let mut es: Vec<String> = t.edges.iter().map(|e| format!("{e:?}")).collect();
        es.sort();
        es
    };
    assert_eq!(canon(trace), canon(solo), "edge sets diverged");
    assert_eq!(trace.wall, solo.wall);
}

#[test]
fn single_tenant_serve_replays_the_legacy_schedule() {
    let cluster = ClusterConfig::local().with_shuffle_fetchers(1);
    let dfs = corpus_dfs(cluster.nodes);
    let run = serve(
        &cluster,
        &one_tenant(),
        vec![wordcount_request(0, 0, "wc")],
        &dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty());
    assert_single_tenant_replay(&run.trace, &run.jobs[0].solo_trace);
}

/// Same replay property across a three-round DAG: the multiplexer's
/// round floors must coincide with the engine's round origins.
#[test]
fn single_tenant_multiround_serve_replays_the_legacy_schedule() {
    let cluster = ClusterConfig::local().with_shuffle_fetchers(1);
    let mut dfs = SimDfs::new(cluster.nodes, 256);
    let mut lines = String::new();
    for i in 0..48u64 {
        lines.push_str(&format!("{i} {}\n", (i * 13 + 5) % 97));
    }
    dfs.put("elems", lines.into_bytes());
    let cfg = JobConfig::default().with_reducers(3);
    let plan = JobDag::new()
        .stage(
            Arc::new(PrefixLocal { block_size: 8 }),
            cfg.clone(),
            StageInput::dfs("elems"),
        )
        .then(Arc::new(PrefixScan { num_blocks: 6 }), cfg.clone())
        .then(Arc::new(PrefixApply), cfg);
    let run = serve(
        &cluster,
        &one_tenant(),
        vec![JobRequest {
            tenant: 0,
            arrival: 0,
            name: "prefix".into(),
            plan,
            cache_prefix: None,
        }],
        &dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty());
    assert_single_tenant_replay(&run.trace, &run.jobs[0].solo_trace);
}

/// One generated task: a node seed and its attempt durations.
type Ladder = (usize, Vec<u64>);

/// An attempt ladder of 1–3 durations, zero among them often.
fn ladder() -> impl Strategy<Value = Ladder> {
    (
        0usize..4,
        proptest::collection::vec(prop_oneof![Just(0u64), 1u64..1_000], 1..4),
    )
}

/// A one-job plan in engine dispatch order (per round: maps, then
/// reduces), entries numbered in that order.
fn generated_plan(nodes: usize, rounds: &[(Vec<Ladder>, Vec<Ladder>)]) -> JobPlan {
    let mut chains = Vec::new();
    let mut phases = Vec::new();
    let mut entry = 0;
    for (round, (maps, reduces)) in rounds.iter().enumerate() {
        let (first, split) = (chains.len(), chains.len() + maps.len());
        phases.push((
            (first..split).collect(),
            (split..split + reduces.len()).collect(),
        ));
        for (kind, tasks) in [(TaskKind::Map, maps), (TaskKind::Reduce, reduces)] {
            for (task, (seed, durs)) in tasks.iter().enumerate() {
                let attempts = durs
                    .iter()
                    .map(|&dur| {
                        let info = AttemptInfo {
                            entry,
                            node: seed % nodes,
                            dur,
                        };
                        entry += 1;
                        info
                    })
                    .collect();
                chains.push(TaskChain {
                    round,
                    kind,
                    task,
                    attempts,
                });
            }
        }
    }
    JobPlan {
        job: 1,
        tenant: 0,
        arrival: 0,
        chains,
        rounds: phases,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A lone job at arrival 0 is multiplexed exactly as the engine
    /// schedules it: its per-job floors coincide with the engine's
    /// `begin_round` / `begin_reduce_phase` raises, so every attempt lands
    /// on the engine scheduler's slot, start and end.
    #[test]
    fn single_tenant_multiplex_places_where_the_engine_scheduler_does(
        nodes in 1usize..5,
        map_slots in 1usize..4,
        reduce_slots in 1usize..4,
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(ladder(), 1..5),
                proptest::collection::vec(ladder(), 1..5),
            ),
            1..4,
        ),
    ) {
        let plan = generated_plan(nodes, &rounds);

        // The engine side, driven as the DAG executor drives it: each
        // round opens at the previous round's wall, the reduce phase at
        // the map phase's end, and every placement has floor 0.
        let shape = ClusterShape { nodes, map_slots, reduce_slots, fetchers: 1 };
        let mut sched = Scheduler::new(shape, Vec::new());
        let mut want = vec![(0, 0, 0); plan.chains.iter().map(|c| c.attempts.len()).sum()];
        let mut origin = 0;
        for (round, (maps, reduces)) in plan.rounds.iter().enumerate() {
            if round > 0 {
                sched.begin_round(round, origin);
            }
            let mut phase_end = 0;
            for (kind, ids) in [(TaskKind::Map, maps), (TaskKind::Reduce, reduces)] {
                if kind == TaskKind::Reduce {
                    sched.begin_reduce_phase(phase_end);
                }
                for &ci in ids {
                    let chain = &plan.chains[ci];
                    let durs: Vec<u64> = chain.attempts.iter().map(|a| a.dur).collect();
                    let got = sched.place_attempts(kind, ci, chain.attempts[0].node, &durs, 0);
                    for (a, p) in chain.attempts.iter().zip(&got) {
                        want[a.entry] = (p.slot, p.start, p.end);
                        phase_end = phase_end.max(p.end);
                    }
                }
            }
            origin = phase_end;
        }

        let mux = multiplex(nodes, map_slots, reduce_slots, &one_tenant(), &[plan]);
        prop_assert_eq!(mux.placed.len(), want.len());
        for p in &mux.placed {
            prop_assert_eq!((p.slot, p.start, p.end), want[p.entry], "entry {}", p.entry);
        }
        prop_assert_eq!(mux.windows[0].finish, origin);
        prop_assert_eq!(mux.wall, origin);
    }
}

/// Serving the same Zipfian queue twice (fresh caches, regenerated
/// workloads) makes identical data-level decisions: per-job outputs,
/// signatures, and the per-job cache hit/miss tallies all agree, even
/// though measured virtual durations differ between the two calls.
#[test]
fn repeated_serves_agree_on_outputs_and_cache_decisions() {
    let cfg = WorkloadConfig {
        jobs: 10,
        tenants: 3,
        lines: 120,
        alpha: 1.4,
        ..Default::default()
    };
    let cluster = ClusterConfig::local();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let wl = workload::generate(cluster.nodes, &cfg);
        let serve_cfg = ServeConfig {
            cache: Some(ServeCacheConfig {
                cache: Arc::new(textmr_serve::S3FifoCache::new(1 << 20)),
                lookup_cost_ns: 50_000,
            }),
        };
        let run =
            serve(&cluster, &wl.tenants, wl.requests, &wl.dfs, &serve_cfg).expect("serve failed");
        run.trace.check().expect("merged trace invariants violated");
        runs.push(run);
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.jobs.len(), b.jobs.len());
    let mut total_hits = 0;
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.outputs, jb.outputs, "job {} outputs drifted", ja.name);
        assert_eq!(ja.profile.signature(), jb.profile.signature());
        assert_eq!(
            (ja.cache_hits, ja.cache_misses),
            (jb.cache_hits, jb.cache_misses),
            "job {} cache decisions drifted",
            ja.name
        );
        total_hits += ja.cache_hits;
    }
    assert_eq!(
        a.profile.cache, b.profile.cache,
        "final cache stats drifted"
    );
    assert!(
        total_hits > 0,
        "Zipf-repeated classes should score map-cache hits"
    );
}
