//! Failure injection: map-task attempts die mid-input (and reduce-task
//! attempts mid-group) and are retried; output must be unaffected under
//! every optimization configuration, and exhausted retries must abort the
//! job — sequentially and on the worker pool, where a retry must never
//! reuse a dead attempt's spill directory and an abort must cancel
//! in-flight tasks instead of hanging the pool.

use std::sync::Arc;
use textmr_apps::WordCount;
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig, SpillMatcherConfig};
use textmr_data::text::CorpusConfig;
use textmr_engine::cache::{CachedMapOutput, MapCacheConfig, MapOutputCache};
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
use textmr_engine::fault::FaultPlan;
use textmr_engine::io::dfs::SimDfs;

fn corpus_dfs() -> SimDfs {
    let mut dfs = SimDfs::new(6, 32 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 2_000,
            vocab_size: 2_000,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn cluster() -> ClusterConfig {
    let mut c = ClusterConfig::local();
    c.spill_buffer_bytes = 128 << 10;
    c
}

#[test]
fn retried_tasks_do_not_change_output() {
    let dfs = corpus_dfs();
    let clean = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();

    let mut cfg = JobConfig::default().with_reducers(3);
    // Fail several tasks at assorted points, including after 1 record.
    cfg.fault_plan.insert(0, 1);
    cfg.fault_plan.insert(1, 50);
    cfg.fault_plan.insert(2, 7);
    let faulty = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
}

#[test]
fn retries_work_under_every_optimization_config() {
    let dfs = corpus_dfs();
    let clean = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let freq = FreqBufferConfig {
        k: 200,
        sampling_fraction: Some(0.1),
        ..Default::default()
    };
    let configs = [
        OptimizationConfig::freq_only(freq.clone()),
        OptimizationConfig::spill_only(SpillMatcherConfig::default()),
        OptimizationConfig {
            frequency_buffering: Some(freq),
            spill_matcher: Some(SpillMatcherConfig::default()),
            share_frequent_keys: true,
        },
    ];
    for opt in configs {
        let mut cfg = optimized(JobConfig::default().with_reducers(3), opt);
        cfg.fault_plan.insert(0, 25);
        cfg.fault_plan.insert(3, 2);
        let faulty = run_job(
            &cluster(),
            &cfg,
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .unwrap();
        assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
    }
}

#[test]
fn failed_attempt_occupies_slot_time() {
    let dfs = corpus_dfs();
    let mut cfg = JobConfig::default().with_reducers(3);
    cfg.fault_plan.insert(0, 100);
    let run = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    // Task 0's scheduled span covers at least its successful attempt.
    let span = &run.profile.map_spans[0];
    assert!(span.end - span.start >= run.profile.map_tasks[0].virtual_duration);
    // And the failed attempt pushed its start later than zero... only if it
    // ran on the same slot first; at minimum the start is not before 0.
    assert!(
        span.start > 0,
        "retry should be scheduled after the failed attempt"
    );
}

#[test]
fn injected_fault_on_every_first_attempt_still_completes() {
    let dfs = corpus_dfs();
    let mut cfg = JobConfig::default().with_reducers(2);
    for t in 0..64 {
        cfg.fault_plan.insert(t, 3);
    }
    let run = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert!(!run.sorted_pairs().is_empty());
}

#[test]
fn max_attempts_zero_tolerance_aborts() {
    let dfs = corpus_dfs();
    let mut cfg = JobConfig::default().with_reducers(2);
    cfg.fault_plan.insert(0, 5);
    cfg.max_attempts = 1; // the single allowed attempt is the failing one
    let err = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    );
    assert!(err.is_err(), "exhausted attempts must abort the job");
}

#[test]
fn retries_on_the_worker_pool_match_sequential_output() {
    let dfs = corpus_dfs();
    let mut cfg = JobConfig::default().with_reducers(3);
    // Enough faults that retries and healthy tasks overlap on the pool.
    for t in 0..8 {
        cfg.fault_plan.insert(t, 1 + (t as u64 * 7) % 40);
    }
    let seq = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let par = run_job(
        &cluster().with_worker_threads(4),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_eq!(seq.sorted_pairs(), par.sorted_pairs());
    assert_eq!(seq.profile.signature(), par.profile.signature());
}

#[test]
fn exhausted_retries_abort_promptly_on_the_worker_pool() {
    let dfs = corpus_dfs();
    let mut cfg = JobConfig::default().with_reducers(2);
    cfg.max_attempts = 1;
    cfg.fault_plan.insert(3, 1); // dooms the job while other tasks are in flight
    let start = std::time::Instant::now();
    let err = run_job(
        &cluster().with_worker_threads(4),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    );
    let elapsed = start.elapsed();
    let err = err.expect_err("exhausted attempts must abort the job");
    assert!(
        err.to_string().contains("map task 3 failed 1 attempts"),
        "got: {err}"
    );
    // The abort cancels in-flight and queued tasks rather than running the
    // whole job to completion; generous bound to stay robust under CI load.
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "abort took {elapsed:?}"
    );
}

// ---- reduce-side mirror of the map matrix ----------------------------------

#[test]
fn retried_reduce_tasks_do_not_change_output_or_signature() {
    let dfs = corpus_dfs();
    let clean = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();

    let plan = FaultPlan::new()
        .reduce_fail_after(0, 1) // dies on its very first key group
        .reduce_fail_at(1, 0, 40)
        .reduce_fail_at(1, 1, 7) // two dead attempts, succeeds on the third
        .reduce_fail_after(2, 15);
    let faulty = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3).with_fault_plan(plan),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
    // Only the final (successful) attempt contributes to the profile, so
    // the timing-free signature is untouched by the dead attempts.
    assert_eq!(clean.profile.signature(), faulty.profile.signature());
}

#[test]
fn reduce_retries_work_under_every_optimization_config() {
    let dfs = corpus_dfs();
    let clean = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let freq = FreqBufferConfig {
        k: 200,
        sampling_fraction: Some(0.1),
        ..Default::default()
    };
    let configs = [
        OptimizationConfig::freq_only(freq.clone()),
        OptimizationConfig::spill_only(SpillMatcherConfig::default()),
        OptimizationConfig {
            frequency_buffering: Some(freq),
            spill_matcher: Some(SpillMatcherConfig::default()),
            share_frequent_keys: true,
        },
    ];
    let plan = FaultPlan::new()
        .reduce_fail_after(0, 12)
        .reduce_fail_at(2, 0, 3)
        .reduce_fail_at(2, 1, 30);
    for opt in configs {
        for workers in [1, 4] {
            let cfg = optimized(JobConfig::default().with_reducers(3), opt.clone())
                .with_fault_plan(plan.clone());
            let faulty = run_job(
                &cluster().with_worker_threads(workers),
                &cfg,
                Arc::new(WordCount),
                &dfs,
                &[("corpus", 0)],
            )
            .unwrap();
            assert_eq!(
                clean.sorted_pairs(),
                faulty.sorted_pairs(),
                "workers={workers}"
            );
        }
    }
}

#[test]
fn failed_reduce_attempt_occupies_slot_time() {
    let dfs = corpus_dfs();
    let cfg = JobConfig::default()
        .with_reducers(3)
        .with_fault_plan(FaultPlan::new().reduce_fail_after(0, 20));
    let run = run_job(
        &cluster(),
        &cfg,
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    // Partition 0's span covers both the dead attempt and the successful
    // retry, so it must exceed the successful attempt's own duration and
    // start strictly after the map phase let it begin.
    let span = &run.profile.reduce_spans[0];
    assert!(span.end - span.start >= run.profile.reduce_tasks[0].virtual_duration);
    assert!(
        span.start > run.profile.map_phase_end,
        "retry should be scheduled after the failed attempt"
    );
}

#[test]
fn exhausted_reduce_retries_abort_with_a_named_error() {
    let dfs = corpus_dfs();
    // Every allowed attempt of partition 1 dies.
    let plan = FaultPlan::new()
        .reduce_fail_at(1, 0, 5)
        .reduce_fail_at(1, 1, 5);
    let cfg = JobConfig {
        max_attempts: 2,
        ..JobConfig::default().with_reducers(3).with_fault_plan(plan)
    };
    for workers in [1, 4] {
        let err = run_job(
            &cluster().with_worker_threads(workers),
            &cfg,
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .expect_err("exhausted reduce attempts must abort the job");
        assert!(
            err.to_string().contains("reduce task 1 failed 2 attempts"),
            "workers={workers}, got: {err}"
        );
    }
}

#[test]
fn mixed_map_and_reduce_faults_recover_together() {
    let dfs = corpus_dfs();
    let clean = run_job(
        &cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let plan = FaultPlan::new()
        .map_fail_after(0, 9)
        .map_fail_at(2, 1, 4) // first retry dies too
        .map_fail_at(2, 0, 31)
        .spill_fail(1, 0, 0) // first spill write of task 1, attempt 0
        .shuffle_fail(0, 0) // first fetch of map 0's output, per reducer
        .shuffle_fail(3, 0)
        .shuffle_fail(3, 1)
        .reduce_fail_after(2, 11);
    for workers in [1, 4] {
        let faulty = run_job(
            &cluster().with_worker_threads(workers),
            &JobConfig::default()
                .with_reducers(3)
                .with_fault_plan(plan.clone()),
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .unwrap();
        assert_eq!(
            clean.sorted_pairs(),
            faulty.sorted_pairs(),
            "workers={workers}"
        );
        assert_eq!(clean.profile.signature(), faulty.profile.signature());
        // The injected shuffle faults actually fired and were retried.
        assert!(faulty.profile.shuffle_stats().retries > 0);
    }
}

/// A corpus registered with `put_path` in a directory of its own, then
/// cut to half its length: splits past the cut cannot read their bytes.
fn truncated_corpus(name: &str) -> (std::path::PathBuf, std::path::PathBuf, SimDfs) {
    let dir = std::env::temp_dir().join(format!("textmr-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.txt");
    let bytes = CorpusConfig {
        lines: 2_000,
        vocab_size: 2_000,
        ..Default::default()
    }
    .generate_bytes();
    std::fs::write(&path, &bytes).unwrap();
    let mut dfs = SimDfs::new(6, 32 << 10);
    dfs.put_path("corpus", &path).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(bytes.len() as u64 / 2)
        .unwrap();
    (dir, path, dfs)
}

#[test]
fn a_corpus_truncated_on_disk_fails_the_job_naming_the_file() {
    let (dir, path, dfs) = truncated_corpus("truncated");
    for workers in [1, 2] {
        let mut c = cluster();
        c.worker_threads = workers;
        let err = run_job(
            &c,
            &JobConfig::default().with_reducers(3),
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .expect_err("a truncated input must fail the job");
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "error does not name the file: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_job_leaves_nothing_under_its_temp_root() {
    // One job that succeeds and one that fails (a truncated corpus): each
    // removes the one directory it created under the root.
    let root = std::env::temp_dir().join(format!("textmr-root-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let left = |root: &std::path::Path| -> Vec<_> {
        std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect()
    };
    let mut c = cluster();
    c.temp_dir = Some(root.clone());
    let job = JobConfig::default().with_reducers(3);
    run_job(
        &c,
        &job,
        Arc::new(WordCount),
        &corpus_dfs(),
        &[("corpus", 0)],
    )
    .unwrap();
    assert_eq!(left(&root), Vec::<std::ffi::OsString>::new(), "after Ok");
    let (dir, _, dfs) = truncated_corpus("truncated-root");
    run_job(&c, &job, Arc::new(WordCount), &dfs, &[("corpus", 0)]).expect_err("truncated");
    assert_eq!(left(&root), Vec::<std::ffi::OsString>::new(), "after Err");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A map-output cache that never hits and keeps nothing.
struct NoHits;
impl MapOutputCache for NoHits {
    fn get(&self, _key: &str) -> Option<Arc<CachedMapOutput>> {
        None
    }
    fn put(&self, _key: &str, _value: Arc<CachedMapOutput>) {}
}

#[test]
fn a_cached_map_task_over_a_truncated_corpus_fails_the_job_naming_the_file() {
    // With a map-output cache every map task digests its split for the
    // cache key before it runs: a split past the cut fails there.
    let (dir, path, dfs) = truncated_corpus("truncated-cached");
    let cache = MapCacheConfig {
        cache: Arc::new(NoHits),
        key_prefix: "wordcount".into(),
        lookup_cost_ns: 0,
    };
    for workers in [1, 2] {
        let mut c = cluster();
        c.worker_threads = workers;
        let err = run_job(
            &c,
            &JobConfig::default()
                .with_reducers(3)
                .with_map_cache(cache.clone()),
            Arc::new(WordCount),
            &dfs,
            &[("corpus", 0)],
        )
        .expect_err("a truncated input must fail the job");
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "error does not name the file: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
