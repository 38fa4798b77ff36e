//! Sequential vs parallel execution must be indistinguishable: the worker
//! pool (`ClusterConfig::worker_threads`) and the shuffle fetcher pool
//! (`ClusterConfig::shuffle_fetchers`) may only change real wall-clock
//! time (and, for fetchers, the NIC model's virtual shuffle time), never
//! the job's outputs or any timing-free profile counter.
//!
//! Most tests use the default `JobConfig` (fixed spill fraction, no
//! adaptive controller, no shared frequent-key registry), under which spill
//! boundaries depend only on byte counts — so the full structural profile
//! signature is deterministic. The shared-frequent-keys test adds the
//! `FrequentKeyRegistry` with its designated-publisher protocol, proving
//! absorption counts stay identical too. Measured nanosecond totals
//! (`OpTimes`) are excluded: they are noisy even between two sequential
//! runs. The timing-adaptive spill matcher is likewise out of scope here —
//! its spill boundaries react to measured rates by design.

use std::sync::Arc;
use textmr_apps::{AccessLogJoin, WordCount, SOURCE_RANKINGS, SOURCE_VISITS};
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig};
use textmr_data::text::CorpusConfig;
use textmr_data::weblog::WeblogConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::Job;

fn run_with(workers: usize, job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)]) -> JobRun {
    let mut cluster = ClusterConfig::local().with_worker_threads(workers);
    cluster.spill_buffer_bytes = 128 << 10; // several spills per task
    let cfg = JobConfig::default().with_reducers(5);
    run_job(&cluster, &cfg, job, dfs, inputs).unwrap()
}

fn assert_identical(job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)]) {
    let seq = run_with(1, job.clone(), dfs, inputs);
    for workers in [2, 4, 8] {
        let par = run_with(workers, job.clone(), dfs, inputs);
        // Byte-identical outputs, per partition and overall.
        assert_eq!(
            seq.outputs,
            par.outputs,
            "{} outputs differ at {workers} workers",
            job.name()
        );
        assert_eq!(seq.sorted_pairs(), par.sorted_pairs());
        // Identical timing-free profile: task counts, per-task record and
        // byte counters, per-spill structure, shuffled bytes.
        assert_eq!(
            seq.profile.signature(),
            par.profile.signature(),
            "{} profile signature differs at {workers} workers",
            job.name()
        );
        assert_eq!(seq.profile.map_spans.len(), par.profile.map_spans.len());
        assert_eq!(
            seq.profile.reduce_spans.len(),
            par.profile.reduce_spans.len()
        );
    }
}

#[test]
fn wordcount_is_deterministic_across_worker_counts() {
    let mut dfs = SimDfs::new(6, 32 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 3_000,
            vocab_size: 4_000,
            ..Default::default()
        }
        .generate_bytes(),
    );
    assert_identical(Arc::new(WordCount), &dfs, &[("corpus", 0)]);
}

#[test]
fn shared_frequent_keys_are_deterministic_across_workers_and_fetchers() {
    let mut dfs = SimDfs::new(6, 32 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 3_000,
            vocab_size: 4_000,
            ..Default::default()
        }
        .generate_bytes(),
    );
    let job: Arc<dyn Job> = Arc::new(WordCount);
    let run_with = |workers: usize, fetchers: usize| {
        let mut cluster = ClusterConfig::local()
            .with_worker_threads(workers)
            .with_shuffle_fetchers(fetchers);
        cluster.spill_buffer_bytes = 128 << 10;
        // Pin the sampling fraction so the test isolates pool/registry
        // effects (the auto-tuner is deterministic too, but noisier to
        // reason about). `optimized` builds a fresh registry per call —
        // essential, or runs would share frozen key sets.
        let fb = FreqBufferConfig {
            sampling_fraction: Some(0.05),
            ..Default::default()
        };
        let cfg = optimized(
            JobConfig::default().with_reducers(5),
            OptimizationConfig::freq_only(fb),
        );
        run_job(&cluster, &cfg, job.clone(), &dfs, &[("corpus", 0)]).unwrap()
    };
    let base = run_with(1, 1);
    let base_sig = base.profile.signature();
    let absorbed: u64 = base
        .profile
        .map_tasks
        .iter()
        .map(|t| t.freq_absorbed_records)
        .sum();
    assert!(
        absorbed > 0,
        "frequency buffering absorbed nothing — the test is vacuous"
    );
    for workers in [1, 4] {
        for fetchers in [1, 4] {
            let run = run_with(workers, fetchers);
            assert_eq!(
                base.outputs, run.outputs,
                "outputs differ at workers={workers} fetchers={fetchers}"
            );
            assert_eq!(
                base_sig,
                run.profile.signature(),
                "signature differs at workers={workers} fetchers={fetchers}"
            );
        }
    }
}

#[test]
fn access_log_join_is_deterministic_across_worker_counts() {
    let mut dfs = SimDfs::new(6, 32 << 10);
    let weblog = WeblogConfig {
        num_urls: 600,
        num_visits: 6_000,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    dfs.put("rankings", weblog.rankings_bytes());
    assert_identical(
        Arc::new(AccessLogJoin),
        &dfs,
        &[("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)],
    );
}

#[test]
fn a_join_whose_reducers_split_is_deterministic_across_worker_counts() {
    // Both reducers (≈ 9.8 MB and 1.1 MB fetched) pass the 1 MiB floor
    // from which a reduce attempt splits its key range over two threads:
    // at 2 workers up to four threads share the host's cores.
    let mut dfs = SimDfs::new(6, 512 << 10);
    let weblog = WeblogConfig {
        num_urls: 3_000,
        num_visits: 170_000,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    dfs.put("rankings", weblog.rankings_bytes());
    let inputs = [("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)];
    let job: Arc<dyn Job> = Arc::new(AccessLogJoin);
    let run = |workers: usize| {
        let cluster = ClusterConfig::local()
            .with_worker_threads(workers)
            .with_shuffle_fetchers(2);
        let cfg = JobConfig::default().with_reducers(2);
        run_job(&cluster, &cfg, job.clone(), &dfs, &inputs).unwrap()
    };
    let one = run(1);
    for task in &one.profile.reduce_tasks {
        assert!(
            task.peak_buffer_bytes >= 1 << 20,
            "{}",
            task.peak_buffer_bytes
        );
    }
    let two = run(2);
    assert_eq!(one.outputs, two.outputs);
    assert_eq!(one.profile.signature(), two.profile.signature());
}
