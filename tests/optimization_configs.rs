//! The paper's four experimental configurations — Baseline, FreqOpt,
//! SpillOpt, Combined — must all produce identical output, and each
//! optimization must show its signature behaviour on text workloads.

use std::sync::Arc;
use textmr_apps::*;
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig, SpillMatcherConfig};
use textmr_data::text::CorpusConfig;
use textmr_data::weblog::WeblogConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::Job;

fn cluster() -> ClusterConfig {
    let mut c = ClusterConfig::local();
    c.spill_buffer_bytes = 256 << 10;
    c
}

fn four_configs() -> Vec<(&'static str, OptimizationConfig)> {
    let freq = FreqBufferConfig {
        k: 500,
        sampling_fraction: Some(0.05),
        ..Default::default()
    };
    vec![
        ("Baseline", OptimizationConfig::baseline()),
        ("FreqOpt", OptimizationConfig::freq_only(freq.clone())),
        (
            "SpillOpt",
            OptimizationConfig::spill_only(SpillMatcherConfig::default()),
        ),
        (
            "Combined",
            OptimizationConfig {
                frequency_buffering: Some(freq),
                spill_matcher: Some(SpillMatcherConfig::default()),
                share_frequent_keys: true,
            },
        ),
    ]
}

fn run_all(job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)]) -> Vec<(&'static str, JobRun)> {
    four_configs()
        .into_iter()
        .map(|(name, opt)| {
            let cfg = optimized(JobConfig::default().with_reducers(3), opt);
            (
                name,
                run_job(&cluster(), &cfg, job.clone(), dfs, inputs).unwrap(),
            )
        })
        .collect()
}

/// Run every config `rounds` times, interleaved round-robin, and return all
/// runs per config. Timing-shape tests take the per-config *minimum* of
/// their metric across rounds: virtual durations derive from measured
/// wall-clock nanoseconds, so on shared hardware a load spike during one
/// config's single run can skew a cross-config ratio arbitrarily.
/// Interleaving makes a spike hit all configs alike, and the minimum
/// discards it (contention only ever adds time).
fn run_all_rounds(
    job: Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
    rounds: usize,
) -> Vec<(&'static str, Vec<JobRun>)> {
    let mut out: Vec<(&'static str, Vec<JobRun>)> = four_configs()
        .iter()
        .map(|(name, _)| (*name, Vec::with_capacity(rounds)))
        .collect();
    for _ in 0..rounds {
        for (slot, (_, opt)) in out.iter_mut().zip(four_configs()) {
            let cfg = optimized(JobConfig::default().with_reducers(3), opt);
            slot.1
                .push(run_job(&cluster(), &cfg, job.clone(), dfs, inputs).unwrap());
        }
    }
    out
}

/// Minimum of `metric` over a config's runs — the least-contended sample.
fn min_metric(runs: &[JobRun], metric: impl Fn(&JobRun) -> u64) -> u64 {
    runs.iter().map(metric).min().expect("at least one round")
}

fn corpus_dfs(lines: usize) -> SimDfs {
    let mut dfs = SimDfs::new(6, 64 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines,
            vocab_size: 3_000,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

#[test]
fn all_configs_agree_on_wordcount() {
    let dfs = corpus_dfs(3000);
    let runs = run_all(Arc::new(WordCount), &dfs, &[("corpus", 0)]);
    let baseline = runs[0].1.sorted_pairs();
    for (name, run) in &runs[1..] {
        assert_eq!(run.sorted_pairs(), baseline, "{name} changed the output");
    }
}

#[test]
fn all_configs_agree_on_inverted_index() {
    let dfs = corpus_dfs(1500);
    let runs = run_all(Arc::new(InvertedIndex), &dfs, &[("corpus", 0)]);
    let baseline = runs[0].1.sorted_pairs();
    for (name, run) in &runs[1..] {
        assert_eq!(run.sorted_pairs(), baseline, "{name} changed the output");
    }
}

#[test]
fn all_configs_agree_on_join() {
    let mut dfs = SimDfs::new(6, 64 << 10);
    let weblog = WeblogConfig {
        num_urls: 400,
        num_visits: 2_500,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    dfs.put("rankings", weblog.rankings_bytes());
    let inputs = [("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)];
    let runs = run_all(Arc::new(AccessLogJoin), &dfs, &inputs);
    let baseline = runs[0].1.sorted_pairs();
    for (name, run) in &runs[1..] {
        assert_eq!(run.sorted_pairs(), baseline, "{name} changed the output");
    }
}

#[test]
fn freq_buffering_absorbs_on_text() {
    let dfs = corpus_dfs(4000);
    let runs = run_all(Arc::new(WordCount), &dfs, &[("corpus", 0)]);
    let absorbed = |run: &JobRun| -> u64 {
        run.profile
            .map_tasks
            .iter()
            .map(|t| t.freq_absorbed_records)
            .sum()
    };
    assert_eq!(absorbed(&runs[0].1), 0, "baseline must not absorb");
    assert_eq!(absorbed(&runs[2].1), 0, "spill-only must not absorb");
    let freq_absorbed = absorbed(&runs[1].1);
    let emitted: u64 = runs[1]
        .1
        .profile
        .map_tasks
        .iter()
        .map(|t| t.emitted_records)
        .sum();
    // Zipf(1) text: the frequent set should absorb a large share.
    assert!(
        freq_absorbed as f64 > 0.3 * emitted as f64,
        "absorbed {freq_absorbed} of {emitted}"
    );
}

#[test]
fn freq_buffering_shrinks_spilled_records() {
    let dfs = corpus_dfs(4000);
    let runs = run_all(Arc::new(WordCount), &dfs, &[("corpus", 0)]);
    let spilled_records = |run: &JobRun| -> usize {
        run.profile
            .map_tasks
            .iter()
            .flat_map(|t| t.spills.iter())
            .map(|s| s.records)
            .sum()
    };
    let base = spilled_records(&runs[0].1);
    let freq = spilled_records(&runs[1].1);
    assert!(
        (freq as f64) < 0.8 * base as f64,
        "frequency-buffering should shrink the spill stream: base {base}, freq {freq}"
    );
}

// The following three tests assert the *direction* of the paper's
// performance effects with generous noise margins: virtual durations here
// are single-digit milliseconds measured on shared hardware in (possibly)
// debug builds, where constant overheads and scheduling jitter distort
// ratios. Each config runs `TIMING_ROUNDS` times interleaved and the
// per-config minimum is compared (see `run_all_rounds`). The precise
// magnitudes — "who wins, by how much" — are the bench harness's job
// (release mode, larger inputs; see EXPERIMENTS.md).

/// Rounds per config for timing-shape assertions.
const TIMING_ROUNDS: usize = 3;

/// Noise multiplier for timing-shape assertions.
fn slack() -> f64 {
    if cfg!(debug_assertions) {
        1.5
    } else {
        1.15
    }
}

#[test]
fn spill_matcher_does_not_inflate_slower_thread_wait() {
    let dfs = corpus_dfs(6000);
    let runs = run_all_rounds(Arc::new(WordCount), &dfs, &[("corpus", 0)], TIMING_ROUNDS);
    // For each task, the slower side's wait under the matcher should sum
    // to less than (noise-adjusted) the fixed baseline fraction's.
    let slower_wait = |run: &JobRun| -> u64 {
        run.profile
            .map_tasks
            .iter()
            .map(|t| {
                if t.produce_busy >= t.consume_busy {
                    // Producer is the slower (busier) side.
                    t.producer_wait
                } else {
                    t.consumer_wait
                }
            })
            .sum()
    };
    let base = min_metric(&runs[0].1, slower_wait);
    let matched = min_metric(&runs[2].1, slower_wait);
    assert!(
        (matched as f64) < (base as f64) * slack() + 2e6,
        "spill-matcher grossly inflated the slower thread's wait: base {base}, matched {matched}"
    );
}

#[test]
fn combined_does_not_regress_text_virtual_time() {
    let dfs = corpus_dfs(6000);
    let runs = run_all_rounds(Arc::new(WordCount), &dfs, &[("corpus", 0)], TIMING_ROUNDS);
    let base = min_metric(&runs[0].1, |r| r.profile.wall) as f64;
    let combined = min_metric(&runs[3].1, |r| r.profile.wall) as f64;
    assert!(
        combined < base * slack(),
        "combined optimizations grossly regressed text: base {base} vs combined {combined}\n\
         base rounds:\n{}combined rounds:\n{}",
        rounds_report(&runs[0].1),
        rounds_report(&runs[3].1)
    );
}

/// One line per round: virtual wall, spills and records the frequency
/// buffer absorbed, summed over the map tasks.
fn rounds_report(runs: &[JobRun]) -> String {
    runs.iter()
        .enumerate()
        .map(|(i, r)| {
            let tasks = &r.profile.map_tasks;
            format!(
                "  round {i}: wall {} spills {} absorbed {}\n",
                r.profile.wall,
                tasks.iter().map(|t| t.spills.len()).sum::<usize>(),
                tasks.iter().map(|t| t.freq_absorbed_records).sum::<u64>()
            )
        })
        .collect()
}

#[test]
fn relational_job_not_catastrophically_hurt() {
    // The paper's claim is "improve or do not substantially change".
    let mut dfs = SimDfs::new(6, 64 << 10);
    let weblog = WeblogConfig {
        num_urls: 600,
        num_visits: 4_000,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    let runs = run_all_rounds(
        Arc::new(AccessLogSum),
        &dfs,
        &[("visits", SOURCE_VISITS)],
        TIMING_ROUNDS,
    );
    let base = min_metric(&runs[0].1, |r| r.profile.wall) as f64;
    let combined = min_metric(&runs[3].1, |r| r.profile.wall) as f64;
    assert!(
        combined < base * slack() + 2e6,
        "combined should not blow up relational jobs: {combined} vs {base}"
    );
}
