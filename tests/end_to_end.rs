//! End-to-end integration tests: every benchmark application runs on the
//! full engine over generated data and matches the reference executor.

use std::sync::Arc;
use textmr_apps::*;
use textmr_data::graph::GraphConfig;
use textmr_data::text::CorpusConfig;
use textmr_data::weblog::WeblogConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_engine::reference::{flatten_sorted, reference_run};

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::local();
    c.spill_buffer_bytes = 256 << 10; // force multiple spills per task
    c
}

fn check_against_reference(job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)]) {
    check_impl(job, dfs, inputs, true)
}

/// Like [`check_against_reference`] but for jobs whose reduce emits keys
/// different from the grouping key (e.g. joins): their output partitions
/// are ordered by *grouping* key, not output key, so the sortedness check
/// does not apply.
fn check_against_reference_unsorted(job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)]) {
    check_impl(job, dfs, inputs, false)
}

fn check_impl(job: Arc<dyn Job>, dfs: &SimDfs, inputs: &[(&str, u8)], sorted_output: bool) {
    let cfg = JobConfig::default().with_reducers(3);
    let engine = run_job(&small_cluster(), &cfg, job.clone(), dfs, inputs).unwrap();
    let reference = reference_run(job.as_ref(), dfs, inputs, cfg.num_reducers).unwrap();
    assert_eq!(
        engine.sorted_pairs(),
        flatten_sorted(&reference),
        "engine output diverged from reference for {}",
        job.name()
    );
    if sorted_output {
        // Each partition must be key-sorted (MapReduce's sort contract,
        // which holds whenever reduce emits its grouping key).
        for part in &engine.outputs {
            assert!(
                part.windows(2).all(|w| w[0].0 <= w[1].0),
                "unsorted partition"
            );
        }
    }
}

fn corpus_dfs(lines: usize) -> SimDfs {
    let mut dfs = SimDfs::new(6, 64 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines,
            vocab_size: 5_000,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

#[test]
fn wordcount_end_to_end() {
    check_against_reference(Arc::new(WordCount), &corpus_dfs(4000), &[("corpus", 0)]);
}

#[test]
fn inverted_index_end_to_end() {
    check_against_reference(Arc::new(InvertedIndex), &corpus_dfs(2000), &[("corpus", 0)]);
}

#[test]
fn word_pos_tag_end_to_end() {
    // The tagger is expensive; keep the corpus small.
    check_against_reference(
        Arc::new(WordPosTag::new()),
        &corpus_dfs(400),
        &[("corpus", 0)],
    );
}

#[test]
fn access_log_sum_end_to_end() {
    let mut dfs = SimDfs::new(6, 64 << 10);
    let weblog = WeblogConfig {
        num_urls: 800,
        num_visits: 5_000,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    check_against_reference(Arc::new(AccessLogSum), &dfs, &[("visits", SOURCE_VISITS)]);
}

#[test]
fn access_log_join_end_to_end() {
    let mut dfs = SimDfs::new(6, 64 << 10);
    let weblog = WeblogConfig {
        num_urls: 500,
        num_visits: 3_000,
        ..Default::default()
    };
    dfs.put("visits", weblog.visits_bytes());
    dfs.put("rankings", weblog.rankings_bytes());
    check_against_reference_unsorted(
        Arc::new(AccessLogJoin),
        &dfs,
        &[("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)],
    );
}

#[test]
fn pagerank_end_to_end() {
    let mut dfs = SimDfs::new(6, 64 << 10);
    let graph = GraphConfig {
        pages: 2_000,
        mean_out_degree: 6,
        ..Default::default()
    };
    dfs.put("graph", graph.generate_bytes());
    check_against_reference(Arc::new(PageRank::new(2_000)), &dfs, &[("graph", 0)]);
}

#[test]
fn syntext_end_to_end() {
    check_against_reference(
        Arc::new(SynText::new(2, 0.5)),
        &corpus_dfs(1500),
        &[("corpus", 0)],
    );
}

/// WordCount under a custom key order: descending bytes.
struct DescendingWordCount;

impl Job for DescendingWordCount {
    fn name(&self) -> &str {
        "wordcount-descending"
    }
    fn map(&self, record: &Record<'_>, emit: &mut dyn Emit) {
        WordCount.map(record, emit)
    }
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        WordCount.combine(key, values, out)
    }
    fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        WordCount.reduce(key, values, out)
    }
    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        b.cmp(a)
    }
}

#[test]
fn custom_key_order_runs_end_to_end() {
    let dfs = corpus_dfs(2000);
    let cfg = JobConfig::default().with_reducers(3);
    let engine = run_job(
        &small_cluster(),
        &cfg,
        Arc::new(DescendingWordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let reference = reference_run(
        &DescendingWordCount,
        &dfs,
        &[("corpus", 0)],
        cfg.num_reducers,
    )
    .unwrap();
    assert_eq!(engine.outputs, reference);
    for part in &engine.outputs {
        assert!(part.len() > 1);
        assert!(
            part.windows(2).all(|w| w[0].0 > w[1].0),
            "partition not in descending key order"
        );
    }
}

#[test]
fn pagerank_rank_mass_is_conserved_approximately() {
    // One damped iteration keeps total rank ≈ 1 when every page links out.
    let pages = 1_000u64;
    let mut dfs = SimDfs::new(6, 64 << 10);
    let graph = GraphConfig {
        pages: pages as usize,
        mean_out_degree: 8,
        ..Default::default()
    };
    dfs.put("graph", graph.generate_bytes());
    let run = run_job(
        &small_cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(PageRank::new(pages)),
        &dfs,
        &[("graph", 0)],
    )
    .unwrap();
    let total: f64 = run
        .sorted_pairs()
        .iter()
        .map(|(_, v)| textmr_apps::pagerank::decode_output(v).unwrap().0)
        .sum();
    assert!((total - 1.0).abs() < 0.01, "total rank {total}");
}

#[test]
fn profiles_account_full_pipeline() {
    let dfs = corpus_dfs(2000);
    let run = run_job(
        &small_cluster(),
        &JobConfig::default().with_reducers(3),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let p = &run.profile;
    assert!(!p.map_tasks.is_empty());
    assert_eq!(p.map_tasks.len(), p.map_spans.len());
    assert_eq!(p.reduce_tasks.len(), 3);
    // Spills happened (small buffer) and consume work was recorded.
    let spills: usize = p.map_tasks.iter().map(|t| t.spills.len()).sum();
    assert!(
        spills >= p.map_tasks.len(),
        "each task spills at least once"
    );
    let ops = p.total_ops();
    use textmr_engine::metrics::Op;
    for op in [
        Op::Read,
        Op::Map,
        Op::Emit,
        Op::Sort,
        Op::SpillWrite,
        Op::Merge,
        Op::Reduce,
    ] {
        assert!(ops.get(op) > 0, "operation {op} never recorded");
    }
    // Wall covers the map phase plus at least one reduce task.
    assert!(p.wall >= p.map_phase_end);
}
