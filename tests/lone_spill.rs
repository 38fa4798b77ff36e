//! A map task that spills once adopts that spill as its output instead of
//! re-merging it (Hadoop's `MapTask.mergeParts` when `numSpills == 1`).
//!
//! The adoption is only sound if the skipped merge would have been an
//! identity, so this suite checks exactly that:
//!
//! 1. For every app with a combiner, a map task whose buffer holds its
//!    whole split spills once, and re-merging each output partition
//!    through `merge_grouped` + `combine_values` (what the one-run merge
//!    did) reproduces it byte for byte, framed partitions included.
//!    PageRank's and PrefixScan's combiners pass values through, so their
//!    groups reach the second combine with more than one value.
//! 2. Whole jobs whose map tasks all spill once match the reference
//!    execution under every intermediate format, with equal signatures at
//!    one and two worker threads.

use std::path::PathBuf;
use std::sync::Arc;
use textmr_apps::{
    AccessLogJoin, AccessLogSum, InvertedIndex, PageRank, PrefixLocal, PrefixScan, SynText,
    WordCount, WordPosTag, SOURCE_RANKINGS, SOURCE_VISITS,
};
use textmr_data::graph::GraphConfig;
use textmr_data::text::CorpusConfig;
use textmr_data::weblog::WeblogConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::codec::write_record;
use textmr_engine::controller::FixedSpill;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::frame::{decode_run, FrameEncoder};
use textmr_engine::io::input::InputSplit;
use textmr_engine::io::StreamingConfig;
use textmr_engine::job::{combine_values, Job};
use textmr_engine::reference::{flatten_sorted, reference_run};
use textmr_engine::task::map_task::{run_map_task, MapOutput, MapTaskConfig};
use textmr_engine::task::merge::merge_grouped;

const PARTITIONS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-lone-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The whole of `data` as one split.
fn one_split(data: Vec<u8>, source: u8) -> InputSplit {
    let mut dfs = SimDfs::new(1, data.len().max(1));
    dfs.put("in", data);
    let mut splits = InputSplit::from_file(dfs.get("in").unwrap(), source);
    assert_eq!(splits.len(), 1);
    splits.remove(0)
}

fn corpus() -> Vec<u8> {
    CorpusConfig {
        lines: 400,
        vocab_size: 300,
        ..Default::default()
    }
    .generate_bytes()
}

/// PrefixScan's input: PrefixLocal's output over 300 elements in blocks
/// of 16, so every later block receives several totals to combine.
fn prefix_scan_input() -> (InputSplit, u64) {
    let lines: String = (0..300u64)
        .map(|i| format!("{i} {}\n", i * 7 % 13))
        .collect();
    let mut dfs = SimDfs::new(1, 1 << 20);
    dfs.put("elements", lines.into_bytes());
    let local = run_job(
        &ClusterConfig::local(),
        &JobConfig::default().with_reducers(2),
        Arc::new(PrefixLocal { block_size: 16 }),
        &dfs,
        &[("elements", 0)],
    )
    .unwrap();
    (
        InputSplit::from_pairs(&local.sorted_pairs(), 0, 0),
        300 / 16 + 1,
    )
}

/// Every app with a combiner, with a split of its own input.
fn combiner_apps() -> Vec<(Arc<dyn Job>, InputSplit)> {
    let weblog = WeblogConfig {
        num_urls: 200,
        num_visits: 2_000,
        ..Default::default()
    };
    let pages = 300;
    let graph = GraphConfig {
        pages,
        ..Default::default()
    };
    let (scan_split, num_blocks) = prefix_scan_input();
    vec![
        (Arc::new(WordCount), one_split(corpus(), 0)),
        (Arc::new(InvertedIndex), one_split(corpus(), 0)),
        (Arc::new(WordPosTag::new()), one_split(corpus(), 0)),
        (Arc::new(SynText::new(2, 0.5)), one_split(corpus(), 0)),
        (
            Arc::new(AccessLogSum),
            one_split(weblog.visits_bytes(), SOURCE_VISITS),
        ),
        (
            Arc::new(PageRank::new(pages as u64)),
            one_split(graph.generate_bytes(), 0),
        ),
        (Arc::new(PrefixScan { num_blocks }), scan_split),
    ]
}

/// Run one map task whose buffer holds its whole split.
fn map_once(job: &Arc<dyn Job>, split: &InputSplit, streaming: StreamingConfig) -> MapOutput {
    let cfg = MapTaskConfig {
        task_id: 0,
        node: 0,
        num_partitions: PARTITIONS,
        buffer_capacity: 64 << 20,
        controller: Box::new(FixedSpill(0.8)),
        filter: None,
        merge_fan_in: 10,
        compress_output: false,
        spill_dir: temp_dir(&format!("{}-{}", job.name(), streaming.framed)),
        fail_after_records: None,
        fail_spill: None,
        cancel: None,
        trace: false,
        streaming,
    };
    let (out, prof) = run_map_task(job, split, cfg).unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(prof.spills.len(), 1, "{}: want one spill", job.name());
    out
}

/// `run` merged as the only run, each group through the combiner when it
/// has more than one value: what the map-side merge of one spill wrote.
/// Also returns how many groups reached the combiner.
fn remerge(job: &dyn Job, run: &[u8]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut combined = 0;
    let runs = [run.to_vec()];
    merge_grouped(&runs, &|a, b| job.compare_keys(a, b), |key, values| {
        if job.has_combiner() && values.len() > 1 {
            combined += 1;
            for v in combine_values(job, key, values) {
                write_record(&mut out, key, &v);
            }
        } else {
            for v in values {
                write_record(&mut out, key, v);
            }
        }
    })
    .unwrap();
    (out, combined)
}

#[test]
fn skipped_merge_is_an_identity() {
    for (job, split) in combiner_apps() {
        let name = job.name().to_string();
        assert!(job.has_combiner(), "{name}");
        let plain = map_once(&job, &split, StreamingConfig::default());
        let framed = map_once(&job, &split, StreamingConfig::streamed());
        assert!(plain.file.total_records() > 0, "{name}: empty output");
        let mut combined = 0;
        for part in 0..PARTITIONS {
            let run = plain.file.read_partition(part).unwrap();
            let (again, c) = remerge(job.as_ref(), &run);
            assert_eq!(again, run, "{name}: partition {part} changed on re-merge");
            combined += c;
            // The framed spill holds the same records in frames of the
            // output's size: what re-encoding the merge wrote.
            let stored = framed.file.read_partition(part).unwrap();
            let raw = decode_run(&stored).unwrap();
            assert_eq!(
                raw, run,
                "{name}: framed partition {part} holds other records"
            );
            let mut enc = FrameEncoder::new(StreamingConfig::streamed().frame_bytes);
            let (mut pos, mut records) = (0, 0);
            while let Some((k, v)) = textmr_engine::codec::read_record(&raw, &mut pos) {
                enc.push_record(k, v);
                records += 1;
            }
            let (encoded, metas, _) = enc.finish();
            assert_eq!(
                encoded, stored,
                "{name}: framed partition {part} re-encodes"
            );
            if records > 0 {
                assert_eq!(framed.file.frames(part).unwrap(), &metas[..], "{name}");
            }
        }
        // Pass-through combiners leave several values under one key, so
        // the skipped merge would have combined again.
        if name == "PageRank" || name == "prefix-scan" {
            assert!(combined > 0, "{name}: no group reached the combiner");
        }
    }
}

fn weblog_dfs() -> SimDfs {
    let weblog = WeblogConfig {
        num_urls: 300,
        num_visits: 3_000,
        ..Default::default()
    };
    let mut dfs = SimDfs::new(6, 16 << 10);
    dfs.put("visits", weblog.visits_bytes());
    dfs.put("rankings", weblog.rankings_bytes());
    dfs.put("corpus", corpus());
    dfs
}

fn run_once_spilled(
    job: &Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
    workers: usize,
    compress: bool,
    streaming: StreamingConfig,
) -> JobRun {
    let root = temp_dir(&format!("job-{}-{workers}", job.name()));
    let mut cluster = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_streaming(streaming);
    cluster.spill_buffer_bytes = 8 << 20;
    cluster.compress_map_output = compress;
    cluster.temp_dir = Some(root.clone());
    let run = run_job(
        &cluster,
        &JobConfig::default().with_reducers(PARTITIONS),
        job.clone(),
        dfs,
        inputs,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert!(run.profile.map_tasks.len() > 1);
    for (i, t) in run.profile.map_tasks.iter().enumerate() {
        assert_eq!(t.spills.len(), 1, "{}: map task {i} spills", job.name());
    }
    run
}

#[test]
fn jobs_whose_map_tasks_spill_once_match_the_reference() {
    let dfs = weblog_dfs();
    type Inputs = Vec<(&'static str, u8)>;
    let jobs: Vec<(Arc<dyn Job>, Inputs)> = vec![
        (Arc::new(WordCount), vec![("corpus", 0)]),
        (
            Arc::new(AccessLogJoin),
            vec![("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)],
        ),
    ];
    let formats = [
        ("record/blob", false, StreamingConfig::default()),
        ("compressed", true, StreamingConfig::default()),
        ("framed streamed", false, StreamingConfig::streamed()),
        (
            "framed materialized",
            false,
            StreamingConfig::materialized(),
        ),
    ];
    for (job, inputs) in &jobs {
        let reference =
            flatten_sorted(&reference_run(job.as_ref(), &dfs, inputs, PARTITIONS).unwrap());
        for (format, compress, streaming) in formats {
            let what = format!("{} {format}", job.name());
            let one = run_once_spilled(job, &dfs, inputs, 1, compress, streaming);
            let two = run_once_spilled(job, &dfs, inputs, 2, compress, streaming);
            assert_eq!(one.sorted_pairs(), reference, "{what}: output");
            assert_eq!(one.outputs, two.outputs, "{what}: outputs at 2 workers");
            assert_eq!(
                one.profile.signature(),
                two.profile.signature(),
                "{what}: signature at 2 workers"
            );
        }
    }
}
