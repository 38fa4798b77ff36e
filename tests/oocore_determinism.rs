//! Out-of-core determinism: a map budget selects framed runs, written
//! and read one frame at a time, and bounds each map task's tracked
//! residency. A budgeted run must compute the reference execution's
//! answer, and its outputs and timing-free profile signature must not
//! move with the worker count, the fetcher count, or a deterministic
//! fault plan — while every map task stays under the budget.
//!
//! Also covers the framed-run format itself through the public API:
//! index round-trip via [`scan_frames`], and the truncation / corruption
//! / bad-flags error paths that protect merge and shuffle from damaged
//! spill bytes.

use std::sync::Arc;
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::fault::FaultPlan;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::frame::{
    decode_frame, decode_run, scan_frames, FrameEncoder, FrameError, FrameRunCursor,
};
use textmr_engine::reference::{flatten_sorted, reference_run};

const BUDGET: usize = 96 << 10;
const REDUCERS: usize = 5;

fn corpus_dfs() -> SimDfs {
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
    dfs
}

fn run_budgeted(workers: usize, fetchers: usize, cfg: &JobConfig, dfs: &SimDfs) -> JobRun {
    let mut cluster = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_shuffle_fetchers(fetchers)
        .with_map_budget(BUDGET);
    cluster.spill_buffer_bytes = 128 << 10;
    run_job(&cluster, cfg, Arc::new(WordCount), dfs, &[("corpus", 0)]).unwrap()
}

/// The naive reference execution's output over `dfs`.
fn reference(dfs: &SimDfs) -> Vec<(Vec<u8>, Vec<u8>)> {
    flatten_sorted(&reference_run(&WordCount, dfs, &[("corpus", 0)], REDUCERS).unwrap())
}

/// Assert two runs are observationally identical: byte-identical reduce
/// outputs and equal timing-free profile signatures.
fn assert_same(a: &JobRun, b: &JobRun, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs differ");
    assert_eq!(a.sorted_pairs(), b.sorted_pairs(), "{what}: pairs differ");
    assert_eq!(
        a.profile.signature(),
        b.profile.signature(),
        "{what}: profile signature differs"
    );
}

/// Assert every map task of `run` stayed under the budget.
fn assert_under_budget(run: &JobRun, what: &str) {
    for t in &run.profile.map_tasks {
        assert!(
            t.peak_buffer_bytes as usize <= BUDGET,
            "{what}: map task peak {} exceeds budget {BUDGET}",
            t.peak_buffer_bytes
        );
    }
}

#[test]
fn budgeted_runs_match_reference_across_workers_and_fetchers() {
    let dfs = corpus_dfs();
    let cfg = JobConfig::default().with_reducers(REDUCERS);
    let base = run_budgeted(1, 1, &cfg, &dfs);
    assert_eq!(base.sorted_pairs(), reference(&dfs), "budgeted output");
    for workers in [1, 2, 4] {
        for fetchers in [1, 4] {
            let what = format!("budgeted w={workers} f={fetchers}");
            let run = run_budgeted(workers, fetchers, &cfg, &dfs);
            assert_same(&base, &run, &what);
            assert_under_budget(&run, &what);
        }
    }
}

#[test]
fn budgeted_runs_match_reference_under_seeded_faults() {
    let dfs = corpus_dfs();
    // One map retry, one shuffle retry, one reduce retry, one slow node:
    // every recovery path crosses the framed intermediate format.
    let plan = FaultPlan::new()
        .map_fail_after(0, 40)
        .shuffle_fail(1, 0)
        .reduce_fail_after(2, 10)
        .slow_node(1, 3);
    let cfg = JobConfig::default()
        .with_reducers(REDUCERS)
        .with_fault_plan(plan);
    let base = run_budgeted(1, 1, &cfg, &dfs);
    assert!(
        !base.profile.map_tasks.is_empty(),
        "fault run produced no map profile"
    );
    assert_eq!(base.sorted_pairs(), reference(&dfs), "faulted output");
    for workers in [1, 4] {
        for fetchers in [1, 4] {
            let what = format!("faulted budgeted w={workers} f={fetchers}");
            let run = run_budgeted(workers, fetchers, &cfg, &dfs);
            assert_same(&base, &run, &what);
            assert_under_budget(&run, &what);
        }
    }
}

#[test]
fn framed_budgeted_run_matches_legacy_output() {
    // The framed out-of-core pipeline must compute the same job answer as
    // the record/blob path. Spill geometry differs (frames compress), so
    // only the reduce output is compared — not signatures.
    let dfs = corpus_dfs();
    let cfg = JobConfig::default().with_reducers(REDUCERS);
    let legacy = {
        let mut cluster = ClusterConfig::local();
        cluster.spill_buffer_bytes = 128 << 10;
        run_job(&cluster, &cfg, Arc::new(WordCount), &dfs, &[("corpus", 0)]).unwrap()
    };
    let framed = run_budgeted(4, 4, &cfg, &dfs);
    assert_eq!(legacy.sorted_pairs(), framed.sorted_pairs());
}

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;
type Metas = Vec<textmr_engine::io::frame::FrameMeta>;

fn sample_run(target: usize) -> (Pairs, Vec<u8>, Metas) {
    let pairs: Pairs = (0..400)
        .map(|i| {
            (
                format!("key{i:05}").into_bytes(),
                format!("value{}", i % 7).into_bytes(),
            )
        })
        .collect();
    let mut enc = FrameEncoder::new(target);
    for (k, v) in &pairs {
        enc.push_record(k, v);
    }
    let (stored, metas, records) = enc.finish();
    assert_eq!(records, pairs.len() as u64);
    (pairs, stored, metas)
}

#[test]
fn frame_index_round_trips_through_header_scan() {
    let (pairs, stored, metas) = sample_run(1 << 10);
    assert!(metas.len() > 2, "want several frames, got {}", metas.len());
    // Rebuilding the index from headers alone recovers the geometry
    // (record counts are index-only and come back as 0).
    let scanned = scan_frames(&stored).unwrap();
    assert_eq!(scanned.len(), metas.len());
    for (s, m) in scanned.iter().zip(&metas) {
        assert_eq!(s.offset, m.offset);
        assert_eq!(s.stored_len, m.stored_len);
        assert_eq!(s.raw_len, m.raw_len);
        assert_eq!(s.records, 0);
    }
    // The scanned index decodes the run identically to the original one,
    // frame by frame and as a whole.
    let whole = decode_run(&stored).unwrap();
    let mut via_scan = Vec::new();
    for m in &scanned {
        via_scan.extend(decode_frame(&stored, m).unwrap());
    }
    assert_eq!(via_scan, whole);
    // And a windowed cursor over the scanned index yields every record.
    let mut cursor = FrameRunCursor::from_mem(stored, scanned).unwrap();
    let mut got = Vec::new();
    while let Some((k, v)) = cursor.peek() {
        got.push((k.to_vec(), v.to_vec()));
        cursor.advance().unwrap();
    }
    assert_eq!(got, pairs);
}

#[test]
fn truncated_run_is_rejected_not_misread() {
    let (_, stored, metas) = sample_run(1 << 10);
    // Chop mid-way through the last frame's payload.
    let cut = stored.len() - (metas.last().unwrap().stored_len as usize / 2);
    let truncated = &stored[..cut];
    assert_eq!(scan_frames(truncated).unwrap_err(), FrameError::Truncated);
    assert_eq!(
        decode_frame(truncated, metas.last().unwrap()).unwrap_err(),
        FrameError::Truncated
    );
    assert_eq!(decode_run(truncated).unwrap_err(), FrameError::Truncated);
    // Chopping inside a *header* (first byte of the run + 2) must also be
    // a clean Truncated, not a panic or a garbage decode.
    assert_eq!(
        scan_frames(&stored[..2]).unwrap_err(),
        FrameError::Truncated
    );
}

#[test]
fn corrupt_payload_and_bad_flags_are_rejected() {
    let (_, stored, metas) = sample_run(1 << 10);
    // Flip one payload byte in the middle frame: the FNV-1a check (or the
    // decompressor) must catch it.
    let m = metas[metas.len() / 2];
    let mut damaged = stored.clone();
    damaged[m.offset as usize + m.stored_len as usize - 1] ^= 0x55;
    match decode_frame(&damaged, &m) {
        Err(FrameError::Corrupt) | Err(FrameError::Truncated) => {}
        other => panic!("damaged frame decoded: {other:?}"),
    }
    // An unknown flags byte is reported as such, with the offending value.
    let mut bad = stored.clone();
    bad[m.offset as usize] = 0x42;
    assert_eq!(
        decode_frame(&bad, &m).unwrap_err(),
        FrameError::BadFlags(0x42)
    );
    assert_eq!(scan_frames(&bad).unwrap_err(), FrameError::BadFlags(0x42));
}
