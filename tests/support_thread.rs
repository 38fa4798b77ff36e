//! A map attempt's spills run on a support thread while its map thread
//! keeps producing, and the thread fails, cancels and panics with the
//! attempt.
//!
//! 1. The overlap itself: a combiner that waits for `map()` to pass a
//!    later record finishes only if the two run at once. Run one after the
//!    other, the combiner's wait times out.
//! 2. A task whose one spill comes at the end of its input starts no
//!    thread: its combiner runs on the map thread.
//! 3. Failure with a spill in flight: an injected fault at spill k waits
//!    for spill k−1 and counts its time; an I/O error on the thread fails
//!    the attempt naming the store file; a cancel returns `Cancelled` with
//!    the thread joined and nothing left on disk; a panicking combiner's
//!    panic reaches the caller.
//! 4. The merge's helper thread, which merges the second half of the
//!    partitions: a panicking combiner there resumes on the caller, and an
//!    I/O error in its store names the store and leaves nothing behind.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use textmr_engine::codec::{decode_u64, encode_u64};
use textmr_engine::controller::FixedSpill;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::input::{InputSplit, DEFAULT_INPUT_CHUNK};
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_engine::metrics::TaskProfile;
use textmr_engine::task::map_task::{run_map_task, MapOutput, MapTaskConfig};
use textmr_engine::task::TaskError;

/// How long either thread waits for the other before giving up.
const PATIENCE: Duration = Duration::from_secs(10);

/// Key bytes + 8 value bytes + 16 bytes of record metadata.
const RECORD_COST: usize = 5 + 8 + 16;

/// What the test job does besides counting keys.
#[derive(Default)]
struct Probe {
    /// Records `map()` has finished.
    mapped: AtomicU64,
    /// `map()` waits at this record until a combine call has started.
    map_waits_at: Option<u64>,
    /// Set by the first combine call.
    combining: AtomicBool,
    /// Whether the first combine call saw `map()` finish a record while it
    /// waited.
    overlapped: AtomicBool,
    /// The first combine call waits for that.
    combine_waits: bool,
    /// Threads that ran `map()` and `combine()`.
    map_threads: Mutex<HashSet<ThreadId>>,
    combine_threads: Mutex<HashSet<ThreadId>>,
    /// Combine calls running now.
    in_combine: AtomicUsize,
    /// Every combine call sleeps this long.
    combine_sleep: Duration,
    /// `map()` sets the cancel flag at this record.
    cancel_at: Option<(u64, Arc<AtomicBool>)>,
    /// Combine calls panic.
    combine_panics: bool,
    /// Combine calls panic off the map thread when they see a value that
    /// is already combined (a merge's, not a spill's).
    merge_helper_panics: bool,
}

/// Word count over keys `k0000`…`k0009`, one word per line, with the
/// [`Probe`]'s hooks.
struct Counting(Arc<Probe>);

impl Job for Counting {
    fn name(&self) -> &str {
        "counting"
    }

    fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
        let p = &self.0;
        p.map_threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        let done = p.mapped.load(Ordering::SeqCst);
        if p.map_waits_at == Some(done) {
            wait_for(|| p.combining.load(Ordering::SeqCst));
        }
        if let Some((at, flag)) = &p.cancel_at {
            if *at == done {
                flag.store(true, Ordering::SeqCst);
            }
        }
        e.emit(r.value, &encode_u64(1));
        p.mapped.fetch_add(1, Ordering::SeqCst);
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let p = &self.0;
        p.in_combine.fetch_add(1, Ordering::SeqCst);
        p.combine_threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        assert!(!p.combine_panics, "combiner exploded");
        let id = std::thread::current().id();
        let off_map_thread = !p.map_threads.lock().unwrap().contains(&id);
        if p.combine_waits && !p.combining.swap(true, Ordering::SeqCst) {
            let seen = p.mapped.load(Ordering::SeqCst);
            let passed = wait_for(|| p.mapped.load(Ordering::SeqCst) > seen);
            p.overlapped.store(passed, Ordering::SeqCst);
        }
        std::thread::sleep(p.combine_sleep);
        let mut sum = 0;
        let mut merging = false;
        while let Some(v) = values.next() {
            let n = decode_u64(v).unwrap();
            merging |= n > 1;
            sum += n;
        }
        assert!(
            !(p.merge_helper_panics && merging && off_map_thread),
            "merge helper's combiner exploded"
        );
        out.push(&encode_u64(sum));
        p.in_combine.fetch_sub(1, Ordering::SeqCst);
    }

    fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        let mut sum = 0;
        while let Some(v) = values.next() {
            sum += decode_u64(v).unwrap();
        }
        out.emit(k, &encode_u64(sum));
    }
}

/// Poll `ready` until it holds (true) or [`PATIENCE`] runs out (false).
fn wait_for(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() > PATIENCE {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-support-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_in(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect()
}

/// `lines` lines of one word each, cycling through 10 keys: a spill of
/// 50 records combines 10 groups of 5 values.
fn split(lines: usize) -> InputSplit {
    let text: String = (0..lines).map(|i| format!("k{:04}\n", i % 10)).collect();
    let mut dfs = SimDfs::new(1, text.len());
    dfs.put("in", text.into_bytes());
    InputSplit::from_file(dfs.get("in").unwrap(), 0).remove(0)
}

/// A one-partition map task over `dir` whose buffer holds `records`
/// records and spills at half of it.
fn config(dir: &Path, records: usize) -> MapTaskConfig {
    MapTaskConfig {
        task_id: 7,
        node: 0,
        num_partitions: 1,
        buffer_capacity: records * RECORD_COST,
        controller: Box::new(FixedSpill(0.5)),
        filter: None,
        merge_fan_in: 10,
        spill_dir: dir.to_path_buf(),
        fail_after_records: None,
        fail_spill: None,
        cancel: None,
        trace: false,
        frame_bytes: None,
        input_chunk_bytes: DEFAULT_INPUT_CHUNK,
    }
}

fn run(
    probe: &Arc<Probe>,
    lines: usize,
    cfg: MapTaskConfig,
) -> Result<(MapOutput, TaskProfile), TaskError> {
    let job: Arc<dyn Job> = Arc::new(Counting(Arc::clone(probe)));
    run_map_task(&job, &split(lines), cfg)
}

#[test]
fn the_map_thread_produces_while_a_spill_combines() {
    // A 100-record buffer spilling at 50: spill 0 is handed over after
    // record 50, and the next handover waits for it at record 100. In
    // between, `map()` waits at record 60 for spill 0's combiner to start,
    // and the combiner waits for `map()` to finish another record.
    let dir = scratch("overlap");
    let probe = Arc::new(Probe {
        map_waits_at: Some(60),
        combine_waits: true,
        ..Probe::default()
    });
    let (out, prof) = run(&probe, 400, config(&dir, 100)).unwrap();
    assert!(
        probe.overlapped.load(Ordering::SeqCst),
        "the combiner waited {PATIENCE:?} for map() to pass a later record"
    );
    assert_eq!(prof.spills.len(), 8);
    assert_eq!(prof.spills[0].records, 50);
    assert_eq!(out.file.total_records(), 10);
    drop(out);
    assert!(files_in(&dir).is_empty());
}

#[test]
fn a_task_that_spills_once_starts_no_thread() {
    let dir = scratch("once");
    let probe = Arc::new(Probe::default());
    let (_, prof) = run(&probe, 400, config(&dir, 1000)).unwrap();
    assert_eq!(prof.spills.len(), 1);
    let map = probe.map_threads.lock().unwrap().clone();
    assert_eq!(map.len(), 1);
    assert_eq!(*probe.combine_threads.lock().unwrap(), map);

    // Spills made before the input ends run on a second thread.
    let probe = Arc::new(Probe::default());
    let (_, prof) = run(&probe, 400, config(&dir, 100)).unwrap();
    assert!(prof.spills.len() > 2);
    let combine = probe.combine_threads.lock().unwrap();
    assert!(combine
        .iter()
        .any(|t| !probe.map_threads.lock().unwrap().contains(t)));
}

#[test]
fn an_injected_spill_fault_waits_for_the_spill_in_flight() {
    // Each spill combines 10 keys at 5 ms each: spill 1 is still running
    // when the map thread reaches spill 2, which the fault kills.
    let dir = scratch("fault");
    let probe = Arc::new(Probe {
        combine_sleep: Duration::from_millis(5),
        ..Probe::default()
    });
    let mut cfg = config(&dir, 100);
    cfg.fail_spill = Some(2);
    match run(&probe, 400, cfg) {
        Err(TaskError::Injected { virtual_elapsed }) => {
            // Spills 0 and 1 ran one after the other on the support lane.
            assert!(virtual_elapsed >= 100_000_000, "elapsed {virtual_elapsed}");
        }
        other => panic!("want an injected fault, got {:?}", other.map(|_| ())),
    }
    assert_eq!(probe.in_combine.load(Ordering::SeqCst), 0);
    assert!(files_in(&dir).is_empty());
}

#[test]
fn a_support_thread_io_error_names_the_store_file() {
    // The spill directory is gone: the first spill, on the support
    // thread, cannot create the store.
    let dir = scratch("io").join("missing");
    let probe = Arc::new(Probe::default());
    match run(&probe, 400, config(&dir, 100)) {
        Err(TaskError::Io(e)) => {
            let store = dir.join("t7.spills");
            assert!(e.to_string().contains(&store.display().to_string()), "{e}");
        }
        other => panic!("want an I/O error, got {:?}", other.map(|_| ())),
    }
    assert!(!dir.exists());
}

#[test]
fn a_cancelled_attempt_joins_its_thread_and_leaves_nothing() {
    let dir = scratch("cancel");
    let cancel = Arc::new(AtomicBool::new(false));
    let probe = Arc::new(Probe {
        combine_sleep: Duration::from_millis(1),
        cancel_at: Some((120, Arc::clone(&cancel))),
        ..Probe::default()
    });
    let mut cfg = config(&dir, 100);
    cfg.cancel = Some(cancel);
    match run(&probe, 400, cfg) {
        Err(TaskError::Cancelled) => {}
        other => panic!("want Cancelled, got {:?}", other.map(|_| ())),
    }
    assert_eq!(probe.mapped.load(Ordering::SeqCst), 121);
    assert_eq!(probe.in_combine.load(Ordering::SeqCst), 0);
    assert!(files_in(&dir).is_empty(), "{:?}", files_in(&dir));
}

#[test]
fn a_panicking_combiner_reaches_the_caller() {
    let dir = scratch("panic");
    let probe = Arc::new(Probe {
        combine_panics: true,
        ..Probe::default()
    });
    let result = std::panic::catch_unwind(|| run(&probe, 400, config(&dir, 100)));
    let panic = result.expect_err("the combiner's panic");
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("combiner exploded"), "{message}");
    let combine = probe.combine_threads.lock().unwrap();
    assert!(combine
        .iter()
        .all(|t| !probe.map_threads.lock().unwrap().contains(t)));
    assert!(files_in(&dir).is_empty());
}

/// A two-partition [`config`] whose 8 spills merge through intermediate
/// passes: the map thread merges partition 0, a helper partition 1.
fn split_merge_config(dir: &Path) -> MapTaskConfig {
    let mut cfg = config(dir, 100);
    cfg.num_partitions = 2;
    cfg.merge_fan_in = 2;
    cfg
}

#[test]
fn a_panicking_combiner_in_the_merge_helper_reaches_the_caller() {
    let dir = scratch("merge-panic");
    let probe = Arc::new(Probe {
        merge_helper_panics: true,
        ..Probe::default()
    });
    let result = std::panic::catch_unwind(|| run(&probe, 400, split_merge_config(&dir)));
    let panic = result.expect_err("the helper's panic");
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("merge helper's combiner exploded"),
        "{message}"
    );
    assert_eq!(probe.mapped.load(Ordering::SeqCst), 400);
    assert!(files_in(&dir).is_empty(), "{:?}", files_in(&dir));
}

#[test]
fn a_merge_helper_io_error_names_its_store_and_leaves_nothing() {
    // A directory stands where the helper's store would go: its first
    // intermediate pass cannot create the file.
    let dir = scratch("merge-io");
    let blocker = dir.join("t7.merge");
    std::fs::create_dir(&blocker).unwrap();
    let probe = Arc::new(Probe::default());
    match run(&probe, 400, split_merge_config(&dir)) {
        Err(TaskError::Io(e)) => {
            assert!(
                e.to_string().contains(&blocker.display().to_string()),
                "{e}"
            );
        }
        other => panic!("want an I/O error, got {:?}", other.map(|_| ())),
    }
    assert_eq!(files_in(&dir), vec![blocker.clone()]);
    assert!(files_in(&blocker).is_empty());

    // Without the blocker the same attempt merges on both threads.
    std::fs::remove_dir(&blocker).unwrap();
    let (out, prof) = run(&Arc::new(Probe::default()), 400, split_merge_config(&dir)).unwrap();
    assert_eq!(prof.spills.len(), 8);
    assert_eq!(out.file.index().len(), 2);
    assert_eq!(out.file.total_records(), 10);
}
