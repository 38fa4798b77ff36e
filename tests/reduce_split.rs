//! A reduce attempt whose fetched runs reach the split floor reduces its
//! key range on two threads, and the helper fails, cancels and panics with
//! the attempt.
//!
//! 1. An injected group fault past the reduce thread's groups lands in the
//!    helper's half and fails the attempt as `Injected`.
//! 2. A cancel raised while the helper reduces returns `Cancelled`, both
//!    threads joined and nothing left on disk.
//! 3. A panicking `reduce()` on the helper reaches the caller.
//! 4. An I/O error in the helper's store names it and leaves nothing else
//!    behind.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use textmr_engine::codec::{decode_u64, encode_u64};
use textmr_engine::controller::FixedSpill;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::frame::DEFAULT_FRAME_BYTES;
use textmr_engine::io::input::{InputSplit, DEFAULT_INPUT_CHUNK};
use textmr_engine::job::{Emit, Job, Record, ValueCursor};
use textmr_engine::net::NetworkConfig;
use textmr_engine::task::map_task::{run_map_task, MapOutput, MapTaskConfig};
use textmr_engine::task::reduce_task::{run_reduce_task, ReduceResult, ReduceTaskConfig};
use textmr_engine::task::TaskError;

/// Map tasks, words per task and distinct keys: 12 runs of 6 000
/// 16-byte records fetch 1.15 MB, over the 1 MiB split floor.
const TASKS: usize = 12;
const WORDS: usize = 6000;
const KEYS: usize = 2 * WORDS;

/// Word count with no combiner, and what `reduce()` does besides.
#[derive(Default)]
struct Probe {
    /// Threads that ran `reduce()`.
    threads: Mutex<HashSet<ThreadId>>,
    /// `reduce()` sets this flag at this key.
    cancel_at: Option<(Vec<u8>, Arc<AtomicBool>)>,
    /// `reduce()` panics at this key.
    panic_at: Option<Vec<u8>>,
}

impl Job for Probe {
    fn name(&self) -> &str {
        "reduce-split-probe"
    }
    fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
        for w in r.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            e.emit(w, &encode_u64(1));
        }
    }
    fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        if let Some((key, flag)) = &self.cancel_at {
            if k == key.as_slice() {
                flag.store(true, Ordering::SeqCst);
            }
        }
        if self.panic_at.as_deref() == Some(k) {
            panic!("the helper's reduce exploded");
        }
        let mut n = 0;
        while let Some(v) = values.next() {
            n += decode_u64(v).unwrap();
        }
        out.emit(k, &encode_u64(n));
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-rsplit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("map")).unwrap();
    std::fs::create_dir_all(dir.join("reduce")).unwrap();
    dir
}

fn files_in(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect()
}

/// [`TASKS`] one-spill map outputs of one partition under `dir/map`: task
/// `t` maps [`WORDS`] distinct keys starting at `t * 500`.
fn map_outputs(job: &Arc<dyn Job>, dir: &Path) -> Vec<MapOutput> {
    (0..TASKS)
        .map(|t| {
            let text: String = (0..WORDS)
                .map(|i| {
                    let k = key((t * 500 + i) % KEYS);
                    format!("{}\n", String::from_utf8(k).unwrap())
                })
                .collect();
            let mut dfs = SimDfs::new(1, text.len());
            dfs.put("in", text.into_bytes());
            let split = InputSplit::from_file(dfs.get("in").unwrap(), 0).remove(0);
            let cfg = MapTaskConfig {
                task_id: t,
                node: 0,
                num_partitions: 1,
                buffer_capacity: 4 << 20,
                controller: Box::new(FixedSpill(0.9)),
                filter: None,
                merge_fan_in: 10,
                spill_dir: dir.join("map"),
                fail_after_records: None,
                fail_spill: None,
                cancel: None,
                trace: false,
                frame_bytes: None,
                input_chunk_bytes: DEFAULT_INPUT_CHUNK,
            };
            run_map_task(job, &split, cfg)
                .map_err(|e| format!("{e:?}"))
                .unwrap()
                .0
        })
        .collect()
}

/// Partition 0's reduce attempt under `dir/reduce`, its 12 runs past a
/// fan-in of 10: both threads run an intermediate pass.
fn config(dir: &Path) -> ReduceTaskConfig {
    ReduceTaskConfig {
        partition: 0,
        node: 0,
        merge_fan_in: 10,
        scratch_dir: dir.join("reduce"),
        fetchers: 2,
        fail_after_groups: None,
        faults: None,
        max_fetch_attempts: 4,
        cancel: None,
        trace: false,
        frame_bytes: DEFAULT_FRAME_BYTES,
    }
}

fn reduce(probe: Probe, dir: &Path, cfg: &ReduceTaskConfig) -> Result<ReduceResult, TaskError> {
    let job: Arc<dyn Job> = Arc::new(probe);
    let outputs = map_outputs(&job, dir);
    let fetched: u64 = outputs.iter().map(|m| m.file.total_bytes()).sum();
    assert!(fetched >= 1 << 20, "under the split floor: {fetched}");
    run_reduce_task(&job, &outputs, &NetworkConfig::local_cluster(), cfg)
}

/// Distinct keys the map outputs hold: task `t` covers `t * 500` up to
/// `t * 500 + WORDS`.
fn groups() -> u64 {
    ((TASKS - 1) * 500 + WORDS) as u64
}

#[test]
fn a_partition_over_the_floor_reduces_on_two_threads() {
    let dir = scratch("two");
    let probe = Arc::new(Probe::default());
    let job: Arc<dyn Job> = probe.clone();
    let outputs = map_outputs(&job, &dir);
    let r = run_reduce_task(
        &job,
        &outputs,
        &NetworkConfig::local_cluster(),
        &config(&dir),
    )
    .unwrap();
    assert_eq!(probe.threads.lock().unwrap().len(), 2);
    assert_eq!(r.pairs.len() as u64, groups());
    assert!(r.pairs.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(r.profile.input_records, (TASKS * WORDS) as u64);
    assert!(files_in(&dir.join("reduce")).is_empty());
}

#[test]
fn a_group_fault_in_the_helpers_half_fails_the_attempt() {
    let dir = scratch("fault");
    let mut cfg = config(&dir);
    // The reduce thread holds about half the groups; the last few are the
    // helper's.
    cfg.fail_after_groups = Some(groups() - 5);
    match reduce(Probe::default(), &dir, &cfg) {
        Err(TaskError::Injected { virtual_elapsed }) => assert!(virtual_elapsed > 0),
        other => panic!("want an injected failure, got {:?}", other.map(|_| ())),
    }
    assert!(files_in(&dir.join("reduce")).is_empty());

    // A budget of every group never fires.
    cfg.fail_after_groups = Some(groups() + 1);
    let r = reduce(Probe::default(), &dir, &cfg).unwrap();
    assert_eq!(r.pairs.len() as u64, groups());
}

#[test]
fn a_cancel_while_the_helper_reduces_leaves_nothing() {
    let dir = scratch("cancel");
    let flag = Arc::new(AtomicBool::new(false));
    let mut cfg = config(&dir);
    cfg.cancel = Some(Arc::clone(&flag));
    // A key three quarters of the way up the range: the helper's, with
    // hundreds of groups after it.
    let probe = Probe {
        cancel_at: Some((key(groups() as usize * 3 / 4), Arc::clone(&flag))),
        ..Probe::default()
    };
    let err = reduce(probe, &dir, &cfg).unwrap_err();
    assert!(matches!(err, TaskError::Cancelled), "got {err:?}");
    assert!(flag.load(Ordering::SeqCst));
    assert!(files_in(&dir.join("reduce")).is_empty());
}

#[test]
fn a_panicking_reduce_on_the_helper_reaches_the_caller() {
    let dir = scratch("panic");
    let probe = Probe {
        panic_at: Some(key(groups() as usize - 1)),
        ..Probe::default()
    };
    let result = std::panic::catch_unwind(|| reduce(probe, &dir, &config(&dir)));
    let panic = result.expect_err("the helper's panic");
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("the helper's reduce exploded"),
        "{message}"
    );
    assert!(files_in(&dir.join("reduce")).is_empty());
}

#[test]
fn a_helper_store_io_error_names_it_and_leaves_nothing_else() {
    // A directory stands where the helper's store would go: its first
    // intermediate pass cannot create the file.
    let dir = scratch("io");
    let blocker = dir.join("reduce").join("r0.merge");
    std::fs::create_dir(&blocker).unwrap();
    match reduce(Probe::default(), &dir, &config(&dir)) {
        Err(TaskError::Io(e)) => {
            assert!(
                e.to_string().contains(&blocker.display().to_string()),
                "{e}"
            );
        }
        other => panic!("want an I/O error, got {:?}", other.map(|_| ())),
    }
    assert_eq!(files_in(&dir.join("reduce")), vec![blocker.clone()]);
    assert!(files_in(&blocker).is_empty());
}
