//! Framed writers hold one frame, not a run.
//!
//! A framed run bound for a store (a spill, an intermediate merge pass,
//! the map-side final merge) is sealed into the store frame by frame, so
//! the bytes its writer holds do not grow with the run. This suite counts
//! the bytes the process has allocated and not yet freed — on every
//! thread, since a map task's spills are written on its support thread —
//! and checks that the high-water mark of a writing step stays far below
//! the run it writes. A writer that buffers a whole run before writing it
//! fails here on bytes held, whatever the clock says. The tests take turns
//! so that each counts only its own bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use textmr_engine::codec::{decode_u64, encode_u64};
use textmr_engine::controller::FixedSpill;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::frame::{FrameEncoder, RunHandle};
use textmr_engine::io::input::{InputSplit, DEFAULT_INPUT_CHUNK};
use textmr_engine::io::store::Store;
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_engine::task::map_task::{run_map_task, MapTaskConfig};
use textmr_engine::task::merge::{reduce_sources_to_fan_in, CursorSource};

/// The system allocator, counting the process's live bytes and their peak.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held for the whole of each test, so no other test's bytes are counted.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` and return its result with the most bytes the process held at
/// once beyond what it held when `f` started.
fn peak_held<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst);
    (out, (peak - start).max(0) as usize)
}

/// Deterministic lowercase words that an LZ coder barely shrinks.
fn words(n: usize, seed: u64) -> Vec<String> {
    let mut x = seed | 1;
    (0..n)
        .map(|i| {
            let mut w = String::with_capacity(20);
            for _ in 0..14 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                w.push((b'a' + (x % 26) as u8) as char);
            }
            w.push_str(&format!("{i:06}"));
            w
        })
        .collect()
}

fn scratch(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("textmr-residency-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct WordSum;
impl Job for WordSum {
    fn name(&self) -> &str {
        "wordsum"
    }
    fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
        for w in r.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            e.emit(w, &encode_u64(1));
        }
    }
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine(&self, _k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let mut s = 0;
        while let Some(v) = values.next() {
            s += decode_u64(v).unwrap();
        }
        out.push(&encode_u64(s));
    }
    fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        let mut s = 0;
        while let Some(v) = values.next() {
            s += decode_u64(v).unwrap();
        }
        out.emit(k, &encode_u64(s));
    }
}

#[test]
fn an_intermediate_pass_holds_frames_not_its_run() {
    let _turn = one_at_a_time();
    // Four sorted runs of about 1 MiB stored, merged at fan-in 2: two
    // passes, each writing a 2 MiB run of 1 KiB frames to the store.
    let dir = scratch("pass");
    let store = Store::create(dir.join("runs.store"));
    let mut sources = Vec::new();
    let mut run_bytes = 0;
    for r in 0..4 {
        let mut keys = words(48 << 10, 11 + r);
        keys.sort();
        let mut enc = FrameEncoder::new(1 << 10);
        for k in &keys {
            enc.push_record(k.as_bytes(), &[b'v'; 12]);
        }
        let (stored, metas, records) = enc.finish();
        run_bytes += stored.len();
        sources.push(CursorSource::Stored(
            RunHandle::append(&store, &stored, metas, records).unwrap(),
        ));
    }
    let (multi, held) = peak_held(|| {
        reduce_sources_to_fan_in(sources, &WordSum, false, 2, 1 << 10, &store).unwrap()
    });
    assert_eq!(multi.passes, 2);
    // Two windows, the writer's frame and its compressed copy, the
    // compressor's 128 KiB hash table, the store's 64 KiB append buffer
    // and the frame indexes: well under the run each pass writes.
    let pass_bytes = run_bytes / 2;
    assert!(pass_bytes > 3 << 19, "passes of {pass_bytes} B");
    assert!(
        held < pass_bytes / 2,
        "a pass of {pass_bytes} B held {held} B"
    );
    drop(multi);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_map_task_holds_frames_not_its_output() {
    let _turn = one_at_a_time();
    // One partition of distinct keys through a 64 KiB spill buffer: dozens
    // of spills merged into an output of several MiB, in 1 KiB frames.
    let text: String = words(192 << 10, 7)
        .chunks(12)
        .map(|line| line.join(" ") + "\n")
        .collect();
    let mut dfs = SimDfs::new(1, text.len());
    dfs.put("in", text.into_bytes());
    let split = InputSplit::from_file(dfs.get("in").unwrap(), 0).remove(0);
    let dir = scratch("map");
    let cfg = MapTaskConfig {
        task_id: 0,
        node: 0,
        num_partitions: 1,
        buffer_capacity: 64 << 10,
        controller: Box::new(FixedSpill(0.8)),
        filter: None,
        merge_fan_in: 10,
        spill_dir: dir.clone(),
        fail_after_records: None,
        fail_spill: None,
        cancel: None,
        trace: false,
        frame_bytes: Some(1 << 10),
        input_chunk_bytes: DEFAULT_INPUT_CHUNK,
    };
    let job: Arc<dyn Job> = Arc::new(WordSum);
    let ((out, prof), held) = peak_held(|| run_map_task(&job, &split, cfg).unwrap());
    assert!(prof.spills.len() > 20, "{} spills", prof.spills.len());
    let output = out.file.total_bytes() as usize;
    assert!(output > 3 << 20, "output of {output} B");
    // The spill buffer, the spill sort's index, one writer's frame, the
    // merge's windows, the compressor's hash table, the append buffer and
    // the frame indexes (about 3 % of the runs): a fraction of the output.
    assert!(
        held < output / 2,
        "the map task held {held} B for a {output} B output"
    );
    drop(out);
    let _ = std::fs::remove_dir_all(&dir);
}
