//! K-way merge of sorted runs with key grouping.
//!
//! Used twice per job, exactly as in Hadoop: at the end of each map task to
//! merge spill files into the final map output (applying `combine()`
//! again), and on the reduce side to merge fetched partitions before
//! `reduce()`. Runs are byte buffers of framed records sorted by the job's
//! key comparator; groups (key + all its values) are delivered to a
//! visitor without copying record bytes.

use crate::codec::read_record;
use crate::job::{combine_values, Job};
use crate::metrics::Stopwatch;
use std::cmp::Ordering;
use std::io;

/// Hand one merged group's values to `out`: through the job's combiner when
/// `use_combiner` and the group holds more than one value, as they are
/// otherwise (a combiner runs zero or more times, so skipping it on a
/// singleton is sound). Combiner time is added to `combine_ns`.
pub(crate) fn combine_group(
    job: &dyn Job,
    use_combiner: bool,
    key: &[u8],
    values: &[&[u8]],
    combine_ns: &mut u64,
    mut out: impl FnMut(&[u8]),
) {
    if use_combiner && values.len() > 1 {
        let sw = Stopwatch::start();
        let combined = combine_values(job, key, values);
        *combine_ns = combine_ns.saturating_add(sw.elapsed_ns());
        for v in &combined {
            out(v);
        }
    } else {
        for v in values {
            out(v);
        }
    }
}

/// One sorted run positioned at its current record.
struct Cursor<'a> {
    /// Index of the run in the merge (for error messages).
    run: usize,
    data: &'a [u8],
    key: &'a [u8],
    val: &'a [u8],
    next_pos: usize,
    exhausted: bool,
}

impl<'a> Cursor<'a> {
    fn new(run: usize, data: &'a [u8]) -> io::Result<Self> {
        let mut c = Cursor {
            run,
            data,
            key: b"",
            val: b"",
            next_pos: 0,
            exhausted: false,
        };
        c.advance()?;
        Ok(c)
    }

    /// The head key, or `None` once exhausted.
    fn head(&self) -> Option<&'a [u8]> {
        (!self.exhausted).then_some(self.key)
    }

    /// Step to the next record. A run is exhausted only at its last byte:
    /// bytes that stop decoding before then are a truncated or corrupt
    /// run, an `InvalidData` error rather than a silently shortened one.
    fn advance(&mut self) -> io::Result<()> {
        let mut pos = self.next_pos;
        match read_record(self.data, &mut pos) {
            Some((k, v)) => {
                self.key = k;
                self.val = v;
                self.next_pos = pos;
            }
            None if self.next_pos == self.data.len() => self.exhausted = true,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "merge run {}: no record decodes at byte {} of {} \
                         (truncated or corrupt run)",
                        self.run,
                        self.next_pos,
                        self.data.len()
                    ),
                ))
            }
        }
        Ok(())
    }
}

/// Binary min-heap of run indices ordered by head key; a run that is
/// exhausted stays in the heap and orders after every run with a head.
///
/// A parent never orders after its child, so the runs whose head equals the
/// top's form a subtree containing the root. [`RunHeap::gather`] walks that
/// subtree, testing only it and its rim, and [`RunHeap::restore`] sifts its
/// nodes down, deepest first, once their runs have moved past the group. A
/// key held by one run of k costs O(log k) compares; a key held by all k
/// costs a heapify, O(k), as a scan of the runs would.
struct RunHeap {
    heap: Vec<usize>,
    /// Heap positions of the gathered group, each after its parent.
    group: Vec<usize>,
    /// Run indices of the gathered group, ascending.
    runs: Vec<usize>,
}

impl RunHeap {
    fn new(runs: usize, before: impl Fn(usize, usize) -> bool) -> Self {
        let mut heap = RunHeap {
            heap: (0..runs).collect(),
            group: Vec::new(),
            runs: Vec::new(),
        };
        for i in (0..runs / 2).rev() {
            heap.sift_down(i, &before);
        }
        heap
    }

    fn top(&self) -> Option<usize> {
        self.heap.first().copied()
    }

    /// The top run and every run whose head key equals its head
    /// (`tied(run)`), in ascending run index: the tie rule that puts a
    /// group's values in run order, then within-run order.
    fn gather(&mut self, tied: impl Fn(usize) -> bool) -> &[usize] {
        self.group.clear();
        self.group.push(0);
        let mut i = 0;
        while let Some(&p) = self.group.get(i) {
            for child in [2 * p + 1, 2 * p + 2] {
                if self.heap.get(child).is_some_and(|&r| tied(r)) {
                    self.group.push(child);
                }
            }
            i += 1;
        }
        self.runs.clear();
        self.runs.extend(self.group.iter().map(|&p| self.heap[p]));
        self.runs.sort_unstable();
        &self.runs
    }

    /// Restore heap order after every gathered run moved past the group.
    fn restore(&mut self, before: impl Fn(usize, usize) -> bool) {
        for i in (0..self.group.len()).rev() {
            self.sift_down(self.group[i], &before);
        }
    }

    fn sift_down(&mut self, mut i: usize, before: &impl Fn(usize, usize) -> bool) {
        let h = &mut self.heap;
        loop {
            let left = 2 * i + 1;
            if left >= h.len() {
                return;
            }
            let right = left + 1;
            let child = if right < h.len() && before(h[right], h[left]) {
                right
            } else {
                left
            };
            if !before(h[child], h[i]) {
                return;
            }
            h.swap(i, child);
            i = child;
        }
    }
}

/// Head-key order of two runs, an exhausted run (no head) last.
#[inline]
fn head_before(cmp: &dyn Fn(&[u8], &[u8]) -> Ordering, a: Option<&[u8]>, b: Option<&[u8]>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => cmp(a, b) == Ordering::Less,
        (a, b) => a.is_some() && b.is_none(),
    }
}

/// Merge sorted `runs` and invoke `on_group(key, values)` once per unique
/// key, in key order. `values` preserves run order (then within-run order),
/// matching Hadoop's unstated but deterministic grouping.
///
/// Records inside each run must already be sorted by `cmp`; this is
/// guaranteed for spill files and map outputs produced by this engine. A
/// run whose bytes stop decoding before its end fails the merge with an
/// `InvalidData` error naming the run and the byte offset.
pub fn merge_grouped<'a, F>(
    runs: &'a [Vec<u8>],
    cmp: &dyn Fn(&[u8], &[u8]) -> Ordering,
    mut on_group: F,
) -> io::Result<()>
where
    F: FnMut(&'a [u8], &[&'a [u8]]),
{
    let mut cursors: Vec<Cursor<'a>> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| Cursor::new(i, r))
        .collect::<io::Result<_>>()?;
    let before = |c: &[Cursor<'a>], a: usize, b: usize| head_before(cmp, c[a].head(), c[b].head());
    let mut heap = RunHeap::new(cursors.len(), |a, b| before(&cursors, a, b));
    let mut values: Vec<&'a [u8]> = Vec::new();
    while let Some(group_key) = heap.top().and_then(|t| cursors[t].head()) {
        values.clear();
        let tied = heap.gather(|r| {
            cursors[r]
                .head()
                .is_some_and(|k| cmp(k, group_key) == Ordering::Equal)
        });
        // A run may repeat the key (e.g. no combiner).
        for &r in tied {
            let c = &mut cursors[r];
            loop {
                values.push(c.val);
                c.advance()?;
                if c.exhausted || cmp(c.key, group_key) != Ordering::Equal {
                    break;
                }
            }
        }
        heap.restore(|a, b| before(&cursors, a, b));
        on_group(group_key, &values);
    }
    Ok(())
}

/// Outcome of reducing a run set to a bounded fan-in (multi-pass merge).
#[derive(Debug)]
pub struct MultiPassOutcome {
    /// The surviving runs (≤ fan_in of them), each sorted.
    pub runs: Vec<Vec<u8>>,
    /// Time spent in the user's combiner during intermediate passes (ns).
    pub combine_ns: u64,
    /// Time spent writing/reading intermediate runs to scratch disk (ns).
    pub io_ns: u64,
    /// Number of intermediate merge passes performed.
    pub passes: usize,
}

/// Hadoop-style multi-pass merge: while more than `fan_in` runs exist,
/// merge batches of `fan_in` into intermediate on-disk runs (applying the
/// combiner when available, as Hadoop does on intermediate passes), until
/// at most `fan_in` runs remain for the caller's final streaming pass.
///
/// `scratch` is a file path reused for the intermediate round-trips; the
/// write+read cost is real and measured into `io_ns`.
pub fn reduce_to_fan_in(
    mut runs: Vec<Vec<u8>>,
    job: &dyn Job,
    use_combiner: bool,
    fan_in: usize,
    scratch: &std::path::Path,
) -> io::Result<MultiPassOutcome> {
    use crate::codec::write_record;

    let fan_in = fan_in.max(2);
    let mut combine_ns = 0u64;
    let mut io_ns = 0u64;
    let mut passes = 0usize;
    while runs.len() > fan_in {
        passes += 1;
        let batch: Vec<Vec<u8>> = runs.drain(..fan_in).collect();
        let mut merged = Vec::with_capacity(batch.iter().map(|r| r.len()).sum());
        merge_grouped(&batch, &|a, b| job.compare_keys(a, b), |key, values| {
            combine_group(job, use_combiner, key, values, &mut combine_ns, |v| {
                write_record(&mut merged, key, v)
            });
        })?;
        // Round-trip through scratch disk, as Hadoop's intermediate merge
        // outputs do; the cost is real.
        let sw = Stopwatch::start();
        std::fs::write(scratch, &merged)?;
        let merged = std::fs::read(scratch)?;
        io_ns = io_ns.saturating_add(sw.elapsed_ns());
        runs.push(merged);
    }
    let _ = std::fs::remove_file(scratch);
    Ok(MultiPassOutcome {
        runs,
        combine_ns,
        io_ns,
        passes,
    })
}

/// A sorted run readable one record at a time — the out-of-core
/// counterpart of the in-memory byte-buffer runs above. Implementations
/// may hold only a bounded window of the run (e.g. one decoded frame);
/// `advance` may therefore invalidate the slices `peek` returned.
pub trait RunCursor {
    /// The current record, or `None` when the run is exhausted.
    fn peek(&self) -> Option<(&[u8], &[u8])>;
    /// Step to the next record (may read and decompress the next window).
    fn advance(&mut self) -> std::io::Result<()>;
}

impl RunCursor for crate::io::frame::FrameRunCursor {
    fn peek(&self) -> Option<(&[u8], &[u8])> {
        crate::io::frame::FrameRunCursor::peek(self)
    }
    fn advance(&mut self) -> std::io::Result<()> {
        crate::io::frame::FrameRunCursor::advance(self)
    }
}

/// [`merge_grouped`] over windowed [`RunCursor`]s: identical group order
/// and value order (ties break to the earliest run; values gathered run by
/// run), but each run holds only its current window in memory. Keys and
/// values are copied into a scratch arena before cursors advance, so the
/// slices handed to `on_group` are valid only for the duration of the call
/// — the same contract `merge_grouped` callers already honor.
pub fn merge_grouped_cursors<C, F>(
    cursors: &mut [C],
    cmp: &dyn Fn(&[u8], &[u8]) -> Ordering,
    mut on_group: F,
) -> std::io::Result<()>
where
    C: RunCursor,
    F: FnMut(&[u8], &[&[u8]]),
{
    fn head<C: RunCursor>(c: &C) -> Option<&[u8]> {
        c.peek().map(|(k, _)| k)
    }
    let before = |c: &[C], a: usize, b: usize| head_before(cmp, head(&c[a]), head(&c[b]));
    let mut heap = RunHeap::new(cursors.len(), |a, b| before(cursors, a, b));
    let mut key_buf: Vec<u8> = Vec::new();
    let mut arena: Vec<u8> = Vec::new();
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut spare: Vec<&[u8]> = Vec::new();
    while let Some(key) = heap.top().and_then(|t| head(&cursors[t])) {
        key_buf.clear();
        key_buf.extend_from_slice(key);
        arena.clear();
        bounds.clear();
        let tied =
            heap.gather(|r| head(&cursors[r]).is_some_and(|k| cmp(k, &key_buf) == Ordering::Equal));
        for &r in tied {
            let c = &mut cursors[r];
            while let Some((_, v)) = c.peek() {
                let start = arena.len();
                arena.extend_from_slice(v);
                bounds.push((start, arena.len()));
                c.advance()?;
                match c.peek() {
                    Some((k, _)) if cmp(k, &key_buf) == Ordering::Equal => {}
                    _ => break,
                }
            }
        }
        heap.restore(|a, b| before(cursors, a, b));
        let mut values = recycle(std::mem::take(&mut spare));
        values.extend(bounds.iter().map(|&(s, e)| &arena[s..e]));
        on_group(&key_buf, &values);
        spare = recycle(values);
    }
    Ok(())
}

/// Empty `v` and hand its allocation back for slices of another lifetime
/// (an in-place `collect` of an empty vector reallocates nothing).
fn recycle<'b>(mut v: Vec<&[u8]>) -> Vec<&'b [u8]> {
    v.clear();
    v.into_iter().map(|_| &[][..]).collect()
}

/// A framed run that can be opened as a
/// [`FrameRunCursor`](crate::io::frame::FrameRunCursor) *on demand*.
///
/// Multi-pass merging over cursors must not open every run up front: a
/// cursor holds one decoded frame window from construction, so opening N
/// runs at once costs N windows of residency. Sources defer that until
/// the run's batch is actually merged, keeping at most
/// `fan_in + 1` windows live at any moment.
pub enum CursorSource<'a> {
    /// An in-memory framed run (tests, hand-offs).
    Mem {
        /// Stored (framed) bytes of the run.
        stored: Vec<u8>,
        /// Its frame index.
        metas: Vec<crate::io::frame::FrameMeta>,
    },
    /// A framed partition of an existing spill file.
    Spill {
        /// The spill file holding the run.
        file: &'a crate::io::spill_file::SpillFile,
        /// Partition index within it.
        part: usize,
    },
    /// A run previously appended to the scratch
    /// [`RunStore`](crate::io::frame::RunStore).
    Stored(crate::io::frame::RunHandle),
}

impl CursorSource<'_> {
    /// Open the source as a cursor positioned on its first record.
    pub fn open(
        self,
        store: &mut crate::io::frame::RunStore,
    ) -> std::io::Result<crate::io::frame::FrameRunCursor> {
        match self {
            CursorSource::Mem { stored, metas } => {
                crate::io::frame::FrameRunCursor::from_mem(stored, metas)
            }
            CursorSource::Spill { file, part } => file.framed_cursor(part),
            CursorSource::Stored(h) => store.cursor(&h),
        }
    }
}

/// Outcome of [`reduce_sources_to_fan_in`].
#[derive(Debug)]
pub struct CursorMultiPassOutcome {
    /// The surviving cursors (≤ fan_in of them), each sorted.
    pub cursors: Vec<crate::io::frame::FrameRunCursor>,
    /// Time spent in the user's combiner during intermediate passes (ns).
    pub combine_ns: u64,
    /// Time spent encoding/writing intermediate framed runs (ns).
    pub io_ns: u64,
    /// Number of intermediate merge passes performed.
    pub passes: usize,
}

/// [`reduce_to_fan_in`] over windowed cursors: while more than `fan_in`
/// runs remain, merge batches of `fan_in` (applying the combiner when
/// available, as Hadoop does on intermediate passes) into new *framed*
/// runs appended to `store`, until at most `fan_in` cursors remain for
/// the caller's final streaming pass. Batch order, combiner application,
/// and the resulting record stream match the in-memory version exactly;
/// only the residency differs. Sources open lazily, batch by batch, so
/// at most `fan_in + 1` frame windows are live at once no matter how
/// many runs go in.
pub fn reduce_sources_to_fan_in(
    sources: Vec<CursorSource<'_>>,
    job: &dyn Job,
    use_combiner: bool,
    fan_in: usize,
    frame_bytes: usize,
    store: &mut crate::io::frame::RunStore,
) -> io::Result<CursorMultiPassOutcome> {
    use crate::io::frame::FrameEncoder;

    let fan_in = fan_in.max(2);
    let mut combine_ns = 0u64;
    let mut io_ns = 0u64;
    let mut passes = 0usize;
    let mut sources = sources;
    while sources.len() > fan_in {
        passes += 1;
        let mut batch: Vec<crate::io::frame::FrameRunCursor> = Vec::with_capacity(fan_in);
        for src in sources.drain(..fan_in) {
            batch.push(src.open(store)?);
        }
        let mut enc = FrameEncoder::new(frame_bytes);
        merge_grouped_cursors(&mut batch, &|a, b| job.compare_keys(a, b), |key, values| {
            combine_group(job, use_combiner, key, values, &mut combine_ns, |v| {
                enc.push_record(key, v)
            });
        })?;
        drop(batch);
        let sw = Stopwatch::start();
        let (stored, metas, records) = enc.finish();
        let handle = store.append(&stored, metas, records)?;
        io_ns = io_ns.saturating_add(sw.elapsed_ns());
        sources.push(CursorSource::Stored(handle));
    }
    let mut cursors = Vec::with_capacity(sources.len());
    for src in sources {
        cursors.push(src.open(store)?);
    }
    Ok(CursorMultiPassOutcome {
        cursors,
        combine_ns,
        io_ns,
        passes,
    })
}

/// Count records in a framed run (diagnostics/tests).
pub fn count_records(run: &[u8]) -> usize {
    let mut pos = 0;
    let mut n = 0;
    while read_record(run, &mut pos).is_some() {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_record;

    fn run_of(pairs: &[(&str, &str)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (k, v) in pairs {
            write_record(&mut buf, k.as_bytes(), v.as_bytes());
        }
        buf
    }

    fn collect(runs: &[Vec<u8>]) -> Vec<(String, Vec<String>)> {
        let mut out = Vec::new();
        merge_grouped(runs, &|a, b| a.cmp(b), |k, vs| {
            out.push((
                String::from_utf8(k.to_vec()).unwrap(),
                vs.iter()
                    .map(|v| String::from_utf8(v.to_vec()).unwrap())
                    .collect(),
            ));
        })
        .unwrap();
        out
    }

    #[test]
    fn merges_in_key_order_with_grouping() {
        let runs = vec![
            run_of(&[("a", "1"), ("c", "3")]),
            run_of(&[("a", "2"), ("b", "9")]),
        ];
        let got = collect(&runs);
        assert_eq!(
            got,
            vec![
                ("a".into(), vec!["1".into(), "2".into()]),
                ("b".into(), vec!["9".into()]),
                ("c".into(), vec!["3".into()]),
            ]
        );
    }

    #[test]
    fn repeats_within_a_run_group_together() {
        let runs = vec![run_of(&[("a", "1"), ("a", "2"), ("a", "3")])];
        let got = collect(&runs);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.len(), 3);
    }

    #[test]
    fn empty_runs_are_fine() {
        let runs = vec![Vec::new(), run_of(&[("x", "1")]), Vec::new()];
        let got = collect(&runs);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "x");
    }

    #[test]
    fn no_runs_no_groups() {
        let got = collect(&[]);
        assert!(got.is_empty());
    }

    #[test]
    fn custom_comparator_is_respected() {
        // Reverse ordering: runs sorted descending merge descending.
        let runs = vec![run_of(&[("c", "1"), ("a", "2")]), run_of(&[("b", "3")])];
        let mut keys = Vec::new();
        merge_grouped(&runs, &|a, b| b.cmp(a), |k, _| {
            keys.push(String::from_utf8(k.to_vec()).unwrap());
        })
        .unwrap();
        assert_eq!(keys, vec!["c", "b", "a"]);
    }

    #[test]
    fn truncated_or_corrupt_run_is_an_error_not_a_short_merge() {
        let good = run_of(&[("a", "1"), ("b", "2"), ("c", "3")]);
        let cut = good[..good.len() - 2].to_vec(); // mid-record
        let mut flipped = good.clone();
        flipped[4] |= 0x40; // second record's key length: 1 → 65 bytes
        let cases = [
            (
                "truncated",
                cut,
                "merge run 1: no record decodes at byte 8 of 10",
            ),
            (
                "bit-flipped length",
                flipped,
                "merge run 1: no record decodes at byte 4 of 12",
            ),
        ];
        for (what, bad, expected) in cases {
            let runs = vec![run_of(&[("a", "0")]), bad];
            let err = merge_grouped(&runs, &|a, b| a.cmp(b), |_, _| {}).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().starts_with(expected), "{what}: {err}");
        }
        let runs = vec![good];
        assert_eq!(collect(&runs).len(), 3, "an intact run still merges whole");
    }

    #[test]
    fn count_records_counts() {
        let run = run_of(&[("a", "1"), ("b", "2")]);
        assert_eq!(count_records(&run), 2);
        assert_eq!(count_records(&[]), 0);
    }

    mod cursors {
        use super::*;
        use crate::io::frame::{FrameEncoder, FrameRunCursor, RunStore};

        fn framed(run: &[u8]) -> FrameRunCursor {
            let mut enc = FrameEncoder::new(1 << 10);
            let mut pos = 0;
            while let Some((k, v)) = read_record(run, &mut pos) {
                enc.push_record(k, v);
            }
            let (stored, metas, _) = enc.finish();
            FrameRunCursor::from_mem(stored, metas).unwrap()
        }

        fn collect_cursors(runs: &[Vec<u8>]) -> Vec<(String, Vec<String>)> {
            let mut cursors: Vec<_> = runs.iter().map(|r| framed(r)).collect();
            let mut out = Vec::new();
            merge_grouped_cursors(&mut cursors, &|a, b| a.cmp(b), |k, vs| {
                out.push((
                    String::from_utf8(k.to_vec()).unwrap(),
                    vs.iter()
                        .map(|v| String::from_utf8(v.to_vec()).unwrap())
                        .collect(),
                ));
            })
            .unwrap();
            out
        }

        #[test]
        fn cursor_merge_matches_buffer_merge_including_tie_breaks() {
            // Duplicate keys across runs and within runs: value order must
            // be run order then within-run order, exactly like
            // merge_grouped.
            let runs = vec![
                run_of(&[("a", "r0a1"), ("a", "r0a2"), ("c", "r0c")]),
                run_of(&[("a", "r1a"), ("b", "r1b"), ("c", "r1c")]),
                Vec::new(),
                run_of(&[("b", "r3b")]),
            ];
            assert_eq!(collect(&runs), collect_cursors(&runs));
        }

        #[test]
        fn cursor_fan_in_matches_buffer_fan_in_stream() {
            let runs: Vec<Vec<u8>> = (0..25)
                .map(|i| run_of(&[(&format!("k{:02}", i % 7), &format!("v{i}"))]))
                .collect();
            let scratch = {
                let d = std::env::temp_dir().join(format!("textmr-cmp-{}", std::process::id()));
                std::fs::create_dir_all(&d).unwrap();
                d
            };
            let legacy = reduce_to_fan_in(
                runs.clone(),
                &multi_pass::Plain,
                false,
                4,
                &scratch.join("legacy.bin"),
            )
            .unwrap();
            let mut legacy_stream = Vec::new();
            merge_grouped(&legacy.runs, &|a, b| a.cmp(b), |k, vs| {
                legacy_stream.push((
                    k.to_vec(),
                    vs.iter().map(|v| v.to_vec()).collect::<Vec<_>>(),
                ));
            })
            .unwrap();

            let mut store = RunStore::create(scratch.join("store.bin")).unwrap();
            let sources = runs
                .iter()
                .map(|r| {
                    let mut enc = FrameEncoder::new(1 << 10);
                    let mut pos = 0;
                    while let Some((k, v)) = read_record(r, &mut pos) {
                        enc.push_record(k, v);
                    }
                    let (stored, metas, _) = enc.finish();
                    CursorSource::Mem { stored, metas }
                })
                .collect();
            let out = reduce_sources_to_fan_in(
                sources,
                &multi_pass::Plain,
                false,
                4,
                1 << 10,
                &mut store,
            )
            .unwrap();
            assert!(out.cursors.len() <= 4);
            assert!(out.passes >= 1);
            let mut cursors = out.cursors;
            let mut stream = Vec::new();
            merge_grouped_cursors(&mut cursors, &|a, b| a.cmp(b), |k, vs| {
                stream.push((
                    k.to_vec(),
                    vs.iter().map(|v| v.to_vec()).collect::<Vec<_>>(),
                ));
            })
            .unwrap();
            assert_eq!(stream, legacy_stream);
        }
    }

    mod multi_pass {
        use super::*;
        use crate::job::{Emit, Job, Record, ValueCursor};
        use std::path::PathBuf;

        pub(super) struct Plain;
        impl Job for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
            fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
        }

        fn scratch(name: &str) -> PathBuf {
            let d = std::env::temp_dir().join(format!("textmr-mp-{}", std::process::id()));
            std::fs::create_dir_all(&d).unwrap();
            d.join(name)
        }

        /// 25 single-record runs with distinct sorted keys.
        fn many_runs() -> Vec<Vec<u8>> {
            (0..25)
                .map(|i| run_of(&[(&format!("k{i:02}"), "v")]))
                .collect()
        }

        #[test]
        fn reduces_run_count_to_fan_in() {
            let out = reduce_to_fan_in(many_runs(), &Plain, false, 4, &scratch("a.bin")).unwrap();
            assert!(out.runs.len() <= 4, "got {} runs", out.runs.len());
            assert!(out.passes >= 1);
            assert!(out.io_ns > 0, "intermediate passes must pay I/O");
            // No records lost.
            let total: usize = out.runs.iter().map(|r| count_records(r)).sum();
            assert_eq!(total, 25);
        }

        #[test]
        fn final_merge_over_reduced_runs_is_sorted_and_complete() {
            let out = reduce_to_fan_in(many_runs(), &Plain, false, 3, &scratch("b.bin")).unwrap();
            let mut keys = Vec::new();
            merge_grouped(&out.runs, &|a, b| a.cmp(b), |k, vs| {
                keys.push(k.to_vec());
                assert_eq!(vs.len(), 1);
            })
            .unwrap();
            assert_eq!(keys.len(), 25);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn under_fan_in_is_untouched() {
            let runs = vec![run_of(&[("a", "1")]), run_of(&[("b", "2")])];
            let out = reduce_to_fan_in(runs.clone(), &Plain, false, 10, &scratch("c.bin")).unwrap();
            assert_eq!(out.passes, 0);
            assert_eq!(out.runs, runs);
            assert_eq!(out.io_ns, 0);
        }

        #[test]
        fn combiner_runs_on_intermediate_passes() {
            use crate::codec::{decode_u64, encode_u64};
            use crate::job::ValueSink;
            struct Sum;
            impl Job for Sum {
                fn name(&self) -> &str {
                    "sum"
                }
                fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
                fn has_combiner(&self) -> bool {
                    true
                }
                fn combine(
                    &self,
                    _k: &[u8],
                    values: &mut dyn ValueCursor,
                    out: &mut dyn ValueSink,
                ) {
                    let mut s = 0;
                    while let Some(v) = values.next() {
                        s += decode_u64(v).unwrap();
                    }
                    out.push(&encode_u64(s));
                }
                fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
            }
            // 8 runs all holding key "x" with value 1.
            let one = {
                let mut buf = Vec::new();
                crate::codec::write_record(&mut buf, b"x", &encode_u64(1));
                buf
            };
            let runs = vec![one; 8];
            let out = reduce_to_fan_in(runs, &Sum, true, 2, &scratch("d.bin")).unwrap();
            // Total mass preserved across intermediate combining.
            let mut total = 0u64;
            merge_grouped(&out.runs, &|a, b| a.cmp(b), |_k, vs| {
                for v in vs {
                    total += decode_u64(v).unwrap();
                }
            })
            .unwrap();
            assert_eq!(total, 8);
            assert!(out.combine_ns > 0);
        }
    }
}
