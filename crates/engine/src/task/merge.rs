//! K-way merge of sorted runs with key grouping.
//!
//! Used twice per job, exactly as in Hadoop: at the end of each map task to
//! merge spill files into the final map output (applying `combine()`
//! again), and on the reduce side to merge fetched partitions before
//! `reduce()`. Runs are byte buffers of framed records sorted by the job's
//! key comparator; groups (key + all its values) are delivered to a
//! visitor without copying record bytes.
//!
//! A merge whose output can be discarded (every intermediate pass, the
//! map-side final merge) orders run heads by packed key words
//! ([`MergeOrder::Packed`]) and calls the comparator once per group
//! boundary; where the comparator disagrees, the merge is redone in the
//! comparator's order. The reducer's final merge, which calls `reduce()`,
//! and the windowed cursor merges order by the comparator alone.

use crate::codec::{read_record, write_record};
use crate::io::frame::{FrameRunCursor, RunHandle};
use crate::io::spill_file::SpillFile;
use crate::io::store::Store;
use crate::job::{Job, SliceValues, ValueSink};
use crate::metrics::{SampledCost, Stopwatch};
use crate::task::spill::{prefix_word, TIED};
use std::cmp::Ordering;
use std::io;
use std::sync::Arc;

/// How a merge of in-memory runs orders their head keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOrder {
    /// By each head key's packed word (7 key bytes and a length byte, as
    /// the spill sort builds it), a tie of two length-8 words broken
    /// bytewise: bytewise key order without the comparator. The job's
    /// comparator is called once per group boundary, to check that each
    /// group key comes strictly after the one before; where it does not,
    /// the merge is redone in [`MergeOrder::Comparator`], which the
    /// attempt keeps from then on. Only merges whose output can be
    /// discarded run in this order.
    Packed,
    /// By the job's comparator alone.
    Comparator,
}

/// Per-attempt state of the grouped paths (spills and merge passes): the
/// combiner, its sampled cost and its reused output buffer, and the order
/// the attempt's discardable merges run in.
///
/// Combine calls are timed like emits (a counter-chosen sample): one call
/// in 16 and the attempt's first call, so a combiner that runs only a few
/// times still shows a cost. The estimate only splits a measured total
/// between ops; it never changes the total.
pub struct Grouper<'j> {
    job: &'j dyn Job,
    use_combiner: bool,
    order: MergeOrder,
    /// Combine calls so far, their estimated cost, and how much of it
    /// `take_combine_ns` has handed out.
    calls: u64,
    cost: SampledCost,
    taken_ns: u64,
    out: CombineOut,
}

/// The combiner's output values, back to back, with the end of each.
#[derive(Default)]
struct CombineOut {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl ValueSink for CombineOut {
    fn push(&mut self, value: &[u8]) {
        self.bytes.extend_from_slice(value);
        self.ends.push(self.bytes.len());
    }
}

impl<'j> Grouper<'j> {
    /// A grouper for one task attempt of `job`, combining when
    /// `use_combiner`, its merges starting in [`MergeOrder::Packed`].
    pub fn new(job: &'j dyn Job, use_combiner: bool) -> Self {
        Grouper {
            job,
            use_combiner,
            order: MergeOrder::Packed,
            calls: 0,
            cost: SampledCost::default(),
            taken_ns: 0,
            out: CombineOut::default(),
        }
    }

    /// The same grouper with its merges in `order`.
    pub fn with_order(mut self, order: MergeOrder) -> Self {
        self.order = order;
        self
    }

    /// The order the attempt's discardable merges run in now.
    pub fn order(&self) -> MergeOrder {
        self.order
    }

    /// The job whose keys are grouped.
    pub(crate) fn job(&self) -> &'j dyn Job {
        self.job
    }

    /// Estimated combiner time since the last take: the estimate of every
    /// call so far (the first as measured, the others at the mean of the
    /// sampled ones) less what earlier takes handed out.
    pub(crate) fn take_combine_ns(&mut self) -> u64 {
        let ns = self
            .cost
            .estimate_calls(self.calls)
            .saturating_sub(self.taken_ns);
        self.taken_ns = self.taken_ns.saturating_add(ns);
        ns
    }

    /// Hand one group's values to `out`: through the job's combiner when
    /// it is on and the group holds more than one value, as they are
    /// otherwise (a combiner runs zero or more times, so skipping it on a
    /// singleton is sound).
    pub(crate) fn combine(&mut self, key: &[u8], values: &[&[u8]], mut out: impl FnMut(&[u8])) {
        if !self.use_combiner || values.len() < 2 {
            for v in values {
                out(v);
            }
            return;
        }
        self.calls += 1;
        self.out.bytes.clear();
        self.out.ends.clear();
        let sw = SampledCost::start_or_first(self.calls);
        self.job
            .combine(key, &mut SliceValues::new(values), &mut self.out);
        if let Some(sw) = sw {
            self.cost.record_call(self.calls, sw.elapsed_ns());
        }
        let mut start = 0;
        for &end in &self.out.ends {
            out(&self.out.bytes[start..end]);
            start = end;
        }
    }
}

/// One sorted run positioned at its current record.
struct Cursor<'a> {
    /// Index of the run in the merge (for error messages).
    run: usize,
    data: &'a [u8],
    /// Whether `word` is the head key's packed word (else [`TIED`]).
    packed: bool,
    /// The head's order word: its packed word or [`TIED`], `u64::MAX`
    /// once exhausted (no packed word is: its low byte is at most 8).
    word: u64,
    key: &'a [u8],
    val: &'a [u8],
    next_pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(run: usize, data: &'a [u8], packed: bool) -> io::Result<Self> {
        let mut c = Cursor {
            run,
            data,
            packed,
            word: u64::MAX,
            key: b"",
            val: b"",
            next_pos: 0,
        };
        c.advance()?;
        Ok(c)
    }

    fn exhausted(&self) -> bool {
        self.word == u64::MAX
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
                self.word = if self.packed { prefix_word(k) } else { TIED };
            }
            None if self.next_pos == self.data.len() => self.word = u64::MAX,
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

/// Whether head `(word, key)` `a` orders before `b`: by word, and on equal
/// words whose length byte is [`TIED`] by `tie`.
#[inline]
fn word_before(a: (u64, &[u8]), b: (u64, &[u8]), tie: &impl Fn(&[u8], &[u8]) -> Ordering) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.0 as u8 == TIED as u8 && tie(a.1, b.1) == Ordering::Less)
}

/// Whether heads `a` and `b` hold one key: equal words, and on a
/// [`TIED`] word equal by `tie`.
#[inline]
fn word_equal(a: (u64, &[u8]), b: (u64, &[u8]), tie: &impl Fn(&[u8], &[u8]) -> Ordering) -> bool {
    a.0 == b.0 && (a.0 as u8 != TIED as u8 || tie(a.1, b.1) == Ordering::Equal)
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
/// `InvalidData` error naming the run and the byte offset. Runs may be
/// owned or borrowed (any `AsRef<[u8]>`).
pub fn merge_grouped<'a, R, F>(
    runs: &'a [R],
    cmp: &dyn Fn(&[u8], &[u8]) -> Ordering,
    on_group: F,
) -> io::Result<()>
where
    R: AsRef<[u8]>,
    F: FnMut(&'a [u8], &[&'a [u8]]),
{
    merge_words(runs, false, cmp, None, on_group).map(drop)
}

/// A key comparator, as merges take it.
type KeyCmp<'c> = dyn Fn(&[u8], &[u8]) -> Ordering + 'c;

/// The merge loop: heads ordered by their words (packed words when
/// `packed`, else all [`TIED`]) and ties of [`TIED`] words by `tie`. With
/// `check`, stops with `Ok(false)` at the first group key that `check`
/// does not put strictly after the previous group key.
fn merge_words<'a, R, T, F>(
    runs: &'a [R],
    packed: bool,
    tie: T,
    check: Option<&KeyCmp<'_>>,
    mut on_group: F,
) -> io::Result<bool>
where
    R: AsRef<[u8]>,
    T: Fn(&[u8], &[u8]) -> Ordering,
    F: FnMut(&'a [u8], &[&'a [u8]]),
{
    let mut cursors: Vec<Cursor<'a>> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| Cursor::new(i, r.as_ref(), packed))
        .collect::<io::Result<_>>()?;
    let before = |c: &[Cursor<'a>], a: usize, b: usize| {
        word_before((c[a].word, c[a].key), (c[b].word, c[b].key), &tie)
    };
    let mut heap = RunHeap::new(cursors.len(), |a, b| before(&cursors, a, b));
    let mut values: Vec<&'a [u8]> = Vec::new();
    let mut prev: Option<&'a [u8]> = None;
    while let Some(top) = heap.top().filter(|&t| !cursors[t].exhausted()) {
        let head = (cursors[top].word, cursors[top].key);
        if let (Some(check), Some(prev)) = (check, prev) {
            if check(prev, head.1) != Ordering::Less {
                return Ok(false);
            }
        }
        prev = Some(head.1);
        values.clear();
        let tied = heap.gather(|r| word_equal((cursors[r].word, cursors[r].key), head, &tie));
        // A run may repeat the key (e.g. no combiner).
        for &r in tied {
            let c = &mut cursors[r];
            loop {
                values.push(c.val);
                c.advance()?;
                if c.exhausted() || !word_equal((c.word, c.key), head, &tie) {
                    break;
                }
            }
        }
        heap.restore(|a, b| before(&cursors, a, b));
        on_group(head.1, &values);
    }
    Ok(true)
}

/// Outcome of reducing a run set to a bounded fan-in (multi-pass merge).
#[derive(Debug)]
pub struct MultiPassOutcome<R = Vec<u8>> {
    /// The surviving runs (≤ fan_in of them), each sorted.
    pub runs: Vec<R>,
    /// Estimated time in the user's combiner during intermediate passes
    /// (ns).
    pub combine_ns: u64,
    /// Time spent appending intermediate runs to the store and reading
    /// them back (ns).
    pub io_ns: u64,
    /// Number of intermediate merge passes performed.
    pub passes: usize,
}

/// Hadoop-style multi-pass merge: while more than `fan_in` runs exist,
/// merge batches of `fan_in` into intermediate on-disk runs (applying the
/// combiner when available, as Hadoop does on intermediate passes), until
/// at most `fan_in` runs remain for the caller's final streaming pass.
///
/// Each intermediate run is appended to `store` (the task attempt's one
/// store) and read back by offset; the write+read cost is real and
/// measured into `io_ns`. The passes merge in [`MergeOrder::Packed`]
/// first (see [`reduce_to_fan_in_with`]).
pub fn reduce_to_fan_in(
    runs: Vec<Vec<u8>>,
    job: &dyn Job,
    use_combiner: bool,
    fan_in: usize,
    store: &Store,
) -> io::Result<MultiPassOutcome> {
    reduce_to_fan_in_with(runs, &mut Grouper::new(job, use_combiner), fan_in, store)
}

/// [`reduce_to_fan_in`] for one attempt's `grouper`: each pass merges in
/// the grouper's [`MergeOrder`], and a packed pass that the comparator
/// disagrees with is redone in comparator order, which the grouper keeps.
/// The outcome's `combine_ns` takes the grouper's untaken combine time.
/// Runs may be borrowed (e.g. `Cow<[u8]>`): each pass's output is owned.
pub fn reduce_to_fan_in_with<R: AsRef<[u8]> + From<Vec<u8>>>(
    mut runs: Vec<R>,
    grouper: &mut Grouper<'_>,
    fan_in: usize,
    store: &Store,
) -> io::Result<MultiPassOutcome<R>> {
    let fan_in = fan_in.max(2);
    let mut io_ns = 0u64;
    let mut passes = 0usize;
    while runs.len() > fan_in {
        passes += 1;
        let batch: Vec<R> = runs.drain(..fan_in).collect();
        let mut merged = Vec::with_capacity(batch.iter().map(|r| r.as_ref().len()).sum());
        merge_combined(&batch, grouper, &mut merged)?;
        // Round-trip through the store, as Hadoop's intermediate merge
        // outputs go through disk; the cost is real.
        let sw = Stopwatch::start();
        let at = store.append(&merged)?;
        store.read_at(at, &mut merged)?;
        io_ns = io_ns.saturating_add(sw.elapsed_ns());
        runs.push(R::from(merged));
    }
    Ok(MultiPassOutcome {
        runs,
        combine_ns: grouper.take_combine_ns(),
        io_ns,
        passes,
    })
}

/// Merge `runs` in the grouper's order, combine each group, and write the
/// records to `out` (cleared first); returns the record count. A packed
/// merge that the comparator disagrees with is discarded and redone in
/// comparator order, which the grouper keeps.
fn merge_combined<R: AsRef<[u8]>>(
    runs: &[R],
    grouper: &mut Grouper<'_>,
    out: &mut Vec<u8>,
) -> io::Result<u64> {
    let job = grouper.job();
    let cmp = |a: &[u8], b: &[u8]| job.compare_keys(a, b);
    loop {
        out.clear();
        let mut records = 0u64;
        let packed = grouper.order == MergeOrder::Packed;
        let on_group = |key: &[u8], values: &[&[u8]]| {
            grouper.combine(key, values, |v| {
                write_record(out, key, v);
                records += 1;
            });
        };
        let merged = if packed {
            let bytewise = |a: &[u8], b: &[u8]| a.cmp(b);
            merge_words(runs, true, bytewise, Some(&cmp), on_group)?
        } else {
            merge_words(runs, false, cmp, None, on_group)?
        };
        if merged {
            return Ok(records);
        }
        grouper.order = MergeOrder::Comparator;
    }
}

/// One record/blob map-output partition: `runs` (the partition of each
/// spill) reduced to `fan_in` through `store`, then merged once more and
/// combined. Returns the partition's bytes, its record count and the
/// estimated combiner time (ns).
///
/// Every merge here runs in the grouper's [`MergeOrder`], since each
/// output can be discarded: the partition is written whole afterwards.
pub fn merge_partition(
    runs: Vec<Vec<u8>>,
    grouper: &mut Grouper<'_>,
    fan_in: usize,
    store: &Store,
) -> io::Result<(Vec<u8>, u64, u64)> {
    let multi = reduce_to_fan_in_with(runs, grouper, fan_in, store)?;
    let mut out = Vec::with_capacity(multi.runs.iter().map(Vec::len).sum());
    let records = merge_combined(&multi.runs, grouper, &mut out)?;
    let combine_ns = multi.combine_ns.saturating_add(grouper.take_combine_ns());
    Ok((out, records, combine_ns))
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

impl RunCursor for FrameRunCursor {
    fn peek(&self) -> Option<(&[u8], &[u8])> {
        FrameRunCursor::peek(self)
    }
    fn advance(&mut self) -> std::io::Result<()> {
        FrameRunCursor::advance(self)
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

/// A framed run that can be opened as a [`FrameRunCursor`] *on demand*.
///
/// Multi-pass merging over cursors must not open every run up front: a
/// cursor holds one decoded frame window from construction, so opening N
/// runs at once costs N windows of residency. Sources defer that until
/// the run's batch is actually merged, keeping at most `fan_in` windows
/// live at any moment.
pub enum CursorSource<'a> {
    /// A framed partition of an existing spill file.
    Spill {
        /// The spill file holding the run.
        file: &'a SpillFile,
        /// Partition index within it.
        part: usize,
    },
    /// A run previously appended to the task attempt's [`Store`].
    Stored(RunHandle),
    /// Partition 0 of a spill file of its own (an intermediate pass).
    Run(SpillFile),
}

impl CursorSource<'_> {
    /// Open the source as a cursor positioned on its first record.
    pub fn open(self, store: &Arc<Store>) -> std::io::Result<FrameRunCursor> {
        match self {
            CursorSource::Spill { file, part } => file.framed_cursor(part),
            CursorSource::Stored(h) => h.cursor(store),
            CursorSource::Run(file) => file.framed_cursor(0),
        }
    }
}

/// Outcome of [`reduce_sources_to_fan_in`].
#[derive(Debug)]
pub struct CursorMultiPassOutcome {
    /// The surviving cursors (≤ fan_in of them), each sorted.
    pub cursors: Vec<FrameRunCursor>,
    /// Estimated time in the user's combiner during intermediate passes
    /// (ns).
    pub combine_ns: u64,
    /// Most bytes an intermediate pass held at once: its batch's frame
    /// windows and its writer's frame (0 without a pass).
    pub peak_bytes: u64,
    /// Number of intermediate merge passes performed.
    pub passes: usize,
}

/// [`reduce_to_fan_in`] over windowed cursors: while more than `fan_in`
/// runs remain, merge batches of `fan_in` (applying the combiner when
/// available, as Hadoop does on intermediate passes) into new *framed*
/// runs appended to `store` frame by frame, until at most `fan_in`
/// cursors remain for the caller's final streaming pass. Batch order,
/// combiner application, and the resulting record stream match the
/// in-memory version exactly; only the residency differs. Sources open
/// lazily, batch by batch, so at most `fan_in` frame windows and one
/// frame being written are live at once no matter how many runs go in.
pub fn reduce_sources_to_fan_in(
    sources: Vec<CursorSource<'_>>,
    job: &dyn Job,
    use_combiner: bool,
    fan_in: usize,
    frame_bytes: usize,
    store: &Arc<Store>,
) -> io::Result<CursorMultiPassOutcome> {
    let fan_in = fan_in.max(2);
    let mut grouper = Grouper::new(job, use_combiner);
    let mut peak_bytes = 0u64;
    let mut passes = 0usize;
    let mut sources = sources;
    while sources.len() > fan_in {
        passes += 1;
        let mut batch: Vec<FrameRunCursor> = Vec::with_capacity(fan_in);
        for src in sources.drain(..fan_in) {
            batch.push(src.open(store)?);
        }
        let windows: usize = batch.iter().map(FrameRunCursor::window_bytes).sum();
        let mut run = SpillFile::append_to(store).framed(frame_bytes);
        run.start_partition(0)?;
        let mut written = Ok(());
        merge_grouped_cursors(&mut batch, &|a, b| job.compare_keys(a, b), |key, values| {
            grouper.combine(key, values, |v| {
                if written.is_ok() {
                    written = run.write_record(key, v);
                }
            });
        })?;
        written?;
        drop(batch);
        run.end_partition()?;
        peak_bytes = peak_bytes.max((windows + run.held_bytes()) as u64);
        sources.push(CursorSource::Run(run.finish()?));
    }
    let mut cursors = Vec::with_capacity(sources.len());
    for src in sources {
        cursors.push(src.open(store)?);
    }
    Ok(CursorMultiPassOutcome {
        cursors,
        combine_ns: grouper.take_combine_ns(),
        peak_bytes,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_record;

    /// Records in a record/blob run, up to the first undecodable byte.
    fn count_records(run: &[u8]) -> usize {
        let mut pos = 0;
        let mut n = 0;
        while read_record(run, &mut pos).is_some() {
            n += 1;
        }
        n
    }

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

    /// Bytewise order that counts its comparator calls.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicUsize);
    impl Job for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn map(&self, _r: &crate::job::Record<'_>, _e: &mut dyn crate::job::Emit) {}
        fn reduce(
            &self,
            _k: &[u8],
            _v: &mut dyn crate::job::ValueCursor,
            _o: &mut dyn crate::job::Emit,
        ) {
        }
        fn compare_keys(&self, a: &[u8], b: &[u8]) -> Ordering {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            a.cmp(b)
        }
    }

    #[test]
    fn a_bytewise_merge_costs_one_comparison_per_group_boundary_per_pass() {
        // Keys of 2–12 bytes, many sharing their first 7 bytes (ties broken
        // bytewise, not by the comparator), spread over 9 runs that share
        // some keys.
        let key = |i: usize| match i % 3 {
            0 => format!("k{i}"),
            1 => format!("shared-{i:05}"),
            _ => format!("shared-{}", i % 4),
        };
        let runs: Vec<Vec<u8>> = (0..9)
            .map(|r| {
                let mut keys: Vec<String> = (0..12).map(|j| key(r * 5 + j)).collect();
                keys.sort();
                let pairs: Vec<(&str, &str)> = keys.iter().map(|k| (k.as_str(), "v")).collect();
                run_of(&pairs)
            })
            .collect();
        let distinct = |runs: &[Vec<u8>]| {
            let mut keys = std::collections::BTreeSet::new();
            for r in runs {
                let mut pos = 0;
                while let Some((k, _)) = read_record(r, &mut pos) {
                    keys.insert(k.to_vec());
                }
            }
            keys.len()
        };
        // Fan-in 3 over 9 runs: three passes of three runs each, then the
        // final merge of their three outputs.
        let boundaries: usize = runs.chunks(3).map(|b| distinct(b) - 1).sum();
        let job = Counting::default();
        let dir = std::env::temp_dir().join(format!("textmr-count-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::create(dir.join("count.bin"));
        let mut grouper = Grouper::new(&job, false);
        let multi = reduce_to_fan_in_with(runs.clone(), &mut grouper, 3, &store).unwrap();
        assert_eq!(multi.passes, 3);
        assert_eq!(job.0.load(std::sync::atomic::Ordering::Relaxed), boundaries);
        assert_eq!(grouper.order(), MergeOrder::Packed);

        job.0.store(0, std::sync::atomic::Ordering::Relaxed);
        let (bytes, _, _) = merge_partition(runs.clone(), &mut grouper, 3, &store).unwrap();
        let final_boundaries = distinct(&runs) - 1;
        assert_eq!(
            job.0.load(std::sync::atomic::Ordering::Relaxed),
            boundaries + final_boundaries
        );
        let mut keys = Vec::new();
        merge_grouped(&[bytes], &|a, b| a.cmp(b), |k, _| keys.push(k.to_vec())).unwrap();
        assert_eq!(keys.len(), final_boundaries + 1);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    mod cursors {
        use super::*;
        use crate::io::frame::FrameEncoder;

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
                &Store::create(scratch.join("legacy.bin")),
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

            let store = Store::create(scratch.join("store.bin"));
            let sources = runs
                .iter()
                .map(|r| {
                    let mut enc = FrameEncoder::new(1 << 10);
                    let mut pos = 0;
                    while let Some((k, v)) = read_record(r, &mut pos) {
                        enc.push_record(k, v);
                    }
                    let (stored, metas, records) = enc.finish();
                    let run = RunHandle::append(&store, &stored, metas, records).unwrap();
                    CursorSource::Stored(run)
                })
                .collect();
            let out =
                reduce_sources_to_fan_in(sources, &multi_pass::Plain, false, 4, 1 << 10, &store)
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

        pub(super) struct Plain;
        impl Job for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
            fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
        }

        fn scratch(name: &str) -> Arc<Store> {
            let d = std::env::temp_dir().join(format!("textmr-mp-{}", std::process::id()));
            std::fs::create_dir_all(&d).unwrap();
            Store::create(d.join(name))
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
