//! Sorting, combining and writing one spill segment — the support thread's
//! work.
//!
//! Given an in-memory [`Segment`], this module sorts record indices by
//! `(partition, key)` (the job's key comparator), runs the user's
//! `combine()` over equal-key groups, and appends the result to a
//! [`Store`] as a [`SpillFile`]. Each stage is measured separately because the paper's
//! breakdown (Fig. 2/8) distinguishes sort (framework), combine (user) and
//! spill I/O (framework).

use crate::io::spill_file::SpillFile;
use crate::io::store::Store;
use crate::job::Job;
use crate::metrics::Stopwatch;
use crate::task::merge::Grouper;
use crate::task::segment::Segment;
use std::cmp::Ordering;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Measured result of spilling a segment.
#[derive(Debug)]
pub struct SpillOutcome {
    /// The on-disk spill file.
    pub file: SpillFile,
    /// Records entering the spill (segment records).
    pub records_in: u64,
    /// Records written after combining.
    pub records_out: u64,
    /// Time sorting, ns.
    pub sort_ns: u64,
    /// Estimated time in the user's combiner, ns (see [`Grouper`]).
    pub combine_ns: u64,
    /// Time grouping + writing, ns.
    pub write_ns: u64,
    /// Most bytes the framed writer held at once (one frame and its
    /// compressed copy; 0 for record/blob spills).
    pub held_bytes: u64,
}

impl SpillOutcome {
    /// Total support-thread (consumer) time for this spill.
    pub fn consume_ns(&self) -> u64 {
        self.sort_ns + self.combine_ns + self.write_ns
    }
}

/// Sort record indices of `seg` by `(partition, key)` using the job's key
/// comparator; equal keys keep emit order (ascending index). Exposed for
/// benches and property tests.
///
/// Each record is packed into one `u128`: the partition in the top 32
/// bits, then 7 key bytes taken after the segment's longest common key
/// prefix and one byte `min(suffix_len, 8)`, then the record index. One
/// plain integer sort orders every key of at most 7 suffix bytes exactly
/// (`a` < `a\0` by the length byte); only runs whose 7 bytes tie and whose
/// keys are longer reach `job.compare_keys`, through a stable sort that
/// keeps their ascending indices. That is the comparator's order only if
/// the comparator agrees with bytewise order, which the sort checks with
/// one call per run: where a custom `compare_keys` does not put a run
/// strictly after the one before it, the segment is sorted again with
/// every word tied, so each partition is one comparator run.
pub fn sort_indices(seg: &Segment, job: &dyn Job) -> Vec<u32> {
    sort_groups(seg, job).idx
}

/// A segment's record indices in spill order, and where each group of
/// equal `(partition, key)` ends.
struct SortedSegment {
    idx: Vec<u32>,
    /// Exclusive end in `idx` of each group, ascending.
    ends: Vec<u32>,
}

/// [`sort_indices`], with the groups read off the packed words: a run of
/// equal words whose length byte is below [`TIED`] is one key, and a run
/// boundary is a key boundary; only inside a run of [`TIED`] words does
/// the comparator say where a group ends.
fn sort_groups(seg: &Segment, job: &dyn Job) -> SortedSegment {
    let skip = common_prefix_len(seg);
    sort_packed(seg, job, |key| prefix_word(&key[skip..]))
        .or_else(|| sort_packed(seg, job, |_| TIED))
        .expect("a run per partition has no boundary to check")
}

/// Sort `seg` on packed words (see [`sort_indices`]) with `word` as each
/// key's prefix word, then sort runs of tied words by `job.compare_keys`.
/// `None` if the comparator puts some run's first key at or before the
/// last key of the run before it in the same partition.
fn sort_packed(seg: &Segment, job: &dyn Job, word: impl Fn(&[u8]) -> u64) -> Option<SortedSegment> {
    let mut packed: Vec<u128> = (0..seg.len())
        .map(|i| {
            let word = word(seg.key(i));
            ((seg.part(i) as u128) << 96) | (u128::from(word) << 32) | i as u128
        })
        .collect();
    packed.sort_unstable();

    let mut idx: Vec<u32> = packed.iter().map(|&p| p as u32).collect();
    let mut ends = Vec::new();
    let mut start = 0;
    for run in packed.chunk_by(|a, b| a >> 32 == b >> 32) {
        let end = start + run.len();
        if run.len() > 1 && (run[0] >> 32) as u8 == TIED as u8 {
            let keys = &mut idx[start..end];
            keys.sort_by(|&a, &b| job.compare_keys(seg.key(a as usize), seg.key(b as usize)));
            let mut first = seg.key(keys[0] as usize);
            for (i, &r) in keys.iter().enumerate().skip(1) {
                let key = seg.key(r as usize);
                if job.compare_keys(key, first) != Ordering::Equal {
                    ends.push((start + i) as u32);
                    first = key;
                }
            }
        }
        if start > 0 && packed[start - 1] >> 96 == run[0] >> 96 {
            let (last, first) = (idx[start - 1] as usize, idx[start] as usize);
            if job.compare_keys(seg.key(last), seg.key(first)) != Ordering::Less {
                return None;
            }
        }
        ends.push(end as u32);
        start = end;
    }
    Some(SortedSegment { idx, ends })
}

/// Length byte of a key suffix longer than the 7 packed bytes: its order
/// against another such suffix with the same 7 bytes is the comparator's.
pub(crate) const TIED: u64 = 8;

/// The 7 leading bytes of `suffix` (zero-padded) above one length byte
/// `min(suffix.len(), 8)`, as a big-endian word.
#[inline]
pub(crate) fn prefix_word(suffix: &[u8]) -> u64 {
    match suffix.first_chunk::<8>() {
        Some(head) => (u64::from_be_bytes(*head) & !0xff) | TIED,
        None => {
            let mut buf = [0u8; 8];
            buf[..suffix.len()].copy_from_slice(suffix);
            buf[7] = suffix.len() as u8;
            u64::from_be_bytes(buf)
        }
    }
}

/// Length of the longest prefix every key of `seg` shares (0 for an
/// empty segment); stops at the first record that shares nothing.
fn common_prefix_len(seg: &Segment) -> usize {
    if seg.is_empty() {
        return 0;
    }
    let first = seg.key(0);
    let mut len = first.len();
    for i in 1..seg.len() {
        let key = seg.key(i);
        len = first[..len]
            .iter()
            .zip(key)
            .take_while(|(a, b)| a == b)
            .count();
        if len == 0 {
            break;
        }
    }
    len
}

/// Sort, combine (through the attempt's `grouper`) and append `seg` to
/// `store` as one spill file: framed runs of `frame_bytes`-sized frames
/// when given, else record/blob partitions.
pub fn spill_segment_into(
    seg: &Segment,
    grouper: &mut Grouper<'_>,
    store: &Arc<Store>,
    frame_bytes: Option<usize>,
) -> io::Result<SpillOutcome> {
    let mut writer = SpillFile::append_to(store);
    if let Some(t) = frame_bytes {
        writer = writer.framed(t);
    }
    let sw = Stopwatch::start();
    let sorted = sort_groups(seg, grouper.job());
    let sort_ns = sw.elapsed_ns();

    let sw_write = Stopwatch::start();
    let mut records_out = 0u64;
    let mut part = None;
    let mut values: Vec<&[u8]> = Vec::new();
    let mut start = 0;
    for &end in &sorted.ends {
        let group = &sorted.idx[start..end as usize];
        start = end as usize;
        let first = group[0] as usize;
        if part != Some(seg.part(first)) {
            part = Some(seg.part(first));
            writer.start_partition(seg.part(first))?;
        }
        let key = seg.key(first);
        values.clear();
        values.extend(group.iter().map(|&r| seg.value(r as usize)));
        let mut written = Ok(());
        grouper.combine(key, &values, |v| {
            if written.is_ok() {
                written = writer.write_record(key, v);
                records_out += 1;
            }
        });
        written?;
    }
    writer.end_partition()?;
    let held_bytes = writer.held_bytes() as u64;
    let file = writer.finish()?;
    let elapsed = sw_write.elapsed_ns();
    let combine_ns = grouper.take_combine_ns().min(elapsed);

    Ok(SpillOutcome {
        file,
        records_in: seg.len() as u64,
        records_out,
        sort_ns,
        combine_ns,
        write_ns: elapsed - combine_ns,
        held_bytes,
    })
}

/// Sort, combine and write `seg` to a new store at `path`.
pub fn spill_segment(seg: &Segment, job: &dyn Job, path: PathBuf) -> io::Result<SpillOutcome> {
    let mut grouper = Grouper::new(job, job.has_combiner());
    spill_segment_into(seg, &mut grouper, &Store::create(path), None)
}

/// [`spill_segment`] writing each partition as a *framed run* (the
/// out-of-core format): same sort, same combiner application, same record
/// stream, but records pack into compressed frames with a per-run frame
/// index so later consumers can read windows. `frame_bytes` is the target
/// uncompressed frame size.
pub fn spill_segment_framed(
    seg: &Segment,
    job: &dyn Job,
    path: PathBuf,
    frame_bytes: usize,
) -> io::Result<SpillOutcome> {
    let mut grouper = Grouper::new(job, job.has_combiner());
    spill_segment_into(seg, &mut grouper, &Store::create(path), Some(frame_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64, read_record};
    use crate::job::{Emit, Record, ValueCursor, ValueSink};

    struct SumJob;
    impl Job for SumJob {
        fn name(&self) -> &str {
            "sum"
        }
        fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
        fn has_combiner(&self) -> bool {
            true
        }
        fn combine(&self, _k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
            let mut sum = 0u64;
            while let Some(v) = values.next() {
                sum += decode_u64(v).unwrap();
            }
            out.push(&encode_u64(sum));
        }
        fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("textmr-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn spill_sorts_by_partition_then_key() {
        let mut seg = Segment::new();
        seg.push(1, b"b", &encode_u64(1));
        seg.push(0, b"z", &encode_u64(1));
        seg.push(1, b"a", &encode_u64(1));
        seg.push(0, b"a", &encode_u64(1));
        let out = spill_segment(&seg, &SumJob, tmp("s1.bin")).unwrap();
        assert_eq!(out.records_out, 4);

        let p0 = out.file.read_partition(0).unwrap();
        let mut pos = 0;
        let (k1, _) = read_record(&p0, &mut pos).unwrap();
        let (k2, _) = read_record(&p0, &mut pos).unwrap();
        assert_eq!((k1, k2), (&b"a"[..], &b"z"[..]));

        let p1 = out.file.read_partition(1).unwrap();
        let mut pos = 0;
        let (k1, _) = read_record(&p1, &mut pos).unwrap();
        assert_eq!(k1, b"a");
    }

    #[test]
    fn combiner_collapses_duplicates() {
        let mut seg = Segment::new();
        for _ in 0..10 {
            seg.push(0, b"the", &encode_u64(1));
        }
        seg.push(0, b"rare", &encode_u64(1));
        let out = spill_segment(&seg, &SumJob, tmp("s2.bin")).unwrap();
        assert_eq!(out.records_in, 11);
        assert_eq!(out.records_out, 2);

        let p0 = out.file.read_partition(0).unwrap();
        let mut pos = 0;
        let (k, v) = read_record(&p0, &mut pos).unwrap();
        assert_eq!(k, b"rare");
        assert_eq!(decode_u64(v), Some(1));
        let (k, v) = read_record(&p0, &mut pos).unwrap();
        assert_eq!(k, b"the");
        assert_eq!(decode_u64(v), Some(10));
    }

    #[test]
    fn empty_segment_yields_empty_file() {
        let seg = Segment::new();
        let out = spill_segment(&seg, &SumJob, tmp("s3.bin")).unwrap();
        assert_eq!(out.records_out, 0);
        assert_eq!(out.file.total_bytes(), 0);
    }

    /// Bytewise order that counts its comparator calls.
    #[derive(Default)]
    struct CountingJob(std::sync::atomic::AtomicUsize);
    impl Job for CountingJob {
        fn name(&self) -> &str {
            "counting"
        }
        fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
        fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
        fn compare_keys(&self, a: &[u8], b: &[u8]) -> Ordering {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            a.cmp(b)
        }
    }

    #[test]
    fn short_suffixes_cost_one_comparison_per_distinct_key() {
        // Every key shares the URL prefix and ends in at most 7 more bytes,
        // `\0` included: the packed words alone order them, and the one
        // check per run boundary is the only comparator call.
        let tails: [&[u8]; 6] = [b"a", b"a\0", b"a\0\0", b"", b"ab", b"zzzzzzz"];
        let mut seg = Segment::new();
        for i in 0..60 {
            let key = [b"http://site/".as_slice(), tails[i % 6]].concat();
            seg.push(i % 4, &key, b"v");
        }
        let job = CountingJob::default();
        let idx = sort_indices(&seg, &job);
        // 4 partitions hold 12 distinct (partition, key) pairs: 8 boundaries.
        assert_eq!(job.0.load(std::sync::atomic::Ordering::Relaxed), 8);
        for w in idx.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            assert!((seg.part(a), seg.key(a), a) < (seg.part(b), seg.key(b), b));
        }
    }

    #[test]
    fn spill_grouping_makes_no_comparator_calls_for_short_suffixes() {
        // The segment of the test above: the sort's 8 run-boundary checks
        // are the spill's only comparator calls, in either format.
        let tails: [&[u8]; 6] = [b"a", b"a\0", b"a\0\0", b"", b"ab", b"zzzzzzz"];
        let mut seg = Segment::new();
        for i in 0..60 {
            let key = [b"http://site/".as_slice(), tails[i % 6]].concat();
            seg.push(i % 4, &key, b"v");
        }
        for framed in [false, true] {
            let job = CountingJob::default();
            let out = if framed {
                spill_segment_framed(&seg, &job, tmp("count-framed.bin"), 1 << 10)
            } else {
                spill_segment(&seg, &job, tmp("count.bin"))
            }
            .unwrap();
            assert_eq!(
                job.0.load(std::sync::atomic::Ordering::Relaxed),
                8,
                "framed {framed}"
            );
            assert_eq!(out.records_out, 60);
        }
    }

    #[test]
    fn sort_indices_is_a_permutation() {
        let mut seg = Segment::new();
        for i in 0..50 {
            seg.push(i % 3, format!("k{}", (50 - i) % 7).as_bytes(), b"v");
        }
        let idx = sort_indices(&seg, &SumJob);
        let mut seen = [false; 50];
        for &i in &idx {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Equal keys leave the sort in emit order.
        for w in idx.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if (seg.part(a), seg.key(a)) == (seg.part(b), seg.key(b)) {
                assert!(a < b, "equal keys out of emit order: {a} before {b}");
            }
        }
    }
}
