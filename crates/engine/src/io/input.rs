//! Input splits and the record readers over them.
//!
//! Text splits: one split per DFS block, with Hadoop's exact line-boundary
//! protocol — a reader starting at offset > 0 skips the (partial) first
//! line (it belongs to the previous split) and the reader owning the byte
//! at the split end finishes the line that straddles it. Every input line
//! is therefore read exactly once across splits.
//!
//! Framed splits: a whole buffer of [`crate::codec`] varint-framed
//! `(key, value)` records — the typed cross-round hand-off of DAG jobs. A
//! prior round's reduce partition becomes the next round's map input
//! without re-materializing through a text codec; the reader yields the
//! framed pairs directly.
//!
//! A split's bytes are either resident ([`SplitBytes::Mem`] — the reader
//! slices zero-copy) or disk-backed ([`SplitBytes::Disk`] — the reader
//! streams bounded chunk windows, so a split never materializes more than
//! one window plus the line straddling its edge). Both backings yield
//! byte-identical record streams: same values, same big-endian absolute
//! line-offset keys.

use crate::codec::{encode_u64, read_record, write_record};
use crate::io::dfs::{DfsFile, FileBytes};
use crate::job::Record;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default chunk-window size for disk-backed split readers (256 KiB).
pub const DEFAULT_INPUT_CHUNK: usize = 256 << 10;

/// Where an [`InputSplit`]'s bytes live (mirrors
/// [`FileBytes`] at split granularity).
#[derive(Debug, Clone)]
pub enum SplitBytes {
    /// The whole file's bytes, shared; splits slice into it zero-copy.
    Mem(Arc<Vec<u8>>),
    /// The file lives on disk; readers stream chunk windows from it.
    Disk {
        /// Backing file path (shared by all splits of the file).
        path: Arc<PathBuf>,
        /// Backing file length in bytes.
        len: usize,
    },
}

impl SplitBytes {
    /// Length of the whole backing file.
    pub fn len(&self) -> usize {
        match self {
            SplitBytes::Mem(d) => d.len(),
            SplitBytes::Disk { len, .. } => *len,
        }
    }

    /// True when the backing file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One unit of map-task input.
#[derive(Debug, Clone)]
pub struct InputSplit {
    /// The backing file's bytes (splits address a range of it).
    pub data: SplitBytes,
    /// Split start offset (inclusive).
    pub start: usize,
    /// Split end offset (exclusive; the line containing `end-1` is
    /// finished by this split).
    pub end: usize,
    /// Node holding the block.
    pub home_node: usize,
    /// Logical input source tag (multi-input jobs).
    pub source: u8,
    /// True for a typed hand-off split: the bytes are varint-framed
    /// `(key, value)` records instead of newline-delimited text.
    pub framed: bool,
}

impl InputSplit {
    /// Create one split per block of `file`. Disk-backed files produce
    /// disk-backed splits; their readers stream rather than materialize.
    pub fn from_file(file: &DfsFile, source: u8) -> Vec<InputSplit> {
        let data = match &file.bytes {
            FileBytes::Mem(d) => SplitBytes::Mem(Arc::clone(d)),
            FileBytes::Disk { path, len } => SplitBytes::Disk {
                path: Arc::clone(path),
                len: *len,
            },
        };
        (0..file.num_blocks())
            .map(|b| {
                let (start, end) = file.block_range(b);
                InputSplit {
                    data: data.clone(),
                    start,
                    end,
                    home_node: file.placements[b],
                    source,
                    framed: false,
                }
            })
            .collect()
    }

    /// Frame `(key, value)` pairs into one whole-buffer typed split — the
    /// cross-round hand-off of a DAG job.
    pub fn from_pairs<'p, I>(pairs: I, home_node: usize, source: u8) -> InputSplit
    where
        I: IntoIterator<Item = &'p (Vec<u8>, Vec<u8>)>,
    {
        let mut buf = Vec::new();
        for (k, v) in pairs {
            write_record(&mut buf, k, v);
        }
        let end = buf.len();
        InputSplit {
            data: SplitBytes::Mem(Arc::new(buf)),
            start: 0,
            end,
            home_node,
            source,
            framed: true,
        }
    }

    /// Split length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the byte range is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Exact number of records this split will yield (one scan; used to
    /// size the frequency buffer's profiling stage).
    pub fn count_records(&self) -> u64 {
        let mut reader = SplitReader::new(self);
        let mut n = 0u64;
        while reader.next().is_some() {
            n += 1;
        }
        n
    }

    /// Fold the split's byte range into a running FNV-1a hash without
    /// materializing disk-backed ranges (streams [`DEFAULT_INPUT_CHUNK`]
    /// windows). Identical content hashes identically on either backing.
    /// A disk-backed range that cannot be opened or read whole is an error
    /// whose message names the file.
    pub fn digest_content(&self, mut h: u64) -> io::Result<u64> {
        use crate::job::fnv1a_update;
        match &self.data {
            SplitBytes::Mem(d) => Ok(fnv1a_update(h, &d[self.start..self.end])),
            SplitBytes::Disk { path, len } => {
                let named = |e: io::Error| {
                    io::Error::new(
                        e.kind(),
                        format!("digesting split of {}: {e}", path.display()),
                    )
                };
                let end = self.end.min(*len);
                let mut f = File::open(path.as_ref()).map_err(named)?;
                f.seek(SeekFrom::Start(self.start as u64)).map_err(named)?;
                let mut pos = self.start;
                let mut buf = vec![0u8; DEFAULT_INPUT_CHUNK.min(end.saturating_sub(pos))];
                while pos < end {
                    let want = buf.len().min(end - pos);
                    f.read_exact(&mut buf[..want]).map_err(named)?;
                    h = fnv1a_update(h, &buf[..want]);
                    pos += want;
                }
                Ok(h)
            }
        }
    }
}

/// A bounded window over a disk-backed split: holds `[base, base+buf.len())`
/// of the file, refilling in `chunk`-sized reads and growing only as far
/// as a straddling line requires.
#[derive(Debug)]
struct DiskWindow {
    path: Arc<PathBuf>,
    file: File,
    file_len: usize,
    chunk: usize,
    buf: Vec<u8>,
    /// Absolute file offset of `buf[0]`.
    base: usize,
}

impl DiskWindow {
    fn open(path: &Arc<PathBuf>, len: usize, chunk: usize) -> io::Result<Self> {
        Ok(DiskWindow {
            path: Arc::clone(path),
            file: File::open(path.as_path())?,
            file_len: len,
            chunk: chunk.max(1 << 10),
            buf: Vec::new(),
            base: 0,
        })
    }

    /// Read the next chunk after the current window end into the buffer.
    /// On error the window is left as it was.
    fn fill(&mut self) -> io::Result<()> {
        let from = self.base + self.buf.len();
        let want = self.chunk.min(self.file_len - from);
        let old = self.buf.len();
        self.buf.resize(old + want, 0);
        let read = self
            .file
            .seek(SeekFrom::Start(from as u64))
            .and_then(|_| self.file.read_exact(&mut self.buf[old..]));
        if read.is_err() {
            self.buf.truncate(old);
        }
        read
    }

    /// Ensure the window contains the line starting at absolute offset
    /// `start` up to (excluding) its terminating newline or EOF. Returns
    /// `(rel_start, rel_end, next_abs)`: the line's range within the
    /// buffer and the absolute offset of the next line.
    fn load_line(&mut self, start: usize) -> io::Result<(usize, usize, usize)> {
        if start < self.base || start >= self.base + self.buf.len() {
            self.base = start;
            self.buf.clear();
            self.fill()?;
        }
        loop {
            let rel = start - self.base;
            if let Some(i) = self.buf[rel..].iter().position(|&b| b == b'\n') {
                return Ok((rel, rel + i, start + i + 1));
            }
            if self.base + self.buf.len() >= self.file_len {
                // Last line of the file, no trailing newline.
                return Ok((rel, self.buf.len(), self.file_len));
            }
            // The line straddles the window: drop bytes before it, read on.
            if rel > 0 {
                self.buf.drain(..rel);
                self.base = start;
            }
            self.fill()?;
        }
    }
}

/// The reader's view of the split bytes.
enum Source<'a> {
    /// Zero-copy slice of a resident file.
    Mem(&'a [u8]),
    /// Chunk window over a disk-backed file.
    Disk(DiskWindow),
}

/// Lending reader producing [`Record`]s from a split. For text splits the
/// record key is the big-endian byte offset of the line and the value is
/// the line without its trailing newline; for framed splits key and value
/// are the framed pair's own bytes. Disk-backed splits are streamed
/// through a bounded chunk window (see [`SplitReader::with_chunk`]);
/// resident splits are sliced zero-copy. The first I/O error on the
/// backing file (say, it was truncated after `SimDfs::put_path`) ends the
/// split there and is kept for [`SplitReader::take_error`]; a reader that
/// returns `None` has either read its whole split or failed.
pub struct SplitReader<'a> {
    src: Source<'a>,
    /// The I/O error that ended a disk-backed split early, naming the file.
    error: Option<io::Error>,
    /// Absolute position of the next record.
    pos: usize,
    end: usize,
    file_len: usize,
    source: u8,
    framed: bool,
    key_buf: [u8; 8],
}

impl<'a> SplitReader<'a> {
    /// Position a reader at the split's first whole record, using the
    /// default chunk window for disk-backed splits.
    pub fn new(split: &'a InputSplit) -> Self {
        Self::with_chunk(split, DEFAULT_INPUT_CHUNK)
    }

    /// Like [`SplitReader::new`] with an explicit chunk-window size for
    /// disk-backed splits (the `input_chunk_bytes` budget knob).
    pub fn with_chunk(split: &'a InputSplit, chunk: usize) -> Self {
        let file_len = split.data.len();
        let mut pos = split.start;
        let mut error = None;
        let src = match &split.data {
            SplitBytes::Mem(data) => {
                let data: &'a [u8] = data;
                if !split.framed && pos > 0 {
                    // Skip the partial first line: it belongs to the
                    // previous split.
                    while pos < data.len() && data[pos - 1] != b'\n' {
                        pos += 1;
                    }
                }
                Source::Mem(data)
            }
            SplitBytes::Disk { path, len } => {
                assert!(
                    !split.framed,
                    "framed splits are in-memory hand-offs; disk-backed framed \
                     splits are not supported"
                );
                let opened = DiskWindow::open(path, *len, chunk).and_then(|mut win| {
                    if pos > 0 && pos < *len {
                        // Find the newline ending the previous split's line.
                        let (_, _, next) = win.load_line(pos - 1)?;
                        pos = next;
                    }
                    Ok(win)
                });
                match opened {
                    Ok(win) => Source::Disk(win),
                    Err(e) => {
                        error = Some(split_error(path, e));
                        pos = split.end;
                        Source::Mem(&[])
                    }
                }
            }
        };
        SplitReader {
            src,
            error,
            pos,
            end: split.end,
            file_len,
            source: split.source,
            framed: split.framed,
            key_buf: [0; 8],
        }
    }

    /// Bytes currently buffered by the reader (0 for zero-copy resident
    /// splits; the chunk window size for disk-backed splits). Feeds the
    /// out-of-core peak-buffer accounting.
    pub fn window_bytes(&self) -> usize {
        match &self.src {
            Source::Mem(_) => 0,
            Source::Disk(w) => w.buf.len(),
        }
    }

    /// The I/O error that ended the split early, if one did (taken: a
    /// second call returns `None`). The error's message names the file.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Next record, or `None` at the end of the split.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrows self
    pub fn next(&mut self) -> Option<Record<'_>> {
        if self.pos >= self.end || self.pos >= self.file_len {
            return None;
        }
        match &mut self.src {
            Source::Mem(data) => {
                let data = *data;
                if self.framed {
                    let (key, value) = read_record(data, &mut self.pos)?;
                    return Some(Record {
                        key,
                        value,
                        source: self.source,
                    });
                }
                // A line is read by the split containing its first byte.
                let line_start = self.pos;
                let mut i = self.pos;
                while i < data.len() && data[i] != b'\n' {
                    i += 1;
                }
                let line = &data[line_start..i];
                self.pos = if i < data.len() { i + 1 } else { i };
                self.key_buf = encode_u64(line_start as u64);
                Some(Record {
                    key: &self.key_buf,
                    value: line,
                    source: self.source,
                })
            }
            Source::Disk(win) => {
                let line_start = self.pos;
                let (rel_start, rel_end, next) = match win.load_line(line_start) {
                    Ok(line) => line,
                    Err(e) => {
                        self.error = Some(split_error(&win.path, e));
                        self.pos = self.end;
                        return None;
                    }
                };
                self.pos = next;
                self.key_buf = encode_u64(line_start as u64);
                Some(Record {
                    key: &self.key_buf,
                    value: &win.buf[rel_start..rel_end],
                    source: self.source,
                })
            }
        }
    }
}

/// `e`, with its message naming the split's backing file.
fn split_error(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("reading input split of {}: {e}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::dfs::SimDfs;

    fn splits_of(text: &str, block: usize, nodes: usize) -> Vec<InputSplit> {
        let mut dfs = SimDfs::new(nodes, block);
        dfs.put("f", text.as_bytes().to_vec());
        InputSplit::from_file(dfs.get("f").unwrap(), 0)
    }

    fn read_all(split: &InputSplit) -> Vec<String> {
        let mut r = SplitReader::new(split);
        let mut out = Vec::new();
        while let Some(rec) = r.next() {
            out.push(String::from_utf8(rec.value.to_vec()).unwrap());
        }
        out
    }

    #[test]
    fn every_line_read_exactly_once_across_splits() {
        // Lines of varied length, block size chosen to cut lines mid-way.
        let text = "alpha\nbee\ncderation\nx\nlongerline\nz\n";
        for block in 1..=text.len() {
            let splits = splits_of(text, block, 3);
            let mut got: Vec<String> = splits.iter().flat_map(read_all).collect();
            let want: Vec<String> = text.lines().map(str::to_string).collect();
            got.sort();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got, want_sorted, "block size {block}");
        }
    }

    #[test]
    fn record_keys_are_line_offsets() {
        let splits = splits_of("ab\ncd\n", 100, 1);
        let split = &splits[0];
        let mut r = SplitReader::new(split);
        let rec = r.next().unwrap();
        assert_eq!(crate::codec::decode_u64(rec.key), Some(0));
        let rec = r.next().unwrap();
        assert_eq!(crate::codec::decode_u64(rec.key), Some(3));
    }

    #[test]
    fn missing_trailing_newline_still_yields_last_line() {
        let splits = splits_of("one\ntwo", 100, 1);
        assert_eq!(read_all(&splits[0]), vec!["one", "two"]);
    }

    #[test]
    fn count_records_matches_read() {
        let text = "a\nbb\nccc\ndddd\n";
        for block in [2, 3, 5, 100] {
            let splits = splits_of(text, block, 2);
            let total: u64 = splits.iter().map(|s| s.count_records()).sum();
            assert_eq!(total, 4, "block {block}");
        }
    }

    #[test]
    fn source_tag_propagates() {
        let mut dfs = SimDfs::new(1, 100);
        dfs.put("f", b"x\n".to_vec());
        let splits = InputSplit::from_file(dfs.get("f").unwrap(), 7);
        let mut r = SplitReader::new(&splits[0]);
        assert_eq!(r.next().unwrap().source, 7);
    }

    #[test]
    fn empty_lines_are_records() {
        let splits = splits_of("a\n\nb\n", 100, 1);
        assert_eq!(read_all(&splits[0]), vec!["a", "", "b"]);
    }

    #[test]
    fn framed_split_round_trips_pairs() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"k1".to_vec(), b"value one".to_vec()),
            (b"".to_vec(), b"empty key".to_vec()),
            (b"k3\nwith newline".to_vec(), b"".to_vec()),
        ];
        let split = InputSplit::from_pairs(&pairs, 2, 5);
        assert!(split.framed);
        assert_eq!(split.home_node, 2);
        assert_eq!(split.count_records(), 3);
        let mut r = SplitReader::new(&split);
        for (k, v) in &pairs {
            let rec = r.next().unwrap();
            assert_eq!(rec.key, &k[..]);
            assert_eq!(rec.value, &v[..]);
            assert_eq!(rec.source, 5);
        }
        assert!(r.next().is_none());
    }

    #[test]
    fn framed_keys_pass_through_untouched() {
        // Newlines inside framed records must not split them: the framed
        // reader is the codec, not the line scanner.
        let pairs = vec![(b"a".to_vec(), b"line1\nline2".to_vec())];
        let split = InputSplit::from_pairs(&pairs, 0, 0);
        let mut r = SplitReader::new(&split);
        assert_eq!(r.next().unwrap().value, b"line1\nline2");
        assert!(r.next().is_none());
    }

    fn disk_splits_of(text: &str, block: usize, nodes: usize) -> Vec<InputSplit> {
        let dir = std::env::temp_dir().join(format!("textmr-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One file per distinct content so parallel tests don't collide.
        let path = dir.join(format!(
            "in-{:016x}.txt",
            crate::job::fnv1a(text.as_bytes())
        ));
        std::fs::write(&path, text.as_bytes()).unwrap();
        let mut dfs = SimDfs::new(nodes, block);
        dfs.put_path("f", &path).unwrap();
        InputSplit::from_file(dfs.get("f").unwrap(), 0)
    }

    /// Disk-backed splits must yield byte-identical records (keys and
    /// values) to their resident twins at every block size and with chunk
    /// windows smaller than a line (forcing straddle handling).
    #[test]
    fn disk_backing_matches_mem_at_all_block_and_chunk_sizes() {
        let text = "alpha\nbee\ncderation\nx\nlongerline\nz\nno-newline-tail";
        for block in [1, 2, 3, 5, 7, 11, 100] {
            let mem = splits_of(text, block, 3);
            let disk = disk_splits_of(text, block, 3);
            assert_eq!(mem.len(), disk.len(), "block {block}");
            for chunk in [1, 4, 1 << 20] {
                for (m, d) in mem.iter().zip(&disk) {
                    let mut mr = SplitReader::new(m);
                    // Tiny chunks are clamped to 1 KiB internally; still
                    // exercises refills for multi-KiB lines elsewhere.
                    let mut dr = SplitReader::with_chunk(d, chunk);
                    loop {
                        let a = mr.next().map(|r| (r.key.to_vec(), r.value.to_vec()));
                        let b = dr.next().map(|r| (r.key.to_vec(), r.value.to_vec()));
                        assert_eq!(a, b, "block {block} chunk {chunk}");
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Lines longer than the chunk window must still come back whole.
    #[test]
    fn disk_window_grows_past_chunk_for_long_lines() {
        let long = "x".repeat(5000);
        let text = format!("short\n{long}\ntail\n");
        let disk = disk_splits_of(&text, 1 << 20, 1);
        let mut r = SplitReader::with_chunk(&disk[0], 1 << 10);
        assert_eq!(r.next().unwrap().value, b"short");
        let rec = r.next().unwrap();
        assert_eq!(rec.value.len(), 5000);
        assert!(r.window_bytes() >= 5000);
        assert_eq!(r.next().unwrap().value, b"tail");
        assert!(r.next().is_none());
    }

    /// Content digests are backing-independent.
    #[test]
    fn digest_is_identical_across_backings() {
        let text = "alpha\nbee\ncderation\nx\n";
        let mem = splits_of(text, 7, 2);
        let disk = disk_splits_of(text, 7, 2);
        for (m, d) in mem.iter().zip(&disk) {
            assert_eq!(
                m.digest_content(1234).unwrap(),
                d.digest_content(1234).unwrap()
            );
        }
    }

    #[test]
    fn a_truncated_backing_file_ends_the_split_with_an_error_naming_it() {
        let text: String = (0..400).map(|i| format!("line {i}\n")).collect();
        let splits = disk_splits_of(&text, 1 << 10, 1);
        let SplitBytes::Disk { path, .. } = &splits[0].data else {
            panic!("disk-backed splits expected");
        };
        let cut = text.len() / 2;
        std::fs::OpenOptions::new()
            .write(true)
            .open(path.as_path())
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        let mut failed = 0;
        for split in &splits {
            let mut r = SplitReader::with_chunk(split, 1 << 10);
            while r.next().is_some() {}
            match r.take_error() {
                Some(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    assert!(e.to_string().contains(&path.display().to_string()), "{e}");
                    assert!(r.take_error().is_none(), "taken once");
                    failed += 1;
                }
                None => assert!(
                    split.end <= cut,
                    "split {}..{} read past the cut",
                    split.start,
                    split.end
                ),
            }
        }
        assert!(failed > 0);
        // Missing altogether: the reader fails at open.
        std::fs::remove_file(path.as_path()).unwrap();
        let mut r = SplitReader::new(&splits[0]);
        assert!(r.next().is_none());
        assert_eq!(r.take_error().unwrap().kind(), io::ErrorKind::NotFound);
    }
}
