//! Spill files and map-output files: partition-indexed ranges of a
//! [`Store`].
//!
//! A spill file stores varint-framed `(key, value)` records grouped by
//! partition, each partition's records sorted by key, with an in-memory
//! partition index `(offset, length, record count)`. The same container
//! backs both intermediate spills and the final merged map output (whose
//! partitions reducers fetch during shuffle).
//!
//! A spill file is a range of an append-only [`Store`], not a file of its
//! own: every spill of one map attempt appends to the attempt's store, and
//! partitions are read back with one positioned read on the store's open
//! handle. Each `SpillFile` holds an `Arc` of its store; the store's file
//! is deleted when the last handle into it drops, like Hadoop's
//! task-attempt directories. [`SpillFile::create`] starts a new store
//! holding one spill file (the map output, a cached output).
//!
//! Under a map budget
//! ([`ClusterConfig::map_budget_bytes`](crate::cluster::ClusterConfig::map_budget_bytes))
//! a partition holds a *framed run* (see [`crate::io::frame`]) instead of
//! bare records: the stored bytes are compressed frames and a per-run
//! frame index rides in a side table, so consumers can open a
//! [`FrameRunCursor`] and decode one frame window at a time instead of
//! materializing the whole partition. A framed writer
//! ([`SpillFileWriter::framed`]) seals each frame into the store as it
//! fills, so it holds one frame, not a partition.

use crate::codec::write_record;
use crate::io::frame::{FrameMeta, FrameRunCursor, OpenFrame};
use crate::io::store::{Appender, Store};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Index entry for one partition inside a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartIndex {
    /// Partition id.
    pub part: usize,
    /// Byte offset of the partition's records in the store.
    pub offset: u64,
    /// Byte length of the partition's records.
    pub len: u64,
    /// Number of records in the partition.
    pub records: u64,
}

/// A completed, immutable spill file.
#[derive(Debug)]
pub struct SpillFile {
    store: Arc<Store>,
    index: Vec<PartIndex>,
    /// Frame indexes for framed partitions, parallel to `index` lookups:
    /// `(part, frame index)`. Empty for legacy (record/blob) files.
    frames: Vec<(usize, Vec<FrameMeta>)>,
    total_bytes: u64,
    total_records: u64,
}

impl SpillFile {
    /// Open a writer for the one spill file of a new store at `path`
    /// (truncating any existing file there once bytes arrive).
    pub fn create(path: PathBuf) -> io::Result<SpillFileWriter> {
        Ok(Self::append_to(&Store::create(path)))
    }

    /// Open a writer appending a spill file to `store`.
    ///
    /// # Panics
    /// Panics if another append to `store` is in progress.
    pub fn append_to(store: &Arc<Store>) -> SpillFileWriter {
        SpillFileWriter {
            w: store.appender(),
            index: Vec::new(),
            frames: Vec::new(),
            cur: None,
            framing: None,
        }
    }

    /// The partition index (ascending partition order, only non-empty
    /// partitions present).
    pub fn index(&self) -> &[PartIndex] {
        &self.index
    }

    /// Total serialized bytes across partitions.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total records across partitions.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Index entry for `part`, if the partition is non-empty.
    pub fn part_index(&self, part: usize) -> Option<&PartIndex> {
        self.index.iter().find(|e| e.part == part)
    }

    /// Read one partition's stored bytes into memory with one positioned
    /// read (safe from several threads at once). Returns an empty buffer
    /// for partitions with no records; bytes missing from the store's file
    /// are an `UnexpectedEof` error.
    pub fn read_partition(&self, part: usize) -> io::Result<Vec<u8>> {
        let Some(entry) = self.part_index(part) else {
            return Ok(Vec::new());
        };
        self.store.read_vec(entry.offset, entry.len)
    }

    /// Frame index for a framed partition, or `None` for empty or
    /// legacy (unframed) partitions.
    pub fn frames(&self, part: usize) -> Option<&[FrameMeta]> {
        self.frames
            .iter()
            .find(|(p, _)| *p == part)
            .map(|(_, m)| m.as_slice())
    }

    /// Open a windowed record cursor over a framed partition (reads one
    /// frame at a time from the store). Yields an exhausted cursor for empty
    /// partitions; errors for partitions written without frames.
    pub fn framed_cursor(&self, part: usize) -> io::Result<FrameRunCursor> {
        let Some(entry) = self.part_index(part) else {
            return FrameRunCursor::from_mem(Vec::new(), Vec::new());
        };
        let Some(metas) = self.frames(part) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("partition {part} was not written framed"),
            ));
        };
        FrameRunCursor::from_store(
            Arc::clone(&self.store),
            entry.offset,
            entry.len,
            metas.to_vec(),
        )
    }

    /// The store holding the file's bytes.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Filesystem path of the store (for diagnostics).
    pub fn path(&self) -> &Path {
        self.store.path()
    }
}

/// Incremental writer for a [`SpillFile`]. Partitions must be started in
/// ascending order; records within a partition must already be sorted.
#[derive(Debug)]
pub struct SpillFileWriter {
    w: Appender,
    index: Vec<PartIndex>,
    frames: Vec<(usize, Vec<FrameMeta>)>,
    cur: Option<PartIndex>,
    /// The open frame and the current partition's frame index, when every
    /// partition is written as a framed run.
    framing: Option<(OpenFrame, Vec<FrameMeta>)>,
}

impl SpillFileWriter {
    /// The same writer writing each partition it starts as a framed run of
    /// `frame_bytes`-sized frames.
    pub fn framed(mut self, frame_bytes: usize) -> Self {
        self.framing = Some((OpenFrame::new(frame_bytes), Vec::new()));
        self
    }

    /// Begin a new partition. Panics if `part` is not greater than the
    /// previous partition (enforces sorted layout).
    pub fn start_partition(&mut self, part: usize) -> io::Result<()> {
        self.end_partition()?;
        if let Some(last) = self.index.last() {
            assert!(
                part > last.part,
                "partitions must be written in ascending order"
            );
        }
        self.cur = Some(PartIndex {
            part,
            offset: self.w.position(),
            len: 0,
            records: 0,
        });
        Ok(())
    }

    /// Append one record to the current partition.
    ///
    /// # Panics
    /// Panics if no partition has been started.
    pub fn write_record(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let cur = self
            .cur
            .as_mut()
            .expect("write_record before start_partition");
        cur.records += 1;
        match &mut self.framing {
            Some((frame, metas)) => {
                if frame.push(key, value) {
                    seal(&mut self.w, frame, metas, cur)?;
                }
            }
            None => cur.len += self.w.write_with(|buf| write_record(buf, key, value))?,
        }
        Ok(())
    }

    /// Write one partition as a single pre-encoded blob (e.g. a compressed
    /// run). `records` is the logical record count the blob carries.
    pub fn write_raw_partition(
        &mut self,
        part: usize,
        data: &[u8],
        records: u64,
    ) -> io::Result<()> {
        self.start_partition(part)?;
        let cur = self.cur.as_mut().expect("partition just started");
        self.w.write(data)?;
        cur.len += data.len() as u64;
        cur.records += records;
        Ok(())
    }

    /// Write one partition as a framed run: `stored` is the frame bytes
    /// from a [`crate::io::frame::FrameEncoder`], `metas` its frame
    /// index, `records` the logical record count. Readers use
    /// [`SpillFile::framed_cursor`] (windowed) or
    /// [`SpillFile::read_partition`] (whole stored run, e.g. for the
    /// shuffle's network byte accounting).
    pub fn write_framed_partition(
        &mut self,
        part: usize,
        stored: &[u8],
        metas: Vec<FrameMeta>,
        records: u64,
    ) -> io::Result<()> {
        self.write_raw_partition(part, stored, records)?;
        if records > 0 {
            self.frames.push((part, metas));
        }
        Ok(())
    }

    /// End the current partition, sealing its last frame when framed
    /// (starting a partition and [`SpillFileWriter::finish`] do this too).
    pub fn end_partition(&mut self) -> io::Result<()> {
        let Some(mut cur) = self.cur.take() else {
            return Ok(());
        };
        if let Some((frame, metas)) = &mut self.framing {
            seal(&mut self.w, frame, metas, &mut cur)?;
            if !metas.is_empty() {
                self.frames.push((cur.part, std::mem::take(metas)));
            }
        }
        if cur.records > 0 {
            self.index.push(cur);
        }
        Ok(())
    }

    /// Most bytes a frame writer held at once over the partitions ended so
    /// far: one frame and its compressed copy (0 unless framed).
    pub fn held_bytes(&self) -> usize {
        self.framing.as_ref().map_or(0, |(frame, _)| frame.peak)
    }

    /// Flush and seal the file, committing its bytes to the store.
    pub fn finish(mut self) -> io::Result<SpillFile> {
        self.end_partition()?;
        let total_bytes = self.index.iter().map(|e| e.len).sum();
        let total_records = self.index.iter().map(|e| e.records).sum();
        Ok(SpillFile {
            store: self.w.finish()?,
            index: self.index,
            frames: self.frames,
            total_bytes,
            total_records,
        })
    }
}

/// Seal `frame` into `w` as the next frame of partition `cur`, indexed in
/// `metas`.
fn seal(
    w: &mut Appender,
    frame: &mut OpenFrame,
    metas: &mut Vec<FrameMeta>,
    cur: &mut PartIndex,
) -> io::Result<()> {
    let sealed = frame.seal(cur.len, |header, payload| {
        w.write(header).and_then(|()| w.write(payload))
    });
    if let Some((meta, written)) = sealed {
        written?;
        cur.len += u64::from(meta.stored_len);
        metas.push(meta);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::read_record;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("textmr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_and_read_partitions() {
        let mut w = SpillFile::create(tmp("spill1.bin")).unwrap();
        w.start_partition(0).unwrap();
        w.write_record(b"a", b"1").unwrap();
        w.write_record(b"b", b"2").unwrap();
        w.start_partition(2).unwrap();
        w.write_record(b"z", b"26").unwrap();
        let f = w.finish().unwrap();

        assert_eq!(f.total_records(), 3);
        let p0 = f.read_partition(0).unwrap();
        let mut pos = 0;
        assert_eq!(read_record(&p0, &mut pos), Some((&b"a"[..], &b"1"[..])));
        assert_eq!(read_record(&p0, &mut pos), Some((&b"b"[..], &b"2"[..])));
        assert_eq!(read_record(&p0, &mut pos), None);

        // Partition 1 was never written: empty.
        assert!(f.read_partition(1).unwrap().is_empty());

        let p2 = f.read_partition(2).unwrap();
        let mut pos = 0;
        assert_eq!(read_record(&p2, &mut pos), Some((&b"z"[..], &b"26"[..])));
    }

    #[test]
    fn empty_partitions_are_omitted_from_index() {
        let mut w = SpillFile::create(tmp("spill2.bin")).unwrap();
        w.start_partition(0).unwrap();
        w.start_partition(1).unwrap();
        w.write_record(b"k", b"v").unwrap();
        let f = w.finish().unwrap();
        assert_eq!(f.index().len(), 1);
        assert_eq!(f.index()[0].part, 1);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn out_of_order_partitions_panic() {
        let mut w = SpillFile::create(tmp("spill3.bin")).unwrap();
        w.start_partition(1).unwrap();
        w.write_record(b"k", b"v").unwrap();
        w.start_partition(0).unwrap();
    }

    #[test]
    fn framed_partition_cursor_round_trips() {
        use crate::io::frame::FrameEncoder;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300)
            .map(|i| (format!("w{i:05}").into_bytes(), vec![b'x'; 30]))
            .collect();
        let mut enc = FrameEncoder::new(1 << 10);
        for (k, v) in &pairs {
            enc.push_record(k, v);
        }
        let (stored, metas, records) = enc.finish();
        assert!(metas.len() > 1);

        let mut w = SpillFile::create(tmp("spill5.bin")).unwrap();
        w.write_framed_partition(0, &stored, metas.clone(), records)
            .unwrap();
        let f = w.finish().unwrap();
        assert_eq!(f.frames(0).unwrap().len(), metas.len());
        assert!(f.frames(1).is_none());
        // Stored bytes (what the shuffle ships) match the encoder output.
        assert_eq!(f.read_partition(0).unwrap(), stored);

        let mut c = f.framed_cursor(0).unwrap();
        let mut got = Vec::new();
        while let Some((k, v)) = c.peek() {
            got.push((k.to_vec(), v.to_vec()));
            c.advance().unwrap();
        }
        assert_eq!(got, pairs);
        // A legacy partition written without frames refuses a cursor.
        let mut w = SpillFile::create(tmp("spill6.bin")).unwrap();
        w.start_partition(0).unwrap();
        w.write_record(b"k", b"v").unwrap();
        let f = w.finish().unwrap();
        assert!(f.framed_cursor(0).is_err());
    }

    #[test]
    fn file_removed_on_drop() {
        let path = tmp("spill4.bin");
        let mut w = SpillFile::create(path.clone()).unwrap();
        w.start_partition(0).unwrap();
        w.write_record(b"k", b"v").unwrap();
        let f = w.finish().unwrap();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    /// Spill files of `(key, value)` records, one per entry of `spills`,
    /// appended to `store` one after another (partition 0 only).
    fn append_spills(store: &Arc<Store>, spills: &[&[(&str, &str)]]) -> Vec<SpillFile> {
        spills
            .iter()
            .map(|records| {
                let mut w = SpillFile::append_to(store);
                w.start_partition(0).unwrap();
                for (k, v) in *records {
                    w.write_record(k.as_bytes(), v.as_bytes()).unwrap();
                }
                w.finish().unwrap()
            })
            .collect()
    }

    fn run_of(records: &[(&str, &str)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (k, v) in records {
            write_record(&mut buf, k.as_bytes(), v.as_bytes());
        }
        buf
    }

    #[test]
    fn spills_of_one_store_share_its_path_and_keep_their_own_bytes() {
        use crate::io::frame::FrameEncoder;
        let path = tmp("shared.store");
        let store = Store::create(path.clone());
        let a: &[(&str, &str)] = &[("a", "1"), ("b", "2")];
        let b: &[(&str, &str)] = &[("c", "3")];
        let mut files = append_spills(&store, &[a, b]);
        // A framed spill appends to the same store.
        let mut enc = FrameEncoder::new(1 << 10);
        enc.push_record(b"d", b"4");
        let (stored, metas, records) = enc.finish();
        let mut w = SpillFile::append_to(&store);
        w.write_framed_partition(1, &stored, metas, records)
            .unwrap();
        files.push(w.finish().unwrap());
        files.extend(append_spills(&store, &[&[("e", "5")]]));

        assert!(files.iter().all(|f| f.path() == path));
        assert_eq!(files[0].read_partition(0).unwrap(), run_of(a));
        assert_eq!(files[1].read_partition(0).unwrap(), run_of(b));
        assert_eq!(files[2].read_partition(1).unwrap(), stored);
        assert_eq!(files[3].read_partition(0).unwrap(), run_of(&[("e", "5")]));
        let mut c = files[2].framed_cursor(1).unwrap();
        assert_eq!(c.peek(), Some((&b"d"[..], &b"4"[..])));
        c.advance().unwrap();
        assert_eq!(c.peek(), None);
        assert_eq!(
            store.len(),
            files.iter().map(SpillFile::total_bytes).sum::<u64>()
        );
    }

    #[test]
    fn the_store_file_lives_until_its_last_spill_file_drops() {
        let path = tmp("lifetime.store");
        let store = Store::create(path.clone());
        let mut files = append_spills(&store, &[&[("a", "1")], &[("b", "2")]]);
        drop(store);
        let last = files.pop().unwrap();
        drop(files);
        assert!(path.exists(), "a spill file still points into the store");
        assert_eq!(last.read_partition(0).unwrap(), run_of(&[("b", "2")]));
        // A cursor holds the store too.
        let mut enc = crate::io::frame::FrameEncoder::new(1 << 10);
        enc.push_record(b"k", b"v");
        let (stored, metas, records) = enc.finish();
        let mut w = SpillFile::append_to(last.store());
        w.write_framed_partition(0, &stored, metas, records)
            .unwrap();
        let framed = w.finish().unwrap();
        let cursor = framed.framed_cursor(0).unwrap();
        drop((last, framed));
        assert!(path.exists(), "an open cursor still reads the store");
        drop(cursor);
        assert!(!path.exists());
    }

    #[test]
    fn two_threads_read_one_output_at_once() {
        let records: Vec<(String, String)> = (0..2000)
            .map(|i| (format!("key{i:05}"), format!("{i}")))
            .collect();
        let mut w = SpillFile::create(tmp("concurrent.bin")).unwrap();
        for part in 0..4 {
            w.start_partition(part).unwrap();
            for (k, v) in records.iter().skip(part).step_by(4) {
                w.write_record(k.as_bytes(), v.as_bytes()).unwrap();
            }
        }
        let f = w.finish().unwrap();
        let expected: Vec<Vec<u8>> = (0..4)
            .map(|part| {
                let mut buf = Vec::new();
                for (k, v) in records.iter().skip(part).step_by(4) {
                    write_record(&mut buf, k.as_bytes(), v.as_bytes());
                }
                buf
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..2 {
                let (f, expected) = (&f, &expected);
                s.spawn(move || {
                    for round in 0..50 {
                        let part = (round + t) % 4;
                        assert_eq!(f.read_partition(part).unwrap(), expected[part]);
                    }
                });
            }
        });
    }
}
