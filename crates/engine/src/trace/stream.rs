//! Streaming Chrome-trace export with bounded resident state.
//!
//! [`JobTrace::to_chrome_json`](super::JobTrace::to_chrome_json) holds the
//! whole trace — every entry's lanes *and* the full rendered JSON string —
//! in memory at once. For an out-of-core run that is exactly the kind of
//! unbounded buffer the engine is trying to avoid: a multi-GB input
//! produces traces whose JSON dwarfs the configured map budget.
//!
//! [`TraceStreamWriter`] inverts the lifecycle. Span events are formatted
//! and appended to an on-disk spool file as each [`TraceEntry`] is pushed;
//! the entry can be dropped immediately afterwards. The writer keeps only
//! O(lanes) state in memory — the thread-name table (one short string per
//! `(node, tid)` lane, independent of run length) — plus a small copy
//! buffer. [`TraceStreamWriter::finish`] then assembles the final file:
//! the self-describing `textmr` header (which needs the wall clock and
//! happens-before edges, known only at the end), the process/thread
//! metadata events, the spooled span events copied through in bounded
//! chunks, and the closing bracket.
//!
//! **Byte parity is guaranteed by construction**: the writer calls the
//! same emission helpers in `trace::chrome` as the batch exporter
//! (`write_trace_header`, `write_meta_events`, `write_entry_events`),
//! so a streamed file is byte-identical to `to_chrome_json()` over the
//! same entries — pinned by this module's tests and by the cluster test
//! that diffs a streamed job export against its batch twin. The
//! determinism audit can therefore treat streamed traces exactly like
//! batch ones.
//!
//! One subtlety the parity tests pin: metadata events always precede span
//! events in the batch export, so every spooled span event is written
//! comma-prefixed. If a degenerate trace has no metadata events at all
//! (zero nodes and no lanes), `finish` drops the spool's leading comma so
//! the JSON stays valid either way.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::chrome::{
    note_entry_threads, write_entry_events, write_meta_events, write_trace_header, LaneLayout,
};
use super::{TraceEdge, TraceEntry};
use crate::metrics::VNanos;

/// Incremental Chrome-trace writer: push entries as they retire, finish
/// with the wall clock and edges once the run is over.
///
/// Create with the cluster's lane geometry (the same values
/// [`JobTrace`](super::JobTrace) carries: clamped slot counts and fetcher
/// width), push every [`TraceEntry`] **in the order the batch exporter
/// would iterate them**, then call [`finish`](TraceStreamWriter::finish).
/// Dropping an unfinished writer removes the spool file; the final path is
/// only ever created by a successful `finish`, so readers never observe a
/// half-written trace.
#[derive(Debug)]
pub struct TraceStreamWriter {
    path: PathBuf,
    spool_path: PathBuf,
    spool: Option<BufWriter<File>>,
    nodes: usize,
    layout: LaneLayout,
    threads: BTreeMap<(usize, usize), String>,
    entries: u64,
}

impl TraceStreamWriter {
    /// Open a streaming writer targeting `path`.
    ///
    /// Span events spool to `<path>.spool` until [`finish`] assembles the
    /// final file. `map_slots`/`reduce_slots`/`fetchers` must match the
    /// values the equivalent [`JobTrace`](super::JobTrace) would carry
    /// (the driver clamps slot counts to ≥ 1 and fetchers to the NIC
    /// model's maximum before constructing either).
    ///
    /// [`finish`]: TraceStreamWriter::finish
    pub fn create(
        path: PathBuf,
        nodes: usize,
        map_slots: usize,
        reduce_slots: usize,
        fetchers: usize,
    ) -> io::Result<TraceStreamWriter> {
        let spool_path = PathBuf::from(format!("{}.spool", path.display()));
        // Read+write: `finish` seeks back and copies the spool into the
        // final file through the same descriptor.
        let spool = BufWriter::new(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&spool_path)?,
        );
        Ok(TraceStreamWriter {
            path,
            spool_path,
            spool: Some(spool),
            nodes,
            layout: LaneLayout {
                map_slots,
                reduce_slots,
                fetchers,
            },
            threads: BTreeMap::new(),
            entries: 0,
        })
    }

    /// Spool one entry's span events and note its lane labels.
    ///
    /// The entry's lanes are not retained — the caller may drop the entry
    /// as soon as this returns, which is the whole point.
    pub fn push_entry(&mut self, e: &TraceEntry) -> io::Result<()> {
        note_entry_threads(&self.layout, e, &mut self.threads);
        let mut buf = String::new();
        // Metadata events precede span events in the final file, so every
        // spooled event is comma-prefixed (`first = false`); `finish`
        // strips the lead comma in the no-metadata degenerate case.
        let mut first = false;
        write_entry_events(&mut buf, &self.layout, e, &mut first);
        self.entries += 1;
        self.spool
            .as_mut()
            .expect("spool lives until finish")
            .write_all(buf.as_bytes())
    }

    /// Entries pushed so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Assemble the final trace file and remove the spool.
    ///
    /// `wall` and `edges` go in the `textmr` header — they are the only
    /// pieces of the export that need the whole run to have completed,
    /// which is why they arrive here rather than at [`create`]. The file
    /// at the target path is complete and valid once this returns.
    ///
    /// [`create`]: TraceStreamWriter::create
    pub fn finish(mut self, wall: VNanos, edges: &[TraceEdge]) -> io::Result<()> {
        let spool = self.spool.take().expect("finish runs once");
        let mut spool = spool.into_inner().map_err(|e| e.into_error())?;
        spool.seek(SeekFrom::Start(0))?;

        let mut head = String::with_capacity(4096);
        write_trace_header(
            &mut head,
            self.nodes,
            self.layout.map_slots,
            self.layout.reduce_slots,
            self.layout.fetchers,
            wall,
            edges,
        );
        let mut first = true;
        write_meta_events(&mut head, self.nodes, &self.threads, &mut first);

        let mut out = BufWriter::new(File::create(&self.path)?);
        out.write_all(head.as_bytes())?;
        copy_spool(&mut spool, &mut out, first)?;
        out.write_all(b"]}")?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        drop(spool);
        std::fs::remove_file(&self.spool_path)?;
        Ok(())
    }

    /// Final path this writer targets.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TraceStreamWriter {
    fn drop(&mut self) {
        // Unfinished writer: don't leave a stale spool behind. `finish`
        // already removed it (and took `spool`), so this only fires on
        // early drops and error paths.
        if self.spool.take().is_some() {
            let _ = std::fs::remove_file(&self.spool_path);
        }
    }
}

/// Copy the spooled span events through a bounded chunk buffer. When no
/// metadata event was written (`drop_lead_comma`), skip the spool's
/// leading comma so the events array stays valid JSON.
fn copy_spool<W: Write>(spool: &mut File, out: &mut W, drop_lead_comma: bool) -> io::Result<()> {
    let mut buf = vec![0u8; 64 * 1024];
    let mut lead = drop_lead_comma;
    loop {
        let n = spool.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        let mut chunk = &buf[..n];
        if lead {
            debug_assert!(chunk[0] == b',', "spooled events are comma-prefixed");
            chunk = &chunk[1..];
            lead = false;
        }
        out.write_all(chunk)?;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        AttemptKind, EdgeEnd, EdgeKind, EntryDetail, IdleKind, JobTrace, LaneBuilder, LaneRole,
        SpanKind, TaskKind,
    };
    use super::*;
    use crate::metrics::Op;

    fn lanes_entry(round: usize, task: usize, node: usize, slot: usize, at: VNanos) -> TraceEntry {
        let mut map = LaneBuilder::new(LaneRole::Map);
        map.push(700, SpanKind::Op(Op::Read));
        map.push(300, SpanKind::Op(Op::Map));
        let mut support = LaneBuilder::new(LaneRole::Support);
        support.pad_to(600, IdleKind::Done);
        support.push(400, SpanKind::Op(Op::SpillWrite));
        let mut lanes = vec![map.finish(), support.finish()];
        for lane in &mut lanes {
            for s in &mut lane.spans {
                s.start += at;
                s.end += at;
            }
        }
        TraceEntry {
            kind: TaskKind::Map,
            job: 0,
            round,
            task,
            attempt: 0,
            backup: false,
            node,
            slot,
            factor: 1,
            start: at,
            end: at + 1000,
            detail: EntryDetail::Lanes(lanes),
        }
    }

    fn flat_entry(task: usize, node: usize, at: VNanos) -> TraceEntry {
        TraceEntry {
            kind: TaskKind::Reduce,
            job: 0,
            round: 0,
            task,
            attempt: 1,
            backup: true,
            node,
            slot: 0,
            factor: 2,
            start: at,
            end: at + 500,
            detail: EntryDetail::Flat(AttemptKind::Lost),
        }
    }

    fn sample_trace() -> JobTrace {
        JobTrace {
            nodes: 2,
            map_slots: 2,
            reduce_slots: 1,
            fetchers: 2,
            wall: 9_999,
            entries: vec![
                lanes_entry(0, 0, 0, 0, 0),
                lanes_entry(0, 1, 1, 1, 0),
                flat_entry(0, 1, 2000),
                lanes_entry(1, 2, 0, 0, 3000),
            ],
            edges: vec![TraceEdge {
                kind: EdgeKind::Slot,
                src: EdgeEnd {
                    entry: 0,
                    at: Some((0, 1)),
                },
                dst: EdgeEnd { entry: 1, at: None },
            }],
        }
    }

    fn stream_bytes(trace: &JobTrace, dir: &Path) -> Vec<u8> {
        let path = dir.join("streamed.json");
        let mut w = TraceStreamWriter::create(
            path.clone(),
            trace.nodes,
            trace.map_slots,
            trace.reduce_slots,
            trace.fetchers,
        )
        .unwrap();
        for e in &trace.entries {
            w.push_entry(e).unwrap();
        }
        assert_eq!(w.entries(), trace.entries.len() as u64);
        w.finish(trace.wall, &trace.edges).unwrap();
        assert!(!dir.join("streamed.json.spool").exists(), "spool left over");
        std::fs::read(path).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("textmr-tstream-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streamed_bytes_match_batch_export() {
        let dir = tmp_dir("parity");
        let trace = sample_trace();
        let streamed = stream_bytes(&trace, &dir);
        assert_eq!(streamed, trace.to_chrome_json().into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_file_round_trips_and_validates() {
        let dir = tmp_dir("roundtrip");
        let trace = sample_trace();
        let text = String::from_utf8(stream_bytes(&trace, &dir)).unwrap();
        super::super::validate_chrome_trace(&text).unwrap();
        // Lossless like the batch export: importing the streamed file and
        // re-exporting reproduces it byte-for-byte.
        let reimported = JobTrace::from_chrome_json(&text).unwrap();
        assert_eq!(reimported.to_chrome_json(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_edgeless_traces_stream_identically() {
        let dir = tmp_dir("empty");
        for trace in [
            JobTrace {
                nodes: 1,
                map_slots: 1,
                reduce_slots: 1,
                fetchers: 1,
                wall: 0,
                entries: vec![],
                edges: vec![],
            },
            // Degenerate: no nodes and no entries — no metadata events at
            // all, exercising the lead-comma strip (trivially, an empty
            // spool) and the `"traceEvents":[]` form.
            JobTrace::default(),
        ] {
            let streamed = stream_bytes(&trace, &dir);
            assert_eq!(streamed, trace.to_chrome_json().into_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_writer_removes_spool() {
        let dir = tmp_dir("drop");
        let path = dir.join("t.json");
        let w = TraceStreamWriter::create(path.clone(), 1, 1, 1, 1).unwrap();
        assert!(dir.join("t.json.spool").exists());
        drop(w);
        assert!(!dir.join("t.json.spool").exists());
        assert!(!path.exists(), "final file must not exist without finish");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
