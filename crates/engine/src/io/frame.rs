//! Compressed framed run format with a per-run frame index — the
//! out-of-core intermediate representation.
//!
//! A *framed run* is a sequence of sorted, varint-framed `(key, value)`
//! records packed into fixed-target-size **frames**. Each frame is
//! independently compressed (the LZ77 coder in [`crate::io::compress`]),
//! so any consumer — the map-side k-way merge, a shuffle fetcher, the
//! reduce-side merge — can decode one frame-sized window at a time
//! instead of materializing the whole run. Frame boundaries always fall
//! on record boundaries.
//!
//! On-disk layout of one run (see DESIGN.md §3i for the diagram):
//!
//! ```text
//! run   := frame*
//! frame := flags:u8  raw_len:varint  stored_len:varint  check:varint  payload
//! flags := 0 (payload = raw record bytes)
//!        | 1 (payload = compressed record bytes)
//! check := low 32 bits of FNV-1a over the raw record bytes
//! ```
//!
//! A frame is stored compressed only when compression actually shrinks
//! it; incompressible frames ship raw so `stored_len ≤ raw_len + O(1)`
//! always holds. The **frame index** (one [`FrameMeta`] per frame) lives
//! beside the run — in the spill file's in-memory partition index, never
//! inside the byte stream — and is what lets readers seek to a window
//! without scanning.

use crate::codec::{read_varint, write_record, write_varint};
use crate::io::compress::{decompress_into, Compressor};
use crate::io::store::Store;
use std::io;
use std::sync::Arc;

/// Frame `flags` value: payload is raw record bytes.
pub const FRAME_RAW: u8 = 0;
/// Frame `flags` value: payload is LZ77-compressed record bytes.
pub const FRAME_COMPRESSED: u8 = 1;

/// Default target uncompressed frame size (64 KiB, like a compression
/// block: large enough to amortize headers, small enough that a handful
/// of open windows stay cheap).
pub const DEFAULT_FRAME_BYTES: usize = 64 << 10;

/// Index entry for one frame of a framed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Byte offset of the frame header *within the run*.
    pub offset: u64,
    /// Stored bytes of the whole frame (header + payload).
    pub stored_len: u32,
    /// Uncompressed payload bytes.
    pub raw_len: u32,
    /// Records in the frame.
    pub records: u32,
}

/// Why decoding a frame failed.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The byte stream ended inside a frame header or payload.
    Truncated,
    /// The `flags` byte is neither [`FRAME_RAW`] nor [`FRAME_COMPRESSED`].
    BadFlags(u8),
    /// The payload failed to decompress, decoded to the wrong length, or
    /// missed the header's FNV-1a checksum of the raw bytes.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "framed run truncated mid-frame"),
            FrameError::BadFlags(b) => write!(f, "unknown frame flags byte {b:#04x}"),
            FrameError::Corrupt => write!(f, "frame payload failed to decompress"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// The frame being filled: raw records up to the target size, then
/// sealed into `header + payload`. Both run writers seal through it
/// ([`FrameEncoder`] into memory, a framed
/// [`SpillFileWriter`](crate::io::spill_file::SpillFileWriter) into a
/// store, a frame at a time), so they lay out identical bytes.
#[derive(Debug)]
pub(crate) struct OpenFrame {
    target: usize,
    raw: Vec<u8>,
    records: u32,
    header: Vec<u8>,
    /// The writer's compressor and its output buffer, kept from frame to
    /// frame.
    compressor: Compressor,
    packed: Vec<u8>,
    /// Most bytes held at once: the raw frame and its compressed copy
    /// while it seals.
    pub(crate) peak: usize,
}

impl OpenFrame {
    /// Frames of `target` raw bytes (clamped to ≥ 1 KiB).
    pub(crate) fn new(target: usize) -> Self {
        OpenFrame {
            target: target.max(1 << 10),
            raw: Vec::new(),
            records: 0,
            header: Vec::new(),
            compressor: Compressor::default(),
            packed: Vec::new(),
            peak: 0,
        }
    }

    /// Append one record; true when the frame reached its target size.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) -> bool {
        write_record(&mut self.raw, key, value);
        self.records += 1;
        self.raw.len() >= self.target
    }

    /// Seal the frame as the one at `offset` in its run: hand its header
    /// and payload to `out`, and return its index entry with what `out`
    /// returned. `None` when the frame holds no record.
    pub(crate) fn seal<R>(
        &mut self,
        offset: u64,
        out: impl FnOnce(&[u8], &[u8]) -> R,
    ) -> Option<(FrameMeta, R)> {
        if self.raw.is_empty() {
            return None;
        }
        self.packed.clear();
        self.compressor.compress_into(&self.raw, &mut self.packed);
        let packed = &self.packed;
        self.peak = self.peak.max(self.raw.len() + packed.len());
        let (flags, payload): (u8, &[u8]) = if packed.len() < self.raw.len() {
            (FRAME_COMPRESSED, packed)
        } else {
            (FRAME_RAW, &self.raw)
        };
        self.header.clear();
        self.header.push(flags);
        write_varint(&mut self.header, self.raw.len() as u64);
        write_varint(&mut self.header, payload.len() as u64);
        write_varint(&mut self.header, u64::from(raw_check(&self.raw)));
        let meta = FrameMeta {
            offset,
            stored_len: (self.header.len() + payload.len()) as u32,
            raw_len: self.raw.len() as u32,
            records: self.records,
        };
        let written = out(&self.header, payload);
        self.raw.clear();
        self.records = 0;
        Some((meta, written))
    }
}

/// Builds one framed run in memory: records accumulate in a raw buffer
/// and are sealed into compressed frames at the target size. The encoder
/// holds one raw frame (`target` bytes) plus the whole stored run; a run
/// bound for a store is written frame by frame by a framed
/// [`SpillFileWriter`](crate::io::spill_file::SpillFileWriter) instead.
#[derive(Debug)]
pub struct FrameEncoder {
    frame: OpenFrame,
    out: Vec<u8>,
    metas: Vec<FrameMeta>,
    total_records: u64,
}

impl FrameEncoder {
    /// New encoder targeting `target` uncompressed bytes per frame
    /// (clamped to ≥ 1 KiB).
    pub fn new(target: usize) -> Self {
        FrameEncoder {
            frame: OpenFrame::new(target),
            out: Vec::new(),
            metas: Vec::new(),
            total_records: 0,
        }
    }

    /// Append one record; seals a frame when the raw buffer reaches the
    /// target size.
    pub fn push_record(&mut self, key: &[u8], value: &[u8]) {
        self.total_records += 1;
        if self.frame.push(key, value) {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let out = &mut self.out;
        let sealed = self.frame.seal(out.len() as u64, |header, payload| {
            out.extend_from_slice(header);
            out.extend_from_slice(payload);
        });
        if let Some((meta, ())) = sealed {
            self.metas.push(meta);
        }
    }

    /// Seal the open frame and return `(stored run bytes, frame index,
    /// total records)`.
    pub fn finish(mut self) -> (Vec<u8>, Vec<FrameMeta>, u64) {
        self.seal();
        (self.out, self.metas, self.total_records)
    }
}

/// Decode one frame's payload from `run[meta.offset..]` into raw record
/// bytes, validating the header against the index entry: a header whose
/// `raw_len` is not the entry's is [`FrameError::Corrupt`], so a damaged
/// header never makes the decoder allocate past what the index promises.
pub fn decode_frame(stored: &[u8], meta: &FrameMeta) -> Result<Vec<u8>, FrameError> {
    let start = usize::try_from(meta.offset).map_err(|_| FrameError::Truncated)?;
    let end = start
        .checked_add(meta.stored_len as usize)
        .ok_or(FrameError::Truncated)?;
    let frame = stored.get(start..end).ok_or(FrameError::Truncated)?;
    decode_frame_with(frame, Some(meta.raw_len))
}

/// Low 32 bits of FNV-1a over the raw record bytes — the frame header's
/// integrity check (the LZ77 coder alone cannot detect payload damage).
fn raw_check(raw: &[u8]) -> u32 {
    crate::job::fnv1a(raw) as u32
}

/// Decode one complete frame (`header + payload`) into raw record bytes,
/// verifying length and checksum.
pub fn decode_frame_bytes(frame: &[u8]) -> Result<Vec<u8>, FrameError> {
    decode_frame_with(frame, None)
}

/// [`decode_frame_bytes`], and when `indexed_raw_len` is given, a header
/// `raw_len` other than it is [`FrameError::Corrupt`].
fn decode_frame_with(frame: &[u8], indexed_raw_len: Option<u32>) -> Result<Vec<u8>, FrameError> {
    let Some((&flags, rest)) = frame.split_first() else {
        return Err(FrameError::Truncated);
    };
    let mut pos = 0usize;
    let raw_len = read_varint(rest, &mut pos).ok_or(FrameError::Truncated)?;
    if indexed_raw_len.is_some_and(|n| u64::from(n) != raw_len) {
        return Err(FrameError::Corrupt);
    }
    let raw_len = usize::try_from(raw_len).map_err(|_| FrameError::Corrupt)?;
    let stored_len = read_varint(rest, &mut pos).ok_or(FrameError::Truncated)? as usize;
    let check = read_varint(rest, &mut pos).ok_or(FrameError::Truncated)? as u32;
    let end = pos.checked_add(stored_len).ok_or(FrameError::Truncated)?;
    let payload = rest.get(pos..end).ok_or(FrameError::Truncated)?;
    let raw = match flags {
        FRAME_RAW => {
            if payload.len() != raw_len {
                return Err(FrameError::Corrupt);
            }
            payload.to_vec()
        }
        FRAME_COMPRESSED => {
            let raw = decompress_into(payload, raw_len).ok_or(FrameError::Corrupt)?;
            if raw.len() != raw_len {
                return Err(FrameError::Corrupt);
            }
            raw
        }
        other => return Err(FrameError::BadFlags(other)),
    };
    if raw_check(&raw) != check {
        return Err(FrameError::Corrupt);
    }
    Ok(raw)
}

/// Decode every frame of a stored run into one contiguous raw record
/// buffer (for inspecting a run whole; the engine's merges read one frame
/// window at a time through [`FrameRunCursor`]).
pub fn decode_run(stored: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut raw = Vec::new();
    for meta in scan_frames(stored)? {
        raw.extend(decode_frame(stored, &meta)?);
    }
    Ok(raw)
}

/// Walk a stored run *without* an index, recovering each frame's
/// [`FrameMeta`] from the headers (record counts come back as 0 — they
/// are index-only). Used to rebuild an index and by the corruption tests.
pub fn scan_frames(stored: &[u8]) -> Result<Vec<FrameMeta>, FrameError> {
    let mut metas = Vec::new();
    let mut pos = 0usize;
    while pos < stored.len() {
        let offset = pos as u64;
        let flags = stored[pos];
        if flags != FRAME_RAW && flags != FRAME_COMPRESSED {
            return Err(FrameError::BadFlags(flags));
        }
        let mut p = pos + 1;
        let raw_len = read_varint(stored, &mut p).ok_or(FrameError::Truncated)?;
        let stored_len = read_varint(stored, &mut p).ok_or(FrameError::Truncated)? as usize;
        let _check = read_varint(stored, &mut p).ok_or(FrameError::Truncated)?;
        let end = p.checked_add(stored_len).ok_or(FrameError::Truncated)?;
        if end > stored.len() {
            return Err(FrameError::Truncated);
        }
        metas.push(FrameMeta {
            offset,
            stored_len: (end - pos) as u32,
            raw_len: raw_len as u32,
            records: 0,
        });
        pos = end;
    }
    Ok(metas)
}

/// Where a framed run's stored bytes live.
#[derive(Debug)]
enum RunBytes {
    /// Whole stored run resident in memory (tests, an empty partition).
    Mem(Vec<u8>),
    /// A range of a store: the run occupies `[base, base + len)`. `frame`
    /// holds the stored bytes of the frame last read, reused across
    /// frames.
    Store {
        store: Arc<Store>,
        base: u64,
        len: u64,
        frame: Vec<u8>,
    },
}

/// A record cursor over one framed run, decoding one frame window at a
/// time. Implements the merge contract of
/// [`crate::task::merge::RunCursor`]: `peek` exposes the current record,
/// `advance` steps to the next, loading (and decompressing) the next
/// frame only when the current window is exhausted — so peak decoded
/// memory is one frame, not one run.
#[derive(Debug)]
pub struct FrameRunCursor {
    bytes: RunBytes,
    metas: Vec<FrameMeta>,
    next_frame: usize,
    window: Vec<u8>,
    pos: usize,
    /// Current record `(key_range, value_range)` within `window`.
    cur: Option<(std::ops::Range<usize>, std::ops::Range<usize>)>,
}

impl FrameRunCursor {
    /// Cursor over a run stored in memory.
    pub fn from_mem(stored: Vec<u8>, metas: Vec<FrameMeta>) -> io::Result<Self> {
        let mut c = FrameRunCursor {
            bytes: RunBytes::Mem(stored),
            metas,
            next_frame: 0,
            window: Vec::new(),
            pos: 0,
            cur: None,
        };
        c.step()?;
        Ok(c)
    }

    /// Cursor over a run stored in `[base, base + len)` of `store` (a
    /// spill-file partition, a spooled or intermediate run). Each frame is
    /// one positioned read on the store's open handle.
    pub fn from_store(
        store: Arc<Store>,
        base: u64,
        len: u64,
        metas: Vec<FrameMeta>,
    ) -> io::Result<Self> {
        let mut c = FrameRunCursor {
            bytes: RunBytes::Store {
                store,
                base,
                len,
                frame: Vec::new(),
            },
            metas,
            next_frame: 0,
            window: Vec::new(),
            pos: 0,
            cur: None,
        };
        c.step()?;
        Ok(c)
    }

    fn load_frame(&mut self, idx: usize) -> io::Result<Vec<u8>> {
        let meta = self.metas[idx];
        match &mut self.bytes {
            RunBytes::Mem(stored) => Ok(decode_frame(stored, &meta)?),
            RunBytes::Store {
                store,
                base,
                len,
                frame,
            } => {
                let end = meta.offset.checked_add(u64::from(meta.stored_len));
                let start = base.checked_add(meta.offset);
                let (Some(start), Some(end)) = (start, end) else {
                    return Err(FrameError::Truncated.into());
                };
                if end > *len {
                    return Err(FrameError::Truncated.into());
                }
                frame.resize(meta.stored_len as usize, 0);
                store.read_at(start, frame)?;
                Ok(decode_frame_with(frame, Some(meta.raw_len))?)
            }
        }
    }

    /// Advance to the next record, loading the next frame when the
    /// current window runs dry.
    fn step(&mut self) -> io::Result<()> {
        loop {
            let mut pos = self.pos;
            if let Some((k, v)) = crate::codec::read_record(&self.window, &mut pos) {
                let kr = (k.as_ptr() as usize - self.window.as_ptr() as usize)
                    ..(k.as_ptr() as usize - self.window.as_ptr() as usize + k.len());
                let vr = (v.as_ptr() as usize - self.window.as_ptr() as usize)
                    ..(v.as_ptr() as usize - self.window.as_ptr() as usize + v.len());
                self.cur = Some((kr, vr));
                self.pos = pos;
                return Ok(());
            }
            if self.pos < self.window.len() {
                // Partial record at the end of a frame: frames end on
                // record boundaries, so this is corruption.
                self.cur = None;
                return Err(FrameError::Corrupt.into());
            }
            if self.next_frame >= self.metas.len() {
                self.cur = None;
                return Ok(());
            }
            let idx = self.next_frame;
            self.next_frame += 1;
            self.window = self.load_frame(idx)?;
            self.pos = 0;
        }
    }

    /// Current record, or `None` when exhausted.
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        self.cur
            .as_ref()
            .map(|(k, v)| (&self.window[k.clone()], &self.window[v.clone()]))
    }

    /// Step past the current record.
    pub fn advance(&mut self) -> io::Result<()> {
        self.step()
    }

    /// Decoded bytes currently resident (the open window).
    pub fn window_bytes(&self) -> usize {
        self.window.len()
    }
}

/// Address of one framed run appended to a [`Store`] (a spooled shuffle
/// run or an intermediate merge pass).
#[derive(Debug, Clone)]
pub struct RunHandle {
    /// Offset of the run's first frame in the store.
    pub base: u64,
    /// Stored length of the run.
    pub len: u64,
    /// The run's frame index.
    pub metas: Vec<FrameMeta>,
    /// Total records in the run.
    pub records: u64,
}

impl RunHandle {
    /// Append one stored run (frames + index from a [`FrameEncoder`]) to
    /// `store`.
    pub fn append(
        store: &Store,
        stored: &[u8],
        metas: Vec<FrameMeta>,
        records: u64,
    ) -> io::Result<RunHandle> {
        Ok(RunHandle {
            base: store.append(stored)?,
            len: stored.len() as u64,
            metas,
            records,
        })
    }

    /// Open a windowed cursor over the run in `store`.
    pub fn cursor(self, store: &Arc<Store>) -> io::Result<FrameRunCursor> {
        FrameRunCursor::from_store(Arc::clone(store), self.base, self.len, self.metas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(pairs: &[(&[u8], &[u8])], target: usize) -> (Vec<u8>, Vec<FrameMeta>, u64) {
        let mut enc = FrameEncoder::new(target);
        for (k, v) in pairs {
            enc.push_record(k, v);
        }
        enc.finish()
    }

    fn drain(mut c: FrameRunCursor) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((k, v)) = c.peek() {
            out.push((k.to_vec(), v.to_vec()));
            c.advance().unwrap();
        }
        out
    }

    #[test]
    fn roundtrip_across_frame_boundaries() {
        // Repetitive values compress; the 1 KiB floor forces several frames.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..200)
            .map(|i| (format!("key{i:04}").into_bytes(), vec![b'v'; 40]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = pairs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let (stored, metas, records) = encode(&refs, 1 << 10);
        assert_eq!(records, 200);
        assert!(metas.len() > 1, "expected multiple frames");
        // Index round-trip: scanning headers recovers the same geometry.
        let scanned = scan_frames(&stored).unwrap();
        assert_eq!(scanned.len(), metas.len());
        for (s, m) in scanned.iter().zip(&metas) {
            assert_eq!(
                (s.offset, s.stored_len, s.raw_len),
                (m.offset, m.stored_len, m.raw_len)
            );
        }
        let got = drain(FrameRunCursor::from_mem(stored, metas).unwrap());
        assert_eq!(got, pairs);
    }

    #[test]
    fn incompressible_frames_ship_raw() {
        // A pseudo-random byte value defeats the LZ coder.
        let mut x = 0x9e3779b97f4a7c15u64;
        let val: Vec<u8> = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 33) as u8
            })
            .collect();
        let (stored, metas, _) = encode(&[(b"k", &val)], 1 << 10);
        assert_eq!(stored[metas[0].offset as usize], FRAME_RAW);
        let got = drain(FrameRunCursor::from_mem(stored, metas).unwrap());
        assert_eq!(got[0].1, val);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let (mut stored, metas, _) = encode(&[(b"key", &vec![b'a'; 5000])], 1 << 10);
        stored.truncate(stored.len() - 1);
        assert!(matches!(
            decode_frame(&stored, metas.last().unwrap()),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(scan_frames(&stored), Err(FrameError::Truncated)));
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let (mut stored, metas, _) = encode(&[(b"key", &vec![b'a'; 5000])], 1 << 10);
        let m = metas[0];
        assert_eq!(stored[m.offset as usize], FRAME_COMPRESSED);
        // Flip a payload byte: decompression must fail or mis-size.
        let mid = m.offset as usize + m.stored_len as usize / 2;
        stored[mid] ^= 0xff;
        match decode_frame(&stored, &m) {
            Err(FrameError::Corrupt) | Err(FrameError::Truncated) => {}
            other => panic!("corrupt frame decoded: {other:?}"),
        }
    }

    #[test]
    fn huge_stored_len_is_truncation_not_a_panic() {
        let mut frame = vec![FRAME_RAW];
        crate::codec::write_varint(&mut frame, 1); // raw_len
        crate::codec::write_varint(&mut frame, u64::MAX); // stored_len
        crate::codec::write_varint(&mut frame, 0); // check
        frame.push(b'x');
        assert_eq!(decode_frame_bytes(&frame), Err(FrameError::Truncated));
    }

    #[test]
    fn frame_offset_past_u64_is_truncation_not_a_panic() {
        let (stored, metas, _) = encode(&[(b"k", b"v")], 1 << 10);
        let bad = FrameMeta {
            offset: u64::MAX,
            ..metas[0]
        };
        assert_eq!(decode_frame(&stored, &bad), Err(FrameError::Truncated));
        let truncated = FrameError::Truncated.to_string();
        let err = FrameRunCursor::from_mem(stored.clone(), vec![bad]).unwrap_err();
        assert_eq!(err.to_string(), truncated);

        let store = Store::create(
            std::env::temp_dir().join(format!("textmr-frame-offset-{}.bin", std::process::id())),
        );
        store.append(&stored).unwrap();
        // `offset + stored_len` overflows; then `base + offset` does, under
        // a run length that would let it through.
        let cases = [(0, u64::MAX, stored.len() as u64), (u64::MAX, 1, u64::MAX)];
        for (base, offset, len) in cases {
            let meta = FrameMeta { offset, ..metas[0] };
            let err =
                FrameRunCursor::from_store(Arc::clone(&store), base, len, vec![meta]).unwrap_err();
            assert_eq!(err.to_string(), truncated);
        }
    }

    #[test]
    fn payload_inflating_past_raw_len_is_corrupt() {
        // A header promising 8 bytes over a payload that would inflate to
        // 2 GiB: decoding stops at the header's length.
        let mut payload = Vec::new();
        crate::codec::write_varint(&mut payload, 4);
        payload.extend_from_slice(b"aaaa");
        crate::codec::write_varint(&mut payload, 1);
        crate::codec::write_varint(&mut payload, (1 << 31) - 4);
        crate::codec::write_varint(&mut payload, 0);
        crate::codec::write_varint(&mut payload, 0);
        let mut frame = vec![FRAME_COMPRESSED];
        crate::codec::write_varint(&mut frame, 8);
        crate::codec::write_varint(&mut frame, payload.len() as u64);
        crate::codec::write_varint(&mut frame, 0);
        frame.extend_from_slice(&payload);
        assert_eq!(decode_frame_bytes(&frame), Err(FrameError::Corrupt));
    }

    #[test]
    fn bad_flags_byte_is_an_error() {
        let (mut stored, metas, _) = encode(&[(b"k", b"v")], 1 << 10);
        stored[metas[0].offset as usize] = 7;
        assert_eq!(
            decode_frame(&stored, &metas[0]),
            Err(FrameError::BadFlags(7))
        );
    }

    #[test]
    fn run_store_round_trips_runs() {
        let dir = std::env::temp_dir().join(format!("textmr-frames-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::create(dir.join("runs.bin"));
        let a: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| (format!("a{i:03}").into_bytes(), b"1".to_vec()))
            .collect();
        let b: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| (format!("b{i:03}").into_bytes(), b"2".to_vec()))
            .collect();
        let mut handles = Vec::new();
        for run in [&a, &b] {
            let mut enc = FrameEncoder::new(1 << 10);
            for (k, v) in run.iter() {
                enc.push_record(k, v);
            }
            let (stored, metas, records) = enc.finish();
            handles.push(RunHandle::append(&store, &stored, metas, records).unwrap());
        }
        let got_a = drain(handles[0].clone().cursor(&store).unwrap());
        let got_b = drain(handles[1].clone().cursor(&store).unwrap());
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
    }

    #[test]
    fn empty_run_yields_no_frames() {
        let (stored, metas, records) = FrameEncoder::new(1 << 10).finish();
        assert!(stored.is_empty() && metas.is_empty() && records == 0);
        let c = FrameRunCursor::from_mem(stored, metas).unwrap();
        assert!(c.peek().is_none());
    }
}
