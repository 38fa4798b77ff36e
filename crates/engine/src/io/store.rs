//! The append-only store: one file per task attempt, opened once for read
//! and write. Spills, intermediate merge passes and spooled shuffle runs
//! append to it and are read back by byte offset.
//!
//! Creating, truncating and unlinking a file are filesystem metadata
//! operations, and they cost far more than the bytes of a small spill or
//! merge pass: on an ext4 volume of a 2-core KVM host, an `O_CREAT` open
//! took 0.13–0.30 ms and a rewrite of one path with `fs::write` +
//! `fs::read` 138–179 µs at 8–50 KB, against 11–33 µs to append and read
//! back on one open handle (see DESIGN.md §3). A store
//! pays the open once per attempt. Reads are positioned (`pread`) on the
//! shared handle — no open, no seek — so several threads (reducers
//! fetching one map output) can read one store at once.
//!
//! The file is created by the first append, so a store that never holds a
//! byte never touches the filesystem. It is removed when the last
//! `Arc<Store>` drops: every [`SpillFile`](crate::io::spill_file::SpillFile)
//! and [`FrameRunCursor`](crate::io::frame::FrameRunCursor) reading from
//! the store holds one, so the bytes outlive any reader of them.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Bytes an [`Appender`] buffers before writing them out.
const APPEND_BUFFER: usize = 64 << 10;

/// One append-only file, shared by every reader of its bytes.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    /// Opened by the first append.
    file: OnceLock<File>,
    /// Committed length: the end of the last finished append.
    len: AtomicU64,
    /// Held by the one append in progress, which writes past `len`.
    appending: AtomicBool,
}

impl Store {
    /// A store backed by `path`. Nothing touches the filesystem until the
    /// first append, which creates (or truncates) the file.
    pub fn create(path: PathBuf) -> Arc<Store> {
        Arc::new(Store {
            path,
            file: OnceLock::new(),
            len: AtomicU64::new(0),
            appending: AtomicBool::new(false),
        })
    }

    /// Backing file path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed bytes.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the store's one append claim.
    ///
    /// # Panics
    /// Panics if another append is in progress: the engine appends to a
    /// store from one thread at a time, so two at once is a bug that would
    /// interleave their bytes.
    fn claim(&self) {
        let taken = self.appending.swap(true, Ordering::AcqRel);
        assert!(!taken, "two appends in progress on {}", self.path.display());
    }

    fn release(&self) {
        self.appending.store(false, Ordering::Release);
    }

    /// The open file, creating it on first use (only an append calls this,
    /// under the claim, so one thread opens it).
    fn file_for_append(&self) -> io::Result<&File> {
        if let Some(f) = self.file.get() {
            return Ok(f);
        }
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.path)?;
        Ok(self.file.get_or_init(|| f))
    }

    /// Append `bytes` as one contiguous range; returns its offset.
    pub fn append(&self, bytes: &[u8]) -> io::Result<u64> {
        self.claim();
        let at = self.len();
        let written = if bytes.is_empty() {
            Ok(())
        } else {
            self.file_for_append()
                .and_then(|f| f.write_all_at(bytes, at))
        };
        if written.is_ok() {
            self.len.store(at + bytes.len() as u64, Ordering::Release);
        }
        self.release();
        written.map(|()| at)
    }

    /// Start a buffered append (see [`Appender`]).
    ///
    /// # Panics
    /// Panics if another append is in progress.
    pub fn appender(self: &Arc<Self>) -> Appender {
        self.claim();
        Appender {
            store: Arc::clone(self),
            flushed: self.len(),
            buf: Vec::with_capacity(APPEND_BUFFER),
        }
    }

    /// Fill `buf` from the bytes at `offset` with one positioned read.
    /// Bytes missing from the file (it was truncated, or never written)
    /// are an `UnexpectedEof` error.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let Some(f) = self.file.get() else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{}: store holds no bytes", self.path.display()),
            ));
        };
        f.read_exact_at(buf, offset)
    }

    /// The `len` bytes at `offset`, read into a buffer of exactly `len`.
    pub fn read_vec(&self, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "read larger than memory"))?;
        let mut buf = vec![0u8; len];
        self.read_at(offset, &mut buf)?;
        Ok(buf)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if self.file.get().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A buffered append to a [`Store`], for writers that produce many small
/// pieces (a spill's records). Bytes become part of the store at
/// [`Appender::finish`]; an appender dropped before then leaves the store
/// as it was, and the next append overwrites what it wrote.
#[derive(Debug)]
pub struct Appender {
    store: Arc<Store>,
    /// Store offset of `buf[0]`: everything before it is written.
    flushed: u64,
    buf: Vec<u8>,
}

impl Appender {
    /// Store offset the next appended byte lands at.
    pub fn position(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }

    /// Append `bytes`.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > APPEND_BUFFER {
            self.flush()?;
        }
        if bytes.len() >= APPEND_BUFFER {
            self.store
                .file_for_append()?
                .write_all_at(bytes, self.flushed)?;
            self.flushed += bytes.len() as u64;
        } else {
            self.buf.extend_from_slice(bytes);
        }
        Ok(())
    }

    /// Append what `fill` pushes onto the buffer; returns its length.
    pub fn write_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        let before = self.buf.len();
        fill(&mut self.buf);
        let added = (self.buf.len() - before) as u64;
        if self.buf.len() >= APPEND_BUFFER {
            self.flush()?;
        }
        Ok(added)
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.store
                .file_for_append()?
                .write_all_at(&self.buf, self.flushed)?;
            self.flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Write out the buffer and commit every appended byte to the store.
    pub fn finish(mut self) -> io::Result<Arc<Store>> {
        self.flush()?;
        self.store.len.store(self.flushed, Ordering::Release);
        Ok(Arc::clone(&self.store))
    }
}

impl Drop for Appender {
    fn drop(&mut self) {
        self.store.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("textmr-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn appends_read_back_by_offset() {
        let store = Store::create(tmp("a.store"));
        let a = store.append(b"hello").unwrap();
        let mut w = store.appender();
        assert_eq!(w.position(), 5);
        w.write(b" big").unwrap();
        w.write(&vec![b'x'; APPEND_BUFFER + 3]).unwrap();
        assert_eq!(w.write_with(|b| b.extend_from_slice(b"!")).unwrap(), 1);
        w.finish().unwrap();
        let b = store.append(b"world").unwrap();
        assert_eq!((a, b), (0, 5 + 4 + APPEND_BUFFER as u64 + 3 + 1));
        assert_eq!(store.read_vec(a, 5).unwrap(), b"hello");
        assert_eq!(store.read_vec(b, 5).unwrap(), b"world");
        assert_eq!(store.read_vec(5, 4).unwrap(), b" big");
        assert_eq!(store.len(), b + 5);
    }

    #[test]
    fn an_unfinished_appender_leaves_the_store_as_it_was() {
        let store = Store::create(tmp("b.store"));
        store.append(b"keep").unwrap();
        let mut w = store.appender();
        w.write(b"dropped").unwrap();
        drop(w);
        assert_eq!(store.len(), 4);
        assert_eq!(store.append(b"next").unwrap(), 4);
        assert_eq!(store.read_vec(0, 8).unwrap(), b"keepnext");
    }

    #[test]
    fn an_empty_store_creates_no_file() {
        let path = tmp("c.store");
        let store = Store::create(path.clone());
        store.appender().finish().unwrap();
        assert!(store.is_empty() && !path.exists());
        let err = store.read_vec(0, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        store.append(b"x").unwrap();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    #[should_panic(expected = "two appends in progress")]
    fn two_appends_at_once_panic() {
        let store = Store::create(tmp("d.store"));
        let _w = store.appender();
        let _ = store.append(b"x");
    }
}
