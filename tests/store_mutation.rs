//! One mutation proptest over the store-backed intermediate readers.
//!
//! A map attempt's spills (record/blob and framed) sit in one append-only
//! store file and are read back by offset. The file is outside the
//! program's memory, so its readers must answer a truncated or
//! bit-flipped file with a named error, never a panic:
//! `SpillFile::read_partition` (`UnexpectedEof`) followed by
//! `merge_grouped` (`InvalidData`, "merge run R: no record decodes …"),
//! and `SpillFile::framed_cursor` driven to the end (`UnexpectedEof`, or
//! `InvalidData` carrying a `FrameError`). No read allocates more than
//! the run's stored length, and no decoded window more than the frame
//! index promises.

use proptest::prelude::*;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use textmr_engine::io::frame::{FrameEncoder, FrameError};
use textmr_engine::io::spill_file::SpillFile;
use textmr_engine::io::store::Store;
use textmr_engine::task::merge::merge_grouped;

const PARTS: usize = 3;

fn store_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("textmr-store-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("s{}.store", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Sorted records of spill `s`, partition `p`: enough of them, with
/// repetitive values, that framed partitions span several compressed
/// frames.
fn records(s: usize, p: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..40 + 30 * p)
        .map(|i| {
            let key = format!("k{p}-{:04}", i * 3 + s).into_bytes();
            (key, vec![b'a' + (i % 5) as u8; 20 + i % 17])
        })
        .collect()
}

/// Two record/blob spills and two framed spills, appended alternately to
/// one store.
fn write_spills(store: &std::sync::Arc<Store>) -> (Vec<SpillFile>, Vec<SpillFile>) {
    let (mut plain, mut framed) = (Vec::new(), Vec::new());
    for s in 0..4 {
        let mut w = SpillFile::append_to(store);
        for p in 0..PARTS {
            if s % 2 == 0 {
                w.start_partition(p).unwrap();
                for (k, v) in records(s, p) {
                    w.write_record(&k, &v).unwrap();
                }
            } else {
                let mut enc = FrameEncoder::new(1 << 10);
                for (k, v) in records(s, p) {
                    enc.push_record(&k, &v);
                }
                let (stored, metas, n) = enc.finish();
                w.write_framed_partition(p, &stored, metas, n).unwrap();
            }
        }
        let f = w.finish().unwrap();
        if s % 2 == 0 {
            plain.push(f);
        } else {
            framed.push(f);
        }
    }
    (plain, framed)
}

/// A record/blob partition read plus merge: `Ok`, or a named error.
fn check_plain(files: &[SpillFile], part: usize) {
    let mut runs = Vec::new();
    for f in files {
        match f.read_partition(part) {
            Ok(run) => {
                let stored = f.part_index(part).map_or(0, |e| e.len);
                assert_eq!(run.len() as u64, stored, "read allocates the stored length");
                runs.push(run);
            }
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "{e}");
                return;
            }
        }
    }
    if let Err(e) = merge_grouped(&runs, &|a, b| a.cmp(b), |_, _| {}) {
        assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
        let msg = e.to_string();
        assert!(
            msg.starts_with("merge run ") && msg.contains("no record decodes"),
            "{msg}"
        );
    }
}

/// An error from a framed read: a short file, or a named frame error.
fn assert_named(e: &std::io::Error) {
    match e.kind() {
        ErrorKind::UnexpectedEof => {}
        ErrorKind::InvalidData => {
            let msg = e.to_string();
            let named = [FrameError::Truncated, FrameError::Corrupt]
                .iter()
                .any(|f| f.to_string() == msg);
            assert!(
                named || msg.starts_with("unknown frame flags byte"),
                "unnamed: {msg}"
            );
        }
        other => panic!("unexpected error kind {other:?}: {e}"),
    }
}

/// A framed partition's cursor driven to the end: `Ok`, or a named error.
fn check_framed(file: &SpillFile, part: usize) {
    let max_raw = file
        .frames(part)
        .and_then(|m| m.iter().map(|f| f.raw_len as usize).max())
        .unwrap_or(0);
    let mut c = match file.framed_cursor(part) {
        Ok(c) => c,
        Err(e) => return assert_named(&e),
    };
    while c.peek().is_some() {
        assert!(
            c.window_bytes() <= max_raw,
            "window past the indexed raw length"
        );
        if let Err(e) = c.advance() {
            return assert_named(&e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn store_readers_never_panic_on_a_damaged_file(
        truncate in any::<bool>(),
        cut in 0usize..1_000_000,
        flips in proptest::collection::vec((0usize..1_000_000, any::<u8>()), 0..6),
    ) {
        let store = Store::create(store_path());
        let (plain, framed) = write_spills(&store);
        let len = store.len() as usize;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(store.path())
            .unwrap();
        for &(pos, mask) in &flips {
            let at = (pos % len) as u64;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).unwrap();
            file.write_all_at(&[byte[0] ^ mask.max(1)], at).unwrap();
        }
        if truncate {
            file.set_len((cut % (len + 1)) as u64).unwrap();
        }
        for part in 0..PARTS {
            check_plain(&plain, part);
            for f in &framed {
                check_framed(f, part);
            }
        }
    }
}

#[test]
fn an_intact_store_reads_back_every_record() {
    let store = Store::create(store_path());
    let (plain, framed) = write_spills(&store);
    for part in 0..PARTS {
        let runs: Vec<Vec<u8>> = plain
            .iter()
            .map(|f| f.read_partition(part).unwrap())
            .collect();
        let mut n = 0;
        merge_grouped(&runs, &|a, b| a.cmp(b), |_, vs| n += vs.len()).unwrap();
        assert_eq!(n, records(0, part).len() + records(2, part).len());
        for (i, f) in framed.iter().enumerate() {
            let mut c = f.framed_cursor(part).unwrap();
            let mut got = Vec::new();
            while let Some((k, v)) = c.peek() {
                got.push((k.to_vec(), v.to_vec()));
                c.advance().unwrap();
            }
            assert_eq!(got, records(2 * i + 1, part));
        }
    }
}
