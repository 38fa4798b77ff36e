//! InvertedIndex — build, per word, the sorted list of its occurrences.
//!
//! `map()` emits `(word, postings)` where a posting is `(doc, position)`;
//! the document id is the line's byte offset (a stable, unique per-line
//! id) and the position is the word's index within the line. `combine()`
//! merges posting lists — fewer records, but byte volume barely shrinks,
//! which is what makes the application *storage-intensive* (the paper's
//! upper-left of Figure 10). `reduce()` merges all lists into the final
//! sorted postings for each word.
//!
//! Postings are serialized as `varint n, then n × (varint doc, varint
//! pos)` with docs ascending (delta-codable; kept plain for clarity).

use textmr_engine::codec::{decode_u64, read_varint, write_varint};
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_nlp::tokenizer;

/// One occurrence of a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Document id (line byte offset).
    pub doc: u64,
    /// Word index within the document.
    pub pos: u64,
}

/// Serialize a posting list.
pub fn encode_postings(postings: &[Posting], out: &mut Vec<u8>) {
    write_varint(out, postings.len() as u64);
    for p in postings {
        write_varint(out, p.doc);
        write_varint(out, p.pos);
    }
}

/// Deserialize a posting list; `None` on malformed bytes.
pub fn decode_postings(buf: &[u8]) -> Option<Vec<Posting>> {
    let mut pos = 0usize;
    let n = read_varint(buf, &mut pos)?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let doc = read_varint(buf, &mut pos)?;
        let p = read_varint(buf, &mut pos)?;
        out.push(Posting { doc, pos: p });
    }
    Some(out)
}

/// The InvertedIndex job.
#[derive(Debug, Default)]
pub struct InvertedIndex;

fn merge_posting_values(values: &mut dyn ValueCursor) -> Vec<Posting> {
    let mut all = Vec::new();
    while let Some(v) = values.next() {
        if let Some(ps) = decode_postings(v) {
            all.extend(ps);
        }
    }
    all.sort_unstable();
    all
}

impl Job for InvertedIndex {
    fn name(&self) -> &str {
        "InvertedIndex"
    }

    fn map(&self, record: &Record<'_>, emit: &mut dyn Emit) {
        let doc = decode_u64(record.key).unwrap_or(0);
        let line = std::str::from_utf8(record.value).unwrap_or("");
        let mut buf = Vec::with_capacity(16);
        let mut pos = 0u64;
        tokenizer::for_each_word(line, |word| {
            buf.clear();
            encode_postings(&[Posting { doc, pos }], &mut buf);
            emit.emit(word.as_bytes(), &buf);
            pos += 1;
        });
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let merged = merge_posting_values(values);
        let mut buf = Vec::with_capacity(merged.len() * 4 + 4);
        encode_postings(&merged, &mut buf);
        out.push(&buf);
    }

    fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        let merged = merge_posting_values(values);
        let mut buf = Vec::with_capacity(merged.len() * 4 + 4);
        encode_postings(&merged, &mut buf);
        out.emit(key, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
    use textmr_engine::io::dfs::SimDfs;

    fn index_of(text: &str) -> HashMap<String, Vec<Posting>> {
        let cluster = ClusterConfig::single_node();
        let mut dfs = SimDfs::new(1, 1 << 16);
        dfs.put("in", text.as_bytes().to_vec());
        let run = run_job(
            &cluster,
            &JobConfig::default().with_reducers(2),
            Arc::new(InvertedIndex),
            &dfs,
            &[("in", 0)],
        )
        .unwrap();
        run.sorted_pairs()
            .into_iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), decode_postings(&v).unwrap()))
            .collect()
    }

    #[test]
    fn postings_roundtrip() {
        let ps = vec![Posting { doc: 0, pos: 3 }, Posting { doc: 1000, pos: 0 }];
        let mut buf = Vec::new();
        encode_postings(&ps, &mut buf);
        assert_eq!(decode_postings(&buf), Some(ps));
    }

    #[test]
    fn index_locates_every_occurrence() {
        // Line 1 starts at offset 0; line 2 at offset 8 ("cat bat\n").
        let idx = index_of("cat bat\nbat cat\n");
        let cat = &idx["cat"];
        assert_eq!(cat.len(), 2);
        assert_eq!(cat[0], Posting { doc: 0, pos: 0 });
        assert_eq!(cat[1], Posting { doc: 8, pos: 1 });
        let bat = &idx["bat"];
        assert_eq!(bat[0], Posting { doc: 0, pos: 1 });
        assert_eq!(bat[1], Posting { doc: 8, pos: 0 });
    }

    #[test]
    fn postings_are_sorted_by_doc_then_pos() {
        let idx = index_of("z z\nz\nz z z\n");
        let ps = &idx["z"];
        let mut sorted = ps.clone();
        sorted.sort();
        assert_eq!(*ps, sorted);
        assert_eq!(ps.len(), 6);
    }

    #[test]
    fn repeated_word_in_one_line_keeps_positions() {
        let idx = index_of("dup dup dup\n");
        let ps = &idx["dup"];
        assert_eq!(ps.iter().map(|p| p.pos).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn malformed_postings_return_none() {
        assert_eq!(decode_postings(&[5]), None); // claims 5, has none
    }
}
