//! SynText — the paper's parameterizable synthetic text benchmark
//! (Figure 10).
//!
//! SynText explores the two dimensions that decide how much the
//! optimizations can help:
//!
//! * **CPU-intensity** — computation performed in `map()` per record, as a
//!   multiplicative factor over WordCount's (factor 0 ≈ WordCount's
//!   tokenize-and-emit; large factors approach WordPOSTag).
//! * **Storage-intensity** — growth in output size when two records are
//!   aggregated by `combine()`: β = 0 collapses to a fixed-size aggregate
//!   (WordCount-like), β = 1 concatenates with no size reduction
//!   (InvertedIndex-like).
//!
//! A value is `varint count ++ varint payload_len ++ payload`; combining
//! sums counts and shrinks total payload by the factor β.

use textmr_engine::codec::{read_varint, write_varint};
use textmr_engine::job::{fnv1a, Emit, Job, Record, ValueCursor, ValueSink};
use textmr_nlp::tokenizer;

/// SynText configuration point (one cell of Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct SynText {
    /// CPU work per word: rounds of a hash spin, multiplying WordCount's
    /// per-record map cost.
    pub cpu_factor: u32,
    /// Storage intensity β ∈ [0, 1]: combined payload = β · Σ payloads.
    pub storage_beta: f64,
    /// Payload bytes attached to each map-output value.
    pub payload: usize,
}

impl SynText {
    /// A cell of the Figure 10 sweep.
    pub fn new(cpu_factor: u32, storage_beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&storage_beta));
        SynText {
            cpu_factor,
            storage_beta,
            payload: 16,
        }
    }
}

/// Decoded SynText value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynValue {
    /// Number of original records aggregated into this value.
    pub count: u64,
    /// Payload byte length carried.
    pub payload_len: u64,
}

/// Decode a SynText value header.
pub fn decode_value(v: &[u8]) -> Option<SynValue> {
    let mut pos = 0usize;
    let count = read_varint(v, &mut pos)?;
    let payload_len = read_varint(v, &mut pos)?;
    if v.len() < pos + payload_len as usize {
        return None;
    }
    Some(SynValue { count, payload_len })
}

fn encode_value(count: u64, payload_len: u64, out: &mut Vec<u8>) {
    write_varint(out, count);
    write_varint(out, payload_len);
    out.resize(out.len() + payload_len as usize, 0xA5);
}

impl SynText {
    fn aggregate(&self, values: &mut dyn ValueCursor) -> (u64, u64) {
        let mut count = 0u64;
        let mut payload = 0u64;
        let mut parts = 0u64;
        while let Some(v) = values.next() {
            if let Some(sv) = decode_value(v) {
                count += sv.count;
                payload += sv.payload_len;
                parts += 1;
            }
        }
        // β scales how much of the concatenated payload survives
        // aggregation; a single part keeps its payload unchanged.
        let out_payload = if parts <= 1 {
            payload
        } else {
            (payload as f64 * self.storage_beta).round() as u64
        };
        (count, out_payload)
    }
}

impl Job for SynText {
    fn name(&self) -> &str {
        "SynText"
    }

    fn map(&self, record: &Record<'_>, emit: &mut dyn Emit) {
        let line = std::str::from_utf8(record.value).unwrap_or("");
        let mut buf = Vec::with_capacity(self.payload + 8);
        tokenizer::for_each_word(line, |word| {
            // Deterministic CPU burn proportional to cpu_factor.
            let mut h = fnv1a(word.as_bytes());
            for _ in 0..self.cpu_factor {
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ fnv1a(&h.to_le_bytes());
            }
            std::hint::black_box(h);
            buf.clear();
            encode_value(1, self.payload as u64, &mut buf);
            emit.emit(word.as_bytes(), &buf);
        });
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let (count, payload) = self.aggregate(values);
        let mut buf = Vec::with_capacity(payload as usize + 8);
        encode_value(count, payload, &mut buf);
        out.push(&buf);
    }

    fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        // The β-scaled payload models *intermediate* storage growth; it is
        // deliberately grouping-dependent, so the final output carries only
        // the (associative) count — otherwise results would vary with the
        // engine's spill structure.
        let (count, _payload) = self.aggregate(values);
        let mut buf = Vec::with_capacity(8);
        encode_value(count, 0, &mut buf);
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

    fn run(text: &str, job: SynText) -> HashMap<String, SynValue> {
        let cluster = ClusterConfig::single_node();
        let mut dfs = SimDfs::new(1, 1 << 16);
        dfs.put("in", text.as_bytes().to_vec());
        let run = run_job(
            &cluster,
            &JobConfig::default().with_reducers(1),
            Arc::new(job),
            &dfs,
            &[("in", 0)],
        )
        .unwrap();
        run.sorted_pairs()
            .into_iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), decode_value(&v).unwrap()))
            .collect()
    }

    #[test]
    fn counts_match_wordcount_semantics() {
        let m = run("a b a\nb a\n", SynText::new(0, 0.0));
        assert_eq!(m["a"].count, 3);
        assert_eq!(m["b"].count, 2);
    }

    /// Combine four singleton values directly and decode the aggregate.
    fn combine_four(beta: f64) -> SynValue {
        let job = SynText::new(0, beta);
        let mut one = Vec::new();
        encode_value(1, 16, &mut one);
        let values: Vec<&[u8]> = vec![&one, &one, &one, &one];
        let out = textmr_engine::job::combine_values(&job, b"x", &values);
        assert_eq!(out.len(), 1);
        decode_value(&out[0]).unwrap()
    }

    #[test]
    fn beta_zero_collapses_payload() {
        let v = combine_four(0.0);
        assert_eq!(v.count, 4);
        assert_eq!(v.payload_len, 0);
    }

    #[test]
    fn beta_one_concatenates_payload() {
        let v = combine_four(1.0);
        assert_eq!(v.payload_len, 4 * 16);
    }

    #[test]
    fn intermediate_beta_shrinks_partially() {
        let v = combine_four(0.5);
        assert!(
            v.payload_len > 0 && v.payload_len < 4 * 16,
            "payload={}",
            v.payload_len
        );
    }

    #[test]
    fn final_output_payload_is_canonical_zero() {
        // Reduce drops the grouping-dependent payload (see reduce()).
        let m = run("x x x x\n", SynText::new(0, 1.0));
        assert_eq!(m["x"].count, 4);
        assert_eq!(m["x"].payload_len, 0);
    }

    #[test]
    fn cpu_factor_does_not_change_results() {
        let cheap = run("w v w\n", SynText::new(0, 0.5));
        let costly = run("w v w\n", SynText::new(200, 0.5));
        assert_eq!(cheap, costly);
    }

    #[test]
    fn single_value_combine_keeps_payload() {
        let job = SynText::new(0, 0.0);
        let mut one = Vec::new();
        encode_value(1, 16, &mut one);
        let values: Vec<&[u8]> = vec![&one];
        let out = textmr_engine::job::combine_values(&job, b"u", &values);
        assert_eq!(decode_value(&out[0]).unwrap().payload_len, 16);
    }
}
