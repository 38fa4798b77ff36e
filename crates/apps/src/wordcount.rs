//! WordCount — the canonical text-centric MapReduce program (\[6\]).
//!
//! `map()` tokenizes each line and emits `(word, 1)`; `combine()` and
//! `reduce()` sum. Non-CPU-intensive, non-storage-intensive: the paper's
//! lower-left corner of Figure 10 and its best frequency-buffering client.

use textmr_engine::codec::{decode_u64, encode_u64};
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_nlp::tokenizer;

/// The WordCount job.
#[derive(Debug, Default)]
pub struct WordCount;

fn sum_values(values: &mut dyn ValueCursor) -> u64 {
    let mut sum = 0u64;
    while let Some(v) = values.next() {
        sum += decode_u64(v).unwrap_or(0);
    }
    sum
}

impl Job for WordCount {
    fn name(&self) -> &str {
        "WordCount"
    }

    fn map(&self, record: &Record<'_>, emit: &mut dyn Emit) {
        let line = std::str::from_utf8(record.value).unwrap_or("");
        let one = encode_u64(1);
        tokenizer::for_each_word(line, |word| emit.emit(word.as_bytes(), &one));
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        out.push(&encode_u64(sum_values(values)));
    }

    fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        out.emit(key, &encode_u64(sum_values(values)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
    use textmr_engine::io::dfs::SimDfs;

    fn run(text: &str) -> HashMap<String, u64> {
        let cluster = ClusterConfig::single_node();
        let mut dfs = SimDfs::new(1, 1 << 16);
        dfs.put("in", text.as_bytes().to_vec());
        let run = run_job(
            &cluster,
            &JobConfig::default().with_reducers(2),
            Arc::new(WordCount),
            &dfs,
            &[("in", 0)],
        )
        .unwrap();
        run.sorted_pairs()
            .into_iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), decode_u64(&v).unwrap()))
            .collect()
    }

    #[test]
    fn counts_words_case_insensitively() {
        let m = run("The the THE\ncat cat.\n");
        assert_eq!(m["the"], 3);
        assert_eq!(m["cat"], 2);
    }

    #[test]
    fn punctuation_is_not_counted() {
        let m = run("a, b. c! a?\n");
        assert_eq!(m.len(), 3);
        assert_eq!(m["a"], 2);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(run("").is_empty());
    }

    #[test]
    fn unicode_words() {
        let m = run("Über über\n");
        assert_eq!(m["über"], 2);
    }
}
