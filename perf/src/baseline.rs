//! No-framework baselines: each workload's result computed the plain way —
//! read the bytes, loop over the lines, update a hash map — so the repo can
//! state its own abstraction cost the way the Spark-vs-MPI word-count study
//! prices a framework. Each returns key-sorted `(key, value)` pairs in the
//! engine's output encoding, so its digest must equal the engine's.
//!
//! The user code (tokenizer, tagger, field parsing) is the same the jobs
//! call; what is absent is everything between `map()` and `reduce()`.

use crate::workloads::file_bytes;
use std::collections::HashMap;
use std::io;
use textmr_apps::pos_tag::{encode_counts, TagCounts};
use textmr_engine::codec::encode_u64;
use textmr_engine::io::dfs::SimDfs;
use textmr_nlp::{tokenizer, Tagger, TaggerConfig, NUM_TAGS};

/// Key-sorted `(key, value)` pairs in the engine's output encoding.
pub type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

fn input(dfs: &SimDfs, name: &str) -> io::Result<std::sync::Arc<Vec<u8>>> {
    file_bytes(dfs.get(name).expect("registered input"))
}

fn lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|&b| b == b'\n')
        .map(|l| std::str::from_utf8(l).unwrap_or(""))
}

fn sorted(mut pairs: Pairs) -> Pairs {
    pairs.sort();
    pairs
}

/// WordCount: `counts[word] += 1`.
pub fn word_count(dfs: &SimDfs) -> io::Result<Pairs> {
    let corpus = input(dfs, "corpus")?;
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in lines(&corpus) {
        for word in tokenizer::words(line) {
            *counts.entry(word).or_insert(0) += 1;
        }
    }
    Ok(sorted(
        counts
            .into_iter()
            .map(|(w, c)| (w.into_bytes(), encode_u64(c).to_vec()))
            .collect(),
    ))
}

/// WordPOSTag: `counts[word][tag] += 1`, tagger configured as the job's.
pub fn pos_tag(dfs: &SimDfs) -> io::Result<Pairs> {
    let corpus = input(dfs, "corpus")?;
    let tagger = Tagger::new(TaggerConfig {
        posterior_passes: 2,
    });
    let mut counts: HashMap<String, TagCounts> = HashMap::new();
    for line in lines(&corpus) {
        for (word, tag) in tagger.tag_line(line) {
            counts.entry(word).or_insert([0; NUM_TAGS])[tag.index()] += 1;
        }
    }
    Ok(sorted(
        counts
            .into_iter()
            .map(|(w, c)| {
                let mut v = Vec::with_capacity(NUM_TAGS);
                encode_counts(&c, &mut v);
                (w.into_bytes(), v)
            })
            .collect(),
    ))
}

/// AccessLogJoin: hash the rankings by URL, probe once per visit.
pub fn log_join(dfs: &SimDfs) -> io::Result<Pairs> {
    let rankings = input(dfs, "rankings")?;
    let visits = input(dfs, "visits")?;
    let mut rank_of: HashMap<&[u8], u64> = HashMap::new();
    for line in rankings.split(|&b| b == b'\n') {
        let mut fields = line.split(|&b| b == b'|');
        if let (Some(url), Some(rank)) = (fields.next(), fields.next()) {
            if let Some(rank) = std::str::from_utf8(rank).ok().and_then(|r| r.parse().ok()) {
                rank_of.insert(url, rank);
            }
        }
    }
    let mut out = Pairs::new();
    for line in visits.split(|&b| b == b'\n') {
        let mut fields = line.split(|&b| b == b'|');
        let (Some(ip), Some(url), Some(_date), Some(revenue)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let revenue = std::str::from_utf8(revenue)
            .ok()
            .and_then(|r| r.parse::<f64>().ok());
        if let (Some(revenue), Some(rank)) = (revenue, rank_of.get(url)) {
            let mut v = Vec::with_capacity(16);
            v.extend_from_slice(&revenue.to_be_bytes());
            v.extend_from_slice(&rank.to_be_bytes());
            out.push((ip.to_vec(), v));
        }
    }
    Ok(sorted(out))
}
