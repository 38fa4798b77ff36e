//! Component-level property tests: serialization, compression, sorting,
//! merging and tokenization hold their invariants on arbitrary inputs.

use proptest::prelude::*;
use textmr_engine::codec;
use textmr_engine::io::compress;
use textmr_engine::io::frame::{FrameEncoder, RunStore};
use textmr_engine::job::{Emit, Job, Record, ValueCursor};
use textmr_engine::task::merge::{
    count_records, merge_grouped, merge_grouped_cursors, reduce_sources_to_fan_in,
    reduce_to_fan_in, CursorSource,
};
use textmr_engine::task::segment::Segment;
use textmr_engine::task::spill::sort_indices;

/// A scratch directory private to this test process.
fn scratch_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("textmr-components-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Bytewise;
impl Job for Bytewise {
    fn name(&self) -> &str {
        "bytewise"
    }
    fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
    fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
}

/// A custom key order that reverses bytewise order.
struct Descending;
impl Job for Descending {
    fn name(&self) -> &str {
        "descending"
    }
    fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
    fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        b.cmp(a)
    }
}

/// A custom key order coarser than bytewise order: only the first 3 bytes
/// count, so keys with distinct bytes can be equal.
struct Truncated;
impl Job for Truncated {
    fn name(&self) -> &str {
        "truncated"
    }
    fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
    fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        a[..a.len().min(3)].cmp(&b[..b.len().min(3)])
    }
}

/// One key byte from a small alphabet, so generated keys tie often.
fn key_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(b'a'), Just(b'b'), Just(0xffu8)]
}

/// Keys shaped for the packed spill sort: any 0–11 bytes; empty; 1–3
/// bytes (short keys tie often); 6–9 bytes (around the 7 packed bytes and
/// the length byte); 20 bytes; a fixed 7-byte stem plus 0–2 bytes (ties on
/// the packed bytes); and `a` followed by runs of `0x00` (`a` < `a\0` <
/// `a\0\0`).
fn spill_key() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..12),
        Just(Vec::new()),
        proptest::collection::vec(key_byte(), 1..4),
        proptest::collection::vec(key_byte(), 6..10),
        proptest::collection::vec(key_byte(), 20..21),
        proptest::collection::vec(key_byte(), 0..3).prop_map(|tail| {
            let mut k = b"ab\0ab\0a".to_vec();
            k.extend(tail);
            k
        }),
        (0usize..10).prop_map(|zeros| {
            let mut k = b"a".to_vec();
            k.resize(1 + zeros, 0);
            k
        }),
    ]
}

/// The spill-sort contract, stated directly: a stable sort of the record
/// indices by `(partition, key)` under the job's comparator.
fn reference_sort(seg: &Segment, job: &dyn Job) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..seg.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        seg.part(a)
            .cmp(&seg.part(b))
            .then_with(|| job.compare_keys(seg.key(a), seg.key(b)))
    });
    idx
}

/// One merged group: key and values in delivery order.
type Group = (Vec<u8>, Vec<Vec<u8>>);

/// The merge contract, stated directly: a stable sort of every record by
/// key over the runs laid end to end, i.e. by (key, run, position), then
/// grouped by key.
fn reference_merge(runs: &[Vec<(Vec<u8>, Vec<u8>)>]) -> Vec<Group> {
    let mut all: Vec<&(Vec<u8>, Vec<u8>)> = runs.iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<Group> = Vec::new();
    for (k, v) in all {
        match groups.last_mut() {
            Some((gk, vs)) if gk == k => vs.push(v.clone()),
            _ => groups.push((k.clone(), vec![v.clone()])),
        }
    }
    groups
}

/// The multi-pass batching rule: while more than `fan_in` runs remain,
/// the first `fan_in` merge into one run appended at the end.
fn reference_fan_in(
    mut runs: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    fan_in: usize,
) -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
    while runs.len() > fan_in {
        let batch: Vec<_> = runs.drain(..fan_in).collect();
        let merged = reference_merge(&batch)
            .into_iter()
            .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k.clone(), v)))
            .collect();
        runs.push(merged);
    }
    runs
}

fn encode_run(run: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (k, v) in run {
        codec::write_record(&mut buf, k, v);
    }
    buf
}

fn framed_source(run: &[u8]) -> CursorSource<'static> {
    let mut enc = FrameEncoder::new(64);
    let mut pos = 0;
    while let Some((k, v)) = codec::read_record(run, &mut pos) {
        enc.push_record(k, v);
    }
    let (stored, metas, _) = enc.finish();
    CursorSource::Mem { stored, metas }
}

fn to_groups(k: &[u8], vs: &[&[u8]], out: &mut Vec<Group>) {
    out.push((k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn grouped_merges_keep_the_tie_rule(
        runs_keys in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u8..3, 0..3), 0..12),
            2..25),
        fan_in in 2usize..12,
    ) {
        // Tiny key alphabet: duplicate keys within and across runs are the
        // common case. Each value names its run and position.
        let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = runs_keys
            .into_iter()
            .enumerate()
            .map(|(r, mut keys)| {
                keys.sort();
                keys.into_iter()
                    .enumerate()
                    .map(|(p, k)| (k, format!("{r}.{p}").into_bytes()))
                    .collect()
            })
            .collect();
        let encoded: Vec<Vec<u8>> = runs.iter().map(|r| encode_run(r)).collect();
        let expected = reference_merge(&runs);
        let cmp = |a: &[u8], b: &[u8]| a.cmp(b);

        let mut buffered = Vec::new();
        merge_grouped(&encoded, &cmp, |k, vs| to_groups(k, vs, &mut buffered)).unwrap();
        prop_assert_eq!(&buffered, &expected);

        let mut store = RunStore::create(scratch_dir().join("tie-store.bin")).unwrap();
        let mut cursors: Vec<_> = encoded
            .iter()
            .map(|r| framed_source(r).open(&mut store).unwrap())
            .collect();
        let mut streamed = Vec::new();
        merge_grouped_cursors(&mut cursors, &cmp, |k, vs| to_groups(k, vs, &mut streamed))
            .unwrap();
        prop_assert_eq!(&streamed, &expected);

        // Multi-pass: both fan-in reductions follow the batching rule, so
        // their final merges equal the reference applied the same way.
        let expected_multi = reference_merge(&reference_fan_in(runs.clone(), fan_in));
        let multi = reduce_to_fan_in(
            encoded.clone(), &Bytewise, false, fan_in, &scratch_dir().join("tie.bin"),
        ).unwrap();
        let mut buffered = Vec::new();
        merge_grouped(&multi.runs, &cmp, |k, vs| to_groups(k, vs, &mut buffered)).unwrap();
        prop_assert_eq!(&buffered, &expected_multi);

        let sources = encoded.iter().map(|r| framed_source(r)).collect();
        let multi = reduce_sources_to_fan_in(sources, &Bytewise, false, fan_in, 64, &mut store)
            .unwrap();
        let mut cursors = multi.cursors;
        let mut streamed = Vec::new();
        merge_grouped_cursors(&mut cursors, &cmp, |k, vs| to_groups(k, vs, &mut streamed))
            .unwrap();
        prop_assert_eq!(&streamed, &expected_multi);
    }

    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        codec::write_varint(&mut buf, v);
        prop_assert_eq!(buf.len(), codec::varint_len(v));
        let mut pos = 0;
        prop_assert_eq!(codec::read_varint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn records_roundtrip(pairs in proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 0..64),
         proptest::collection::vec(any::<u8>(), 0..64)), 0..20)) {
        let mut buf = Vec::new();
        for (k, v) in &pairs {
            codec::write_record(&mut buf, k, v);
        }
        let mut pos = 0;
        for (k, v) in &pairs {
            let (rk, rv) = codec::read_record(&buf, &mut pos).expect("record present");
            prop_assert_eq!(rk, k.as_slice());
            prop_assert_eq!(rv, v.as_slice());
        }
        prop_assert_eq!(codec::read_record(&buf, &mut pos), None);
    }

    #[test]
    fn record_reader_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut pos = 0;
        while codec::read_record(&data, &mut pos).is_some() {}
        // Also varints directly.
        let mut pos = 0;
        let _ = codec::read_varint(&data, &mut pos);
    }

    #[test]
    fn scalar_codecs_preserve_order(a in any::<u64>(), b in any::<u64>(),
                                    x in any::<i64>(), y in any::<i64>()) {
        prop_assert_eq!(codec::encode_u64(a).cmp(&codec::encode_u64(b)), a.cmp(&b));
        prop_assert_eq!(codec::encode_i64(x).cmp(&codec::encode_i64(y)), x.cmp(&y));
    }

    #[test]
    fn compression_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&c), Some(data));
    }

    #[test]
    fn compression_roundtrips_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..32),
        reps in 1usize..200,
    ) {
        let mut data = Vec::with_capacity(unit.len() * reps);
        for _ in 0..reps {
            data.extend_from_slice(&unit);
        }
        let c = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&c), Some(data));
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = compress::decompress(&data);
    }

    #[test]
    fn sort_indices_orders_by_partition_then_key(
        recs in proptest::collection::vec(
            (prop_oneof![0u32..3, 0u32..64], spill_key()), 0..200),
        url_prefix in prop_oneof![Just(""), Just("http://site/"), Just("http://site/page")],
    ) {
        // A shared URL-like prefix moves the packed bytes past it.
        let mut seg = Segment::new();
        for (part, key) in &recs {
            let mut k = url_prefix.as_bytes().to_vec();
            k.extend_from_slice(key);
            seg.push(*part as usize, &k, b"v");
        }
        for job in [&Bytewise as &dyn Job, &Descending, &Truncated] {
            prop_assert_eq!(sort_indices(&seg, job), reference_sort(&seg, job), "{}", job.name());
        }
    }

    #[test]
    fn merge_matches_naive_reference(
        runs_data in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..6),
                 proptest::collection::vec(any::<u8>(), 0..6)), 0..20),
            0..5)
    ) {
        // Sort each run's pairs by key (merge precondition), build framed
        // runs, merge, and compare against flatten-sort-group.
        let mut runs: Vec<Vec<u8>> = Vec::new();
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for mut pairs in runs_data {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut buf = Vec::new();
            for (k, v) in &pairs {
                codec::write_record(&mut buf, k, v);
                all.push((k.clone(), v.clone()));
            }
            runs.push(buf);
        }
        let mut merged: Vec<(Vec<u8>, usize)> = Vec::new();
        let mut merged_records = 0usize;
        merge_grouped(&runs, &|a, b| a.cmp(b), |k, vs| {
            merged.push((k.to_vec(), vs.len()));
            merged_records += vs.len();
        })
        .unwrap();
        // Group keys are strictly increasing.
        for w in merged.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        // Record count preserved; group sizes match the naive count.
        prop_assert_eq!(merged_records, all.len());
        let mut naive: std::collections::BTreeMap<Vec<u8>, usize> = Default::default();
        for (k, _) in &all {
            *naive.entry(k.clone()).or_default() += 1;
        }
        prop_assert_eq!(merged.len(), naive.len());
        for (k, n) in &merged {
            prop_assert_eq!(naive[k], *n);
        }
    }

    #[test]
    fn count_records_is_consistent_with_writes(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..8),
             proptest::collection::vec(any::<u8>(), 0..8)), 0..30)
    ) {
        let mut buf = Vec::new();
        for (k, v) in &pairs {
            codec::write_record(&mut buf, k, v);
        }
        prop_assert_eq!(count_records(&buf), pairs.len());
    }

    #[test]
    fn tokenizer_words_are_normalized(line in "\\PC{0,80}") {
        for w in textmr_nlp::tokenizer::words(&line) {
            prop_assert!(!w.is_empty());
            // Lowercased (modulo chars with no lowercase mapping, e.g.
            // U+2110 SCRIPT CAPITAL I); internal ' and - allowed; never
            // whitespace.
            prop_assert!(
                w.chars().all(|c| !c.is_whitespace()
                    && (!c.is_uppercase() || c.to_lowercase().eq(std::iter::once(c)))),
                "bad token {w:?} from {line:?}"
            );
            prop_assert!(
                w.chars().all(|c| c.is_alphanumeric() || c == '\'' || c == '-'
                    || !c.is_ascii()),
                "bad token {w:?} from {line:?}"
            );
        }
        // Full tokenizer agrees on the word sequence.
        let via_tokens: Vec<String> = textmr_nlp::tokenizer::tokenize(&line)
            .into_iter()
            .filter_map(|t| t.as_word().map(str::to_string))
            .collect();
        let via_words: Vec<String> = textmr_nlp::tokenizer::words(&line).collect();
        prop_assert_eq!(via_tokens, via_words);
    }

    #[test]
    fn tagger_tags_every_word_token(line in "[a-zA-Z ,.]{0,60}") {
        let tagger = textmr_nlp::Tagger::default();
        let tagged = tagger.tag_line(&line);
        let words = textmr_nlp::tokenizer::words(&line).count();
        prop_assert_eq!(tagged.len(), words);
    }
}

/// Pinned regression (originally found by proptest): the
/// tokenizer once mishandled U+2110 SCRIPT CAPITAL I, which `is_uppercase`
/// but has an identity `to_lowercase` mapping. Kept as an explicit case so
/// it runs on every engine, independent of property-test seed replay.
#[test]
fn tokenizer_regression_script_capital_i() {
    let line = "\u{2110}";
    let tokens: Vec<String> = textmr_nlp::tokenizer::words(line).collect();
    assert_eq!(tokens, vec![line.to_string()]);
    for w in textmr_nlp::tokenizer::words(line) {
        assert!(w.chars().all(|c| !c.is_whitespace()
            && (!c.is_uppercase() || c.to_lowercase().eq(std::iter::once(c)))));
    }
    let via_tokens: Vec<String> = textmr_nlp::tokenizer::tokenize(line)
        .into_iter()
        .filter_map(|t| t.as_word().map(str::to_string))
        .collect();
    assert_eq!(via_tokens, tokens);
}
