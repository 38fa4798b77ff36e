//! Component-level property tests: serialization, compression, sorting,
//! merging and tokenization hold their invariants on arbitrary inputs.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use textmr_core::{FreqBufferConfig, FrequencyBuffer, FrequentKeyRegistry};
use textmr_engine::codec;
use textmr_engine::controller::{EmitFilter, FilterCtx, TaskCtx};
use textmr_engine::io::compress;
use textmr_engine::io::frame::FrameEncoder;
use textmr_engine::io::store::Store;
use textmr_engine::job::{combine_values, Emit, Job, Record, ValueCursor, ValueSink, VecEmit};
use textmr_engine::task::merge::{
    merge_grouped, merge_grouped_cursors, merge_partition, reduce_sources_to_fan_in,
    reduce_to_fan_in, reduce_to_fan_in_with, CursorSource, Grouper, MergeOrder,
};
use textmr_engine::task::segment::Segment;
use textmr_engine::task::spill::sort_indices;
use textmr_nlp::tokenizer::{self, Token};

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

/// A custom key order that disagrees with bytewise order only across
/// runs whose keys start with different bytes: by the second byte, then
/// bytewise. Within a run whose keys share their first byte it is
/// bytewise order.
struct SecondByte;
impl Job for SecondByte {
    fn name(&self) -> &str {
        "second-byte"
    }
    fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
    fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        a.get(1).cmp(&b.get(1)).then_with(|| a.cmp(b))
    }
}

/// A store file of its own: cases of parallel tests must not share one.
fn fresh_store(name: &str) -> std::sync::Arc<Store> {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Store::create(scratch_dir().join(format!("{name}-{n}.bin")))
}

/// Intermediate runs and map-output partition bytes of one merge of
/// `runs` in `order`, and the order the grouper ended in.
fn merge_in(
    runs: &[Vec<u8>],
    job: &dyn Job,
    use_combiner: bool,
    fan_in: usize,
    order: MergeOrder,
) -> (Vec<Vec<u8>>, Vec<u8>, u64, MergeOrder) {
    let mut grouper = Grouper::new(job, use_combiner).with_order(order);
    let multi =
        reduce_to_fan_in_with(runs.to_vec(), &mut grouper, fan_in, &fresh_store("modes")).unwrap();
    let mut grouper = Grouper::new(job, use_combiner).with_order(order);
    let (bytes, records, _) =
        merge_partition(runs.to_vec(), &mut grouper, fan_in, &fresh_store("modes")).unwrap();
    (multi.runs, bytes, records, grouper.order())
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

/// ASCII chars for tokenizer lines: word chars of both cases, the joiners
/// `'` and `-` and the sentence punctuation (often enough to meet word
/// chars on either side), and spaces.
const ASCII_LINE_CHARS: &[char] = &[
    'a', 'b', 'x', 'A', 'B', 'X', '0', '7', '\'', '-', '\'', '-', '.', ',', ';', ':', '!', '?',
    ' ', ' ',
];

/// Non-ASCII chars, any one of which sends a line down the tokenizer's char
/// path; `İ` lowercases to two chars.
const NON_ASCII_LINE_CHARS: &[char] = &['é', 'İ', 'ß', '中', '😀'];

/// Lines of the chars above: half all ASCII (the byte path), half drawn
/// from both sets.
fn tokenizer_line() -> impl Strategy<Value = String> {
    let ascii = proptest::collection::vec(0..ASCII_LINE_CHARS.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| ASCII_LINE_CHARS[i]).collect());
    let all = ASCII_LINE_CHARS.len() + NON_ASCII_LINE_CHARS.len();
    let mixed = proptest::collection::vec(0..all, 0..40).prop_map(|ix| {
        ix.into_iter()
            .map(|i| match ASCII_LINE_CHARS.get(i) {
                Some(&c) => c,
                None => NON_ASCII_LINE_CHARS[i - ASCII_LINE_CHARS.len()],
            })
            .collect()
    });
    prop_oneof![ascii, mixed]
}

/// The word rule one char at a time, as the tokenizer ran it before its
/// byte path: alphanumeric runs lowercased through the Unicode tables, an
/// internal `'` or `-` kept when an alphanumeric follows, sentence
/// punctuation kept, everything else a separator.
fn reference_tokens(line: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut word = String::new();
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_alphanumeric() {
            word.extend(c.to_lowercase());
        } else if (c == '\'' || c == '-')
            && !word.is_empty()
            && chars.peek().is_some_and(|n| n.is_alphanumeric())
        {
            word.push(c);
        } else {
            if !word.is_empty() {
                out.push(Token::Word(std::mem::take(&mut word)));
            }
            if matches!(c, '.' | ',' | ';' | ':' | '!' | '?') {
                out.push(Token::Punct(c));
            }
        }
    }
    if !word.is_empty() {
        out.push(Token::Word(word));
    }
    out
}

/// A combiner that depends on the key's first byte: `s` sums its values
/// into 8 bytes (always fits), `c` concatenates them into one value (may
/// still not fit), anything else hands them back unchanged (never fits
/// again, so the key overflows).
struct MixedCombine;
impl Job for MixedCombine {
    fn name(&self) -> &str {
        "mixed-combine"
    }
    fn map(&self, _r: &Record<'_>, _e: &mut dyn Emit) {}
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        match key.first() {
            Some(b's') => {
                let mut sum = 0u64;
                while let Some(v) = values.next() {
                    sum += v.iter().map(|&b| u64::from(b)).sum::<u64>();
                }
                out.push(&sum.to_le_bytes());
            }
            Some(b'c') => {
                let mut all = Vec::new();
                while let Some(v) = values.next() {
                    all.extend_from_slice(v);
                }
                out.push(&all);
            }
            _ => {
                while let Some(v) = values.next() {
                    out.push(v);
                }
            }
        }
    }
    fn reduce(&self, _k: &[u8], _v: &mut dyn ValueCursor, _o: &mut dyn Emit) {}
}

/// Keys of the frequent-key table proptest: index `i` names a key whose
/// first byte picks its [`MixedCombine`] behaviour.
const TABLE_KEYS: usize = 96;

fn table_key(i: usize) -> Vec<u8> {
    format!("{}{i}", ['s', 'c', 'i'][i % 3]).into_bytes()
}

/// `(key, value)` pairs in the order a sink received them.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Bytes `values` take length-framed.
fn framed_len(values: &[Vec<u8>]) -> usize {
    let mut buf = Vec::new();
    for v in values {
        codec::write_bytes(&mut buf, v);
    }
    buf.len()
}

/// The documented semantics of the Optimize stage over `stream`, with
/// `frozen` as the key set and `limit` as the per-key byte limit: a
/// frozen key's value is absorbed, and when its values' framed bytes pass
/// the limit they are combined (when there are several), then overflow to
/// the sink if they still do not fit; any other record is passed through.
/// At the end every buffered key drains in key order, combined when it
/// holds several values. Returns the sink's pairs and the absorbed count.
fn model_optimize_stage(
    frozen: &BTreeSet<Vec<u8>>,
    limit: usize,
    stream: &[(Vec<u8>, Vec<u8>)],
) -> (Pairs, u64) {
    let combine = |key: &[u8], values: &[Vec<u8>]| {
        let refs: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
        combine_values(&MixedCombine, key, &refs)
    };
    let mut out = Vec::new();
    let mut absorbed = 0u64;
    let mut buffered: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (key, value) in stream {
        if !frozen.contains(key) {
            out.push((key.clone(), value.clone()));
            continue;
        }
        absorbed += 1;
        let values = buffered.entry(key.clone()).or_default();
        values.push(value.clone());
        if framed_len(values) > limit {
            if values.len() > 1 {
                *values = combine(key, values);
            }
            if framed_len(values) > limit {
                out.extend(values.drain(..).map(|v| (key.clone(), v)));
            }
        }
    }
    for (key, values) in &buffered {
        let values = if values.len() > 1 {
            combine(key, values)
        } else {
            values.clone()
        };
        out.extend(values.into_iter().map(|v| (key.clone(), v)));
    }
    (out, absorbed)
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

        let store = Store::create(scratch_dir().join("tie-store.bin"));
        let mut cursors: Vec<_> = encoded
            .iter()
            .map(|r| framed_source(r).open(&store).unwrap())
            .collect();
        let mut streamed = Vec::new();
        merge_grouped_cursors(&mut cursors, &cmp, |k, vs| to_groups(k, vs, &mut streamed))
            .unwrap();
        prop_assert_eq!(&streamed, &expected);

        // Multi-pass: both fan-in reductions follow the batching rule, so
        // their final merges equal the reference applied the same way.
        let expected_multi = reference_merge(&reference_fan_in(runs.clone(), fan_in));
        let multi = reduce_to_fan_in(
            encoded.clone(), &Bytewise, false, fan_in, &Store::create(scratch_dir().join("tie.bin")),
        ).unwrap();
        let mut buffered = Vec::new();
        merge_grouped(&multi.runs, &cmp, |k, vs| to_groups(k, vs, &mut buffered)).unwrap();
        prop_assert_eq!(&buffered, &expected_multi);

        let sources = encoded.iter().map(|r| framed_source(r)).collect();
        let multi = reduce_sources_to_fan_in(sources, &Bytewise, false, fan_in, 64, &store)
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
    fn packed_and_comparator_merges_are_byte_identical(
        runs_keys in proptest::collection::vec(proptest::collection::vec(spill_key(), 0..12), 1..14),
        fan_in in 2usize..6,
        use_combiner in any::<bool>(),
    ) {
        // Each run sorted by the job's comparator (stable), its values
        // naming run and position; for `SecondByte` the keys of run r all
        // start with byte r % 3, so it disagrees with bytewise order only
        // across runs.
        for job in [&Bytewise as &dyn Job, &Descending, &Truncated, &SecondByte] {
            let runs: Vec<Vec<u8>> = runs_keys
                .iter()
                .enumerate()
                .map(|(r, keys)| {
                    let mut keys: Vec<Vec<u8>> = keys
                        .iter()
                        .map(|k| match job.name() {
                            "second-byte" => [&[b'a' + (r % 3) as u8][..], k].concat(),
                            _ => k.clone(),
                        })
                        .collect();
                    keys.sort_by(|a, b| job.compare_keys(a, b));
                    let pairs: Vec<(Vec<u8>, Vec<u8>)> = keys
                        .into_iter()
                        .enumerate()
                        .map(|(p, k)| (k, format!("{r}.{p}").into_bytes()))
                        .collect();
                    encode_run(&pairs)
                })
                .collect();
            let packed = merge_in(&runs, job, use_combiner, fan_in, MergeOrder::Packed);
            let comparator = merge_in(&runs, job, use_combiner, fan_in, MergeOrder::Comparator);
            prop_assert_eq!(&packed.0, &comparator.0, "{} intermediate runs", job.name());
            prop_assert_eq!(&packed.1, &comparator.1, "{} map-output partition", job.name());
            prop_assert_eq!(packed.2, comparator.2, "{} record count", job.name());
            prop_assert_eq!(comparator.3, MergeOrder::Comparator);
            if job.name() == "bytewise" {
                prop_assert_eq!(packed.3, MergeOrder::Packed, "bytewise never redoes a merge");
            }
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
        // A one-run merge decodes every record (an undecodable tail is an
        // error) and groups adjacent equal keys.
        let runs = vec![buf];
        let mut records = 0usize;
        merge_grouped(&runs, &|a, b| a.cmp(b), |_, values| records += values.len()).unwrap();
        prop_assert_eq!(records, pairs.len());
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
    fn tokenizer_entry_points_agree(line in tokenizer_line()) {
        let reference = reference_tokens(&line);
        let reference_words: Vec<String> = reference
            .iter()
            .filter_map(|t| t.as_word().map(str::to_string))
            .collect();
        let mut lent = Vec::new();
        tokenizer::for_each_word(&line, |w| lent.push(w.to_string()));
        prop_assert_eq!(&lent, &reference_words, "for_each_word({:?})", line);
        let owned: Vec<String> = tokenizer::words(&line).collect();
        prop_assert_eq!(&owned, &reference_words, "words({:?})", line);
        prop_assert_eq!(tokenizer::tokenize(&line), reference, "tokenize({:?})", line);
    }

    #[test]
    fn frozen_key_table_matches_a_reference_model(
        frozen_ix in proptest::collection::vec(0..TABLE_KEYS, 0..80),
        stream_ix in proptest::collection::vec((0..TABLE_KEYS, 0..TABLE_KEYS, 0..96usize, any::<u8>()), 0..800),
    ) {
        // At most 64 distinct frozen keys in 128 slots (the 2k rule at its
        // fullest), so probes collide; keys skew towards low indices so
        // that some pass the per-key limit many times.
        let frozen_keys: Vec<Box<[u8]>> = frozen_ix
            .iter()
            .take(64)
            .map(|&i| table_key(i).into_boxed_slice())
            .collect();
        let frozen: BTreeSet<Vec<u8>> = frozen_keys.iter().map(|k| k.to_vec()).collect();
        let stream: Vec<(Vec<u8>, Vec<u8>)> = stream_ix
            .iter()
            .map(|&(a, b, len, byte)| (table_key(a.min(b)), vec![byte; len]))
            .collect();
        // Budget 256 bytes per key: the smallest per-key limit the table
        // allows, reached after a few values.
        let k = 64;
        let limit = 256;
        let registry = Arc::new(FrequentKeyRegistry::new());
        registry.publish(0, frozen_keys);
        let ctx = FilterCtx {
            task: TaskCtx { node: 0, task: 1 },
            job: Arc::new(MixedCombine),
            budget_bytes: k * limit,
            estimated_records: stream.len() as u64,
            node_first_task: 0,
            cancel: None,
        };
        let cfg = FreqBufferConfig { k, ..FreqBufferConfig::default() };
        let mut fb = FrequencyBuffer::new(&ctx, cfg, Some(registry));
        prop_assert!(fb.is_optimizing(), "a published key set starts in Optimize");
        let mut sink = VecEmit::default();
        for (key, value) in &stream {
            fb.on_input_record();
            if !fb.offer(key, value, &mut sink) {
                sink.emit(key, value);
            }
        }
        fb.finish(&mut sink);
        let (want, absorbed) = model_optimize_stage(&frozen, limit, &stream);
        prop_assert_eq!(fb.absorbed(), absorbed);
        prop_assert_eq!(sink.pairs, want);
    }

    #[test]
    fn tagger_tags_every_word_token(line in "[a-zA-Z ,.]{0,60}") {
        let tagger = textmr_nlp::Tagger::default();
        let tagged = tagger.tag_line(&line);
        let words = textmr_nlp::tokenizer::words(&line).count();
        prop_assert_eq!(tagged.len(), words);
    }
}

#[test]
fn a_comparator_that_disagrees_across_runs_redoes_the_merge() {
    // Bytewise, run 0's "ab" comes before run 1's "ba"; by the second
    // byte "ba" comes first. Each run alone is sorted either way.
    let runs = vec![
        encode_run(&[(b"ab".to_vec(), b"0".to_vec())]),
        encode_run(&[(b"ba".to_vec(), b"1".to_vec())]),
    ];
    let (_, bytes, records, order) = merge_in(&runs, &SecondByte, false, 2, MergeOrder::Packed);
    assert_eq!(order, MergeOrder::Comparator, "the packed merge was redone");
    assert_eq!(records, 2);
    let expected = encode_run(&[
        (b"ba".to_vec(), b"1".to_vec()),
        (b"ab".to_vec(), b"0".to_vec()),
    ]);
    assert_eq!(bytes, expected);
    let (_, bytes, _, order) = merge_in(&runs, &Bytewise, false, 2, MergeOrder::Packed);
    assert_eq!(order, MergeOrder::Packed);
    assert_eq!(
        bytes,
        encode_run(&[
            (b"ab".to_vec(), b"0".to_vec()),
            (b"ba".to_vec(), b"1".to_vec()),
        ])
    );
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
