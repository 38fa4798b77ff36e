//! Property-based tests: MapReduce-equivalence under arbitrary engine
//! configurations, Space-Saving guarantees, and agreement between the
//! engine's discrete virtual pipeline and the analytic model.

use proptest::prelude::*;
use std::sync::Arc;
use textmr_core::model::RateModel;
use textmr_core::space_saving::SpaceSaving;
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig, SpillMatcherConfig};
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
use textmr_engine::codec::{decode_u64, encode_u64};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{Emit, Job, Record, ValueCursor, ValueSink};
use textmr_engine::reference::{flatten_sorted, reference_run};

/// A word-sum job over space-separated tokens (drives the engine without
/// the tokenizer's unicode handling, so inputs can be arbitrary ASCII).
struct TokenSum;
impl Job for TokenSum {
    fn name(&self) -> &str {
        "token-sum"
    }
    fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
        for w in r.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            e.emit(w, &encode_u64(1));
        }
    }
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine(&self, _k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn ValueSink) {
        let mut s = 0;
        while let Some(v) = values.next() {
            s += decode_u64(v).unwrap();
        }
        out.push(&encode_u64(s));
    }
    fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
        let mut s = 0;
        while let Some(v) = values.next() {
            s += decode_u64(v).unwrap();
        }
        out.emit(k, &encode_u64(s));
    }
}

/// Skewed random lines: tokens drawn from a small alphabet with heavy
/// repetition plus a rare tail.
fn lines_strategy() -> impl Strategy<Value = Vec<String>> {
    let token = prop_oneof![
        4 => Just("hot".to_string()),
        2 => Just("warm".to_string()),
        2 => "[a-d]{1,3}".prop_map(|s| s),
        1 => "[e-z]{1,6}".prop_map(|s| s),
    ];
    let line = proptest::collection::vec(token, 1..12).prop_map(|ws| ws.join(" "));
    proptest::collection::vec(line, 1..120)
}

fn build_dfs(lines: &[String], nodes: usize, block: usize) -> SimDfs {
    let mut dfs = SimDfs::new(nodes, block);
    let mut data = Vec::new();
    for l in lines {
        data.extend_from_slice(l.as_bytes());
        data.push(b'\n');
    }
    dfs.put("in", data);
    dfs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For ANY input, cluster shape, buffer size, spill fraction,
    /// optimization configuration and intermediate format (record/blob or
    /// compressed framed runs), the engine's output equals the naive
    /// reference execution.
    #[test]
    fn engine_equals_reference_under_any_config(
        lines in lines_strategy(),
        nodes in 1usize..7,
        block in prop_oneof![Just(64usize), Just(256), Just(1024), Just(1 << 16)],
        buffer in prop_oneof![Just(1usize << 10), Just(8 << 10), Just(1 << 20)],
        reducers in 1usize..5,
        opt_kind in 0u8..4,
        fraction in 0.05f64..1.0,
        framed in any::<bool>(),
    ) {
        let dfs = build_dfs(&lines, nodes, block);
        let mut cluster = ClusterConfig::local();
        cluster.nodes = nodes;
        cluster.spill_buffer_bytes = buffer;
        if framed {
            // Above every derived size: framed runs, the buffer unchanged.
            cluster = cluster.with_map_budget(16 << 20);
        }
        let freq = FreqBufferConfig { k: 50, sampling_fraction: Some(0.1), ..Default::default() };
        let opt = match opt_kind {
            0 => OptimizationConfig::baseline(),
            1 => OptimizationConfig::freq_only(freq),
            2 => OptimizationConfig::spill_only(SpillMatcherConfig::default()),
            _ => OptimizationConfig {
                frequency_buffering: Some(freq),
                spill_matcher: Some(SpillMatcherConfig::default()),
                share_frequent_keys: true,
            },
        };
        let mut cfg = optimized(JobConfig::default().with_reducers(reducers), opt);
        if opt_kind == 0 {
            cfg.spill_controller = textmr_engine::controller::fixed_spill_factory(fraction);
        }
        let job: Arc<dyn Job> = Arc::new(TokenSum);
        let engine = run_job(&cluster, &cfg, job, &dfs, &[("in", 0)]).unwrap();
        let reference = reference_run(&TokenSum, &dfs, &[("in", 0)], reducers).unwrap();
        prop_assert_eq!(engine.sorted_pairs(), flatten_sorted(&reference));
    }

    /// Space-Saving guarantees hold on arbitrary streams:
    /// count ≥ true ≥ count − error for monitored keys, and the counter
    /// sum equals the stream length.
    #[test]
    fn space_saving_bounds(
        keys in proptest::collection::vec(0u8..24, 1..600),
        capacity in 1usize..20,
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth = std::collections::HashMap::new();
        for k in &keys {
            ss.offer(&[*k]);
            *truth.entry(*k).or_insert(0u64) += 1;
        }
        let entries = ss.entries();
        let total: u64 = entries.iter().map(|(_, c, _)| c).sum();
        prop_assert_eq!(total, keys.len() as u64, "counter-sum invariant");
        for (key, count, err) in &entries {
            let t = truth[&key[0]];
            prop_assert!(*count >= t, "overestimate only");
            prop_assert!(count - err <= t, "error bound");
        }
        // Any key with frequency > N/capacity must be monitored.
        let n = keys.len() as u64;
        for (k, &t) in &truth {
            if t > n / capacity as u64 {
                prop_assert!(ss.get(&[*k]).is_some(), "heavy hitter {k} evicted (freq {t})");
            }
        }
    }

    /// The engine's discrete virtual pipeline agrees with the continuous
    /// analytic model on wait-freedom of the slower side (Eq. 1),
    /// modulo one record of discretization slack.
    #[test]
    fn pipeline_matches_model_waitfreedom(
        produce_ns in 1u64..400,
        consume_per_byte in 1u64..8,
        frac_pct in 10u32..96,
    ) {
        use textmr_engine::task::pipeline::{Admission, Pipeline};
        let capacity = 10_000usize;
        let record = 100usize;
        let x = frac_pct as f64 / 100.0;

        // Discrete pipeline.
        let mut p = Pipeline::new(capacity, x);
        let spill = |p: &mut Pipeline| {
            let (bytes, _) = p.handover();
            p.resolve(bytes as u64 * consume_per_byte);
        };
        for _ in 0..600 {
            if p.admit(record) == Some(Admission::SpillThenAppend) {
                spill(&mut p);
            }
            p.appended(record);
            p.produce(produce_ns);
            if p.should_spill() == Some(true) {
                spill(&mut p);
            }
        }

        // Continuous model with the same rates.
        let rate_p = record as f64 / produce_ns as f64;
        let rate_c = 1.0 / consume_per_byte as f64;
        let model = RateModel { p: rate_p, c: rate_c, capacity: capacity as f64 };
        let x_star = model.optimal_fraction();

        // Comfortably below the bound ⇒ the slower side must be (nearly)
        // wait-free in the discrete pipeline too. "Nearly": ramp-up plus
        // per-record slack.
        if x < x_star - 0.05 && (rate_p / rate_c).max(rate_c / rate_p) > 1.2 {
            let slower_wait = if rate_p < rate_c { p.producer_wait } else { p.consumer_wait };
            let total = p.produce_busy + p.producer_wait;
            prop_assert!(
                (slower_wait as f64) < 0.10 * total as f64 + 10_000.0,
                "slower side waited {slower_wait} of {total} at x={x} (x*={x_star})"
            );
        }
    }
}

/// Pinned regression (originally found by proptest, seed `ff93ba88…`):
/// FreqOpt over a tiny 1 KiB spill buffer, 1 KiB blocks, two
/// nodes and four reducers. The saved shrink predates the `framed`
/// parameter, so this explicit case covers both intermediate formats —
/// and both sequential and pooled execution.
#[test]
fn equivalence_regression_freqopt_tiny_buffer() {
    let lines: Vec<String> = [
        "hot hot hot aba ca warm hot hot warm dc",
        "dcc hot hot hot qi hot warm warm b hot",
        "hot warm hot warm",
        "hi cc warm ba warm hot c nqgrr warm hot cd",
        "abc bac hot hot warm aa hot fmp iu hot hot",
        "wuffm hot hot n dc bb warm c hot c hot",
        "cdd dcd warm hot hot hot hot hot warm bdd",
        "dd hot hot warm warm b",
        "hot warm hot b warm bd hot warm hot",
        "warm hot bab bba adc hot hot hot hot hot",
        "bab cc warm hot ccc d",
        "warm hot hot klis hot warm hot warm warm",
        "hot hot pekkt warm dbd hot hot tksvng hot",
        "fnwilm warm",
        "cba hot c aa",
        "hxnog cdd a hot",
        "ba hot hot hot hot hot hot hot",
        "warm bbd uziu warm warm bd d hot",
        "hot warm dad hot warm hot warm",
        "hot hot hot hot warm dda hot",
        "hot xqg hot hot c jsnhu warm hot dd",
        "hot hot b hot hot xxvnl warm",
        "thwx warm a a",
        "hot warm mfgz hot",
        "hot pffl qvlkx warm warm",
        "hot warm aa cc hot b cd hot warm warm warm",
        "kztpnz warm ca adb",
        "warm a warm rgliui hot",
        "warm hot hot ab da hzmjnw",
        "xmqzfr ca hot warm hot y warm hot b",
        "mvvfvq hot uxku hot baa hot warm hot",
        "a b qer hot caa",
        "hot a warm gmru cbc dcc hot hot hot",
        "hot hot c a hot cd caa nfeli hot",
        "warm hot hot hot",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (nodes, block, buffer, reducers) = (2usize, 1024usize, 1024usize, 4usize);
    let dfs = build_dfs(&lines, nodes, block);
    let reference = reference_run(&TokenSum, &dfs, &[("in", 0)], reducers).unwrap();
    let expected = flatten_sorted(&reference);
    for framed in [false, true] {
        for workers in [1, 4] {
            let mut cluster = ClusterConfig::local();
            cluster.nodes = nodes;
            cluster.spill_buffer_bytes = buffer;
            cluster.worker_threads = workers;
            if framed {
                cluster = cluster.with_map_budget(16 << 20);
            }
            let freq = FreqBufferConfig {
                k: 50,
                sampling_fraction: Some(0.1),
                ..Default::default()
            };
            let cfg = optimized(
                JobConfig::default().with_reducers(reducers),
                OptimizationConfig::freq_only(freq),
            );
            let job: Arc<dyn Job> = Arc::new(TokenSum);
            let engine = run_job(&cluster, &cfg, job, &dfs, &[("in", 0)]).unwrap();
            assert_eq!(
                engine.sorted_pairs(),
                expected,
                "framed={framed} workers={workers}"
            );
        }
    }
}
