//! One mutation proptest over the workspace's one JSON parser
//! (`textmr_engine::json`), fed by both of its writers.
//!
//! `textmr-lint --trace` and `--validate-sarif` read files from outside the
//! program, so every reader on that path — `validate_chrome_trace`,
//! `JobTrace::from_chrome_json` and the audit behind it, `validate_sarif`
//! — must answer truncated or byte-perturbed input with `Ok` or a named
//! `Err`, never a panic.

use proptest::prelude::*;
use std::sync::OnceLock;
use textmr_engine::trace::{validate_chrome_trace, JobTrace};
use textmr_lint::flow::analyze;
use textmr_lint::model::model_file;
use textmr_lint::trace_audit::audit_trace_str;
use textmr_lint::{sarif, Diagnostic};

/// Writer output to mutate: two shipped Chrome traces (a faulted run with
/// flat attempts and backups; a 3-round DAG with hand-off edges), each
/// checked to be exactly what `to_chrome_json` emits, and a SARIF log with
/// a plain result and a code flow.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs = Vec::new();
        for name in ["trace_faults.json", "trace_dag_pagerank.json"] {
            let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let trace = JobTrace::from_chrome_json(&text).unwrap();
            assert_eq!(
                trace.to_chrome_json(),
                text,
                "{name} is not a lossless export"
            );
            docs.push(text);
        }
        let src = include_str!("fixtures/flow/cross_fn_clock.rs");
        let flows = analyze(&[model_file("cross_fn_clock.rs", src)]);
        assert!(!flows.is_empty());
        let diag = Diagnostic {
            file: "a \"quoted\"\\path.rs".into(),
            line: 7,
            rule: "unused-pragma",
            message: "tab\there, newline\nthere, é".into(),
        };
        let log = sarif::to_sarif(&[diag], &flows);
        sarif::validate_sarif(&log).unwrap();
        docs.push(log);
        docs
    })
}

/// Bytes that keep a mutated document structurally interesting (a flipped
/// digit, exponent, bracket or quote gets much further into the readers
/// than a random byte, which mostly dies as a bad literal).
const PALETTE: &[u8] = b"0123456789eE+-.,:[]{}\"\\ tfn";

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn readers_never_panic_on_perturbed_writer_output(
        pick in 0usize..3,
        truncate in any::<bool>(),
        cut in 0usize..1_000_000,
        flips in proptest::collection::vec((0usize..1_000_000, any::<u8>(), any::<bool>()), 0..6),
    ) {
        let doc = &corpus()[pick];
        let mut bytes = doc.as_bytes().to_vec();
        for &(pos, val, raw) in &flips {
            let at = pos % bytes.len();
            bytes[at] = if raw { val } else { PALETTE[val as usize % PALETTE.len()] };
        }
        if truncate {
            bytes.truncate(cut % (doc.len() + 1));
        }
        let mutated = String::from_utf8_lossy(&bytes);
        let _ = validate_chrome_trace(&mutated);
        let _ = sarif::validate_sarif(&mutated);
        // The whole `--trace` path: `from_chrome_json`, then the tiling
        // check and the race audit over whatever imported.
        let _ = audit_trace_str("mutated", &mutated);
    }
}
