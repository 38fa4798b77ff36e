//! Integration tests for the interprocedural flow layer, over seeded
//! fixture crates in `tests/fixtures/flow/` (a directory the workspace
//! walker never descends into), plus a mutation property: the item-model
//! parser is total — truncated or byte-perturbed sources yield a partial
//! model, never a panic.

use proptest::prelude::*;
use textmr_lint::flow::{analyze, FlowFinding};
use textmr_lint::model::{model_file, FileModel};
use textmr_lint::rules::Rule;
use textmr_lint::sarif;

fn fixture_flows(name: &str) -> Vec<FlowFinding> {
    let path = format!("{}/tests/fixtures/flow/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let models = vec![model_file(name, &src)];
    analyze(&models)
}

#[test]
fn cross_function_clock_flow_is_detected_with_exact_chain() {
    let flows = fixture_flows("cross_fn_clock.rs");
    assert_eq!(flows.len(), 1, "{flows:?}");
    let f = &flows[0];
    assert_eq!(f.rule, Rule::WallClockFlow);
    assert_eq!(f.chain, ["read_clock", "relay", "consume"]);
    assert_eq!(f.source.what, "Instant");
    assert_eq!(f.source.line, 6);
    assert!(f.sink.what.starts_with("total_ns"));
    assert_eq!(f.sink.line, 14);
    // The rendered diagnostic carries the full witness chain.
    let msg = f.diagnostic().message;
    assert!(
        msg.contains("fn read_clock → fn relay → fn consume"),
        "{msg}"
    );
}

#[test]
fn sorted_collection_sanitizes_the_hash_flow() {
    let flows = fixture_flows("sanitized_sort.rs");
    assert!(flows.is_empty(), "{flows:?}");
}

#[test]
fn unsorted_hash_flow_reaches_output() {
    let flows = fixture_flows("hash_to_output.rs");
    assert_eq!(flows.len(), 1, "{flows:?}");
    let f = &flows[0];
    assert_eq!(f.rule, Rule::HashOrderFlow);
    assert_eq!(f.chain, ["collect_counts", "dump"]);
    assert!(f.source.what.contains("iteration"));
    assert!(f.sink.what.contains("write_all"));
}

#[test]
fn recursive_cycle_terminates_and_reports() {
    let flows = fixture_flows("recursive_cycle.rs");
    assert_eq!(flows.len(), 1, "{flows:?}");
    let f = &flows[0];
    assert_eq!(f.rule, Rule::WallClockFlow);
    assert_eq!(f.chain.first().map(String::as_str), Some("ping"));
    assert_eq!(f.chain.last().map(String::as_str), Some("schedule"));
    assert!(f.sink.what.contains("place_attempts"));
}

#[test]
fn flow_findings_export_as_valid_sarif_with_code_flows() {
    let flows = fixture_flows("cross_fn_clock.rs");
    let log = sarif::to_sarif(&[], &flows);
    let summary = sarif::validate_sarif(&log).expect("fixture SARIF must validate");
    assert_eq!(summary.results, 1);
    assert!(log.contains("codeFlows"));
    assert!(log.contains("through fn relay"));
}

/// Mutation corpus: the lint's own sources plus every flow fixture —
/// realistic Rust with generics, strings, macros, and pragmas.
const CORPUS: &[&str] = &[
    include_str!("../src/model.rs"),
    include_str!("../src/callgraph.rs"),
    include_str!("fixtures/flow/cross_fn_clock.rs"),
    include_str!("fixtures/flow/sanitized_sort.rs"),
    include_str!("fixtures/flow/recursive_cycle.rs"),
    include_str!("fixtures/flow/hash_to_output.rs"),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn model_parser_never_panics_on_perturbed_sources(
        pick in 0usize..6,
        cut in 0usize..65536,
        flips in proptest::collection::vec((0usize..65536, 0u8..255u8), 0..8),
    ) {
        let src = CORPUS[pick % CORPUS.len()];
        let mut bytes = src.as_bytes().to_vec();
        for &(pos, val) in &flips {
            if !bytes.is_empty() {
                let at = pos % bytes.len();
                bytes[at] = val;
            }
        }
        bytes.truncate(cut % (src.len() + 1));
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        // Total: any input yields a (possibly partial) model, no panic —
        // and the downstream passes must swallow that model too.
        let model = model_file("mutated.rs", &mutated);
        let models: Vec<FileModel> = vec![model];
        let _ = analyze(&models);
    }
}
