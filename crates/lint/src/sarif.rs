//! SARIF 2.1.0 export, validation, and the findings baseline ratchet.
//!
//! The writer is hand-rolled (the workspace build is offline; no serde):
//! it emits a minimal but conformant SARIF log — `runs[].tool.driver`
//! with the full rule catalogue, one `result` per diagnostic, and a
//! `codeFlows` thread for every interprocedural flow finding so SARIF
//! viewers can step source → chain → sink. The validator parses the log
//! back with the workspace's one JSON codec ([`textmr_engine::json`]) and
//! runs structural checks over the parsed value, so CI can prove the
//! artifact it uploads is well-formed without trusting the writer that
//! produced it.
//!
//! The baseline is a committed `file:line:rule` list. CI regenerates the
//! current finding set and diffs: a finding not in the baseline **fails**
//! the gate (a regression); a baseline entry with no current finding is a
//! **warning** (stale — the debt was paid, shrink the file). The baseline
//! can therefore only ratchet toward zero.

use std::collections::BTreeSet;

use textmr_engine::json::{self, escape, Json};

use crate::flow::FlowFinding;
use crate::rules::Rule;
use crate::Diagnostic;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn location(file: &str, line: u32) -> String {
    format!(
        "{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
         \"region\":{{\"startLine\":{}}}}}}}",
        escape(file),
        line.max(1)
    )
}

/// One `threadFlowLocation` for a chain hop.
fn thread_loc(file: &str, line: u32, message: &str) -> String {
    format!(
        "{{\"location\":{{\"physicalLocation\":{{\"artifactLocation\":\
         {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}},\
         \"message\":{{\"text\":\"{}\"}}}}}}",
        escape(file),
        line.max(1),
        escape(message)
    )
}

fn result_obj(d: &Diagnostic, code_flow: Option<String>) -> String {
    let flow = code_flow
        .map(|f| format!(",\"codeFlows\":[{{\"threadFlows\":[{{\"locations\":[{f}]}}]}}]"))
        .unwrap_or_default();
    format!(
        "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{}]{}}}",
        escape(d.rule),
        escape(&d.message),
        location(&d.file, d.line),
        flow
    )
}

/// Render a SARIF 2.1.0 log for the given findings.
///
/// `diags` are the token/meta diagnostics (plain results); `flows` are
/// the interprocedural findings, each emitted as a result *with* a
/// `codeFlows` witness thread. Meta-rules raised by the pragma engine
/// (not in [`Rule::ALL`]) are appended to the driver rule table so every
/// `ruleId` in the log resolves.
pub fn to_sarif(diags: &[Diagnostic], flows: &[FlowFinding]) -> String {
    // Driver rule table: the catalogue plus any meta-rules that fired.
    let mut rules: Vec<(String, String)> = Rule::ALL
        .iter()
        .map(|r| (r.name().to_string(), r.summary().to_string()))
        .collect();
    let known: BTreeSet<String> = rules.iter().map(|(n, _)| n.clone()).collect();
    let mut meta: BTreeSet<&str> = BTreeSet::new();
    for d in diags {
        if !known.contains(d.rule) {
            meta.insert(d.rule);
        }
    }
    for m in meta {
        rules.push((m.to_string(), "pragma-engine meta diagnostic".to_string()));
    }
    let rules_json: Vec<String> = rules
        .iter()
        .map(|(name, summary)| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                escape(name),
                escape(summary)
            )
        })
        .collect();

    let mut results: Vec<String> = diags.iter().map(|d| result_obj(d, None)).collect();
    for f in flows {
        let mut hops = vec![thread_loc(
            &f.source.file,
            f.source.line,
            &format!("source: {}", f.source.what),
        )];
        for (name, (file, line)) in f.chain.iter().zip(&f.chain_sites) {
            hops.push(thread_loc(file, *line, &format!("through fn {name}")));
        }
        hops.push(thread_loc(
            &f.sink.file,
            f.sink.line,
            &format!("sink: {}", f.sink.what),
        ));
        results.push(result_obj(&f.diagnostic(), Some(hops.join(","))));
    }

    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"textmr-lint\",\"informationUri\":\
         \"https://github.com/textmr/textmr\",\"rules\":[{}]}}}},\
         \"results\":[{}]}}]}}\n",
        rules_json.join(","),
        results.join(",")
    )
}

// ---------------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------------

/// Summary of a validated SARIF log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SarifSummary {
    /// Total results across all runs.
    pub results: usize,
    /// Rules declared by the driver of the first run.
    pub rules: usize,
}

/// Structurally validate a SARIF 2.1.0 log: version, runs, driver name
/// and rule table, and for every result a resolvable `ruleId`, a
/// `message.text`, and at least one physical location with a positive
/// `startLine`. Code flows, when present, must be location lists of the
/// same shape.
pub fn validate_sarif(text: &str) -> Result<SarifSummary, String> {
    let doc = json::parse(text)?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("sarif: version must be \"2.1.0\"".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .filter(|r| !r.is_empty())
        .ok_or("sarif: runs must be a non-empty array")?;
    let mut total = 0usize;
    let mut rule_count = 0usize;
    for (ri, run) in runs.iter().enumerate() {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or_else(|| format!("sarif: run {ri} missing tool.driver"))?;
        driver
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("sarif: run {ri} driver missing name"))?;
        let ids: BTreeSet<&str> = driver
            .get("rules")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        if ri == 0 {
            rule_count = ids.len();
        }
        for (i, res) in run
            .get("results")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let tag = format!("sarif: run {ri} result {i}");
            let rule = res
                .get("ruleId")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{tag}: missing ruleId"))?;
            if !ids.is_empty() && !ids.contains(rule) {
                return Err(format!("{tag}: ruleId {rule:?} not in driver rules"));
            }
            res.get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{tag}: missing message.text"))?;
            let locs = res
                .get("locations")
                .and_then(Json::as_arr)
                .filter(|l| !l.is_empty())
                .ok_or_else(|| format!("{tag}: missing locations"))?;
            for loc in locs {
                check_physical(loc, &tag)?;
            }
            if let Some(flows) = res.get("codeFlows").and_then(Json::as_arr) {
                for cf in flows {
                    for tf in cf.get("threadFlows").and_then(Json::as_arr).unwrap_or(&[]) {
                        let hops = tf
                            .get("locations")
                            .and_then(Json::as_arr)
                            .filter(|l| !l.is_empty())
                            .ok_or_else(|| format!("{tag}: empty threadFlow"))?;
                        for hop in hops {
                            let inner = hop
                                .get("location")
                                .ok_or_else(|| format!("{tag}: hop missing location"))?;
                            check_physical(inner, &tag)?;
                        }
                    }
                }
            }
            total += 1;
        }
    }
    Ok(SarifSummary {
        results: total,
        rules: rule_count,
    })
}

fn check_physical(loc: &Json, tag: &str) -> Result<(), String> {
    let phys = loc
        .get("physicalLocation")
        .ok_or_else(|| format!("{tag}: missing physicalLocation"))?;
    phys.get("artifactLocation")
        .and_then(|a| a.get("uri"))
        .and_then(Json::as_str)
        .filter(|u| !u.is_empty())
        .ok_or_else(|| format!("{tag}: missing artifactLocation.uri"))?;
    let line = phys
        .get("region")
        .and_then(|r| r.get("startLine"))
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{tag}: missing region.startLine"))?;
    if line < 1.0 {
        return Err(format!("{tag}: startLine must be >= 1"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

/// Result of diffing current findings against the committed baseline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Current findings absent from the baseline — these FAIL the gate.
    pub regressions: Vec<String>,
    /// Baseline entries with no current finding — stale debt, a warning.
    pub stale: Vec<String>,
}

/// Parse a baseline file: one `file:line:rule` key per line; blank lines
/// and `#` comments ignored.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The baseline key of a diagnostic.
pub fn baseline_key(d: &Diagnostic) -> String {
    format!("{}:{}:{}", d.file, d.line, d.rule)
}

/// Diff the current finding keys against a baseline.
pub fn diff_baseline(current: &BTreeSet<String>, baseline: &BTreeSet<String>) -> BaselineDiff {
    BaselineDiff {
        regressions: current.difference(baseline).cloned().collect(),
        stale: baseline.difference(current).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Site;

    fn diag(file: &str, line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: "msg with \"quotes\" and\nnewline".into(),
        }
    }

    fn flow() -> FlowFinding {
        FlowFinding {
            rule: Rule::WallClockFlow,
            source: Site {
                file: "a.rs".into(),
                line: 3,
                what: "Instant".into(),
            },
            sink: Site {
                file: "b.rs".into(),
                line: 9,
                what: "total_ns +=".into(),
            },
            chain: vec!["read".into(), "consume".into()],
            chain_sites: vec![("a.rs".into(), 2), ("b.rs".into(), 8)],
        }
    }

    #[test]
    fn writer_output_validates() {
        let log = to_sarif(&[diag("x.rs", 4, "wall-clock-in-virtual-path")], &[flow()]);
        let summary = validate_sarif(&log).expect("writer output must validate");
        assert_eq!(summary.results, 2);
        assert_eq!(summary.rules, Rule::ALL.len());
    }

    #[test]
    fn meta_rules_are_added_to_the_driver_table() {
        let log = to_sarif(&[diag("x.rs", 1, "unused-pragma")], &[]);
        let summary = validate_sarif(&log).unwrap();
        assert_eq!(summary.rules, Rule::ALL.len() + 1);
    }

    #[test]
    fn empty_log_validates() {
        let log = to_sarif(&[], &[]);
        let summary = validate_sarif(&log).unwrap();
        assert_eq!(summary.results, 0);
    }

    #[test]
    fn code_flow_carries_every_hop() {
        let log = to_sarif(&[], &[flow()]);
        let doc = json::parse(&log).unwrap();
        let hops = doc.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("codeFlows")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("threadFlows")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("locations")
            .and_then(Json::as_arr)
            .unwrap()
            .len();
        // source + 2 chain fns + sink
        assert_eq!(hops, 4);
    }

    #[test]
    fn validator_rejects_structural_damage() {
        assert!(validate_sarif("{}").is_err());
        assert!(validate_sarif("{\"version\":\"2.1.0\",\"runs\":[]}").is_err());
        assert!(validate_sarif("not json").is_err());
        let log = to_sarif(&[diag("x.rs", 4, "wall-clock-in-virtual-path")], &[]);
        let broken = log.replace("\"startLine\":4", "\"startLine\":0");
        assert!(validate_sarif(&broken).is_err());
        let unknown = log.replace("wall-clock-in-virtual-path\",\"level", "no-such\",\"level");
        assert!(validate_sarif(&unknown).is_err());
    }

    #[test]
    fn baseline_diff_ratchets() {
        let baseline = parse_baseline(
            "# comment\n\na.rs:3:wall-clock-in-virtual-path\nb.rs:9:unordered-iteration\n",
        );
        let current: BTreeSet<String> =
            ["a.rs:3:wall-clock-in-virtual-path", "c.rs:1:unused-pragma"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let d = diff_baseline(&current, &baseline);
        assert_eq!(d.regressions, vec!["c.rs:1:unused-pragma".to_string()]);
        assert_eq!(d.stale, vec!["b.rs:9:unordered-iteration".to_string()]);
    }
}
