//! `--trace` mode: audit an exported Chrome-format job trace.
//!
//! Three stages, each of which must pass:
//!
//! 1. **Import** — `JobTrace::from_chrome_json` reconstructs the full
//!    schedule from the exported JSON (the `textmr` metadata object makes
//!    this lossless), rejecting traces this harness did not produce.
//! 2. **Tiling** — `JobTrace::check()` re-validates the per-lane
//!    invariants: lanes tile their entry exactly, slots never overlap.
//! 3. **Happens-before** — `trace::race::check_races` feeds the trace's
//!    recorded edges (slot chains, retries, spill→merge→fetch hand-offs,
//!    barriers, speculation) to vector clocks and reports any pair of
//!    spans that touch the same logical resource without a happens-before
//!    path. A trace with entries but no recorded edges fails here.

use std::path::Path;

use textmr_engine::trace::race::check_races;
use textmr_engine::trace::JobTrace;

/// Audit one exported trace JSON file.
///
/// Returns a one-line human-readable summary on success; `Err` carries the
/// diagnostics when any stage fails.
pub fn audit_trace_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    audit_trace_str(&path.display().to_string(), &text)
}

/// Audit trace JSON already in memory; `label` names it in messages.
pub fn audit_trace_str(label: &str, text: &str) -> Result<String, String> {
    let trace =
        JobTrace::from_chrome_json(text).map_err(|e| format!("{label}: import failed: {e}"))?;
    trace
        .check()
        .map_err(|e| format!("{label}: schedule invariant violated: {e}"))?;
    let report = check_races(&trace);
    if report.is_clean() {
        Ok(format!(
            "{label}: OK — {} threads, {} events, {} happens-before edges, {} resource accesses, no races",
            report.threads,
            report.events,
            report.edges,
            report.accesses.values().sum::<usize>()
        ))
    } else {
        Err(format!("{label}: FAILED\n{}", report.render()))
    }
}
