//! Trace harness — Chrome-trace/Perfetto exports of the virtual schedule.
//!
//! Runs WordCount with tracing enabled under the paper's four
//! configurations (baseline, each optimization alone, both combined) plus
//! a seeded fault + straggler + speculation plan, and for every run:
//!
//! * validates the trace against the job profile (per-lane tiling, no
//!   slot double-booking, op spans summing to the profile's op totals);
//! * validates the exported JSON against the Chrome trace event schema;
//! * counts the map attempts of record that spilled exactly once (their
//!   lone spill is the map output, with no merge) — `--smoke` fails when
//!   no run has one, so the race audit of the shipped traces covers that
//!   path;
//! * writes `results/trace_<config>.json` — open it in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The fault run's ASCII timeline is printed so recovery (failed attempt,
//! straggler stretch, speculative backup) is visible without a browser.
//!
//! A diff mode aligns two exported traces lane-by-lane and prints the
//! Fig. 9-style wait-delta table (plus `results/wait_delta.json`):
//!
//! ```sh
//! cargo run --release -p textmr-bench --bin trace [-- --scale paper]
//! cargo run --release -p textmr-bench --bin trace -- --smoke   # CI
//! cargo run --release -p textmr-bench --bin trace -- --diff a.json b.json
//! ```
//!
//! The normal run also diffs baseline against the combined optimization
//! automatically, so the wait-migration table ships with the traces.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;
use textmr_bench::report::{results_dir, Table};
use textmr_bench::runner::{local_cluster, Config, REDUCERS};
use textmr_bench::scale::Scale;
use textmr_bench::workloads::{KeyClass, Workload};
use textmr_core::optimized;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{JobConfig, JobRun};
use textmr_engine::fault::{FaultPlan, SpeculationConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::prelude::{run_job, validate_chrome_trace, JobTrace};
use textmr_engine::trace::diff::diff_traces;

/// `--diff A B`: load two exported traces, print the wait-delta table,
/// write `results/wait_delta.json`.
fn diff_mode(files: &[String]) {
    let [a, b] = files else {
        eprintln!("usage: trace --diff <a.json> <b.json>");
        std::process::exit(2);
    };
    let load = |path: &String| -> JobTrace {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read trace {path}: {e}"));
        JobTrace::from_chrome_json(&text).unwrap_or_else(|e| panic!("parse trace {path}: {e}"))
    };
    let name = |path: &String| {
        Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone())
    };
    let diff = diff_traces(&name(a), &load(a), &name(b), &load(b));
    print!("{}", diff.render_text());
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let out = dir.join("wait_delta.json");
    std::fs::write(&out, diff.to_json()).expect("write wait_delta.json");
    println!("\nwrote {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        diff_mode(&args[i + 1..]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = Scale::from_args();
    let lines = if smoke { 1_500 } else { scale.corpus_lines };
    // Small blocks force several map tasks so the timeline has texture.
    let block = if smoke {
        8 << 10
    } else {
        scale.block_size.min(128 << 10)
    };

    let cluster = local_cluster(scale);
    let mut dfs = SimDfs::new(cluster.nodes, block);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines,
            vocab_size: scale.vocab,
            ..Default::default()
        }
        .generate_bytes(),
    );
    let workload = Workload {
        name: "WordCount",
        job: Arc::new(textmr_apps::WordCount),
        inputs: vec![("corpus", 0)],
        class: KeyClass::Text,
        text_centric: true,
    };

    println!(
        "Trace harness — WordCount across {} configs + a fault plan ({} lines)\n",
        Config::ALL.len(),
        lines
    );
    let mut table = Table::new(&[
        "config",
        "entries",
        "events",
        "span_events",
        "nodes",
        "wall_ms",
        "lone_spill_maps",
        "file",
    ]);
    let mut lone_spill_maps = 0;

    // Multi-fetcher runs (dynamic event-loop shuffle) get their own file
    // names, so the shipped 1-fetcher figures are never clobbered.
    let fsuffix = if cluster.shuffle_fetchers > 1 {
        format!("_f{}", cluster.shuffle_fetchers)
    } else {
        String::new()
    };

    // The paper's four configurations, traced.
    let mut kept: Vec<(String, JobTrace)> = Vec::new();
    for config in Config::ALL {
        let job_cfg = optimized(
            JobConfig::default().with_reducers(REDUCERS),
            config.optimization(&workload),
        )
        .with_trace();
        let name = format!("{}{fsuffix}", config.name().to_lowercase());
        eprintln!("tracing {name} …");
        let run = run_job(
            &cluster,
            &job_cfg,
            workload.job.clone(),
            &dfs,
            &workload.inputs,
        )
        .unwrap_or_else(|e| panic!("{name} run failed: {e}"));
        lone_spill_maps += export(&mut table, &name, &run);
        kept.push((name, run.trace.expect("trace requested")));
    }

    // Recovery machinery in one plan: a record fault (retry), a transient
    // fetch fault (backoff), a straggler node, and speculation racing it.
    let plan = FaultPlan::new()
        .map_fail_after(0, 3)
        .shuffle_fail(1, 0)
        .slow_node(0, 8);
    let job_cfg = JobConfig::default()
        .with_reducers(REDUCERS)
        .with_fault_plan(plan)
        .with_speculation(SpeculationConfig::default())
        .with_trace();
    eprintln!("tracing faults …");
    let faulty = run_job(
        &cluster,
        &job_cfg,
        workload.job.clone(),
        &dfs,
        &workload.inputs,
    )
    .expect("fault run failed");
    lone_spill_maps += export(&mut table, &format!("faults{fsuffix}"), &faulty);

    table.print();

    // Where did the waiting move? Baseline vs. the combined optimization.
    let (first, last) = (&kept[0], &kept[kept.len() - 1]);
    let diff = diff_traces(&first.0, &first.1, &last.0, &last.1);
    println!("\nwait-delta table ({} → {}):\n", first.0, last.0);
    print!("{}", diff.render_text());
    let diff_path = results_dir().join("wait_delta.json");
    std::fs::write(&diff_path, diff.to_json()).expect("write wait_delta.json");
    println!("\nwrote {}", diff_path.display());

    println!("\nfault-run timeline (failed attempt x, straggler stretch, backups):\n");
    print!(
        "{}",
        faulty
            .trace
            .as_ref()
            .expect("trace requested")
            .render_text(100)
    );
    println!("\nopen any results/trace_*.json in https://ui.perfetto.dev");
    println!(
        "\nmap attempts of record with a lone spill (adopted as the output): {lone_spill_maps}"
    );
    if smoke {
        if lone_spill_maps == 0 {
            eprintln!(
                "smoke FAILED: no map attempt spilled once; the lone-spill path went unaudited"
            );
            std::process::exit(1);
        }
        println!("\nsmoke OK: all traces tiled, matched their profiles, and validated");
    }
}

/// Cross-check one run's trace, write its Chrome JSON, add a table row.
/// Returns how many of the run's map attempts of record spilled once.
fn export(table: &mut Table, name: &str, run: &JobRun) -> usize {
    let trace = run.trace.as_ref().expect("trace requested");
    trace
        .check()
        .unwrap_or_else(|e| panic!("{name}: trace invariants violated: {e}"));
    assert_eq!(
        trace.op_times(),
        run.profile.total_ops(),
        "{name}: trace op spans diverged from the profile totals"
    );
    let json = trace.to_chrome_json();
    let summary =
        validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{name}: invalid trace JSON: {e}"));
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("trace_{name}.json"));
    std::fs::write(&path, &json).expect("write trace json");
    let lone_spills = run
        .profile
        .map_tasks
        .iter()
        .filter(|t| t.spills.len() == 1)
        .count();
    table.row(&[
        name.to_string(),
        trace.entries.len().to_string(),
        summary.events.to_string(),
        summary.complete_events.to_string(),
        summary.pids.to_string(),
        format!("{:.3}", run.profile.wall as f64 / 1e6),
        lone_spills.to_string(),
        format!("results/trace_{name}.json"),
    ]);
    lone_spills
}
