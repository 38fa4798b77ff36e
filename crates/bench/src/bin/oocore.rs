//! Out-of-core harness — bounded-memory runs over inputs that dwarf the
//! configured RAM budget.
//!
//! The headline claim of the out-of-core engine: WordCount and PageRank
//! complete over disk-resident corpora **≥ 10× the per-map-task byte
//! budget** with every map task's tracked peak buffer residency under
//! that budget, while producing the same output as the unbudgeted
//! record/blob run. This harness demonstrates both, then sweeps
//! frequency-buffering on/off across budgets under the adaptive spill
//! controller.
//!
//! For every headline (app × budgeted/unbudgeted) run it reports input
//! size, budget, wall time, spill counts, tracked peak map/reduce buffer
//! bytes, and sustained MB/s per map slot; the budgeted runs additionally
//! assert `peak ≤ budget`, and the unbudgeted run's residency is the
//! contrast. The WordCount budgeted run exports its virtual-time trace
//! through the streaming trace writer ([`textmr_engine::trace::stream`])
//! to `results/trace_oocore.json` — the full JSON is never resident,
//! matching the memory story end to end.
//!
//! ```sh
//! cargo run --release -p textmr-bench --bin oocore              # full
//! cargo run --release -p textmr-bench --bin oocore -- --smoke   # CI
//! ```
//!
//! Scale overrides for the multi-GB recipe in EXPERIMENTS.md:
//! `TEXTMR_OOCORE_LINES`, `TEXTMR_OOCORE_PAGES` (input size) and
//! `TEXTMR_OOCORE_BUDGET` (per-map-task bytes). Inputs are generated to
//! disk in bounded chunks and registered with the simulated DFS by path,
//! so generation never materializes the corpus either.
//!
//! Artifacts: `results/oocore.csv` (headline), `results/oocore_sweep.csv`
//! (freq-buffering × budget sweep), `results/trace_oocore.json`.

#![forbid(unsafe_code)]

use std::sync::Arc;
use textmr_bench::report::{results_dir, Table};
use textmr_bench::runner::{local_cluster, REDUCERS};
use textmr_bench::scale::Scale;
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig};
use textmr_data::graph::GraphConfig;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig, JobRun};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::Job;
use textmr_engine::prelude::{adaptive_budget_factory, run_job, validate_chrome_trace};

/// Size knob from the environment, with a default.
fn env_usize(name: &str, default: usize) -> usize {
    // textmr-lint: allow(wall-clock-flows-to-schedule, reason = "size knobs pick the workload scale under test; each scale's results are deterministic")
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Everything a headline row needs from one run.
struct Measured {
    wall_ms: f64,
    peak_map: u64,
    peak_reduce: u64,
    spills: u64,
    mbps_per_slot: f64,
}

fn measure(cluster: &ClusterConfig, run: &JobRun, input_bytes: u64) -> Measured {
    let p = &run.profile;
    let peak_map = p.map_tasks.iter().map(|t| t.peak_buffer_bytes).max();
    let peak_reduce = p.reduce_tasks.iter().map(|t| t.peak_buffer_bytes).max();
    let spills = p
        .map_tasks
        .iter()
        .map(|t| t.spills.len() as u64)
        .sum::<u64>();
    let slots = (cluster.nodes * cluster.map_slots_per_node) as f64;
    let map_secs = (p.map_phase_end as f64 / 1e9).max(1e-9);
    Measured {
        wall_ms: p.wall as f64 / 1e6,
        peak_map: peak_map.unwrap_or(0),
        peak_reduce: peak_reduce.unwrap_or(0),
        spills,
        mbps_per_slot: input_bytes as f64 / (1 << 20) as f64 / map_secs / slots,
    }
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[allow(clippy::too_many_arguments)]
fn headline_row(
    table: &mut Table,
    app: &str,
    mode: &str,
    input_bytes: u64,
    budget: Option<usize>,
    m: &Measured,
) {
    let (budget_kb, ratio) = match budget {
        Some(b) => (
            kb(b as u64),
            format!("{:.1}", input_bytes as f64 / b as f64),
        ),
        None => ("-".to_string(), "-".to_string()),
    };
    table.row(&[
        app.to_string(),
        mode.to_string(),
        format!("{:.2}", input_bytes as f64 / (1 << 20) as f64),
        budget_kb,
        ratio,
        format!("{:.3}", m.wall_ms),
        kb(m.peak_map),
        kb(m.peak_reduce),
        m.spills.to_string(),
        format!("{:.2}", m.mbps_per_slot),
    ]);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = Scale::from_args();

    // Per-map-task byte budget; inputs are sized ≥ 10× this (and default
    // to far more). The multi-GB recipe raises LINES/PAGES only.
    let budget = env_usize(
        "TEXTMR_OOCORE_BUDGET",
        if smoke { 64 << 10 } else { 256 << 10 },
    );
    let lines = env_usize("TEXTMR_OOCORE_LINES", if smoke { 12_000 } else { 120_000 });
    let pages = env_usize("TEXTMR_OOCORE_PAGES", if smoke { 16_000 } else { 60_000 });
    let block = if smoke { 128 << 10 } else { 1 << 20 };

    // ---- chunked input generation, straight to disk --------------------
    let gen_dir = std::env::temp_dir().join(format!("textmr-oocore-{}", std::process::id()));
    std::fs::create_dir_all(&gen_dir).expect("create input dir");
    let corpus_path = gen_dir.join("corpus.txt");
    let graph_path = gen_dir.join("graph.txt");
    eprintln!("generating inputs ({lines} lines, {pages} pages) …");
    let corpus_bytes = CorpusConfig {
        lines,
        vocab_size: scale.vocab,
        ..Default::default()
    }
    .generate_to_file(&corpus_path, 16_384)
    .expect("generate corpus");
    let graph_bytes = GraphConfig {
        pages,
        ..Default::default()
    }
    .generate_to_file(&graph_path, 16_384)
    .expect("generate graph");
    for (name, bytes) in [("corpus", corpus_bytes), ("graph", graph_bytes)] {
        assert!(
            bytes >= 10 * budget as u64,
            "{name} is only {bytes} B — need ≥ 10× the {budget} B budget"
        );
    }

    let base = local_cluster(scale);
    let mut dfs = SimDfs::new(base.nodes, block);
    dfs.put_path("corpus", &corpus_path)
        .expect("register corpus");
    dfs.put_path("graph", &graph_path).expect("register graph");

    println!(
        "Out-of-core harness — budget {} KiB/map task, corpus {:.2} MiB ({:.0}×), graph {:.2} MiB ({:.0}×)\n",
        budget >> 10,
        corpus_bytes as f64 / (1 << 20) as f64,
        corpus_bytes as f64 / budget as f64,
        graph_bytes as f64 / (1 << 20) as f64,
        graph_bytes as f64 / budget as f64,
    );

    // Budgeted: the budget selects framed runs and derives every window.
    // Unbudgeted: record/blob runs merged whole — the same answer, with
    // the residency a budget exists to bound.
    let budgeted_cluster = base.clone().with_map_budget(budget);
    let unbudgeted_cluster = base.clone();

    let mut table = Table::new(&[
        "app",
        "mode",
        "input_mb",
        "budget_kb",
        "ratio",
        "wall_ms",
        "peak_map_kb",
        "peak_reduce_kb",
        "spills",
        "mbps_per_slot",
    ]);

    let trace_path = {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        dir.join("trace_oocore.json")
    };

    let apps: [(&str, Arc<dyn Job>, &str, u64); 2] = [
        (
            "WordCount",
            Arc::new(textmr_apps::WordCount),
            "corpus",
            corpus_bytes,
        ),
        (
            "PageRank",
            Arc::new(textmr_apps::PageRank::new(pages as u64)),
            "graph",
            graph_bytes,
        ),
    ];
    for (app, job, input, input_bytes) in apps {
        let mut cfg = JobConfig::default().with_reducers(REDUCERS);
        // The WordCount budgeted run ships its trace through the
        // streaming writer: span events spool to disk as attempts retire.
        if app == "WordCount" {
            cfg = cfg.with_trace_stream(trace_path.clone());
        }
        eprintln!("{app}: budgeted run …");
        let budgeted = run_job(&budgeted_cluster, &cfg, job.clone(), &dfs, &[(input, 0)])
            .unwrap_or_else(|e| panic!("{app} budgeted run failed: {e}"));
        eprintln!("{app}: unbudgeted record/blob run …");
        let unbudgeted = run_job(
            &unbudgeted_cluster,
            &JobConfig::default().with_reducers(REDUCERS),
            job.clone(),
            &dfs,
            &[(input, 0)],
        )
        .unwrap_or_else(|e| panic!("{app} unbudgeted run failed: {e}"));

        // The whole point: the same answer in either format…
        assert_eq!(
            budgeted.sorted_pairs(),
            unbudgeted.sorted_pairs(),
            "{app}: budgeted and unbudgeted outputs diverged"
        );
        // …with the budgeted map tasks under budget.
        for (i, t) in budgeted.profile.map_tasks.iter().enumerate() {
            assert!(
                t.peak_buffer_bytes <= budget as u64,
                "{app}: map task {i} peak {} B exceeds the {budget} B budget",
                t.peak_buffer_bytes
            );
        }
        let bm = measure(&budgeted_cluster, &budgeted, input_bytes);
        let um = measure(&unbudgeted_cluster, &unbudgeted, input_bytes);
        headline_row(&mut table, app, "budgeted", input_bytes, Some(budget), &bm);
        headline_row(&mut table, app, "unbudgeted", input_bytes, None, &um);
    }

    let trace_text = std::fs::read_to_string(&trace_path).expect("streamed trace file");
    let summary = validate_chrome_trace(&trace_text).expect("streamed trace validates");
    assert!(summary.complete_events > 0);

    table.print();
    let path = table.write_csv("oocore").expect("write oocore.csv");
    println!(
        "\nwrote {}\nwrote {} ({} events)",
        path.display(),
        trace_path.display(),
        summary.events
    );

    // ---- frequency-buffering × budget sweep ----------------------------
    // Under the adaptive spill controller, how much of the freq-buffering
    // win survives as the budget shrinks? Absorbed records shrink spill
    // volume, which matters *more* when the buffer is small.
    println!("\nfrequency-buffering × budget sweep (adaptive controller, WordCount):\n");
    let budgets: &[usize] = if smoke {
        &[64 << 10, 128 << 10]
    } else {
        &[64 << 10, 128 << 10, 256 << 10, 512 << 10]
    };
    let mut sweep = Table::new(&[
        "freq",
        "budget_kb",
        "wall_ms",
        "spills",
        "absorbed_records",
        "peak_map_kb",
        "mbps_per_slot",
    ]);
    for &b in budgets {
        for freq in [false, true] {
            let cluster = base.clone().with_map_budget(b);
            let mut cfg = optimized(
                JobConfig::default().with_reducers(REDUCERS),
                if freq {
                    OptimizationConfig::freq_only(FreqBufferConfig::default())
                } else {
                    OptimizationConfig::baseline()
                },
            );
            cfg.spill_controller = adaptive_budget_factory();
            eprintln!("sweep: freq={freq} budget={}KiB …", b >> 10);
            let run = run_job(
                &cluster,
                &cfg,
                Arc::new(textmr_apps::WordCount),
                &dfs,
                &[("corpus", 0)],
            )
            .unwrap_or_else(|e| panic!("sweep run (freq={freq}, budget={b}) failed: {e}"));
            let m = measure(&cluster, &run, corpus_bytes);
            assert!(
                m.peak_map <= b as u64,
                "sweep freq={freq} budget={b}: peak {} B over budget",
                m.peak_map
            );
            let absorbed: u64 = run
                .profile
                .map_tasks
                .iter()
                .map(|t| t.freq_absorbed_records)
                .sum();
            sweep.row(&[
                if freq { "on" } else { "off" }.to_string(),
                (b >> 10).to_string(),
                format!("{:.3}", m.wall_ms),
                m.spills.to_string(),
                absorbed.to_string(),
                kb(m.peak_map),
                format!("{:.2}", m.mbps_per_slot),
            ]);
        }
    }
    sweep.print();
    let sweep_path = sweep
        .write_csv("oocore_sweep")
        .expect("write oocore_sweep.csv");
    println!("\nwrote {}", sweep_path.display());

    let _ = std::fs::remove_dir_all(&gen_dir);
    if smoke {
        println!("\nsmoke OK: budgeted == unbudgeted output, every budgeted map task under budget");
    }
}
