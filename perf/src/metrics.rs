//! The names every later performance claim uses: end-to-end metrics with
//! their regression bounds, and per-layer metrics with their source.
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test below fails when the two drift apart.

use crate::probes::Values;
use crate::stats::median;
use crate::workloads::OpResult;
use textmr_engine::metrics::Op;

/// `(name, unit, bound)`: all host time or host memory, never virtual;
/// lower is better for each. `bound` is the share of the parent's median a
/// metric may worsen by before a change counts as a regression.
///
/// `job_s` and `setup_s` are *calibrated* seconds (`src/calib.rs`): each
/// timing divided by the calibration passes taken just before and after it,
/// times the pass's reference duration — host seconds when the host runs at
/// its quiet speed. Raw seconds read the host's mode, not the program: the
/// first form of this benchmark was refused for it (`serve-trace` medians
/// 1.79 and 2.57 s on the same code). `peak_rss_mb` includes the passes'
/// 8.25 MB of buffers, resident from before set-up.
///
/// `job_s` and `peak_rss_mb` were meant to carry 0.10. Calibrated, ten-run
/// `job_s` spreads measure 0.02–0.09 here (README, "Noise on this host");
/// `peak_rss_mb` is bimodal across seeds where the whole process is small.
/// The bounds are what the instrument can resolve on this host.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("job_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
    ("setup_s", "s", 0.25),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Median of the engine's own `JobProfile::total_ops()` accounting.
    OpTotal,
    /// A span the benchmark records around a call into the layer (measured).
    Probe,
    /// A count read from `JobProfile` or computed exactly: must repeat.
    Exact,
    /// The engine's virtual-time model: never quoted as throughput.
    Virtual,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::OpTotal => "op-total",
            Source::Probe => "probe",
            Source::Exact => "exact",
            Source::Virtual => "virtual",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Direction, as `BENCHMARK.json` states it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub source: Source,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Exact, OpTotal, Probe, Virtual};

/// Operations reported as `op.<name>_s`, in pipeline order.
const OPS: [Op; 11] = [
    Op::Read,
    Op::Map,
    Op::Emit,
    Op::Sort,
    Op::Combine,
    Op::SpillWrite,
    Op::Merge,
    Op::ShuffleFetch,
    Op::ReduceMerge,
    Op::Reduce,
    Op::OutputWrite,
];

/// Every per-layer metric a `--traced` run prints, layer prefix = module.
pub const PER_LAYER: [PerLayer; 60] = [
    m("op.read_s", "s", "lower", OpTotal),
    m("op.map_s", "s", "lower", OpTotal),
    m("op.emit_s", "s", "lower", OpTotal),
    m("op.sort_s", "s", "lower", OpTotal),
    m("op.combine_s", "s", "lower", OpTotal),
    m("op.spill_s", "s", "lower", OpTotal),
    m("op.merge_s", "s", "lower", OpTotal),
    m("op.shuffle_s", "s", "lower", OpTotal),
    m("op.reduce-merge_s", "s", "lower", OpTotal),
    m("op.reduce_s", "s", "lower", OpTotal),
    m("op.write_s", "s", "lower", OpTotal),
    m("cluster.driver_s", "s", "lower", OpTotal),
    m("io.input.read_ns_per_record", "ns/record", "lower", Probe),
    m(
        "task.segment.push_ns_per_record",
        "ns/record",
        "lower",
        Probe,
    ),
    m("task.spill.sort_ns_per_record", "ns/record", "lower", Probe),
    m(
        "task.spill.framed_write_ns_per_record",
        "ns/record",
        "lower",
        Probe,
    ),
    m("io.frame.encode_mb_per_s", "MB/s", "higher", Probe),
    m("io.frame.decode_mb_per_s", "MB/s", "higher", Probe),
    m("io.frame.stored_ratio", "ratio", "lower", Exact),
    m("io.compress.compress_mb_per_s", "MB/s", "higher", Probe),
    m("io.compress.decompress_mb_per_s", "MB/s", "higher", Probe),
    m(
        "task.merge.cursor_ns_per_record",
        "ns/record",
        "lower",
        Probe,
    ),
    m(
        "core.freq_table.offer_ns_per_record",
        "ns/record",
        "lower",
        Probe,
    ),
    m("core.freq_table.absorbed_ratio", "ratio", "higher", Exact),
    m(
        "core.space_saving.offer_ns_per_key",
        "ns/key",
        "lower",
        Probe,
    ),
    m("nlp.tokenizer.words_ns_per_word", "ns/word", "lower", Probe),
    m("nlp.hmm.tag_ns_per_token", "ns/token", "lower", Probe),
    m("event.flow_sim_ns_per_flow", "ns/flow", "lower", Probe),
    m("event.queue_ns_per_event", "ns/event", "lower", Probe),
    m("trace.record_overhead_x", "x", "lower", Probe),
    m("trace.export_ns_per_event", "ns/event", "lower", Probe),
    m("trace.validate_ns_per_event", "ns/event", "lower", Probe),
    m("trace.parse_ns_per_event", "ns/event", "lower", Probe),
    m("trace.race.check_ns_per_event", "ns/event", "lower", Probe),
    m("trace.validate_superlinearity_x", "x", "lower", Probe),
    m("serve.call_ms", "ms", "lower", Probe),
    m("serve.sched.multiplex_us", "us", "lower", Probe),
    m("serve.sched.merge_us", "us", "lower", Probe),
    m("serve.cache.hit_ratio", "ratio", "higher", Exact),
    m("lint.audit_ms", "ms", "lower", Probe),
    m("lint.files", "count", "lower", Exact),
    m("baseline.direct_s", "s", "lower", Probe),
    m("baseline.abstraction_x", "x", "lower", Probe),
    m("count.map_tasks", "count", "lower", Exact),
    m("count.spills", "count", "lower", Exact),
    m("count.emitted_records", "count", "lower", Exact),
    m("count.absorbed_records", "count", "higher", Exact),
    m("count.shuffled_bytes", "count", "lower", Exact),
    m("count.output_records", "count", "higher", Exact),
    m("count.peak_map_buffer_kb", "KB", "lower", Exact),
    m("count.peak_reduce_buffer_kb", "KB", "lower", Exact),
    m("model.virtual_wall_s", "s", "lower", Virtual),
    m("model.map_idle_pct", "%", "lower", Virtual),
    m("model.support_idle_pct", "%", "lower", Virtual),
    m("share.map_pct", "%", "lower", OpTotal),
    m("share.sort_merge_pct", "%", "lower", OpTotal),
    m("share.reduce_side_pct", "%", "lower", OpTotal),
    m("share.driver_pct", "%", "lower", OpTotal),
    m("share.trace_json_pct", "%", "lower", Probe),
    m("reps", "count", "higher", Exact),
];

/// Op totals, the driver remainder, op shares, exact counts and the virtual
/// model's numbers, from the plain operations of a traced run.
pub fn from_samples(samples: &[OpResult]) -> Values {
    let job_s = median(&samples.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let op_s = |op: Op| {
        let per_sample: Vec<f64> = samples
            .iter()
            .map(|s| {
                let ns: u64 = s.profiles.iter().map(|p| p.total_ops().get(op)).sum();
                ns as f64 / 1e9
            })
            .collect();
        median(&per_sample)
    };
    let mut out = Values::new();
    let mut by_op = Vec::new();
    for (def, op) in PER_LAYER.iter().zip(OPS) {
        debug_assert_eq!(def.name, format!("op.{}_s", op.name()));
        let s = op_s(op);
        by_op.push((op, s));
        out.push((def.name, s));
    }
    let ops_total: f64 = by_op.iter().map(|(_, s)| s).sum();
    let driver_s = job_s - ops_total;
    out.push(("cluster.driver_s", driver_s));
    let share = |ops: &[Op]| {
        let s: f64 = by_op
            .iter()
            .filter(|(op, _)| ops.contains(op))
            .map(|(_, s)| s)
            .sum();
        100.0 * s / job_s
    };
    out.push(("share.map_pct", share(&[Op::Map])));
    out.push(("share.sort_merge_pct", share(&[Op::Sort, Op::Merge])));
    out.push((
        "share.reduce_side_pct",
        share(&[
            Op::ShuffleFetch,
            Op::ReduceMerge,
            Op::Reduce,
            Op::OutputWrite,
        ]),
    ));
    out.push(("share.driver_pct", 100.0 * driver_s / job_s));

    // Exact counts repeat on every repetition (the signature check has
    // already compared them), so the last sample speaks for all.
    let last = samples.last().expect("a traced run has samples");
    let maps = || last.profiles.iter().flat_map(|p| &p.map_tasks);
    let reduces = || last.profiles.iter().flat_map(|p| &p.reduce_tasks);
    let kb = |bytes: Option<u64>| bytes.unwrap_or(0) as f64 / 1024.0;
    out.push(("count.map_tasks", maps().count() as f64));
    out.push((
        "count.spills",
        maps().map(|t| t.spills.len()).sum::<usize>() as f64,
    ));
    out.push((
        "count.emitted_records",
        maps().map(|t| t.emitted_records).sum::<u64>() as f64,
    ));
    out.push((
        "count.absorbed_records",
        maps().map(|t| t.freq_absorbed_records).sum::<u64>() as f64,
    ));
    out.push((
        "count.shuffled_bytes",
        last.profiles.iter().map(|p| p.shuffled_bytes).sum::<u64>() as f64,
    ));
    out.push(("count.output_records", last.output_records as f64));
    out.push((
        "count.peak_map_buffer_kb",
        kb(maps().map(|t| t.peak_buffer_bytes).max()),
    ));
    out.push((
        "count.peak_reduce_buffer_kb",
        kb(reduces().map(|t| t.peak_buffer_bytes).max()),
    ));

    let rounds = last.profiles.len() as f64;
    out.push(("model.virtual_wall_s", last.virtual_wall_ns as f64 / 1e9));
    out.push((
        "model.map_idle_pct",
        last.profiles.iter().map(|p| p.map_idle_pct()).sum::<f64>() / rounds,
    ));
    out.push((
        "model.support_idle_pct",
        last.profiles
            .iter()
            .map(|p| p.support_idle_pct())
            .sum::<f64>()
            / rounds,
    ));
    out.push(("reps", samples.len() as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::{GATED, WORKLOADS};

    fn strings<'a>(list: &'a Json, key: &str) -> Vec<&'a str> {
        let Json::Arr(items) = list else {
            panic!("{key}: not a list")
        };
        items
            .iter()
            .map(|item| match item.get(key) {
                Some(Json::Str(s)) => s.as_str(),
                other => panic!("{key}: {other:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract later changes are held to; it must
    /// name exactly what this program prints.
    #[test]
    fn benchmark_json_lists_the_same_names_and_units() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

        let workloads = spec.get("workloads").expect("workloads");
        let gated = || WORKLOADS.iter().filter(|(n, _)| GATED.contains(n));
        assert_eq!(gated().count(), GATED.len());
        assert_eq!(
            strings(workloads, "name"),
            gated().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(workloads, "why"),
            gated().map(|(_, why)| *why).collect::<Vec<_>>()
        );

        let e2e = spec.get("end_to_end").expect("end_to_end");
        assert_eq!(
            strings(e2e, "name"),
            END_TO_END.iter().map(|d| d.0).collect::<Vec<_>>()
        );
        assert_eq!(
            strings(e2e, "unit"),
            END_TO_END.iter().map(|d| d.1).collect::<Vec<_>>()
        );
        let Json::Arr(items) = e2e else {
            unreachable!()
        };
        for (item, def) in items.iter().zip(END_TO_END) {
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.2));
        }

        let layers = spec.get("per_layer").expect("per_layer");
        for (key, ours) in [
            ("name", PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()),
            ("unit", PER_LAYER.iter().map(|d| d.unit).collect()),
            ("better", PER_LAYER.iter().map(|d| d.better).collect()),
        ] {
            assert_eq!(strings(layers, key), ours);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(END_TO_END.iter().map(|d| (d.0, d.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
