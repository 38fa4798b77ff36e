//! Per-layer probes: one span around each call into a layer, fed with the
//! workload's **own** records (one split's lines, run through the job's
//! `map()` into a `VecEmit`), so a layer's number reflects the keys and
//! values this workload really pushes through it.
//!
//! API-surface rule: probe only what the roadmap keeps — the framed family
//! (`spill_segment_framed`, `FrameEncoder`, `merge_grouped_cursors`), not
//! `spill_segment` / `merge_grouped` / `materialize_reads`, which are slated
//! for deletion. A probed function that vanishes is a compile error here,
//! and a change that is not a benchmark change may not repair it.

use crate::host;
use crate::spans::{Recorder, Work};
use crate::workloads::{cache_tallies, serve_audit, serve_config, serve_queue, SERVE_JOBS};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use textmr_core::{frequency_buffer_factory, FreqBufferConfig, SpaceSaving};
use textmr_engine::cluster::ClusterConfig;
use textmr_engine::controller::{FilterCtx, TaskCtx};
use textmr_engine::event::{simulate_attempt_flows, EventQueue, Flow};
use textmr_engine::io::compress::{compress, decompress};
use textmr_engine::io::frame::{decode_run, FrameEncoder};
use textmr_engine::io::input::{InputSplit, SplitReader};
use textmr_engine::job::{Job, VecEmit};
use textmr_engine::task::merge::merge_grouped_cursors;
use textmr_engine::task::segment::Segment;
use textmr_engine::task::spill::{sort_indices, spill_segment_framed};
use textmr_engine::trace::validate_chrome_trace;
use textmr_nlp::{tokenizer, Tagger, TaggerConfig};
use textmr_serve::sched::{merge_traces, multiplex, JobPlan};
use textmr_serve::serve;

/// The `wordcount-*` spill buffer: what one sorted, spilled segment holds.
const SEGMENT_BYTES: usize = 256 << 10;
/// The frame size a 512 KiB map budget derives (`B / 16`).
const FRAME_BYTES: usize = 32 << 10;
/// Segments built, spilled and merged: the default merge fan-in.
const MAX_SEGMENTS: usize = 10;
const PARTITIONS: usize = 12;
/// Lines the HMM tagger probe tags (it is ~1000× the tokenizer's cost).
const TAG_LINES: usize = 200;
/// Jobs in the small queue of the validate-scaling probe.
const SMALL_QUEUE_JOBS: usize = 6;

pub type Values = Vec<(&'static str, f64)>;

/// One split's worth of the workload's records.
struct Sample {
    lines: Vec<Vec<u8>>,
    /// Map output of all `lines`, in emit order.
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// `pairs` index where each line's output ends.
    line_ends: Vec<usize>,
}

fn capture(job: &dyn Job, split: &InputSplit, rec: &mut Recorder) -> Sample {
    rec.span("job.map", "job", |_| {
        let mut reader = SplitReader::new(split);
        let mut sink = VecEmit::default();
        let (mut lines, mut line_ends, mut bytes) = (Vec::new(), Vec::new(), 0);
        while let Some(r) = reader.next() {
            job.map(&r, &mut sink);
            bytes += r.value.len() as u64;
            lines.push(r.value.to_vec());
            line_ends.push(sink.pairs.len());
        }
        let records = sink.pairs.len() as u64;
        let sample = Sample {
            lines,
            pairs: sink.pairs,
            line_ends,
        };
        (sample, Work { records, bytes })
    })
}

/// Data-plane probes: read → segment → sort → framed spill → frame codec →
/// compressor → cursor merge, then the emit-path filters and the NLP code.
pub fn data_plane(
    job: &Arc<dyn Job>,
    splits: &[InputSplit],
    rec: &mut Recorder,
) -> io::Result<Values> {
    let mut out = Values::new();

    rec.span("io.input.read", "io.input", |_| {
        let (mut records, mut bytes) = (0u64, 0u64);
        for split in splits {
            let mut reader = SplitReader::new(split);
            while let Some(r) = reader.next() {
                records += 1;
                bytes += black_box(r.value).len() as u64;
            }
        }
        ((), Work { records, bytes })
    });
    out.push((
        "io.input.read_ns_per_record",
        rec.ns_per_record("io.input.read"),
    ));

    let sample = capture(&**job, &splits[0], rec);
    assert!(!sample.pairs.is_empty(), "first split maps to no records");

    // Segments of one spill buffer each, filled in emit order.
    let parts: Vec<usize> = sample
        .pairs
        .iter()
        .map(|(k, _)| job.partition(k, PARTITIONS))
        .collect();
    let mut segments: Vec<Segment> = Vec::new();
    let mut next = 0;
    while next < sample.pairs.len() && segments.len() < MAX_SEGMENTS {
        let seg = rec.span("task.segment.push", "task.segment", |_| {
            let mut seg = Segment::new();
            while next < sample.pairs.len() && seg.accounted_bytes() < SEGMENT_BYTES {
                let (k, v) = &sample.pairs[next];
                seg.push(parts[next], k, v);
                next += 1;
            }
            let work = Work {
                records: seg.len() as u64,
                bytes: seg.data.len() as u64,
            };
            (seg, work)
        });
        segments.push(seg);
    }
    out.push((
        "task.segment.push_ns_per_record",
        rec.ns_per_record("task.segment.push"),
    ));

    let mut orders = Vec::new();
    for seg in &segments {
        orders.push(rec.span("task.spill.sort", "task.spill", |_| {
            let work = Work {
                records: seg.len() as u64,
                bytes: seg.data.len() as u64,
            };
            (sort_indices(seg, &**job), work)
        }));
    }
    out.push((
        "task.spill.sort_ns_per_record",
        rec.ns_per_record("task.spill.sort"),
    ));

    let dir = host::spill_root().join("probes");
    std::fs::create_dir_all(&dir)?;
    let mut spills = Vec::new();
    for (i, seg) in segments.iter().enumerate() {
        let path = dir.join(format!("spill{i}"));
        spills.push(rec.span("task.spill.framed_write", "task.spill", |_| {
            let spill = spill_segment_framed(seg, &**job, path, FRAME_BYTES);
            let work = spill.as_ref().map_or(Work::default(), |s| Work {
                records: s.records_in,
                bytes: s.file.total_bytes(),
            });
            (spill, work)
        })?);
    }
    out.push((
        "task.spill.framed_write_ns_per_record",
        rec.ns_per_record("task.spill.framed_write"),
    ));

    // Frame codec over each segment's sorted record stream.
    let (mut stored_bytes, mut raw_bytes) = (0u64, 0u64);
    let mut first_raw = Vec::new();
    for (seg, order) in segments.iter().zip(&orders) {
        let stored = rec.span("io.frame.encode", "io.frame", |_| {
            let mut enc = FrameEncoder::new(FRAME_BYTES);
            for &i in order {
                enc.push_record(seg.key(i as usize), seg.value(i as usize));
            }
            let (stored, metas, records) = enc.finish();
            let bytes = metas.iter().map(|m| u64::from(m.raw_len)).sum();
            (stored, Work { records, bytes })
        });
        let raw = rec
            .span("io.frame.decode", "io.frame", |_| {
                let raw = decode_run(&stored);
                let bytes = raw.as_ref().map_or(0, |r| r.len() as u64);
                (
                    raw,
                    Work {
                        records: seg.len() as u64,
                        bytes,
                    },
                )
            })
            .map_err(io::Error::from)?;
        stored_bytes += stored.len() as u64;
        raw_bytes += raw.len() as u64;
        if first_raw.is_empty() {
            first_raw = raw;
        }
    }
    out.push(("io.frame.encode_mb_per_s", rec.mb_per_s("io.frame.encode")));
    out.push(("io.frame.decode_mb_per_s", rec.mb_per_s("io.frame.decode")));
    out.push((
        "io.frame.stored_ratio",
        stored_bytes as f64 / raw_bytes as f64,
    ));

    // The compressor alone, on one decoded frame.
    let frame = &first_raw[..first_raw.len().min(FRAME_BYTES)];
    for _ in 0..MAX_SEGMENTS {
        let work = Work {
            records: 1,
            bytes: frame.len() as u64,
        };
        let packed = rec.span("io.compress.compress", "io.compress", |_| {
            (compress(black_box(frame)), work)
        });
        let unpacked = rec.span("io.compress.decompress", "io.compress", |_| {
            (decompress(black_box(&packed)), work)
        });
        assert_eq!(unpacked.as_deref(), Some(frame), "compressor round trip");
    }
    out.push((
        "io.compress.compress_mb_per_s",
        rec.mb_per_s("io.compress.compress"),
    ));
    out.push((
        "io.compress.decompress_mb_per_s",
        rec.mb_per_s("io.compress.decompress"),
    ));

    // k-way merge of the spilled runs through windowed cursors.
    for _ in 0..3 {
        rec.span("task.merge.cursor", "task.merge", |_| {
            let merged = (|| {
                let mut records = 0u64;
                for part in 0..PARTITIONS {
                    let mut cursors = spills
                        .iter()
                        .map(|s| s.file.framed_cursor(part))
                        .collect::<io::Result<Vec<_>>>()?;
                    merge_grouped_cursors(
                        &mut cursors,
                        &|a, b| job.compare_keys(a, b),
                        |key, values| {
                            black_box(key);
                            records += values.len() as u64;
                        },
                    )?;
                }
                Ok::<u64, io::Error>(records)
            })();
            let records = *merged.as_ref().unwrap_or(&0);
            (merged, Work { records, bytes: 0 })
        })?;
    }
    out.push((
        "task.merge.cursor_ns_per_record",
        rec.ns_per_record("task.merge.cursor"),
    ));
    drop(spills);
    std::fs::remove_dir_all(&dir)?;

    // Frequency-buffering's filter as the engine builds it for a map task.
    let filter_cfg = FreqBufferConfig {
        k: 3000,
        sampling_fraction: Some(0.01),
        ..Default::default()
    };
    let mut absorbed_ratio = 0.0;
    for _ in 0..3 {
        let mut filter = frequency_buffer_factory(filter_cfg.clone(), None)(FilterCtx {
            task: TaskCtx { node: 0, task: 0 },
            job: Arc::clone(job),
            budget_bytes: SEGMENT_BYTES * 3 / 10,
            estimated_records: sample.lines.len() as u64,
            node_first_task: 0,
            cancel: None,
        });
        rec.span("core.freq_table.offer", "core.freq_table", |_| {
            let mut passed = 0u64;
            let mut sink = |_: &[u8], _: &[u8]| passed += 1;
            let mut start = 0;
            for &end in &sample.line_ends {
                filter.on_input_record();
                for (k, v) in &sample.pairs[start..end] {
                    black_box(filter.offer(k, v, &mut sink));
                }
                start = end;
            }
            filter.finish(&mut sink);
            black_box(passed);
            let work = Work {
                records: sample.pairs.len() as u64,
                bytes: 0,
            };
            ((), work)
        });
        absorbed_ratio = filter.absorbed() as f64 / sample.pairs.len() as f64;
    }
    out.push((
        "core.freq_table.offer_ns_per_record",
        rec.ns_per_record("core.freq_table.offer"),
    ));
    out.push(("core.freq_table.absorbed_ratio", absorbed_ratio));

    for _ in 0..3 {
        rec.span("core.space_saving.offer", "core.space_saving", |_| {
            let mut sketch = SpaceSaving::new(3000);
            for (k, _) in &sample.pairs {
                sketch.offer(k);
            }
            let work = Work {
                records: black_box(sketch.items()),
                bytes: 0,
            };
            ((), work)
        });
    }
    out.push((
        "core.space_saving.offer_ns_per_key",
        rec.ns_per_record("core.space_saving.offer"),
    ));

    let text: Vec<&str> = sample
        .lines
        .iter()
        .map(|l| std::str::from_utf8(l).unwrap_or(""))
        .collect();
    for _ in 0..3 {
        rec.span("nlp.tokenizer.words", "nlp.tokenizer", |_| {
            let (mut records, mut bytes) = (0u64, 0u64);
            for line in &text {
                records += tokenizer::words(black_box(line)).count() as u64;
                bytes += line.len() as u64;
            }
            ((), Work { records, bytes })
        });
    }
    out.push((
        "nlp.tokenizer.words_ns_per_word",
        rec.ns_per_record("nlp.tokenizer.words"),
    ));

    let tagger = Tagger::new(TaggerConfig {
        posterior_passes: 2,
    });
    for _ in 0..3 {
        rec.span("nlp.hmm.tag", "nlp.hmm", |_| {
            let (mut records, mut bytes) = (0u64, 0u64);
            for line in text.iter().take(TAG_LINES) {
                records += black_box(tagger.tag_line(line)).len() as u64;
                bytes += line.len() as u64;
            }
            ((), Work { records, bytes })
        });
    }
    out.push(("nlp.hmm.tag_ns_per_token", rec.ns_per_record("nlp.hmm.tag")));

    Ok(out)
}

/// SplitMix64: seeds the event-loop probes' inputs from `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Event-loop probes: the NIC-sharing flow simulation of one reduce
/// attempt (2 fetchers, as on `logjoin-reduce`) and the bare event queue.
pub fn event_loop(seed: u64, rec: &mut Recorder) -> Values {
    let mut rng = SplitMix(seed);
    // One flow per map output of a logjoin-sized job, a few hundred KB each.
    let flows: Vec<Flow> = (0..52)
        .map(|_| Flow {
            io_ns: 20_000 + rng.next() % 200_000,
            backoff_ns: 0,
            remote: !rng.next().is_multiple_of(6),
            latency_ns: 100_000,
            rate_ns: 500_000 + rng.next() % 4_000_000,
            post_ns: rng.next() % 50_000,
        })
        .collect();
    for _ in 0..20 {
        rec.span("event.flow_sim", "event", |_| {
            let sched = simulate_attempt_flows(black_box(&flows), 2);
            let work = Work {
                records: black_box(sched).flows.len() as u64,
                bytes: 0,
            };
            ((), work)
        });
    }

    let times: Vec<u64> = (0..100_000).map(|_| rng.next() % 1_000_000_000).collect();
    for _ in 0..5 {
        rec.span("event.queue", "event", |_| {
            let mut q = EventQueue::new();
            for (i, &at) in times.iter().enumerate() {
                q.push(at, i as u32);
            }
            let mut records = 0u64;
            while let Some(ev) = q.pop() {
                black_box(ev);
                records += 1;
            }
            ((), Work { records, bytes: 0 })
        });
    }
    vec![
        (
            "event.flow_sim_ns_per_flow",
            rec.ns_per_record("event.flow_sim"),
        ),
        ("event.queue_ns_per_event", rec.ns_per_record("event.queue")),
    ]
}

/// Control-plane probes: the served-queue audit (unless the workload's own
/// operation already recorded one), validate scaling between a 6- and a
/// 10-job queue, the multiplexer replayed on its own, and the source lint.
pub fn control_plane(cluster: &ClusterConfig, seed: u64, rec: &mut Recorder) -> io::Result<Values> {
    if !rec.spans().iter().any(|s| s.name == "trace.validate") {
        serve_audit(cluster, SERVE_JOBS, seed, rec)?;
    }
    let json_s = rec.seconds("trace.validate") + rec.seconds("trace.parse");
    // The export runs before anything has counted Chrome-trace events (its
    // span counts trace entries), so it borrows the validator's count.
    let events = rec.median_of("trace.validate", |s| s.records as f64);
    let mut out = vec![
        (
            "share.trace_json_pct",
            100.0 * json_s / rec.seconds("serve.audit"),
        ),
        ("serve.call_ms", rec.seconds("serve.call") * 1e3),
        (
            "trace.export_ns_per_event",
            rec.seconds("trace.export") * 1e9 / events,
        ),
        (
            "trace.validate_ns_per_event",
            rec.ns_per_record("trace.validate"),
        ),
        ("trace.parse_ns_per_event", rec.ns_per_record("trace.parse")),
        (
            "trace.race.check_ns_per_event",
            rec.ns_per_record("trace.race.check"),
        ),
    ];

    // (t10 / t6) / (bytes10 / bytes6): 1.0 when validation is linear.
    let small = serve_queue(SMALL_QUEUE_JOBS, seed);
    let run = serve(
        cluster,
        &small.tenants,
        small.requests,
        &small.dfs,
        &serve_config(),
    )?;
    let json = run.trace.to_chrome_json();
    rec.span("trace.validate.small", "trace", |_| {
        let summary = validate_chrome_trace(&json);
        let work = Work {
            records: summary.as_ref().map_or(0, |s| s.events as u64),
            bytes: json.len() as u64,
        };
        (summary, work)
    })
    .map_err(io::Error::other)?;
    let per_byte = |name| rec.median_of(name, |s| s.duration_ns() as f64 / s.bytes as f64);
    out.push((
        "trace.validate_superlinearity_x",
        per_byte("trace.validate") / per_byte("trace.validate.small"),
    ));

    // The multiplexer and the trace merge, replayed outside `serve`.
    let full = serve_queue(SERVE_JOBS, seed);
    let run = serve(
        cluster,
        &full.tenants,
        full.requests,
        &full.dfs,
        &serve_config(),
    )?;
    let plans = run
        .jobs
        .iter()
        .map(|j| JobPlan::from_trace(j.job, j.tenant, j.arrival, &j.solo_trace))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io::Error::other)?;
    let solos: Vec<_> = run.jobs.iter().map(|j| j.solo_trace.clone()).collect();
    for _ in 0..5 {
        let work = Work {
            records: plans.len() as u64,
            bytes: 0,
        };
        let mux = rec.span("serve.sched.multiplex", "serve.sched", |_| {
            let mux = multiplex(
                cluster.nodes,
                cluster.map_slots_per_node,
                cluster.reduce_slots_per_node,
                &full.tenants,
                &plans,
            );
            (mux, work)
        });
        assert_eq!(mux, run.schedule, "re-multiplexing diverged");
        rec.span("serve.sched.merge", "serve.sched", |_| {
            (black_box(merge_traces(&plans, &solos, &mux)), work)
        });
    }
    let (hits, misses) = cache_tallies(&run);
    out.push((
        "serve.sched.multiplex_us",
        rec.seconds("serve.sched.multiplex") * 1e6,
    ));
    out.push((
        "serve.sched.merge_us",
        rec.seconds("serve.sched.merge") * 1e6,
    ));
    out.push((
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));

    let root = host::repo_root();
    let files = textmr_lint::workspace::collect(&root)?.len();
    rec.span("lint.audit", "lint", |_| {
        let audit = textmr_lint::workspace::audit_workspace(&root);
        let work = Work {
            records: files as u64,
            bytes: 0,
        };
        (audit.map(black_box), work)
    })?;
    out.push(("lint.audit_ms", rec.seconds("lint.audit") * 1e3));
    out.push(("lint.files", files as f64));
    Ok(out)
}
