//! `textmr-perf` — the host-time benchmark.
//!
//! ```text
//! textmr-perf [run] --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1 | --traced] [--smoke]
//! textmr-perf noise --runs <n> [--workload <name>] [--seed <u64>] [--seconds <n>]
//! ```
//!
//! One `run` is: timed set-up (sampled, median reported) → one untimed
//! warm-up operation → timed repetitions of the workload's operation with
//! engine tracing off, a calibration pass (`src/calib.rs`) between each,
//! until the repetition rule is met → read `VmHWM` → verify → print every
//! metric as `name value unit`, then one JSON object as the last line.
//! Timings are reported in calibrated seconds: each divided by the passes
//! around it. `--trace 1` instead interleaves plain operations with traced
//! ones and the no-framework baseline, runs the per-layer probes, writes
//! `perf/out/spans-<workload>.json` and prints the per-layer metrics.
//! See `perf/README.md`.

mod baseline;
mod calib;
mod host;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use calib::{calibrated_median, Calib, REFERENCE_PASS_S};
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use probes::Values;
use spans::{Recorder, Work};
use stats::{median, quartiles, spread, RepRule};
use std::io;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{OpResult, Workload, GATED, WORKLOADS};

const DEFAULT_SEED: u64 = 11;
/// Set-up is sampled so that `setup_s` is a median, not one draw: three
/// samples, each between two calibration passes. A sample is one set-up, or
/// the mean of [`CHEAP_SETUP_BATCH`] when the first takes under
/// [`CHEAP_SETUP_S`]. The count is fixed by the first set-up alone, never by
/// a time box, so that the allocator state the timed repetitions start from
/// — and with it `peak_rss_mb` — does not depend on how fast the host
/// happens to be.
const SETUP_SAMPLES: usize = 3;
const CHEAP_SETUP_BATCH: usize = 40;
const CHEAP_SETUP_S: f64 = 0.1;
/// A traced run times at least this many plain operations.
const TRACED_MIN_CYCLES: usize = 3;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RepRule::DEFAULT.min_seconds,
        traced: false,
        smoke: false,
        runs: 5,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |s: &str| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.to_string()),
            "--seed" => args.seed = number(value("a u64")?)?,
            "--seconds" => args.seconds = number(value("whole seconds")?)? as f64,
            "--runs" => args.runs = number(value("a count")?)? as usize,
            "--trace" => {
                args.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let result = match args.command.as_str() {
            "run" if args.smoke && args.workload.is_none() => smoke(&args),
            "run" => run(&args),
            "noise" => noise(&args),
            other => return Err(format!("unknown command {other}")),
        };
        result.map_err(|e| e.to_string())
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("textmr-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Removes this process's spill directory (generated inputs, engine spills)
/// on every exit path.
struct SpillRootGuard;

impl Drop for SpillRootGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(host::spill_root());
    }
}

/// Timed set-up, sampled between calibration passes; returns the last
/// workload built and the median calibrated seconds of one set-up. Each
/// build is dropped before the next so only one is resident.
fn timed_setup(
    name: &str,
    seed: u64,
    smoke: bool,
    calib: &mut Calib,
) -> io::Result<(Box<dyn Workload>, f64)> {
    let first_pass = calib.passes().len();
    let samples = if smoke { 1 } else { SETUP_SAMPLES };
    let mut batch = 0;
    let mut times = Vec::new();
    calib.pass();
    loop {
        let t = Instant::now();
        let mut workload = workloads::setup(name, seed)?;
        if batch == 0 {
            let cheap = t.elapsed().as_secs_f64() < CHEAP_SETUP_S && !smoke;
            batch = if cheap { CHEAP_SETUP_BATCH } else { 1 };
        }
        for _ in 1..batch {
            drop(workload);
            workload = workloads::setup(name, seed)?;
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
        calib.pass();
        if times.len() >= samples {
            let setup_s = calibrated_median(&times, &calib.passes()[first_pass..]);
            return Ok((workload, setup_s));
        }
    }
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name} {value} {unit}");
}

/// The last line of a run: one JSON object with exactly these keys.
fn print_result(attempted: usize, failed: usize, metrics: Vec<(&str, f64, &str)>) {
    let metrics = metrics.into_iter().map(|(name, value, unit)| {
        let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
        (name, entry)
    });
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.write());
}

/// One run of one workload. `Ok(false)` when any operation failed.
fn run(args: &Args) -> io::Result<bool> {
    let name = args
        .workload
        .as_deref()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "run needs --workload"))?;
    let rule = if args.smoke {
        RepRule::SMOKE
    } else {
        RepRule::for_seconds(args.seconds)
    };
    let _cleanup = SpillRootGuard;

    println!("workload {name}");
    println!("seed {}", args.seed);
    println!("traced {}", u8::from(args.traced));
    println!("commit {}", host::commit());
    println!("host_cores {}", host::host_cores());
    println!("worker_threads 1");
    println!("spill_root {}", host::spill_root().display());
    println!(
        "rule min_reps={} min_seconds={} cap={}",
        rule.min_reps, rule.min_seconds, rule.cap
    );

    let mut calib = Calib::new();
    let (workload, setup_s) = timed_setup(name, args.seed, args.smoke, &mut calib)?;
    println!("rss_reset {}", u8::from(host::reset_peak_rss()));

    let mut rec = Recorder::new(args.seed);
    let warm = workload.op(&mut rec)?;
    if args.traced {
        run_traced(name, args, &*workload, rule, &warm, rec)
    } else {
        run_plain(&*workload, rule, &warm, setup_s, calib, rec)
    }
}

fn run_plain(
    workload: &dyn Workload,
    rule: RepRule,
    warm: &OpResult,
    setup_s: f64,
    mut calib: Calib,
    mut rec: Recorder,
) -> io::Result<bool> {
    let mut seconds = Vec::new();
    let mut digests = Vec::new();
    let mut failed = 0;
    let first_pass = calib.passes().len();
    // The box is wall-clock: repetitions, the passes between them, and the
    // digesting and dropping of each output.
    let start = Instant::now();
    calib.pass();
    while !rule.done(seconds.len(), start.elapsed().as_secs_f64()) {
        let t = Instant::now();
        let result = workload.op(&mut rec);
        // A failed operation has no window of its own: charge the whole call.
        let s = result
            .as_ref()
            .map_or_else(|_| t.elapsed().as_secs_f64(), |r| r.seconds);
        seconds.push(s);
        calib.pass();
        match result {
            Ok(r) if r.signature == warm.signature => digests.push(r.digest),
            Ok(_) => {
                eprintln!("repetition {}: profile signature changed", seconds.len());
                failed += 1;
            }
            Err(e) => {
                eprintln!("repetition {}: {e}", seconds.len());
                failed += 1;
            }
        }
    }

    // Before verification: the no-framework computation is not the engine's.
    let peak_rss_mb = host::peak_rss_mb();

    // A plain run checks against the no-framework result, which is cheap;
    // a traced run checks against `reference_run` as well.
    let reference = workload.direct()?;
    failed += digests.iter().filter(|&&d| d != reference).count();
    if warm.digest != reference {
        eprintln!("warm-up output differs from the no-framework result");
        failed = failed.max(1);
    }

    let passes = &calib.passes()[first_pass..];
    let job_s = calibrated_median(&seconds, passes);
    let (q1, q3) = quartiles(&seconds);
    let pass_s = median(calib.passes());
    println!("reps {}", seconds.len());
    println!("rep_seconds {seconds:.3?}");
    println!("pass_seconds {passes:.3?}");
    print_metric("job_raw_s", median(&seconds), "s");
    print_metric("job_raw_q1_s", q1, "s");
    print_metric("job_raw_q3_s", q3, "s");
    print_metric("calib_pass_s", pass_s, "s");
    print_metric("host_speed_x", REFERENCE_PASS_S / pass_s, "x");
    println!("ops_attempted {}", seconds.len());
    println!("ops_failed {failed}");
    let values = [job_s, peak_rss_mb, setup_s];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, value, unit))
        .collect();
    for &(name, value, unit) in &metrics {
        print_metric(name, value, unit);
    }
    print_result(seconds.len(), failed, metrics);
    Ok(failed == 0)
}

fn run_traced(
    name: &str,
    args: &Args,
    workload: &dyn Workload,
    rule: RepRule,
    warm: &OpResult,
    mut rec: Recorder,
) -> io::Result<bool> {
    // Plain operation, traced operation and the direct baseline interleave,
    // so drift in the host's speed lands on all three alike.
    let min_cycles = TRACED_MIN_CYCLES.min(rule.min_reps);
    let mut samples: Vec<OpResult> = Vec::new();
    let (mut trace_off, mut trace_on) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let start = Instant::now();
    while samples.len() < min_cycles
        || (start.elapsed().as_secs_f64() < rule.min_seconds / 2.0 && samples.len() < rule.cap)
    {
        let result = workload.op(&mut rec)?;
        let (off, on) = workload.trace_cost(result.seconds)?;
        trace_off.push(off);
        trace_on.push(on);
        let direct = rec.span("baseline.direct", "baseline", |_| {
            (workload.direct(), Work::default())
        })?;
        if result.signature != warm.signature || result.digest != direct {
            eprintln!(
                "cycle {}: output differs from the no-framework result, or the signature moved",
                samples.len() + 1
            );
            failed += 1;
        }
        samples.push(result);
    }
    let reference = workload.reference_digest()?;
    if warm.digest != reference || samples.iter().any(|s| s.digest != reference) {
        eprintln!("output differs from the reference computation");
        failed = failed.max(1);
    }
    let job_s = median(&samples.iter().map(|s| s.seconds).collect::<Vec<_>>());
    let direct_s = rec.seconds("baseline.direct");

    let mut values: Values = metrics::from_samples(&samples);
    values.push((
        "trace.record_overhead_x",
        median(&trace_on) / median(&trace_off),
    ));
    values.push(("baseline.direct_s", direct_s));
    values.push(("baseline.abstraction_x", job_s / direct_s));
    let cluster = workloads::cluster(4 << 20);
    let (job, splits) = workload.probe_input();
    rec.span("probes", "perf", |rec| {
        let probed = (|| {
            let mut v = probes::data_plane(&job, &splits, rec)?;
            v.extend(probes::event_loop(args.seed, rec));
            v.extend(probes::control_plane(&cluster, args.seed, rec)?);
            Ok::<_, io::Error>(v)
        })();
        (probed, Work::default())
    })
    .map(|v| values.extend(v))?;

    let out = host::out_dir();
    std::fs::create_dir_all(&out)?;
    let path = out.join(format!("spans-{name}.json"));
    std::fs::write(&path, rec.to_json().write())?;
    println!("spans {} ({} spans)", path.display(), rec.spans().len());
    println!("job_s {job_s} s");
    println!("ops_attempted {}", samples.len());
    println!("ops_failed {failed}");

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name))
                .1;
            (def.name, value, def.unit)
        })
        .collect();
    for (&(name, value, unit), def) in metrics.iter().zip(&PER_LAYER) {
        println!("{name} {value} {unit} {}", def.source.label());
    }
    print_result(samples.len(), failed, metrics);
    Ok(failed == 0)
}

/// `run --smoke` without a workload: every workload in turn, one
/// repetition each, full verification.
fn smoke(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let one = Args {
            command: "run".into(),
            workload: Some(name.to_string()),
            ..*args
        };
        ok &= run(&one)?;
    }
    println!("smoke {}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// One run in a child process (peak RSS is per process); returns the
/// parsed result line and, for a plain run, the raw median `job_raw_s`.
fn child_run(name: &str, seed: u64, seconds: f64, traced: bool) -> io::Result<(Json, f64)> {
    let output = std::process::Command::new(std::env::current_exe()?)
        .args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(io::Error::other)?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(io::Error::other(format!(
            "{name} seed {seed} failed: {last}"
        )));
    }
    let raw = stdout.lines().find_map(|l| {
        l.strip_prefix("job_raw_s ")?
            .split(' ')
            .next()?
            .parse()
            .ok()
    });
    Ok((result, raw.unwrap_or(f64::NAN)))
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("result has no metric {name}"))
}

/// Every workload `--runs` times on this build, each run with another seed,
/// as the driver does: min/median/max and spread against the bound for each
/// end-to-end metric, plus one traced run for the op shares. Writes the
/// record to `perf/out/noise.json`. `Ok(false)` if the spread of `job_s` or
/// `peak_rss_mb` exceeds its bound on a workload `BENCHMARK.json` lists.
/// `--workload` restricts it to one.
fn noise(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    let mut records = Vec::new();
    let chosen = |name: &str| args.workload.as_deref().is_none_or(|w| w == name);
    for (name, _) in WORKLOADS.into_iter().filter(|(name, _)| chosen(name)) {
        let (mut runs, mut raw) = (Vec::new(), Vec::new());
        for i in 0..args.runs as u64 {
            let (result, job_raw_s) = child_run(name, args.seed + 100 * i, args.seconds, false)?;
            runs.push(result);
            raw.push(job_raw_s);
        }
        // What calibration removed: the same runs' raw medians.
        println!(
            "{name} job_raw_s median {:.4} s spread {:.4} (uncalibrated, not a metric)",
            median(&raw),
            spread(&raw)
        );
        let mut fields = vec![
            ("workload".to_string(), Json::str(name)),
            (
                "job_raw_s".to_string(),
                Json::obj([
                    ("median", Json::Num(median(&raw))),
                    ("spread", Json::Num(spread(&raw))),
                    (
                        "values",
                        Json::Arr(raw.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ]),
            ),
        ];
        for (metric_name, unit, bound) in END_TO_END {
            let v: Vec<f64> = runs.iter().map(|r| metric(r, metric_name)).collect();
            let (q1, q3) = quartiles(&v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let (mid, spread) = (median(&v), spread(&v));
            let ratio = spread / bound;
            println!(
                "{name} {metric_name} min {lo:.4} median {mid:.4} max {hi:.4} {unit} \
                 spread {spread:.4} bound {bound} spread/bound {ratio:.2}"
            );
            // As the driver judges it: only the workloads `BENCHMARK.json`
            // lists, and `setup_s` is held to its bound between medians, but
            // its spread is reported, not gated.
            ok &= ratio <= 1.0 || metric_name == "setup_s" || !GATED.contains(&name);
            fields.push((
                metric_name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(mid)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(bound)),
                    (
                        "values",
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ]),
            ));
        }
        let (traced, _) = child_run(name, args.seed, args.seconds, true)?;
        let per_layer = PER_LAYER
            .iter()
            .map(|def| (def.name, Json::Num(metric(&traced, def.name))));
        fields.push(("per_layer".to_string(), Json::obj(per_layer)));
        records.push(Json::Obj(fields));
    }
    let record = Json::obj([
        ("commit", Json::str(host::commit())),
        ("host_cores", Json::Num(host::host_cores() as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("first_seed", Json::Num(args.seed as f64)),
        ("workloads", Json::Arr(records)),
    ]);
    let out = host::out_dir();
    std::fs::create_dir_all(&out)?;
    let path = out.join("noise.json");
    std::fs::write(&path, record.write() + "\n")?;
    println!("record {}", path.display());
    println!("noise {}", if ok { "OK" } else { "EXCEEDED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_needs_no_subcommand() {
        let a = args(&[
            "--workload",
            "postag-cpu",
            "--seed",
            "7",
            "--seconds",
            "9",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("postag-cpu"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 9.0, true));
    }

    #[test]
    fn defaults_and_rejections() {
        let a = args(&["noise", "--runs", "3"]).unwrap();
        assert_eq!((a.command.as_str(), a.runs, a.seed), ("noise", 3, 11));
        assert_eq!(a.seconds, 15.0);
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
