//! Cluster configuration, the job driver, and virtual-time scheduling.
//!
//! A cluster is N nodes × (map slots, reduce slots) over a shared network
//! model — matching the paper's two testbeds: a local cluster running 12
//! mappers and 12 reducers on 6 worker machines, and a 20-node EC2
//! cluster. Tasks execute for real — sequentially, or on a bounded pool of
//! worker threads when [`ClusterConfig::worker_threads`] > 1; results are
//! identical either way because every task writes into its own isolated
//! spill directory and the driver collects outputs and profiles in task-id
//! order, not completion order. Independently of how tasks execute, they
//! are *scheduled in virtual time* onto node slots to compute the job
//! makespan:
//!
//! * map tasks run on their input block's home node (locality);
//! * reduce tasks start when the map phase ends (no early-shuffle overlap —
//!   a simplification; the paper also treats shuffle as a distinct phase);
//! * a failed map or reduce attempt occupies its slot for the virtual time
//!   it burned, then the retry is rescheduled on the same node;
//! * straggler nodes (declared in the job's [`FaultPlan`]) stretch their
//!   virtual task durations by a factor; opt-in speculative execution
//!   ([`JobConfig::speculation`]) launches a backup attempt on the fastest
//!   other node for any task lagging the median span — first completion in
//!   virtual time wins, and the loser's spill directory is reclaimed.

use crate::controller::{
    fixed_spill_factory, EmitFilterFactory, FilterCtx, SpillControllerFactory, TaskCtx,
};
use crate::dag::{DagExecutor, DagRun};
use crate::event::{AttemptKey, ClusterShape, ReduceAttempt, Scheduler};
use crate::fault::{FaultPlan, SpeculationConfig};
use crate::io::dfs::SimDfs;
use crate::io::frame::DEFAULT_FRAME_BYTES;
use crate::io::input::{InputSplit, DEFAULT_INPUT_CHUNK};
use crate::job::{Job, StageInput};
use crate::metrics::{JobProfile, Op, SpeculationStats, TaskProfile, TaskSpan, VNanos};
use crate::net::NetworkConfig;
use crate::pool::run_indexed;
use crate::shuffle::MAX_FETCHERS;
use crate::task::map_task::{run_map_task, MapOutput, MapTaskConfig};
use crate::task::reduce_task::{run_reduce_task, ReduceResult, ReduceTaskConfig};
use crate::task::TaskError;
use crate::trace::{
    build_reduce_trace, AttemptKind, EdgeEnd, EdgeKind, EntryDetail, JobTrace, LaneRole, SpanKind,
    TaskKind, TraceEdge, TraceEntry,
};
use std::collections::BTreeMap;
// textmr-lint: allow(unordered-iteration, reason = "per-node lookups only; never iterated")
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster shape and resources.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Shuffle network model.
    pub network: NetworkConfig,
    /// Map-side spill buffer capacity M per task, in bytes (Hadoop's
    /// `io.sort.mb`).
    pub spill_buffer_bytes: usize,
    /// Root of the jobs' spill directories (one per job, removed when the
    /// job ends); defaults to `TEXTMR_TMP`, else `/dev/shm`, else the
    /// system temp dir.
    pub temp_dir: Option<PathBuf>,
    /// Maximum merge fan-in (Hadoop's `io.sort.factor`): more runs than
    /// this trigger multi-pass merging through scratch disk.
    pub merge_fan_in: usize,
    /// Worker threads for *real* task execution. `1` (the default) runs
    /// the tasks one at a time on the caller's thread; larger values run
    /// map attempts and reduce tasks on a bounded pool of scoped threads.
    /// Either way a map attempt that spills before its input ends sorts,
    /// combines and writes those spills on a support thread of its own,
    /// joined before the attempt returns (see
    /// [`crate::task::pipeline`]). Outputs and timing-free profile counters
    /// ([`JobProfile::signature`](crate::metrics::JobProfile::signature))
    /// are identical either way; measured virtual durations vary with real
    /// execution timing (pool contention, run-to-run jitter), as they
    /// always have.
    pub worker_threads: usize,
    /// Parallel shuffle fetchers per reduce task (Hadoop's `parallel
    /// copies`). `1` (the default) fetches sequentially, which the
    /// contention-aware NIC model (see [`crate::shuffle`]) prices as the
    /// serial sum of independent flows; larger values fetch on a bounded
    /// pool and price concurrent flows through the same model. Outputs and
    /// signatures are identical at any setting; clamped to
    /// [`crate::shuffle::MAX_FETCHERS`].
    pub shuffle_fetchers: usize,
    /// Optional per-map-task RAM budget in bytes, the one out-of-core
    /// setting. `Some(B)` selects compressed framed runs
    /// ([`crate::io::frame`]) for spills, map outputs and shuffle runs,
    /// written and read one frame at a time, and derives the spill buffer,
    /// input window and frame size from `B` (the `effective_*` methods).
    /// A task then holds at most about 3B/4 — the spill buffer, one input
    /// window and a writer's frame, or `merge_fan_in` frame windows and a
    /// writer's frame — which is what
    /// [`TaskProfile::peak_buffer_bytes`](crate::metrics::TaskProfile::peak_buffer_bytes)
    /// tracks and the `oocore` bench asserts. Unlike the paper's fixed
    /// spill-percentage trigger, the budget composes with the adaptive
    /// controller ([`crate::controller::AdaptiveBudget`]), which moves the
    /// spill *fraction* inside the budgeted buffer. A budgeted attempt
    /// merges its spills on the map thread alone, since a second merge
    /// would hold another `merge_fan_in` frame windows and a frame, over
    /// the 3B/4. `None` (the default) writes record/blob runs, merged whole
    /// and split by bytes between the map thread and a helper thread,
    /// which are faster when memory is not the limit.
    pub map_budget_bytes: Option<usize>,
}

impl ClusterConfig {
    /// The paper's local cluster: 12 mappers + 12 reducers on 6 workers.
    pub fn local() -> Self {
        ClusterConfig {
            nodes: 6,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            network: NetworkConfig::local_cluster(),
            spill_buffer_bytes: 4 << 20,
            temp_dir: None,
            merge_fan_in: 10,
            worker_threads: 1,
            shuffle_fetchers: 1,
            map_budget_bytes: None,
        }
    }

    /// The paper's EC2 cluster: 20 nodes, weaker per-flow network.
    pub fn ec2() -> Self {
        ClusterConfig {
            nodes: 20,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            network: NetworkConfig::ec2_cluster(),
            spill_buffer_bytes: 4 << 20,
            temp_dir: None,
            merge_fan_in: 10,
            worker_threads: 1,
            shuffle_fetchers: 1,
            map_budget_bytes: None,
        }
    }

    /// A single-node configuration for tests.
    pub fn single_node() -> Self {
        ClusterConfig {
            nodes: 1,
            map_slots_per_node: 1,
            reduce_slots_per_node: 1,
            network: NetworkConfig::local_cluster(),
            spill_buffer_bytes: 1 << 20,
            temp_dir: None,
            merge_fan_in: 10,
            worker_threads: 1,
            shuffle_fetchers: 1,
            map_budget_bytes: None,
        }
    }

    /// Builder: set the worker-thread count (clamped to at least 1).
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n.max(1);
        self
    }

    /// Builder: set the per-reduce-task shuffle fetcher count (clamped to
    /// at least 1; [`run_job`] further clamps to
    /// [`crate::shuffle::MAX_FETCHERS`]).
    pub fn with_shuffle_fetchers(mut self, n: usize) -> Self {
        self.shuffle_fetchers = n.max(1);
        self
    }

    /// Builder: set a per-map-task RAM budget (selects framed runs; see
    /// [`ClusterConfig::map_budget_bytes`] for the derivation).
    pub fn with_map_budget(mut self, bytes: usize) -> Self {
        self.map_budget_bytes = Some(bytes);
        self
    }

    /// Frame size under a budget `B`: `min(64 KiB, B/16)`, ≥ 1 KiB; `None`
    /// (record/blob runs) without one.
    pub fn effective_frame_bytes(&self) -> Option<usize> {
        self.map_budget_bytes
            .map(|b| (b / 16).clamp(1 << 10, DEFAULT_FRAME_BYTES))
    }

    /// Input chunk window: `min(256 KiB, B/8)`, ≥ 1 KiB, under a budget
    /// `B`; 256 KiB without one.
    pub fn effective_input_chunk_bytes(&self) -> usize {
        match self.map_budget_bytes {
            Some(b) => (b / 8).clamp(1 << 10, DEFAULT_INPUT_CHUNK),
            None => DEFAULT_INPUT_CHUNK,
        }
    }

    /// The spill-buffer capacity a run actually uses:
    /// [`ClusterConfig::spill_buffer_bytes`] clamped to half of any
    /// [`ClusterConfig::map_budget_bytes`].
    pub fn effective_spill_buffer_bytes(&self) -> usize {
        match self.map_budget_bytes {
            Some(b) => self.spill_buffer_bytes.min((b / 2).max(4 << 10)),
            None => self.spill_buffer_bytes,
        }
    }

    /// A new directory for one job, `textmr-<pid>-job<seq>` directly under
    /// the temp root, so the job's guard removing it leaves nothing
    /// behind.
    pub(crate) fn resolve_temp_dir(&self) -> io::Result<PathBuf> {
        static JOB_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = match &self.temp_dir {
            Some(d) => d.clone(),
            None => Self::default_temp_root(),
        };
        let dir = root.join(format!("textmr-{}-job{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Default spill-file root. `TEXTMR_TMP` wins; otherwise a tmpfs
    /// (`/dev/shm`) is preferred when present: spill I/O then costs a
    /// stable memcpy instead of noisy device latency, which keeps the
    /// measured profiles reproducible (see DESIGN.md — the paper's
    /// *relative* effects survive, absolute I/O costs are testbed-specific
    /// either way).
    fn default_temp_root() -> PathBuf {
        // textmr-lint: allow(wall-clock-flows-to-schedule, reason = "the env read only picks the spill directory; no path byte reaches a schedule, signature, or output")
        if let Ok(d) = std::env::var("TEXTMR_TMP") {
            return PathBuf::from(d);
        }
        let shm = PathBuf::from("/dev/shm");
        if shm.is_dir() {
            return shm;
        }
        std::env::temp_dir()
    }
}

/// Job-level policy: reducers, optimization plug-ins, fault injection.
#[derive(Clone)]
pub struct JobConfig {
    /// Number of reduce tasks (partitions).
    pub num_reducers: usize,
    /// Spill-fraction policy factory; default Hadoop-style fixed 0.8.
    pub spill_controller: SpillControllerFactory,
    /// Optional emit-filter factory (frequency-buffering).
    pub emit_filter: Option<EmitFilterFactory>,
    /// Fraction of the spill buffer carved out for the emit filter, so
    /// total memory stays fixed (the paper devotes 30%).
    pub filter_budget_fraction: f64,
    /// Seeded deterministic fault plan: per-attempt map/reduce record
    /// faults, spill-write faults, transient shuffle-fetch faults, and
    /// per-node straggler factors. Empty by default. See [`crate::fault`].
    pub fault_plan: FaultPlan,
    /// Maximum attempts per map task, per reduce task, and per shuffle
    /// fetch before the job aborts.
    pub max_attempts: usize,
    /// Speculative-execution policy. `None` (the default) disables backup
    /// attempts. When set, a task whose virtual span exceeds the policy's
    /// threshold of the median span gets a backup on the fastest other
    /// node; first completion in virtual time wins. Opt-in because a
    /// winning backup moves the task (changing shuffle locality and hence
    /// `shuffled_bytes`), trading signature stability for makespan.
    pub speculation: Option<SpeculationConfig>,
    /// Record a deterministic virtual-time trace of every task attempt
    /// into [`JobRun::trace`] (see [`crate::trace`]). Off by default; the
    /// untraced path records nothing and allocates nothing, so profiles and
    /// outputs are byte-identical with the flag off.
    pub trace: bool,
    /// Optional map-output cache (see [`crate::cache`]): a hit skips the
    /// map task and replays its cached output at a flat virtual lookup
    /// cost. `None` by default — single-job runs are unaffected.
    pub map_cache: Option<crate::cache::MapCacheConfig>,
    /// Stream the Chrome-trace export to this path instead of returning
    /// an in-memory [`JobTrace`] (see [`crate::trace::stream`]). Requires
    /// [`trace`](JobConfig::trace); when set, [`JobRun::trace`] is `None`
    /// and the file at this path is the byte-identical equivalent of
    /// `trace.to_chrome_json()` — span events are spooled to disk as each
    /// attempt's entry retires and the full JSON string is never resident.
    /// The out-of-core bench uses this so a multi-GB run's trace does not
    /// defeat its own memory budget.
    pub trace_stream: Option<PathBuf>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_reducers: 4,
            spill_controller: fixed_spill_factory(0.8),
            emit_filter: None,
            filter_budget_fraction: 0.3,
            fault_plan: FaultPlan::new(),
            max_attempts: 4,
            speculation: None,
            trace: false,
            map_cache: None,
            trace_stream: None,
        }
    }
}

impl JobConfig {
    /// Convenience: set the reducer count.
    pub fn with_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Convenience: install a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Convenience: enable speculative execution.
    pub fn with_speculation(mut self, spec: SpeculationConfig) -> Self {
        self.speculation = Some(spec);
        self
    }

    /// Convenience: enable virtual-time tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Convenience: enable tracing AND stream the Chrome-trace export to
    /// `path` (see [`JobConfig::trace_stream`]).
    pub fn with_trace_stream(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = true;
        self.trace_stream = Some(path.into());
        self
    }
}

/// A completed job: outputs per partition plus the full profile.
#[derive(Debug)]
pub struct JobRun {
    /// Final `(key, value)` pairs, per partition, key-sorted.
    pub outputs: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Aggregated instrumentation.
    pub profile: JobProfile,
    /// Virtual-time trace of every scheduled attempt; `Some` iff
    /// [`JobConfig::trace`] was set and the export was not redirected to
    /// disk via [`JobConfig::trace_stream`].
    pub trace: Option<JobTrace>,
}

impl JobRun {
    /// Flatten all partitions into one key-sorted list (convenient for
    /// assertions; stable across engine configurations).
    pub fn sorted_pairs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<_> = self.outputs.iter().flatten().cloned().collect();
        all.sort();
        all
    }
}

/// Outcome of one task's full retry ladder, as produced on a worker.
enum TaskOutcome<T> {
    /// The task completed; carries every attempt's virtual duration
    /// (failed attempts first) for slot scheduling.
    Done { attempts: Vec<VNanos>, out: T },
    /// All `max_attempts` attempts failed.
    Exhausted { attempts: usize },
    /// An I/O error (for a reducer, including exhausted shuffle-fetch
    /// retries) killed the task outright.
    Failed(io::Error),
    /// The task gave up because another task had already doomed the job.
    Cancelled,
}

/// What one real attempt (or speculative backup) hands the driver: its
/// result and unscaled virtual duration, or why it died.
type Attempt<T> = Result<(T, VNanos), TaskError>;

/// A completed map task.
struct MapDone {
    out: MapOutput,
    prof: TaskProfile,
    /// The map-output cache key of a task that missed the cache, under
    /// which its output is offered back; `None` for a hit (never offered
    /// back) or without a cache.
    cache_key: Option<String>,
}

/// One scheduled attempt, captured for the trace: where and when it ran,
/// and — unless it is the attempt of record, which owns the task's
/// detailed lanes — the flat outcome it renders as.
struct Capture {
    task: usize,
    attempt: usize,
    backup: bool,
    node: usize,
    slot: usize,
    start: VNanos,
    end: VNanos,
    flat: Option<AttemptKind>,
}

impl Capture {
    /// One task's placed primary attempts as `(slot, start, end)`: every
    /// attempt but the last is a flat failure.
    fn primaries(
        task: usize,
        node: usize,
        placed: impl ExactSizeIterator<Item = (usize, VNanos, VNanos)>,
    ) -> Vec<Capture> {
        let last = placed.len().saturating_sub(1);
        placed
            .enumerate()
            .map(|(attempt, (slot, start, end))| Capture {
                task,
                attempt,
                backup: false,
                node,
                slot,
                start,
                end,
                flat: (attempt < last).then_some(AttemptKind::Failed),
            })
            .collect()
    }
}

/// One phase's virtual schedule: per task, its span of record and every
/// attempt's virtual duration (failed attempts first); when tracing, every
/// attempt's and backup's placement.
struct PhaseSchedule {
    spans: Vec<TaskSpan>,
    durations: Vec<Vec<VNanos>>,
    /// Per task, its primary attempts' placements (tracing only).
    attempts: Vec<Vec<Capture>>,
    /// Speculative backups' placements (tracing only).
    backups: Vec<Capture>,
}

impl PhaseSchedule {
    fn new(durations: Vec<Vec<VNanos>>) -> Self {
        PhaseSchedule {
            spans: Vec::with_capacity(durations.len()),
            durations,
            attempts: Vec::new(),
            backups: Vec::new(),
        }
    }
}

/// One phase of a round as the Hadoop attempt model sees it. Map tasks
/// and reducers share one retry ladder, one outcome collection, one
/// speculation routine and one trace-entry builder; the phase closures
/// supply only the real work of an attempt.
struct Phase<'a> {
    kind: TaskKind,
    round: usize,
    /// Global task-id offset inside the shared scheduler.
    task_base: usize,
    temp: &'a Path,
    cfg: &'a JobConfig,
    nodes: usize,
}

impl Phase<'_> {
    /// Task `task`'s private directory for attempt `Some(n)`
    /// (`rd{round}_t{task}_a{n}` for a map task, `rd{round}_r{task}_a{n}`
    /// for a reducer) or for its speculative backup (`None`: `…_spec`).
    fn dir(&self, task: usize, attempt: Option<usize>) -> PathBuf {
        let tag = match self.kind {
            TaskKind::Map => 't',
            TaskKind::Reduce => 'r',
        };
        let round = self.round;
        self.temp.join(match attempt {
            Some(a) => format!("rd{round}_{tag}{task}_a{a}"),
            None => format!("rd{round}_{tag}{task}_spec"),
        })
    }

    /// One task's retry ladder. Every attempt runs in its own directory —
    /// a retry never reuses (or trips over) a dead attempt's files, even
    /// when other tasks run concurrently in the same job temp — and a
    /// failed attempt's directory is removed before the retry. A task that
    /// exhausts its attempts or hits an I/O error sets `cancel`: in-flight
    /// tasks notice it and bail with `Cancelled`, and queued tasks never
    /// start real work, so the pool drains promptly instead of grinding
    /// through a doomed job.
    fn ladder<T>(
        &self,
        task: usize,
        cancel: &AtomicBool,
        run: impl Fn(usize, &Path) -> Attempt<T>,
    ) -> TaskOutcome<T> {
        if cancel.load(Ordering::Relaxed) {
            return TaskOutcome::Cancelled;
        }
        let mut attempts: Vec<VNanos> = Vec::new();
        loop {
            let dir = self.dir(task, Some(attempts.len()));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                cancel.store(true, Ordering::Relaxed);
                return TaskOutcome::Failed(e);
            }
            match run(attempts.len(), &dir) {
                Ok((out, dur)) => {
                    attempts.push(dur);
                    return TaskOutcome::Done { attempts, out };
                }
                Err(TaskError::Injected { virtual_elapsed }) => {
                    attempts.push(virtual_elapsed);
                    let _ = std::fs::remove_dir_all(&dir);
                    if attempts.len() >= self.cfg.max_attempts {
                        cancel.store(true, Ordering::Relaxed);
                        return TaskOutcome::Exhausted {
                            attempts: attempts.len(),
                        };
                    }
                }
                Err(TaskError::Io(e)) => {
                    cancel.store(true, Ordering::Relaxed);
                    return TaskOutcome::Failed(e);
                }
                Err(TaskError::Cancelled) => return TaskOutcome::Cancelled,
            }
        }
    }

    /// Collect the phase's outcomes in task-id order, handing each
    /// completed task's result to `on_done`, and return every task's
    /// attempt durations. The first failure in task-id order is the error
    /// reported — the one a sequential run would have hit first.
    fn collect<T>(
        &self,
        outcomes: Vec<TaskOutcome<T>>,
        mut on_done: impl FnMut(usize, T),
    ) -> io::Result<Vec<Vec<VNanos>>> {
        let tasks = outcomes.len();
        let mut durations = Vec::with_capacity(tasks);
        let mut failure: Option<io::Error> = None;
        for (t, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                TaskOutcome::Done { attempts, out } => {
                    on_done(t, out);
                    durations.push(attempts);
                }
                TaskOutcome::Exhausted { attempts } => {
                    failure.get_or_insert_with(|| {
                        io::Error::other(format!(
                            "{} task {t} failed {attempts} attempts",
                            self.kind.label()
                        ))
                    });
                }
                TaskOutcome::Failed(e) => {
                    failure.get_or_insert(e);
                }
                TaskOutcome::Cancelled => {}
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        // Hard assert: a violation would silently shift task indices in the
        // scheduling loops, attributing results to the wrong tasks and
        // dropping outputs instead of failing loudly.
        assert_eq!(durations.len(), tasks, "task cancelled without an error");
        Ok(durations)
    }

    /// Speculative execution for the phase; returns `(backups launched,
    /// backups won)`.
    ///
    /// A task whose scheduled span exceeds the policy threshold of the
    /// median span gets a backup on the fastest other node, launched (in
    /// virtual time) the moment the lag becomes detectable. `run(task,
    /// node, spec_dir)` re-executes the task for real — its output depends
    /// only on its input, so either copy is valid — and whichever attempt
    /// finishes first in virtual time wins. A winner becomes the task of
    /// record (`on_win` installs its result) and the primary's final
    /// attempt directory is reclaimed. A backup killed by an injected fault
    /// occupies its slot for the time it burned; one that fails outright
    /// never unseats the primary. A winning map backup keeps its spec dir
    /// (its output file lives there); every other spec dir is removed,
    /// since reduce output lives in memory. Simplification: a loser's slot
    /// reservation is not retroactively shrunk (no cascading reschedule of
    /// already-placed tasks) — speculation here is a tail-latency patch,
    /// not a full re-plan.
    fn speculate<T>(
        &self,
        vsched: &mut Scheduler,
        sched: &mut PhaseSchedule,
        run: impl Fn(usize, usize, &Path) -> Attempt<T>,
        mut on_win: impl FnMut(usize, T),
    ) -> (u64, u64) {
        let Some(spec) = self.cfg.speculation.as_ref().filter(|_| self.nodes > 1) else {
            return (0, 0);
        };
        let plan = &self.cfg.fault_plan;
        let threshold = spec.threshold();
        let med = median(sched.spans.iter().map(|s| s.end - s.start).collect());
        let (mut launched, mut wins) = (0, 0);
        for t in 0..sched.spans.len() {
            let TaskSpan {
                node: home,
                start: p_start,
                end: p_end,
            } = sched.spans[t];
            let dur = p_end - p_start;
            if med == 0 || (dur as u128) * 100 <= (med as u128) * (threshold as u128) {
                continue;
            }
            let detect = p_start + med.saturating_mul(threshold) / 100;
            if detect >= p_end {
                continue;
            }
            let Some(node) = plan.fastest_other_node(self.nodes, home) else {
                continue;
            };
            let spec_dir = self.dir(t, None);
            if std::fs::create_dir_all(&spec_dir).is_err() {
                continue;
            }
            launched += 1;
            let final_attempt = sched.durations[t].len().saturating_sub(1);
            let key = |attempt, backup| AttemptKey {
                kind: self.kind,
                task: self.task_base + t,
                attempt,
                backup,
            };
            let (origin, bkey) = (key(final_attempt, false), key(0, true));
            let (elapsed, done) = match run(t, node, &spec_dir) {
                Ok((out, dur)) => (dur, Some(out)),
                Err(TaskError::Injected { virtual_elapsed }) => (virtual_elapsed, None),
                Err(_) => {
                    let _ = std::fs::remove_dir_all(&spec_dir);
                    continue;
                }
            };
            let (slot, free) = vsched.probe_backup(self.kind, node);
            let start = free.max(detect);
            let end = start + plan.scale(node, elapsed);
            let capture = |end, flat| Capture {
                task: t,
                attempt: 0,
                backup: true,
                node,
                slot,
                start,
                end,
                flat,
            };
            match done {
                Some(out) if end < p_end => {
                    wins += 1;
                    vsched.commit_backup(bkey, origin, node, slot, start, end);
                    sched.spans[t] = TaskSpan { node, start, end };
                    on_win(t, out);
                    let _ = std::fs::remove_dir_all(self.dir(t, Some(final_attempt)));
                    if self.cfg.trace {
                        if let Some(primary) = sched.attempts[t].last_mut() {
                            primary.flat = Some(AttemptKind::Lost);
                        }
                        sched.backups.push(capture(end, None));
                    }
                    // A winning map backup's output file lives in its spec
                    // dir; a reducer's output lives in memory.
                    if self.kind == TaskKind::Map {
                        continue;
                    }
                }
                done => {
                    // The primary won — the backup is cancelled the moment
                    // the primary completes, and its slot frees then — or
                    // the backup died after `elapsed`.
                    let (end, kind) = match done {
                        Some(_) => (p_end.max(start), AttemptKind::Lost),
                        None => (end, AttemptKind::Dead),
                    };
                    vsched.commit_backup(bkey, origin, node, slot, start, end);
                    drop(done);
                    if self.cfg.trace && end > start {
                        sched.backups.push(capture(end, Some(kind)));
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&spec_dir);
        }
        (launched, wins)
    }

    /// Append one trace entry per capture, in capture order. The attempt
    /// of record takes its task profile's recorded lanes (moving the
    /// payload out, so the returned profile stays lean), shifted to its
    /// scheduled start and stretched by its node's straggler factor; a
    /// record with no lanes renders as a flat failed primary or lost
    /// backup.
    fn push_entries<'c>(
        &self,
        captures: impl IntoIterator<Item = &'c Capture>,
        profiles: &mut [TaskProfile],
        entries: &mut Vec<TraceEntry>,
    ) {
        for c in captures {
            let factor = self.cfg.fault_plan.node_factor(c.node);
            let detail = match c.flat {
                Some(kind) => EntryDetail::Flat(kind),
                None => match profiles[c.task].trace.take() {
                    Some(tr) => EntryDetail::Lanes(tr.into_absolute(c.start, factor)),
                    None if c.backup => EntryDetail::Flat(AttemptKind::Lost),
                    None => EntryDetail::Flat(AttemptKind::Failed),
                },
            };
            entries.push(TraceEntry {
                kind: self.kind,
                job: 0,
                round: self.round,
                task: c.task,
                attempt: c.attempt,
                backup: c.backup,
                node: c.node,
                slot: c.slot,
                factor,
                start: c.start,
                end: c.end,
                detail,
            });
        }
    }
}

/// The frequent-key registry's designated-publisher assignment: sorted
/// `(node, publisher task)` pairs, plus every map task's home node.
pub(crate) type RegistryAssignment = (Vec<(usize, usize)>, Vec<usize>);

/// Median of a set of virtual durations (0 for the empty set; upper
/// median for even counts).
fn median(mut v: Vec<VNanos>) -> VNanos {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// The slice of a [`TraceEntry`] that cross-entry edge assembly needs.
///
/// A streamed DAG export spools each entry's span events to disk as its
/// round retires and keeps only this metadata resident, so whole-DAG
/// lane vectors never accumulate in memory. Batch exports derive the same
/// metas on the fly; both routes feed [`assemble_trace_edges`], which is
/// what guarantees the two exports emit identical edge lists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryMeta {
    kind: TaskKind,
    round: usize,
    task: usize,
    attempt: usize,
    backup: bool,
    /// Entry end time (feeds the whole-trace wall clock).
    pub(crate) end: VNanos,
    /// True when the entry carries detailed lanes (the attempt of record).
    pub(crate) is_record: bool,
}

impl EntryMeta {
    /// Capture the edge-relevant metadata of one entry.
    pub(crate) fn of(e: &TraceEntry) -> EntryMeta {
        EntryMeta {
            kind: e.kind,
            round: e.round,
            task: e.task,
            attempt: e.attempt,
            backup: e.backup,
            end: e.end,
            is_record: matches!(e.detail, EntryDetail::Lanes(_)),
        }
    }

    /// Entry fields used by the DAG hand-off edge builder.
    pub(crate) fn handoff_key(&self) -> (TaskKind, usize, usize, usize, bool) {
        (self.kind, self.round, self.task, self.attempt, self.backup)
    }
}

/// Ground-truth happens-before edges for a job trace, assembled from
/// per-entry metadata plus the intra-entry edges already extracted by
/// [`intra_entry_edges`].
///
/// Scheduling-level edges come off the unified event loop's attempt log
/// (slot chains in record order; retry and backup hand-offs); intra-task
/// edges come from the producer-side structure of the entries (spill
/// segments feeding the map-side merge; each flow group's arrival
/// preceding the reduce-lane merge; map outputs published before the
/// reduce attempts that fetch them). `registries[r]` is round `r`'s
/// frequent-key registry assignment — present when an emit filter was
/// installed: sorted `(node, publisher task)` pairs, plus every map task's
/// home node. `map_base[r]` / `reduce_base[r]` are the global task-id
/// offsets the scheduler used for round `r`, so entries (which carry
/// round-local task ids) can be matched back to the shared attempt log of
/// a multi-round DAG. Edge order is fixed (slot chains, scheduler edges,
/// map-output barriers, spill hand-ins, shuffle barriers, registry), so
/// batch and streamed exports stay byte-identical.
pub(crate) fn assemble_trace_edges(
    metas: &[EntryMeta],
    sched: &Scheduler,
    registries: &[Option<RegistryAssignment>],
    map_base: &[usize],
    reduce_base: &[usize],
    spill: Vec<TraceEdge>,
    barrier: Vec<TraceEdge>,
) -> Vec<TraceEdge> {
    let global_key = |e: &EntryMeta| {
        let base = match e.kind {
            TaskKind::Map => map_base.get(e.round).copied().unwrap_or(0),
            TaskKind::Reduce => reduce_base.get(e.round).copied().unwrap_or(0),
        };
        AttemptKey {
            kind: e.kind,
            task: base + e.task,
            attempt: e.attempt,
            backup: e.backup,
        }
    };
    let mut index: BTreeMap<AttemptKey, usize> = BTreeMap::new();
    for (i, e) in metas.iter().enumerate() {
        index.insert(global_key(e), i);
    }
    let mut edges = Vec::new();
    // Slot chains: consecutive *traced* occupants of each (phase, node,
    // slot), walked in the scheduler's record order so an attempt that
    // left no entry (e.g. a zero-length cancelled backup) links its
    // neighbours instead of breaking the chain.
    let mut chain_last: BTreeMap<(TaskKind, usize, usize), usize> = BTreeMap::new();
    for rec in sched.attempts() {
        let Some(&ei) = index.get(&rec.key) else {
            continue;
        };
        let slot_key = (rec.key.kind, rec.node, rec.slot);
        if let Some(&prev) = chain_last.get(&slot_key) {
            edges.push(TraceEdge {
                kind: EdgeKind::Slot,
                src: EdgeEnd::entry(prev),
                dst: EdgeEnd::entry(ei),
            });
        }
        chain_last.insert(slot_key, ei);
    }
    // Retry chains and speculative hand-offs, straight off the graph.
    for se in sched.sched_edges() {
        if se.kind == EdgeKind::Slot {
            continue; // emitted above, robust to untraced attempts
        }
        let (Some(&si), Some(&di)) = (index.get(&se.src), index.get(&se.dst)) else {
            continue;
        };
        edges.push(TraceEdge {
            kind: se.kind,
            src: EdgeEnd::entry(si),
            dst: EdgeEnd::entry(di),
        });
    }
    // Attempts of record: the entries carrying detailed lanes.
    let mut map_records: Vec<(usize, usize, usize)> = Vec::new(); // (round, task, entry)
    let mut reduce_records: Vec<(usize, usize)> = Vec::new(); // (round, entry)
    for (i, e) in metas.iter().enumerate() {
        if !e.is_record {
            continue;
        }
        match e.kind {
            TaskKind::Map => map_records.push((e.round, e.task, i)),
            TaskKind::Reduce => reduce_records.push((e.round, i)),
        }
    }
    // Every map output is complete before any reduce attempt fetches it
    // (the barrier is per map task: its of-record completion enables each
    // reducer's whole fetch of that output). Shuffles stay within a round.
    for &(mr, _, mi) in &map_records {
        for &(rr, ri) in &reduce_records {
            if mr != rr {
                continue;
            }
            edges.push(TraceEdge {
                kind: EdgeKind::MapOut,
                src: EdgeEnd::entry(mi),
                dst: EdgeEnd::entry(ri),
            });
        }
    }
    // Spill hand-ins (per map record, entry order), then shuffle barriers
    // (per reduce record, entry order) — extracted per entry by
    // `intra_entry_edges` at assembly time (batch) or entry-retirement
    // time (streamed); concatenation order matches the historical loops.
    edges.extend(spill);
    edges.extend(barrier);
    // Frequent-key registry hand-offs: the node's designated publisher
    // (its lowest map task id) froze the shared key set; every same-node
    // map task adopted it. A real-time protocol — the checker validates
    // these as protocol edges, outside the virtual-time clocks.
    for (round, reg) in registries.iter().enumerate() {
        let Some((groups, homes)) = reg else {
            continue;
        };
        let record_of: BTreeMap<usize, usize> = map_records
            .iter()
            .filter(|&&(r, _, _)| r == round)
            .map(|&(_, t, i)| (t, i))
            .collect();
        for &(node, publisher) in groups {
            let Some(&pi) = record_of.get(&publisher) else {
                continue;
            };
            for (t, &home) in homes.iter().enumerate() {
                if home != node || t == publisher {
                    continue;
                }
                if let Some(&wi) = record_of.get(&t) {
                    edges.push(TraceEdge {
                        kind: EdgeKind::Registry,
                        src: EdgeEnd::entry(pi),
                        dst: EdgeEnd::entry(wi),
                    });
                }
            }
        }
    }
    edges
}

/// Intra-task edges derivable from one entry alone: spill hand-ins
/// (support-lane spill segments feeding the map lane's end-of-task merge)
/// and shuffle barriers (each flow group's last arrival preceding the
/// reduce lane's first post-shuffle op). `i` is the entry's index in the
/// trace, baked into the returned [`EdgeEnd`]s. Non-record entries (flat
/// detail) yield nothing. Returned as `(spill, barrier)` so the assembler
/// can keep the two edge families in their historical positions.
pub(crate) fn intra_entry_edges(i: usize, e: &TraceEntry) -> (Vec<TraceEdge>, Vec<TraceEdge>) {
    let EntryDetail::Lanes(lanes) = &e.detail else {
        return (Vec::new(), Vec::new());
    };
    let mut spill = Vec::new();
    let mut barrier = Vec::new();
    match e.kind {
        TaskKind::Map => {
            // Spill hand-ins: each support-lane spill segment is written
            // before the map lane's end-of-task merge reads it. A task that
            // adopted its lone spill as its output may have no merge span;
            // that spill is then ordered before every fetch by the
            // whole-entry `MapOut` edge, like the rest of the output.
            let map_li = lanes.iter().position(|l| l.role == LaneRole::Map);
            let support_li = lanes.iter().position(|l| l.role == LaneRole::Support);
            if let (Some(mli), Some(sli)) = (map_li, support_li) {
                if let Some(merge_si) = lanes[mli]
                    .spans
                    .iter()
                    .position(|s| s.kind == SpanKind::Op(Op::Merge))
                {
                    for (si, s) in lanes[sli].spans.iter().enumerate() {
                        if s.kind == SpanKind::Op(Op::SpillWrite) {
                            spill.push(TraceEdge {
                                kind: EdgeKind::Spill,
                                src: EdgeEnd::span(i, sli, si),
                                dst: EdgeEnd::span(i, mli, merge_si),
                            });
                        }
                    }
                }
            }
        }
        TaskKind::Reduce => {
            // Shuffle barriers: a flow group's last span (the run fully
            // arrived) precedes the reduce lane's first post-shuffle op
            // (the merge that consumes it).
            let first_op = lanes
                .iter()
                .position(|l| l.role == LaneRole::Reduce)
                .and_then(|li| {
                    lanes[li]
                        .spans
                        .iter()
                        .position(|s| matches!(s.kind, SpanKind::Op(_)))
                        .map(|si| (li, si))
                });
            if let Some((rli, rsi)) = first_op {
                for (li, lane) in lanes.iter().enumerate() {
                    if !matches!(lane.role, LaneRole::Fetcher(_)) {
                        continue;
                    }
                    let mut groups: BTreeMap<u32, usize> = BTreeMap::new();
                    for (si, s) in lane.spans.iter().enumerate() {
                        if let Some(src) = s.flow {
                            groups.insert(src, si); // ascending → keeps the last
                        }
                    }
                    for (_, last_si) in groups {
                        barrier.push(TraceEdge {
                            kind: EdgeKind::Barrier,
                            src: EdgeEnd::span(i, li, last_si),
                            dst: EdgeEnd::span(i, rli, rsi),
                        });
                    }
                }
            }
        }
    }
    (spill, barrier)
}

/// Fresh unified event loop sized to the cluster, with `cfg`'s straggler
/// factors. A DAG job builds one scheduler and threads it through every
/// round, so cross-round virtual time is continuous.
pub(crate) fn new_scheduler(cluster: &ClusterConfig, cfg: &JobConfig) -> Scheduler {
    Scheduler::new(
        ClusterShape {
            nodes: cluster.nodes,
            map_slots: cluster.map_slots_per_node.max(1),
            reduce_slots: cluster.reduce_slots_per_node.max(1),
            fetchers: cluster.shuffle_fetchers.clamp(1, MAX_FETCHERS),
        },
        (0..cluster.nodes)
            .map(|n| cfg.fault_plan.node_factor(n))
            .collect(),
    )
}

/// Run `job` over the named DFS inputs on the given cluster.
///
/// `inputs` pairs a DFS file name with its logical source tag (tags matter
/// only for multi-input jobs such as repartition joins).
///
/// A one-stage [`DagExecutor`] run: split planning, the round itself, and
/// trace assembly (batch or streamed) are the executor's, not a second
/// copy here.
pub fn run_job(
    cluster: &ClusterConfig,
    cfg: &JobConfig,
    job: Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
) -> io::Result<JobRun> {
    let input = StageInput::Dfs(inputs.iter().map(|&(n, s)| (n.to_string(), s)).collect());
    let mut ex = DagExecutor::new(cluster)?;
    ex.run_stage(job, cfg, &input, dfs)?;
    let DagRun {
        outputs,
        mut profile,
        trace,
    } = ex.finish()?;
    Ok(JobRun {
        outputs,
        profile: profile.rounds.pop().expect("one stage ran: one round"),
        trace,
    })
}

/// Where one round sits inside a (possibly multi-round) job.
pub(crate) struct RoundCtx<'a> {
    /// Round index (0 for single-round jobs).
    pub round: usize,
    /// Global map task-id offset inside the shared scheduler.
    pub map_task_base: usize,
    /// Global reduce task-id offset inside the shared scheduler.
    pub reduce_task_base: usize,
    /// The job-wide unified event loop, shared across rounds.
    pub vsched: &'a mut Scheduler,
    /// The job-wide temp directory (round-qualified names inside).
    pub temp: &'a Path,
}

/// One round's results: real outputs, its virtual-time profile, and (when
/// tracing) its round-stamped trace entries plus registry assignment.
pub(crate) struct RoundRun {
    /// Per-partition output pairs.
    pub outputs: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// The round's profile (spans, op times, shuffle stats, speculation).
    pub profile: JobProfile,
    /// Round-stamped trace entries (empty when tracing is off).
    pub entries: Vec<TraceEntry>,
    /// Frequent-key registry assignment, when an emit filter ran.
    pub registry: Option<RegistryAssignment>,
}

/// Execute one map→shuffle→reduce round on the shared event loop.
///
/// Round 0 runs with zero bases on a fresh scheduler; later rounds pass
/// global task-id bases (so attempt keys stay unique in the shared event
/// graph) and a round stamp for the trace.
pub(crate) fn run_round(
    cluster: &ClusterConfig,
    cfg: &JobConfig,
    job: Arc<dyn Job>,
    splits: &[InputSplit],
    ctx: RoundCtx<'_>,
) -> io::Result<RoundRun> {
    assert!(cfg.num_reducers > 0, "need at least one reducer");
    assert!(
        (0.0..1.0).contains(&cfg.filter_budget_fraction),
        "filter budget fraction must be in [0,1)"
    );
    let RoundCtx {
        round,
        map_task_base,
        reduce_task_base,
        vsched,
        temp,
    } = ctx;
    let workers = cluster.worker_threads.max(1);
    let phase = |kind, task_base| Phase {
        kind,
        round,
        task_base,
        temp,
        cfg,
        nodes: cluster.nodes,
    };
    let map_phase = phase(TaskKind::Map, map_task_base);
    let reduce_phase = phase(TaskKind::Reduce, reduce_task_base);

    // ---- execute map tasks (real), collecting per-attempt durations -----------
    let frame_bytes = cluster.effective_frame_bytes();
    let input_chunk_bytes = cluster.effective_input_chunk_bytes();
    let spill_buffer = cluster.effective_spill_buffer_bytes();
    let filter_budget = if cfg.emit_filter.is_some() {
        (spill_buffer as f64 * cfg.filter_budget_fraction) as usize
    } else {
        0
    };
    let pipeline_capacity = (spill_buffer - filter_budget).max(1024);

    // Set by a map task that exhausts its retries or hits an I/O error
    // (see `Phase::ladder`).
    let cancel = Arc::new(AtomicBool::new(false));
    // Lowest task id per node: the designated publisher for the node's
    // frequent-key registry slot. Deterministic (derived from the split
    // plan), unlike "whichever task froze first" under a worker pool.
    // textmr-lint: allow(unordered-iteration, reason = "keyed by node for lookups; never iterated")
    let mut node_first_task: HashMap<usize, usize> = HashMap::new();
    for (t, split) in splits.iter().enumerate() {
        node_first_task
            .entry(split.home_node % cluster.nodes)
            .or_insert(t);
    }
    // One real map attempt of task `t` on `node`, spilling into `dir`:
    // attempt `Some(n)` of the retry ladder, or the speculative backup
    // (`None`), which runs with only its own backup fault and no cancel
    // token.
    let run_map = |t: usize, node: usize, attempt: Option<usize>, dir: &Path| -> Attempt<MapDone> {
        let split = &splits[t];
        let home = split.home_node % cluster.nodes;
        // The filter context keeps the *home* node's identity so a
        // backup's output is byte-identical to the primary's (the
        // frequent-key registry is first-decision-wins, so a re-run
        // publisher is harmless); only the output's placement moves.
        let ctx = TaskCtx {
            node: home,
            task: t,
        };
        let (fail_after_records, fail_spill, cancel) = match attempt {
            Some(a) => (
                cfg.fault_plan.map_fault(t, a),
                cfg.fault_plan.spill_fault(t, a),
                Some(Arc::clone(&cancel)),
            ),
            None => (cfg.fault_plan.map_backup_fault(t), None, None),
        };
        // An inactive filter (e.g. frequency-buffering on a job with no
        // combiner) is dropped and its budget returned to the spill buffer
        // — total memory is constant either way.
        let filter = cfg
            .emit_filter
            .as_ref()
            .map(|f| {
                f(FilterCtx {
                    task: ctx,
                    job: Arc::clone(&job),
                    budget_bytes: filter_budget,
                    estimated_records: split.count_records(),
                    node_first_task: node_first_task.get(&home).copied().unwrap_or(t),
                    cancel: cancel.clone(),
                })
            })
            .filter(|f| f.is_active());
        let task_cfg = MapTaskConfig {
            task_id: t,
            node,
            num_partitions: cfg.num_reducers,
            buffer_capacity: if filter.is_some() {
                pipeline_capacity
            } else {
                spill_buffer
            },
            controller: (cfg.spill_controller)(ctx),
            filter,
            merge_fan_in: cluster.merge_fan_in,
            spill_dir: dir.to_path_buf(),
            fail_after_records,
            fail_spill,
            cancel,
            trace: cfg.trace,
            frame_bytes,
            input_chunk_bytes,
        };
        let (out, prof) = run_map_task(&job, split, task_cfg)?;
        let dur = prof.virtual_duration;
        Ok((
            MapDone {
                out,
                prof,
                cache_key: None,
            },
            dur,
        ))
    };
    let run_one_map_task = |t: usize| -> TaskOutcome<MapDone> {
        if cancel.load(Ordering::Relaxed) {
            return TaskOutcome::Cancelled;
        }
        let split = &splits[t];
        let node = split.home_node % cluster.nodes;
        // Map-output cache, checked in front of the ladder: a hit
        // rematerializes the cached partitions into a fresh attempt dir and
        // charges the flat lookup cost — the map (and any fault fated for
        // it) never executes. Keys are unique per (job prefix, round, task,
        // split digest), so each key sees at most one `get` per wave and
        // per-key cache state stays deterministic under the worker pool.
        let mut cache_key = None;
        if let Some(mc) = &cfg.map_cache {
            let key = match crate::cache::map_cache_key(&mc.key_prefix, round, t, split) {
                Ok(key) => key,
                Err(e) => {
                    cancel.store(true, Ordering::Relaxed);
                    return TaskOutcome::Failed(e);
                }
            };
            if let Some(hit) = mc.cache.get(&key) {
                let attempt_dir = map_phase.dir(t, Some(0));
                let done = std::fs::create_dir_all(&attempt_dir).and_then(|()| {
                    hit.materialize(
                        &attempt_dir.join("cached.spill"),
                        node,
                        mc.lookup_cost_ns,
                        cfg.trace,
                    )
                });
                return match done {
                    Ok((out, prof)) => TaskOutcome::Done {
                        attempts: vec![prof.virtual_duration],
                        out: MapDone {
                            out,
                            prof,
                            cache_key: None,
                        },
                    },
                    Err(e) => {
                        cancel.store(true, Ordering::Relaxed);
                        TaskOutcome::Failed(e)
                    }
                };
            }
            cache_key = Some(key);
        }
        match map_phase.ladder(t, &cancel, |attempt, dir| {
            run_map(t, node, Some(attempt), dir)
        }) {
            TaskOutcome::Done { attempts, mut out } => {
                out.cache_key = cache_key;
                TaskOutcome::Done { attempts, out }
            }
            other => other,
        }
    };
    let map_results = run_indexed(workers, splits.len(), run_one_map_task);

    let mut map_outputs: Vec<MapOutput> = Vec::with_capacity(splits.len());
    let mut map_profiles = Vec::with_capacity(splits.len());
    let map_durations = map_phase.collect(map_results, |_, done| {
        // Offer misses back to the cache here — sequentially, in task-id
        // order — so admission and eviction never depend on worker-pool
        // timing.
        if let (Some(mc), Some(key)) = (&cfg.map_cache, &done.cache_key) {
            if let Ok(c) = crate::cache::CachedMapOutput::capture(&done.out, &done.prof) {
                mc.cache.put(key, Arc::new(c));
            }
        }
        map_outputs.push(done.out);
        map_profiles.push(done.prof);
    })?;

    // ---- virtual-schedule the map phase ---------------------------------------
    // All virtual placement goes through the unified event loop
    // ([`crate::event::Scheduler`]): one integer priority queue drives
    // slot reservations, speculation probes, and (with parallel fetchers)
    // the shared-ingress reduce simulation, while the event graph records
    // every attempt's enabling predecessors for the race checker. The
    // scheduler is shared across a DAG job's rounds, so placements are
    // keyed by globally unique task ids (`map_task_base + t`).
    let mut map_sched = PhaseSchedule::new(map_durations);
    for (t, split) in splits.iter().enumerate() {
        // Earliest-free slot on the home node; a retry can only start
        // after its previous attempt failed. A straggler node stretches
        // the attempt's virtual duration by its factor.
        let node = split.home_node % cluster.nodes;
        let placed = vsched.place_attempts(
            TaskKind::Map,
            map_task_base + t,
            node,
            &map_sched.durations[t],
            0,
        );
        if cfg.trace {
            let placed = placed.iter().map(|p| (p.slot, p.start, p.end));
            map_sched.attempts.push(Capture::primaries(t, node, placed));
        }
        let (start, end) = placed.last().map(|p| (p.start, p.end)).unwrap_or((0, 0));
        map_sched.spans.push(TaskSpan { node, start, end });
    }

    // ---- speculative execution: map phase -------------------------------------
    let mut spec_stats = SpeculationStats::default();
    (spec_stats.map_backups, spec_stats.map_wins) = map_phase.speculate(
        vsched,
        &mut map_sched,
        |t, node, dir| run_map(t, node, None, dir),
        |t, done| {
            // Dropping the loser's MapOutput deletes its spill file; the
            // speculation routine then removes its (now empty) directory.
            map_outputs[t] = done.out;
            map_profiles[t] = done.prof;
        },
    );
    let map_phase_end = map_sched.spans.iter().map(|s| s.end).max().unwrap_or(0);
    // The shuffle barrier enters the event graph (enabled by every map
    // attempt recorded so far), and every reduce slot frees at it.
    vsched.begin_reduce_phase(map_phase_end);

    // ---- execute reduce tasks (real), with per-attempt retries -----------------
    // Reduce tasks are independent (each reads its own partition out of the
    // map-output files, which are opened per read), so they run on the same
    // pool, through the same retry ladder; every attempt's directory is its
    // scratch space for multi-pass merges.
    let rcancel = Arc::new(AtomicBool::new(false));
    let shuffle_faults: Option<Arc<FaultPlan>> = if cfg.fault_plan.is_empty() {
        None
    } else {
        Some(Arc::new(cfg.fault_plan.clone()))
    };
    // One real reduce attempt of partition `r` on `node`, scratching in
    // `dir`: attempt `Some(n)` of the retry ladder, or the speculative
    // backup (`None`), which runs with no faults, one fetch attempt and no
    // cancel token.
    let run_reduce =
        |r: usize, node: usize, attempt: Option<usize>, dir: &Path| -> Attempt<ReduceResult> {
            let (fail_after_groups, faults, max_fetch_attempts, cancel) = match attempt {
                Some(a) => (
                    cfg.fault_plan.reduce_fault(r, a),
                    shuffle_faults.clone(),
                    cfg.max_attempts.max(1),
                    Some(Arc::clone(&rcancel)),
                ),
                None => (None, None, 1, None),
            };
            let res = run_reduce_task(
                &job,
                &map_outputs,
                &cluster.network,
                &ReduceTaskConfig {
                    partition: r,
                    node,
                    merge_fan_in: cluster.merge_fan_in,
                    scratch_dir: dir.to_path_buf(),
                    fetchers: cluster.shuffle_fetchers.max(1),
                    fail_after_groups,
                    faults,
                    max_fetch_attempts,
                    cancel,
                    trace: cfg.trace,
                    frame_bytes: frame_bytes.unwrap_or(DEFAULT_FRAME_BYTES),
                },
            )?;
            let dur = res.profile.virtual_duration;
            Ok((res, dur))
        };
    let reduce_outcomes = run_indexed(workers, cfg.num_reducers, |r| {
        reduce_phase.ladder(r, &rcancel, |attempt, dir| {
            run_reduce(r, r % cluster.nodes, Some(attempt), dir)
        })
    });
    let mut results: Vec<ReduceResult> = Vec::with_capacity(cfg.num_reducers);
    let reduce_durations = reduce_phase.collect(reduce_outcomes, |_, res| results.push(res))?;

    // ---- virtual-schedule the reduce phase, in partition order -----------------
    // With one fetcher (the legacy configuration behind every shipped
    // figure) the reservation recurrence is bit-identical to the original
    // driver. With parallel fetchers the whole phase instead replays
    // through the dynamic event loop, where each node's ingress NIC is a
    // shared resource: concurrent flows into a node fair-share its
    // bandwidth regardless of which reduce task owns them, so co-located
    // reducers now contend instead of being priced in isolation.
    let mut reduce_sched = PhaseSchedule::new(reduce_durations);
    if cluster.shuffle_fetchers.clamp(1, MAX_FETCHERS) <= 1 {
        for (r, attempts) in reduce_sched.durations.iter().enumerate() {
            let node = r % cluster.nodes;
            let placed =
                vsched.place_attempts(TaskKind::Reduce, reduce_task_base + r, node, attempts, 0);
            if cfg.trace {
                let placed = placed.iter().map(|p| (p.slot, p.start, p.end));
                reduce_sched
                    .attempts
                    .push(Capture::primaries(r, node, placed));
            }
            let (start, end) = placed
                .last()
                .map(|p| (p.start, p.end))
                .unwrap_or((map_phase_end, map_phase_end));
            reduce_sched.spans.push(TaskSpan { node, start, end });
        }
    } else {
        // Failed attempts block their slot for the isolated virtual time
        // they burned (their partial shuffles are not replayed — a
        // documented approximation); the of-record attempt replays its
        // recorded flows through the shared-ingress NIC model.
        let tasks: Vec<(usize, Vec<ReduceAttempt>)> = reduce_sched
            .durations
            .iter()
            .enumerate()
            .map(|(r, durs)| {
                let mut attempts: Vec<ReduceAttempt> = durs[..durs.len().saturating_sub(1)]
                    .iter()
                    .map(|&dur| ReduceAttempt::Block { dur })
                    .collect();
                attempts.push(ReduceAttempt::Work {
                    flows: results[r].flow_inputs.iter().map(|fi| fi.flow).collect(),
                    post_ns: results[r].post_parts.iter().sum(),
                });
                (r % cluster.nodes, attempts)
            })
            .collect();
        let outcomes = vsched.run_reduce_phase(reduce_task_base, tasks);
        for (r, outs) in outcomes.iter().enumerate() {
            let node = r % cluster.nodes;
            if cfg.trace {
                let placed = outs.iter().map(|o| (o.slot, o.start, o.end));
                reduce_sched
                    .attempts
                    .push(Capture::primaries(r, node, placed));
            }
            let last = outs.last().expect("every reducer has an attempt");
            reduce_sched.spans.push(TaskSpan {
                node,
                start: last.start,
                end: last.end,
            });
            // Patch the of-record profile with the contention-priced
            // shuffle: under co-location the shared-ingress wait and
            // virtual time replace the isolated estimates computed inside
            // the task. Applied whether or not tracing is on, so
            // signatures and op-time totals stay consistent between
            // traced and untraced runs; without co-location the replay
            // reproduces the isolated schedule exactly, so this is a
            // no-op rewrite.
            let sh = last
                .shuffle
                .as_ref()
                .expect("of-record attempt replays its flows");
            let post_total: VNanos = results[r].post_parts.iter().sum();
            let res = &mut results[r];
            res.profile.ops.set_nanos(Op::ShuffleWait, sh.wait_ns);
            res.profile.virtual_duration = sh.virtual_ns + post_total;
            res.shuffle.wait_ns = sh.wait_ns;
            res.shuffle.virtual_ns = sh.virtual_ns;
            if cfg.trace {
                let flow_traces = crate::shuffle::flow_traces(&sh.flows, &res.flow_inputs);
                let [merge_c, ic_c, reduce_c, write_c] = res.post_parts;
                res.profile.trace = Some(Box::new(build_reduce_trace(
                    &flow_traces,
                    sh.wait_ns,
                    sh.virtual_ns,
                    merge_c,
                    ic_c,
                    reduce_c,
                    write_c,
                )));
            }
        }
    }

    // ---- speculative execution: reduce phase -----------------------------------
    // The backup reducer re-fetches its partition from the (final) map
    // outputs and re-reduces for real; a winning backup replaces the
    // primary's result wholesale, so output pairs stay exact. Must run
    // before `map_outputs` is dropped.
    (spec_stats.reduce_backups, spec_stats.reduce_wins) = reduce_phase.speculate(
        vsched,
        &mut reduce_sched,
        |r, node, dir| run_reduce(r, node, None, dir),
        |r, res| results[r] = res,
    );

    // ---- aggregate -------------------------------------------------------------
    let mut outputs = Vec::with_capacity(cfg.num_reducers);
    let mut reduce_profiles = Vec::with_capacity(cfg.num_reducers);
    let mut reduce_shuffles = Vec::with_capacity(cfg.num_reducers);
    let mut shuffled_bytes = 0u64;
    for res in results {
        shuffled_bytes += res.shuffle.remote_bytes;
        reduce_shuffles.push(res.shuffle);
        outputs.push(res.pairs);
        reduce_profiles.push(res.profile);
    }
    let wall = reduce_sched
        .spans
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(map_phase_end);

    // ---- assemble the round's trace entries (opt-in) ---------------------------
    // Each attempt of record contributes its task-local lanes; failed
    // attempts, speculation losers, and dead backups contribute flat
    // slot-occupancy spans. Entries keep round-local task ids plus the
    // round stamp; the caller assembles the whole job's `JobTrace`. The
    // order — map attempts, reduce attempts, map backups, reduce backups —
    // fixes the entry indices that edges refer to.
    let (entries, registry) = if cfg.trace {
        let mut entries = Vec::new();
        map_phase.push_entries(
            map_sched.attempts.iter().flatten(),
            &mut map_profiles,
            &mut entries,
        );
        reduce_phase.push_entries(
            reduce_sched.attempts.iter().flatten(),
            &mut reduce_profiles,
            &mut entries,
        );
        map_phase.push_entries(&map_sched.backups, &mut map_profiles, &mut entries);
        reduce_phase.push_entries(&reduce_sched.backups, &mut reduce_profiles, &mut entries);
        // The frequent-key registry's designated-publisher assignment,
        // kept alongside the entries so the caller can build the
        // protocol's happens-before edges for this round.
        let registry = if cfg.emit_filter.is_some() {
            let homes: Vec<usize> = splits.iter().map(|s| s.home_node % cluster.nodes).collect();
            let mut groups: Vec<(usize, usize)> = node_first_task
                .iter()
                .map(|(&node, &task)| (node, task))
                .collect();
            groups.sort_unstable();
            Some((groups, homes))
        } else {
            None
        };
        (entries, registry)
    } else {
        (Vec::new(), None)
    };

    // Map outputs (and their files) are dropped here; the job-level temp
    // guard removes the whole directory once the job (all rounds) is done.
    drop(map_outputs);

    Ok(RoundRun {
        outputs,
        profile: JobProfile {
            map_tasks: map_profiles,
            reduce_tasks: reduce_profiles,
            map_spans: map_sched.spans,
            reduce_spans: reduce_sched.spans,
            map_phase_end,
            wall,
            shuffled_bytes,
            reduce_shuffles,
            speculation: spec_stats,
        },
        entries,
        registry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_u64, encode_u64};
    use crate::job::{Emit, Record, ValueCursor, ValueSink};

    struct WordSum;
    impl Job for WordSum {
        fn name(&self) -> &str {
            "wordsum"
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

    #[test]
    fn each_job_dir_lies_directly_under_the_temp_root() {
        // The default root too: a per-process directory between the root
        // and the job's would outlive every job.
        let mut c = ClusterConfig::local();
        for root in [None, Some(std::env::temp_dir())] {
            c.temp_dir = root.clone();
            let a = c.resolve_temp_dir().unwrap();
            let b = c.resolve_temp_dir().unwrap();
            let expected_root = root.unwrap_or_else(ClusterConfig::default_temp_root);
            assert_eq!(a.parent(), Some(expected_root.as_path()));
            assert_eq!(b.parent(), Some(expected_root.as_path()));
            assert_ne!(a, b, "one directory per job");
            std::fs::remove_dir(&a).unwrap();
            std::fs::remove_dir(&b).unwrap();
        }
    }

    fn corpus(lines: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for i in 0..lines {
            buf.extend_from_slice(format!("w{} common filler\n", i % 23).as_bytes());
        }
        buf
    }

    fn counts_of(run: &JobRun) -> std::collections::HashMap<String, u64> {
        run.sorted_pairs()
            .into_iter()
            .map(|(k, v)| (String::from_utf8(k).unwrap(), decode_u64(&v).unwrap()))
            .collect()
    }

    #[test]
    fn end_to_end_word_sum() {
        let cluster = ClusterConfig::local();
        let mut dfs = SimDfs::new(cluster.nodes, 4096);
        dfs.put("corpus", corpus(500));
        let run = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("corpus", 0)],
        )
        .unwrap();
        let m = counts_of(&run);
        assert_eq!(m["common"], 500);
        assert_eq!(m["filler"], 500);
        assert_eq!(m["w0"], 500u64.div_ceil(23));
        // Multiple splits → multiple map tasks.
        assert!(run.profile.map_tasks.len() > 1);
        assert!(run.profile.wall > run.profile.map_phase_end);
    }

    #[test]
    fn results_identical_across_cluster_shapes() {
        let data = corpus(300);
        let mut runs = Vec::new();
        for cluster in [
            ClusterConfig::single_node(),
            ClusterConfig::local(),
            ClusterConfig::ec2(),
        ] {
            let mut dfs = SimDfs::new(cluster.nodes, 2048);
            dfs.put("c", data.clone());
            let run = run_job(
                &cluster,
                &JobConfig::default(),
                Arc::new(WordSum),
                &dfs,
                &[("c", 0)],
            )
            .unwrap();
            runs.push(run.sorted_pairs());
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn fault_injection_retries_and_output_is_unaffected() {
        let cluster = ClusterConfig::local();
        let mut dfs = SimDfs::new(cluster.nodes, 2048);
        dfs.put("c", corpus(200));
        let clean = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("c", 0)],
        )
        .unwrap();
        let mut cfg = JobConfig::default();
        cfg.fault_plan.insert(0, 3);
        cfg.fault_plan.insert(1, 1);
        let faulty = run_job(&cluster, &cfg, Arc::new(WordSum), &dfs, &[("c", 0)]).unwrap();
        assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
        // Within the faulty run, the retried task's slot shows both the
        // failed attempt and the retry: its span must cover at least its
        // own successful-attempt duration.
        let t0 = &faulty.profile.map_spans[0];
        assert!(t0.end - t0.start >= faulty.profile.map_tasks[0].virtual_duration);
    }

    #[test]
    fn parallel_execution_matches_sequential_bit_for_bit() {
        let data = corpus(400);
        let mut runs = Vec::new();
        for workers in [1, 4] {
            let cluster = ClusterConfig::local().with_worker_threads(workers);
            let mut dfs = SimDfs::new(cluster.nodes, 2048);
            dfs.put("c", data.clone());
            let run = run_job(
                &cluster,
                &JobConfig::default(),
                Arc::new(WordSum),
                &dfs,
                &[("c", 0)],
            )
            .unwrap();
            runs.push(run);
        }
        assert_eq!(runs[0].outputs, runs[1].outputs);
        // Profiles are collected in task-id order regardless of which worker
        // finished first: the per-task structural counters line up exactly.
        let (seq, par) = (&runs[0].profile, &runs[1].profile);
        assert_eq!(seq.map_tasks.len(), par.map_tasks.len());
        for (s, p) in seq.map_tasks.iter().zip(&par.map_tasks) {
            assert_eq!(s.input_records, p.input_records);
            assert_eq!(s.emitted_records, p.emitted_records);
            assert_eq!(s.output_bytes, p.output_bytes);
            assert_eq!(s.spills.len(), p.spills.len());
        }
        assert_eq!(seq.shuffled_bytes, par.shuffled_bytes);
    }

    #[test]
    fn parallel_retries_match_sequential_and_do_not_collide() {
        let data = corpus(300);
        let mut cfg = JobConfig::default();
        // Fail the first attempt of several tasks at once so retries and
        // healthy tasks share the pool (and the job temp dir) concurrently.
        for t in 0..6 {
            cfg.fault_plan.insert(t, 2);
        }
        let mut pairs = Vec::new();
        for workers in [1, 4] {
            let cluster = ClusterConfig::local().with_worker_threads(workers);
            let mut dfs = SimDfs::new(cluster.nodes, 2048);
            dfs.put("c", data.clone());
            let run = run_job(&cluster, &cfg, Arc::new(WordSum), &dfs, &[("c", 0)]).unwrap();
            pairs.push(run.sorted_pairs());
        }
        assert_eq!(pairs[0], pairs[1]);
    }

    #[test]
    fn fetcher_pool_matches_sequential_shuffle() {
        let data = corpus(400);
        let mut runs = Vec::new();
        for fetchers in [1, 4] {
            let cluster = ClusterConfig::local().with_shuffle_fetchers(fetchers);
            let mut dfs = SimDfs::new(cluster.nodes, 2048);
            dfs.put("c", data.clone());
            let run = run_job(
                &cluster,
                &JobConfig::default(),
                Arc::new(WordSum),
                &dfs,
                &[("c", 0)],
            )
            .unwrap();
            runs.push(run);
        }
        let (seq, par) = (&runs[0], &runs[1]);
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.profile.signature(), par.profile.signature());
        // Timing-free shuffle stats line up per reducer; the NIC model's
        // virtual time respects its bounds.
        for (s, p) in seq
            .profile
            .reduce_shuffles
            .iter()
            .zip(&par.profile.reduce_shuffles)
        {
            assert_eq!(s.fetched_bytes, p.fetched_bytes);
            assert_eq!(s.remote_bytes, p.remote_bytes);
            assert_eq!(s.size_hist, p.size_hist);
            assert_eq!(s.wait_ns, 0); // one fetcher never stalls
            assert!(p.virtual_ns <= p.sequential_ns);
            assert!(p.virtual_ns >= p.max_flow_ns);
        }
        let agg = par.profile.shuffle_stats();
        assert_eq!(agg.fetched_bytes, seq.profile.shuffle_stats().fetched_bytes);
        assert!(agg.fetchers >= 4 || agg.fetches == 0);
    }

    #[test]
    fn parallel_abort_on_exhausted_retries_terminates_promptly() {
        let cluster = ClusterConfig::local().with_worker_threads(4);
        let mut dfs = SimDfs::new(cluster.nodes, 1024);
        dfs.put("c", corpus(400));
        let mut cfg = JobConfig {
            max_attempts: 1,
            ..JobConfig::default()
        };
        cfg.fault_plan.insert(2, 1);
        let err = run_job(&cluster, &cfg, Arc::new(WordSum), &dfs, &[("c", 0)]).unwrap_err();
        assert!(
            err.to_string().contains("map task 2 failed 1 attempts"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn missing_input_errors() {
        let cluster = ClusterConfig::single_node();
        let dfs = SimDfs::new(1, 1024);
        let err = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("nope", 0)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn the_map_budget_alone_derives_the_out_of_core_sizes() {
        let sizes = |c: &ClusterConfig| {
            (
                c.effective_frame_bytes(),
                c.effective_input_chunk_bytes(),
                c.effective_spill_buffer_bytes(),
            )
        };
        let mut base = ClusterConfig::local();
        base.spill_buffer_bytes = 1 << 20;
        // No budget: record/blob runs, the default window, the whole buffer.
        assert_eq!(sizes(&base), (None, 256 << 10, 1 << 20));
        // A 6 KiB budget hits every floor: B/16 and B/8 under 1 KiB, B/2
        // under 4 KiB.
        assert_eq!(
            sizes(&base.clone().with_map_budget(6 << 10)),
            (Some(1 << 10), 1 << 10, 4 << 10)
        );
        // 256 KiB: each size is its share of the budget.
        assert_eq!(
            sizes(&base.clone().with_map_budget(256 << 10)),
            (Some(16 << 10), 32 << 10, 128 << 10)
        );
        // Above every default: the defaults and the configured buffer.
        assert_eq!(
            sizes(&base.clone().with_map_budget(64 << 20)),
            (Some(64 << 10), 256 << 10, 1 << 20)
        );
    }

    #[test]
    fn framed_output_preserves_output_and_shrinks_shuffle() {
        let mut cluster = ClusterConfig::local();
        cluster.spill_buffer_bytes = 64 << 10;
        let mut dfs = SimDfs::new(cluster.nodes, 4096);
        dfs.put("c", corpus(400));
        let plain = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("c", 0)],
        )
        .unwrap();
        // A budget whose half holds the spill buffer: framed runs with the
        // same spill geometry.
        let cluster = cluster.with_map_budget(16 << 20);
        let packed = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("c", 0)],
        )
        .unwrap();
        assert_eq!(plain.sorted_pairs(), packed.sorted_pairs());
        assert!(
            packed.profile.shuffled_bytes < plain.profile.shuffled_bytes,
            "framed shuffle {} !< plain {}",
            packed.profile.shuffled_bytes,
            plain.profile.shuffled_bytes
        );
    }

    #[test]
    fn tracing_is_opt_in_and_consistent_with_the_profile() {
        let data = corpus(300);
        for fetchers in [1, 4] {
            let cluster = ClusterConfig::local().with_shuffle_fetchers(fetchers);
            let mut dfs = SimDfs::new(cluster.nodes, 2048);
            dfs.put("c", data.clone());
            let plain = run_job(
                &cluster,
                &JobConfig::default(),
                Arc::new(WordSum),
                &dfs,
                &[("c", 0)],
            )
            .unwrap();
            assert!(plain.trace.is_none());
            let traced = run_job(
                &cluster,
                &JobConfig::default().with_trace(),
                Arc::new(WordSum),
                &dfs,
                &[("c", 0)],
            )
            .unwrap();
            // Tracing changes nothing observable about the job itself.
            assert_eq!(plain.sorted_pairs(), traced.sorted_pairs());
            assert_eq!(plain.profile.signature(), traced.profile.signature());
            let trace = traced.trace.expect("trace requested");
            // Lanes tile their entries, slots never double-book, and the
            // op spans reproduce the profile's totals exactly.
            trace.check().unwrap();
            assert_eq!(trace.op_times(), traced.profile.total_ops());
            let json = trace.to_chrome_json();
            let summary = crate::trace::validate_chrome_trace(&json).unwrap();
            assert!(summary.complete_events > 0);
            assert!(summary.pids >= 1);
        }
    }

    #[test]
    fn streamed_trace_export_matches_batch_bytes() {
        // Same job, same faults and stragglers (flat markers, backups, and
        // multi-round tid layout all flow through the shared emitters):
        // the file `trace_stream` writes must equal `to_chrome_json()` of
        // the in-memory trace byte for byte. The node is slow enough that
        // its tasks' backups win, so both runs carry winning backup lanes.
        let cluster = ClusterConfig::local();
        let mut dfs = SimDfs::new(cluster.nodes, 2048);
        dfs.put("c", corpus(300));
        let plan = FaultPlan::new().map_fail_after(0, 3).slow_node(0, 24);
        let cfg = JobConfig::default()
            .with_fault_plan(plan)
            .with_speculation(SpeculationConfig::default())
            .with_trace();
        let batch = run_job(&cluster, &cfg, Arc::new(WordSum), &dfs, &[("c", 0)]).unwrap();
        let dir = std::env::temp_dir().join(format!("textmr-tsj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Byte parity: feed the real trace's entries (flat markers,
        // backup lanes, flow tags, edges and all) through the streaming
        // writer and diff against the batch string. Two *runs* cannot be
        // diffed — virtual durations come from measured real work — so
        // the comparison pivots on one run's entries.
        let trace = batch.trace.as_ref().unwrap();
        let parity = dir.join("parity.json");
        let mut w = crate::trace::stream::TraceStreamWriter::create(
            parity.clone(),
            trace.nodes,
            trace.map_slots,
            trace.reduce_slots,
            trace.fetchers,
        )
        .unwrap();
        for e in &trace.entries {
            w.push_entry(e).unwrap();
        }
        w.finish(trace.wall, &trace.edges).unwrap();
        assert_eq!(
            std::fs::read_to_string(&parity).unwrap(),
            trace.to_chrome_json()
        );
        // End-to-end stream mode: no in-memory JobTrace, same outputs and
        // timing-free signature, and the file imports back into a trace
        // that passes the structural checks.
        let path = dir.join("streamed.json");
        let streamed = run_job(
            &cluster,
            &cfg.clone().with_trace_stream(path.clone()),
            Arc::new(WordSum),
            &dfs,
            &[("c", 0)],
        )
        .unwrap();
        assert!(streamed.trace.is_none(), "stream mode keeps no JobTrace");
        assert_eq!(batch.sorted_pairs(), streamed.sorted_pairs());
        // Per-task signatures and total fetched bytes do not depend on
        // where a task ran: a backup re-reads the same input under the
        // same spill policy.
        let (b, s) = (batch.profile.signature(), streamed.profile.signature());
        assert_eq!(b.map_tasks, s.map_tasks);
        assert_eq!(b.reduce_tasks, s.reduce_tasks);
        assert_eq!(
            batch.profile.shuffle_stats().fetched_bytes,
            streamed.profile.shuffle_stats().fetched_bytes
        );
        // Remote shuffle bytes follow placement. The 24× node's backups
        // win in both phases, but a healthy task lagging the median by
        // noise may also get a backup whose win depends on measured time,
        // so `shuffled_bytes` is compared when both runs placed every task
        // alike — which they do almost always.
        let nodes = |r: &JobRun| -> Vec<usize> {
            let p = &r.profile;
            p.map_spans
                .iter()
                .chain(&p.reduce_spans)
                .map(|s| s.node)
                .collect()
        };
        if nodes(&batch) == nodes(&streamed) {
            assert_eq!(b.shuffled_bytes, s.shuffled_bytes);
        }
        let file = std::fs::read_to_string(&path).unwrap();
        crate::trace::validate_chrome_trace(&file).unwrap();
        JobTrace::from_chrome_json(&file).unwrap().check().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_covers_retries_stragglers_and_speculation() {
        let cluster = ClusterConfig::local();
        let mut dfs = SimDfs::new(cluster.nodes, 2048);
        dfs.put("c", corpus(300));
        let plan = FaultPlan::new().map_fail_after(0, 3).slow_node(0, 4);
        let cfg = JobConfig::default()
            .with_fault_plan(plan)
            .with_speculation(SpeculationConfig::default())
            .with_trace();
        let run = run_job(&cluster, &cfg, Arc::new(WordSum), &dfs, &[("c", 0)]).unwrap();
        let trace = run.trace.expect("trace requested");
        trace.check().unwrap();
        // Straggler scaling divides back out exactly, so op totals still
        // match even with a 4× node in the plan.
        assert_eq!(trace.op_times(), run.profile.total_ops());
        // The injected first-attempt failure leaves a flat marker.
        assert!(trace
            .entries
            .iter()
            .any(|e| matches!(e.detail, EntryDetail::Flat(AttemptKind::Failed))));
        crate::trace::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        // The ASCII renderer covers every lane without panicking.
        assert!(!trace.render_text(80).is_empty());
    }

    #[test]
    fn reduce_spans_start_after_map_phase() {
        let cluster = ClusterConfig::local();
        let mut dfs = SimDfs::new(cluster.nodes, 2048);
        dfs.put("c", corpus(100));
        let run = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("c", 0)],
        )
        .unwrap();
        for span in &run.profile.reduce_spans {
            assert!(span.start >= run.profile.map_phase_end);
        }
    }
}
