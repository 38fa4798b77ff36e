//! Round-generic DAG executor.
//!
//! A [`JobDag`] plan (see [`crate::job`]) runs as a sequence of
//! map→shuffle→reduce rounds on **one** unified event-loop scheduler, so
//! virtual time is continuous across rounds: round `k+1`'s slots free no
//! earlier than round `k`'s makespan, a `RoundBoundary` event enters the
//! event graph with every prior attempt as an enabling predecessor, and
//! the whole DAG renders as one Perfetto timeline with per-round lanes.
//!
//! Cross-round data flows as a *typed hand-off*: a producing stage's
//! reduce partition `p` is framed with the [`crate::codec`] record framing
//! into one [`InputSplit`] (see [`InputSplit::from_pairs`]) that becomes
//! map task `p` of the consuming stage, homed on the node that reduced it.
//! Keys and values never round-trip through a text codec, so a stage's map
//! sees exactly the bytes its predecessor's reduce emitted.
//!
//! This is the engine's only job driver: [`run_job`] is a one-stage run
//! of [`DagExecutor`]. Round 0 places task ids from zero on a fresh
//! scheduler and never emits a round boundary; `tests/dag_determinism.rs`
//! replays its placement recurrence against the shipped figures.
//!
//! [`run_job`]: crate::cluster::run_job

use crate::cluster::{
    assemble_trace_edges, intra_entry_edges, new_scheduler, run_round, ClusterConfig, EntryMeta,
    JobConfig, RegistryAssignment, RoundCtx, RoundRun,
};
use crate::event::Scheduler;
use crate::io::dfs::SimDfs;
use crate::io::input::InputSplit;
use crate::job::{Job, JobDag, StageInput};
use crate::metrics::{DagProfile, JobProfile};
use crate::trace::stream::TraceStreamWriter;
use crate::trace::{EdgeEnd, EdgeKind, JobTrace, TaskKind, TraceEdge, TraceEntry};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// One stage's final `(key, value)` pairs, per partition.
pub type StageOutputs = Vec<Vec<(Vec<u8>, Vec<u8>)>>;

/// Removes the DAG job's temp directory on every exit path.
struct OwnedTempGuard(PathBuf);

impl Drop for OwnedTempGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A completed DAG job.
#[derive(Debug)]
pub struct DagRun {
    /// The final stage's `(key, value)` pairs, per partition, key-sorted.
    pub outputs: StageOutputs,
    /// Per-round profiles plus the cumulative makespan.
    pub profile: DagProfile,
    /// One whole-DAG virtual-time trace (per-round lanes, cross-round
    /// hand-off edges); `Some` iff the stages ran with tracing on.
    pub trace: Option<JobTrace>,
}

impl DagRun {
    /// Flatten the final stage's partitions into one key-sorted list.
    pub fn sorted_pairs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<_> = self.outputs.iter().flatten().cloned().collect();
        all.sort();
        all
    }
}

/// Incremental round-by-round executor.
///
/// [`run_dag`] drives it over a static plan; iterative drivers (PageRank
/// to convergence) instead call [`DagExecutor::run_stage`] in a loop,
/// inspect [`DagExecutor::last_outputs`] after each round, and stop when
/// their own convergence test is met.
pub struct DagExecutor<'c> {
    cluster: &'c ClusterConfig,
    temp: OwnedTempGuard,
    vsched: Option<Scheduler>,
    /// Straggler factors the shared scheduler was built with (stage 0's).
    factors: Vec<u64>,
    trace: bool,
    /// Streamed-export destination (stage 0's `trace_stream`), if any.
    trace_stream: Option<PathBuf>,
    /// Open spool when streaming: entries retire to disk round by round.
    stream: Option<TraceStreamWriter>,
    map_bases: Vec<usize>,
    reduce_bases: Vec<usize>,
    next_map_base: usize,
    next_reduce_base: usize,
    /// Full entries (batch export only; empty when streaming).
    entries: Vec<TraceEntry>,
    /// Edge-relevant metadata of every entry, both export routes.
    metas: Vec<EntryMeta>,
    /// Intra-entry edges extracted as each round retires (see
    /// [`intra_entry_edges`]); they index [`DagExecutor::metas`].
    spill_edges: Vec<TraceEdge>,
    barrier_edges: Vec<TraceEdge>,
    registries: Vec<Option<RegistryAssignment>>,
    profiles: Vec<JobProfile>,
    outputs: Vec<StageOutputs>,
    /// Per round: the producing round of its typed hand-off, if any.
    handoffs: Vec<Option<usize>>,
}

impl<'c> DagExecutor<'c> {
    /// A fresh executor on `cluster`. The scheduler is created by the
    /// first [`DagExecutor::run_stage`] call (from that stage's config).
    pub fn new(cluster: &'c ClusterConfig) -> io::Result<DagExecutor<'c>> {
        let temp = OwnedTempGuard(cluster.resolve_temp_dir()?);
        Ok(DagExecutor {
            cluster,
            temp,
            vsched: None,
            factors: Vec::new(),
            trace: false,
            trace_stream: None,
            stream: None,
            map_bases: Vec::new(),
            reduce_bases: Vec::new(),
            next_map_base: 0,
            next_reduce_base: 0,
            entries: Vec::new(),
            metas: Vec::new(),
            spill_edges: Vec::new(),
            barrier_edges: Vec::new(),
            registries: Vec::new(),
            profiles: Vec::new(),
            outputs: Vec::new(),
            handoffs: Vec::new(),
        })
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.profiles.len()
    }

    /// Round `r`'s outputs, per partition.
    pub fn outputs(&self, round: usize) -> &StageOutputs {
        &self.outputs[round]
    }

    /// The most recent round's outputs (panics before the first round).
    pub fn last_outputs(&self) -> &StageOutputs {
        self.outputs.last().expect("no round has run")
    }

    /// Round `r`'s profile.
    pub fn profile(&self, round: usize) -> &JobProfile {
        &self.profiles[round]
    }

    /// Execute one stage as the next round. Returns the round index.
    ///
    /// `dfs` serves [`StageInput::Dfs`] stages; `Prior` stages read the
    /// named earlier round's in-memory outputs through the typed framed
    /// hand-off instead.
    pub fn run_stage(
        &mut self,
        job: Arc<dyn Job>,
        cfg: &JobConfig,
        input: &StageInput,
        dfs: &SimDfs,
    ) -> io::Result<usize> {
        let round = self.profiles.len();
        // ---- build the round's splits -------------------------------------
        let (splits, handoff) = match input {
            StageInput::Dfs(names) => {
                let mut splits: Vec<InputSplit> = Vec::new();
                for (name, source) in names {
                    let file = dfs.get(name).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotFound, format!("no DFS file {name}"))
                    })?;
                    splits.extend(InputSplit::from_file(file, *source));
                }
                (splits, None)
            }
            StageInput::Prior { stage, source } => {
                if *stage >= round {
                    return Err(io::Error::other(format!(
                        "round {round} consumes non-prior round {stage}"
                    )));
                }
                // One framed split per partition — even an empty one — so
                // map task p of this round IS partition p of the producer,
                // which keeps the hand-off edges and determinism sweeps
                // index-stable.
                let spans = &self.profiles[*stage].reduce_spans;
                let splits = self.outputs[*stage]
                    .iter()
                    .enumerate()
                    .map(|(p, pairs)| InputSplit::from_pairs(pairs, spans[p].node, *source))
                    .collect();
                (splits, Some(*stage))
            }
        };
        // ---- shared-scheduler bookkeeping ---------------------------------
        let factors: Vec<u64> = (0..self.cluster.nodes)
            .map(|n| cfg.fault_plan.node_factor(n))
            .collect();
        let vsched = match self.vsched.as_mut() {
            None => {
                self.factors = factors;
                self.trace = cfg.trace;
                self.trace_stream = cfg.trace_stream.clone();
                if let (true, Some(path)) = (cfg.trace, &self.trace_stream) {
                    // Streamed export: open the spool up front; each
                    // round's entries retire to disk and never accumulate.
                    self.stream = Some(TraceStreamWriter::create(
                        path.clone(),
                        self.cluster.nodes,
                        self.cluster.map_slots_per_node.max(1),
                        self.cluster.reduce_slots_per_node.max(1),
                        self.cluster
                            .shuffle_fetchers
                            .clamp(1, crate::shuffle::MAX_FETCHERS),
                    )?);
                }
                self.vsched.get_or_insert(new_scheduler(self.cluster, cfg))
            }
            Some(s) => {
                // One scheduler spans every round: node speeds, the trace
                // flag, and the stream destination cannot change mid-DAG.
                assert_eq!(
                    factors, self.factors,
                    "stage {round} changes straggler factors mid-DAG"
                );
                assert_eq!(
                    cfg.trace, self.trace,
                    "stage {round} disagrees on tracing mid-DAG"
                );
                assert_eq!(
                    cfg.trace_stream, self.trace_stream,
                    "stage {round} disagrees on trace streaming mid-DAG"
                );
                s
            }
        };
        if round > 0 {
            // BSP barrier: the new round starts no earlier than the
            // previous round's makespan; the boundary event enters the
            // graph with every prior attempt as a predecessor.
            let origin = self.profiles[round - 1].wall;
            vsched.begin_round(round, origin);
        }
        let run = run_round(
            self.cluster,
            cfg,
            job,
            &splits,
            RoundCtx {
                round,
                map_task_base: self.next_map_base,
                reduce_task_base: self.next_reduce_base,
                vsched,
                temp: &self.temp.0,
            },
        )?;
        let RoundRun {
            outputs,
            profile,
            entries,
            registry,
        } = run;
        self.map_bases.push(self.next_map_base);
        self.reduce_bases.push(self.next_reduce_base);
        self.next_map_base += splits.len();
        self.next_reduce_base += cfg.num_reducers;
        // Retire the round's entries: extract the edge-relevant metadata
        // and intra-entry edges, then either spool the entry to disk
        // (streaming) or keep it for the batch export.
        for e in entries {
            let i = self.metas.len();
            self.metas.push(EntryMeta::of(&e));
            let (s, b) = intra_entry_edges(i, &e);
            self.spill_edges.extend(s);
            self.barrier_edges.extend(b);
            match self.stream.as_mut() {
                Some(w) => w.push_entry(&e)?,
                None => self.entries.push(e),
            }
        }
        self.registries.push(registry);
        self.profiles.push(profile);
        self.outputs.push(outputs);
        self.handoffs.push(handoff);
        Ok(round)
    }

    /// Assemble the completed DAG: final outputs, per-round profiles, and
    /// (when tracing) one whole-DAG trace whose edges include the
    /// cross-round hand-offs ([`EdgeKind::Round`]). With
    /// [`JobConfig::trace_stream`] set, the trace was already spooled to
    /// disk round by round; this finalises the file (byte-identical to the
    /// batch export) and [`DagRun::trace`] is `None`.
    pub fn finish(self) -> io::Result<DagRun> {
        let wall = self.profiles.last().map(|p| p.wall).unwrap_or(0);
        let trace = match (self.trace, self.vsched.as_ref()) {
            (true, Some(vsched)) => {
                let mut edges = assemble_trace_edges(
                    &self.metas,
                    vsched,
                    &self.registries,
                    &self.map_bases,
                    &self.reduce_bases,
                    self.spill_edges,
                    self.barrier_edges,
                );
                edges.extend(handoff_edges(&self.metas, &self.handoffs));
                let twall = self
                    .metas
                    .iter()
                    .map(|m| m.end)
                    .max()
                    .unwrap_or(0)
                    .max(wall);
                match self.stream {
                    Some(w) => {
                        w.finish(twall, &edges)?;
                        None
                    }
                    None => Some(JobTrace {
                        nodes: self.cluster.nodes,
                        map_slots: self.cluster.map_slots_per_node.max(1),
                        reduce_slots: self.cluster.reduce_slots_per_node.max(1),
                        fetchers: self
                            .cluster
                            .shuffle_fetchers
                            .clamp(1, crate::shuffle::MAX_FETCHERS),
                        wall: twall,
                        edges,
                        entries: self.entries,
                    }),
                }
            }
            _ => None,
        };
        Ok(DagRun {
            outputs: self.outputs.into_iter().last().unwrap_or_default(),
            profile: DagProfile {
                rounds: self.profiles,
                wall,
            },
            trace,
        })
    }
}

/// Cross-round hand-off edges: the producing round's of-record reduce
/// attempt for partition `p` happens before the consuming round's first
/// map attempt of task `p` (later attempts are already chained to the
/// first by retry edges). Works off entry metadata alone, so the streamed
/// route computes identical edges without the entries resident.
fn handoff_edges(metas: &[EntryMeta], handoffs: &[Option<usize>]) -> Vec<TraceEdge> {
    let mut edges = Vec::new();
    for (round, parent) in handoffs.iter().enumerate() {
        let Some(parent) = parent else {
            continue;
        };
        for (i, m) in metas.iter().enumerate() {
            let (kind, r, task, attempt, backup) = m.handoff_key();
            if r != round || kind != TaskKind::Map || attempt != 0 || backup {
                continue;
            }
            // The of-record producer: the attempt carrying detailed lanes
            // (a winning backup owns them; otherwise the final attempt).
            let src = metas.iter().position(|s| {
                let (sk, sr, st, _, _) = s.handoff_key();
                sr == *parent && sk == TaskKind::Reduce && st == task && s.is_record
            });
            if let Some(si) = src {
                edges.push(TraceEdge {
                    kind: EdgeKind::Round,
                    src: EdgeEnd::entry(si),
                    dst: EdgeEnd::entry(i),
                });
            }
        }
    }
    edges
}

/// Run a whole [`JobDag`] plan, one stage per round.
pub fn run_dag(cluster: &ClusterConfig, dag: &JobDag, dfs: &SimDfs) -> io::Result<DagRun> {
    dag.validate().map_err(io::Error::other)?;
    let mut ex = DagExecutor::new(cluster)?;
    for stage in &dag.stages {
        ex.run_stage(Arc::clone(&stage.job), &stage.cfg, &stage.input, dfs)?;
    }
    ex.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_job;
    use crate::codec::{decode_u64, encode_u64};
    use crate::job::{Emit, Record, ValueCursor, ValueSink};

    /// Stage 0: classic word sum over text lines.
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

    /// A later stage: consumes framed `(word, count)` pairs untouched and
    /// re-aggregates — totals must survive any number of chained rounds.
    struct Resum;
    impl Job for Resum {
        fn name(&self) -> &str {
            "resum"
        }
        fn map(&self, r: &Record<'_>, e: &mut dyn Emit) {
            e.emit(r.key, r.value);
        }
        fn reduce(&self, k: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
            let mut s = 0;
            while let Some(v) = values.next() {
                s += decode_u64(v).unwrap();
            }
            out.emit(k, &encode_u64(s));
        }
    }

    fn corpus(lines: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for i in 0..lines {
            buf.extend_from_slice(format!("w{} common filler\n", i % 23).as_bytes());
        }
        buf
    }

    fn dfs_with_corpus(cluster: &ClusterConfig) -> SimDfs {
        let mut dfs = SimDfs::new(cluster.nodes, 4096);
        dfs.put("corpus", corpus(300));
        dfs
    }

    #[test]
    fn chained_dag_hands_partitions_off_untouched() {
        let cluster = ClusterConfig::local();
        let dfs = dfs_with_corpus(&cluster);
        let dag = JobDag::new()
            .stage(
                Arc::new(WordSum),
                JobConfig::default(),
                StageInput::dfs("corpus"),
            )
            .then(Arc::new(Resum), JobConfig::default().with_reducers(3))
            .then(Arc::new(Resum), JobConfig::default().with_reducers(2));
        let run = run_dag(&cluster, &dag, &dfs).unwrap();
        let single = run_job(
            &cluster,
            &JobConfig::default(),
            Arc::new(WordSum),
            &dfs,
            &[("corpus", 0)],
        )
        .unwrap();
        // Totals survive two typed hand-offs; repartitioning only moves
        // pairs between partitions.
        assert_eq!(run.sorted_pairs(), single.sorted_pairs());
        assert_eq!(run.profile.num_rounds(), 3);
        assert_eq!(run.outputs.len(), 2);
    }

    #[test]
    fn rounds_advance_virtual_time_monotonically() {
        let cluster = ClusterConfig::local();
        let dfs = dfs_with_corpus(&cluster);
        let cfg = JobConfig::default().with_trace();
        let dag = JobDag::new()
            .stage(Arc::new(WordSum), cfg.clone(), StageInput::dfs("corpus"))
            .then(Arc::new(Resum), cfg.clone());
        let run = run_dag(&cluster, &dag, &dfs).unwrap();
        let r0_wall = run.profile.rounds[0].wall;
        let trace = run.trace.as_ref().unwrap();
        trace.check().unwrap();
        // Round 1 attempts start at or after round 0's makespan (BSP
        // barrier on the shared scheduler).
        for e in trace.entries.iter().filter(|e| e.round == 1) {
            assert!(
                e.start >= r0_wall,
                "round-1 entry starts at {} before round-0 wall {}",
                e.start,
                r0_wall
            );
        }
        // The hand-off edges are present: one per consumed partition.
        let rounds = trace
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Round)
            .count();
        assert_eq!(rounds, run.profile.rounds[0].reduce_tasks.len());
        assert_eq!(run.profile.wall, run.profile.rounds[1].wall);
    }

    #[test]
    fn dag_validation_rejects_bad_plans() {
        assert!(JobDag::new().validate().is_err());
        let forward =
            JobDag::new().stage(Arc::new(Resum), JobConfig::default(), StageInput::prior(3));
        assert!(forward.validate().is_err());
    }
}
