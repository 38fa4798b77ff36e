#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! `textmr-serve` — a multi-tenant job service over the deterministic
//! MapReduce engine.
//!
//! A queue of heterogeneous jobs (WordCount, grep, inverted index,
//! multi-round prefix sums, …) from competing tenants is admitted onto
//! **one** shared virtual cluster:
//!
//! * **Admission control** — requests are admitted in `(arrival,
//!   submission)` order; a tenant over its job quota, an unknown tenant,
//!   or a plan using speculative execution is rejected with a named
//!   [`AdmissionError`] *before* any work runs (so a rejected job leaves
//!   no temp-dir residue).
//! * **Weighted fair share** — each admitted job first runs solo through
//!   the engine with tracing on, fixing its attempt structure and
//!   measured virtual durations; the [`sched`] multiplexer then re-places
//!   all jobs' task chains onto one engine scheduler, granting each slot to
//!   the tenant with the least weighted service. The interleaving is a
//!   pure function of the solo traces — replayable, and race-checked as
//!   one merged multi-job trace whose entries carry their job id.
//! * **S3-FIFO map-output cache** — an optional byte-budgeted
//!   [`cache::S3FifoCache`] shared across jobs: repeated jobs over the
//!   same `(split, map function, config)` key replay cached map outputs
//!   at a flat virtual lookup cost, shrinking both solo and served
//!   makespans. Hit/miss decisions depend only on the admitted key
//!   sequence and payload bytes, so they too replay identically.
//!
//! See `DESIGN.md` §3h for the determinism argument and the modeling
//! caveats (durations are measured, contention delays but never
//! re-prices work).

pub mod cache;
pub mod sched;
pub mod workload;

use std::fmt;
use std::io;
use std::sync::Arc;

pub use cache::{CacheStats, S3FifoCache};

use textmr_engine::cache::{MapCacheConfig, MapOutputCache};
use textmr_engine::cluster::ClusterConfig;
use textmr_engine::dag::{run_dag, StageOutputs};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::JobDag;
use textmr_engine::metrics::{DagProfile, VNanos};
use textmr_engine::trace::JobTrace;

use sched::{merge_traces, multiplex, JobPlan, Multiplexed};

/// One tenant of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Display name (profiles and bench tables).
    pub name: String,
    /// Fair-share weight; clamped to ≥ 1. A tenant with weight 3 is
    /// granted three times the slot time of a weight-1 tenant while both
    /// have backlog.
    pub weight: u64,
    /// Admission quota: maximum jobs admitted per serve call. The
    /// quota-exceeding submission is rejected, not queued.
    pub max_jobs: usize,
}

/// One submitted job: a DAG plan plus its tenancy and arrival metadata.
pub struct JobRequest {
    /// Index into the tenant roster.
    pub tenant: usize,
    /// Virtual arrival time: no attempt of this job may start earlier.
    pub arrival: VNanos,
    /// Display name (bench tables, rejection reports).
    pub name: String,
    /// The job's stage plan. Tracing is forced on by the service; the
    /// plan must not enable speculation (rejected at admission).
    pub plan: JobDag,
    /// Cache identity: a prefix encoding the map function and every
    /// output-affecting knob. `Some` opts the job's map tasks into the
    /// shared S3-FIFO cache (when the service runs one); requests with
    /// the same prefix over the same splits share cached outputs.
    pub cache_prefix: Option<String>,
}

/// Why a submission was turned away at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request named a tenant outside the roster.
    UnknownTenant {
        /// The out-of-range tenant index.
        tenant: usize,
    },
    /// The tenant already admitted `quota` jobs this serve call.
    QuotaExceeded {
        /// The tenant at quota.
        tenant: usize,
        /// The tenant's `max_jobs`.
        quota: usize,
    },
    /// The plan enables speculative execution, which the serve
    /// multiplexer cannot replay (a winning backup moves a task between
    /// nodes, invalidating the solo schedule the fair-share placement
    /// replays).
    SpeculationUnsupported {
        /// The submitting tenant.
        tenant: usize,
        /// The rejected job's display name.
        job: String,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownTenant { tenant } => {
                write!(f, "admission rejected: unknown tenant {tenant}")
            }
            AdmissionError::QuotaExceeded { tenant, quota } => write!(
                f,
                "admission rejected: tenant {tenant} is at its quota of {quota} job(s)"
            ),
            AdmissionError::SpeculationUnsupported { tenant, job } => write!(
                f,
                "admission rejected: job \"{job}\" of tenant {tenant} enables speculative \
                 execution, which textmr-serve does not support"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The service's shared map-output cache.
#[derive(Clone)]
pub struct ServeCacheConfig {
    /// The S3-FIFO cache shared by every admitted job that opts in.
    pub cache: Arc<S3FifoCache>,
    /// Flat deterministic virtual cost charged per cache hit.
    pub lookup_cost_ns: VNanos,
}

/// Service-level policy.
#[derive(Clone, Default)]
pub struct ServeConfig {
    /// Shared map-output cache; `None` serves every job cold.
    pub cache: Option<ServeCacheConfig>,
}

/// A submission that admission turned away. The job never ran: no solo
/// schedule, no temp directory, no cache traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedJob {
    /// Index of the submission in the original request vector.
    pub request: usize,
    /// The request's display name.
    pub name: String,
    /// The tenant index the request named (possibly out of range).
    pub tenant: usize,
    /// Why it was rejected.
    pub error: AdmissionError,
}

/// One admitted, completed job.
pub struct ServedJob {
    /// Serve job id (1-based, in admission order).
    pub job: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Display name.
    pub name: String,
    /// Virtual arrival time.
    pub arrival: VNanos,
    /// First attempt start on the shared cluster.
    pub start: VNanos,
    /// Completion time on the shared cluster.
    pub finish: VNanos,
    /// The job's makespan when it ran alone (its solo wall) — the
    /// contention-free baseline for `finish - arrival`.
    pub solo_makespan: VNanos,
    /// Final-stage `(key, value)` pairs, per partition — byte-identical
    /// to a solo run, by construction (the multiplexer only re-times).
    pub outputs: StageOutputs,
    /// Per-round profiles from the solo run.
    pub profile: DagProfile,
    /// The solo trace the multiplexer replayed.
    pub solo_trace: JobTrace,
    /// Map-cache hits this job scored.
    pub cache_hits: u64,
    /// Map-cache misses this job took.
    pub cache_misses: u64,
}

/// Per-tenant accounting for one serve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// Tenant index.
    pub tenant: usize,
    /// Display name.
    pub name: String,
    /// Fair-share weight (clamped).
    pub weight: u64,
    /// Map-slot virtual time granted.
    pub map_busy: VNanos,
    /// Reduce-slot virtual time granted.
    pub reduce_busy: VNanos,
    /// Jobs admitted.
    pub jobs_admitted: usize,
    /// Jobs rejected at admission.
    pub jobs_rejected: usize,
}

/// Aggregate accounting for one serve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeProfile {
    /// Virtual makespan of the interleaved schedule.
    pub wall: VNanos,
    /// Per-tenant usage, indexed by tenant.
    pub tenants: Vec<TenantUsage>,
    /// Final cache counters, when the service ran a cache.
    pub cache: Option<CacheStats>,
}

/// Everything one serve call produced.
pub struct ServeRun {
    /// Admitted jobs in admission (= job-id) order.
    pub jobs: Vec<ServedJob>,
    /// Rejected submissions, in admission-scan order.
    pub rejected: Vec<RejectedJob>,
    /// Aggregate accounting.
    pub profile: ServeProfile,
    /// The merged multi-job trace: every entry tagged with its job id,
    /// slot chains rebuilt across jobs — validates under
    /// [`JobTrace::check`] and the race checker.
    pub trace: JobTrace,
    /// The raw interleaved schedule (placement order, per-job windows,
    /// per-tenant shares) for fairness assertions and bench tables.
    pub schedule: Multiplexed,
}

/// Run the service: admit `requests` against `tenants`' quotas, execute
/// each admitted job solo (tracing on, shared cache installed), then
/// multiplex all of them onto one shared virtual cluster under weighted
/// fair share and merge the traces.
///
/// Rejections are reported in [`ServeRun::rejected`], not as an error;
/// `Err` is reserved for engine I/O failures.
pub fn serve(
    cluster: &ClusterConfig,
    tenants: &[TenantSpec],
    requests: Vec<JobRequest>,
    dfs: &SimDfs,
    cfg: &ServeConfig,
) -> io::Result<ServeRun> {
    // Admission order: arrival time, ties by submission index.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].arrival, i));

    let mut admitted_count = vec![0usize; tenants.len()];
    let mut rejected_count = vec![0usize; tenants.len()];
    let mut rejected: Vec<RejectedJob> = Vec::new();
    let mut admitted: Vec<(usize, JobRequest)> = Vec::new();

    let mut requests: Vec<Option<JobRequest>> = requests.into_iter().map(Some).collect();
    for &ri in &order {
        let req = requests[ri].take().expect("each request admitted once");
        let reject = |error: AdmissionError| RejectedJob {
            request: ri,
            name: req.name.clone(),
            tenant: req.tenant,
            error,
        };
        if req.tenant >= tenants.len() {
            rejected.push(reject(AdmissionError::UnknownTenant { tenant: req.tenant }));
            continue;
        }
        if req.plan.stages.iter().any(|s| s.cfg.speculation.is_some()) {
            rejected_count[req.tenant] += 1;
            rejected.push(reject(AdmissionError::SpeculationUnsupported {
                tenant: req.tenant,
                job: req.name.clone(),
            }));
            continue;
        }
        let quota = tenants[req.tenant].max_jobs;
        if admitted_count[req.tenant] >= quota {
            rejected_count[req.tenant] += 1;
            rejected.push(reject(AdmissionError::QuotaExceeded {
                tenant: req.tenant,
                quota,
            }));
            continue;
        }
        admitted_count[req.tenant] += 1;
        admitted.push((ri, req));
    }

    // Solo runs, in admission order — the cache therefore sees the same
    // put sequence on every replay of the same admitted queue.
    let mut jobs: Vec<ServedJob> = Vec::with_capacity(admitted.len());
    let mut plans: Vec<JobPlan> = Vec::with_capacity(admitted.len());
    let mut solos: Vec<JobTrace> = Vec::with_capacity(admitted.len());
    for (ji, (_, mut req)) in admitted.into_iter().enumerate() {
        let job_id = ji + 1;
        for stage in req.plan.stages.iter_mut() {
            stage.cfg.trace = true;
            stage.cfg.map_cache = match (&cfg.cache, &req.cache_prefix) {
                (Some(sc), Some(prefix)) => {
                    let shared: Arc<dyn MapOutputCache> = Arc::clone(&sc.cache) as _;
                    Some(MapCacheConfig {
                        cache: shared,
                        key_prefix: prefix.clone(),
                        lookup_cost_ns: sc.lookup_cost_ns,
                    })
                }
                _ => None,
            };
        }
        let before = cfg.cache.as_ref().map(|sc| sc.cache.stats());
        let run = run_dag(cluster, &req.plan, dfs)?;
        let after = cfg.cache.as_ref().map(|sc| sc.cache.stats());
        let solo_trace = run
            .trace
            .ok_or_else(|| io::Error::other("serve forces tracing on, but no trace came back"))?;
        let plan = JobPlan::from_trace(job_id, req.tenant, req.arrival, &solo_trace)
            .map_err(io::Error::other)?;
        let (hits, misses) = match (before, after) {
            (Some(b), Some(a)) => (a.hits - b.hits, a.misses - b.misses),
            _ => (0, 0),
        };
        jobs.push(ServedJob {
            job: job_id,
            tenant: req.tenant,
            name: req.name,
            arrival: req.arrival,
            start: 0,
            finish: 0,
            solo_makespan: run.profile.wall,
            outputs: run.outputs,
            profile: run.profile,
            solo_trace,
            cache_hits: hits,
            cache_misses: misses,
        });
        plans.push(plan);
    }
    for j in &jobs {
        solos.push(j.solo_trace.clone());
    }

    let schedule = multiplex(
        cluster.nodes,
        cluster.map_slots_per_node,
        cluster.reduce_slots_per_node,
        tenants,
        &plans,
    );
    for (ji, w) in schedule.windows.iter().enumerate() {
        jobs[ji].start = w.start;
        jobs[ji].finish = w.finish;
    }
    let trace = merge_traces(&plans, &solos, &schedule);

    let tenants_usage = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| TenantUsage {
            tenant: t,
            name: spec.name.clone(),
            weight: spec.weight.max(1),
            map_busy: schedule.shares[t].map_busy,
            reduce_busy: schedule.shares[t].reduce_busy,
            jobs_admitted: admitted_count[t],
            jobs_rejected: rejected_count[t],
        })
        .collect();
    let profile = ServeProfile {
        wall: schedule.wall,
        tenants: tenants_usage,
        cache: cfg.cache.as_ref().map(|sc| sc.cache.stats()),
    };

    Ok(ServeRun {
        jobs,
        rejected,
        profile,
        trace,
        schedule,
    })
}
