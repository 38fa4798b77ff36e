//! # textmr-engine — a mini-MapReduce framework with measured abstraction costs
//!
//! This crate rebuilds the Hadoop substrate the paper ("Reducing MapReduce
//! Abstraction Costs for Text-Centric Applications", ICPP 2014) instruments
//! and modifies:
//!
//! * a byte-level [`job::Job`] interface (serialize-at-emit, raw-byte key
//!   comparison — Hadoop's design, so serialization and sort costs are real);
//! * a simulated DFS with block placement and Hadoop's exact input-split
//!   line protocol ([`io::dfs`], [`io::input`]);
//! * the map-side pipeline: spill buffer, sort, combine, on-disk spills,
//!   k-way merge ([`task`]); the producer/consumer overlap between the map
//!   thread and the support thread is advanced in *virtual time*
//!   ([`task::pipeline`]) while all work executes for real and is measured —
//!   see DESIGN.md for why (single-core determinism, faithful to the
//!   paper's Section IV-C model);
//! * a shuffle subsystem ([`shuffle`]) with a pooled parallel fetcher per
//!   reduce task and a contention-aware per-node NIC model over the
//!   bandwidth/latency network config ([`net`]), feeding sort-merge reduce
//!   ([`task::reduce_task`]);
//! * cluster-level virtual scheduling onto node slots ([`cluster`]);
//! * fine-grained abstraction-cost metrics ([`metrics`]) matching the
//!   paper's Table I operation breakdown;
//! * an opt-in deterministic virtual-time tracer ([`trace`]) that exports
//!   per-thread span timelines as Chrome-trace/Perfetto JSON or ASCII —
//!   streamable to disk during the run ([`trace::stream`]);
//! * an out-of-core streaming mode: record-windowed split reads, framed
//!   compressed intermediate runs with a per-run frame index
//!   ([`io::frame`]), and a single per-task byte budget
//!   ([`cluster::ClusterConfig::map_budget_bytes`]) that bounds resident
//!   buffers while keeping outputs and signatures byte-identical to the
//!   materialized path.
//!
//! The paper's optimizations plug in through [`controller::SpillController`]
//! and [`controller::EmitFilter`] — see the `textmr-core` crate.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use textmr_engine::prelude::*;
//!
//! struct CountA;
//! impl Job for CountA {
//!     fn name(&self) -> &str { "count-a" }
//!     fn map(&self, rec: &Record<'_>, emit: &mut dyn Emit) {
//!         let n = rec.value.iter().filter(|&&b| b == b'a').count() as u64;
//!         emit.emit(b"a", &encode_u64(n));
//!     }
//!     fn reduce(&self, key: &[u8], values: &mut dyn ValueCursor, out: &mut dyn Emit) {
//!         let mut sum = 0;
//!         while let Some(v) = values.next() { sum += decode_u64(v).unwrap(); }
//!         out.emit(key, &encode_u64(sum));
//!     }
//! }
//!
//! let cluster = ClusterConfig::single_node();
//! let mut dfs = SimDfs::new(cluster.nodes, 1024);
//! dfs.put("in", b"banana\ncabbage\n".to_vec());
//! let run = run_job(&cluster, &JobConfig::default().with_reducers(1),
//!                   Arc::new(CountA), &dfs, &[("in", 0)]).unwrap();
//! let (_k, v) = &run.outputs[0][0];
//! assert_eq!(decode_u64(v), Some(5));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod codec;
pub mod controller;
pub mod dag;
pub mod event;
pub mod fault;
pub mod hash;
pub mod io;
pub mod job;
pub mod json;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod reference;
pub mod shuffle;
pub mod task;
pub mod trace;

/// One-stop imports for writing and running jobs.
pub mod prelude {
    pub use crate::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
    pub use crate::codec::{decode_f64, decode_u64, encode_f64, encode_u64};
    pub use crate::controller::{
        adaptive_budget_factory, fixed_spill_factory, AdaptiveBudget, EmitFilter, FilterCtx,
        FixedSpill, SpillController, SpillObservation, TaskCtx,
    };
    pub use crate::dag::{run_dag, DagExecutor, DagRun};
    pub use crate::fault::{ChaosShape, FaultPlan, SpeculationConfig};
    pub use crate::io::dfs::SimDfs;
    pub use crate::io::StreamingConfig;
    pub use crate::job::{Emit, Job, JobDag, Record, Stage, StageInput, ValueCursor, ValueSink};
    pub use crate::metrics::{DagProfile, DagSignature, JobProfile, Op, Phase, TaskProfile};
    pub use crate::net::NetworkConfig;
    pub use crate::shuffle::{FetchHistogram, ShuffleStats};
    pub use crate::task::reduce_task::Grouping;
    pub use crate::trace::{stream::TraceStreamWriter, validate_chrome_trace, JobTrace, TaskTrace};
}
