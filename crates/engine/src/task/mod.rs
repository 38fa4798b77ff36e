//! Task execution: segments, the virtual-time pipeline, sort/combine/spill,
//! k-way merge, and the map/reduce task runners. (Shuffle fetching lives in
//! [`crate::shuffle`]; the reduce runner delegates to it.)

use crate::metrics::VNanos;
use std::io;

pub mod map_task;
pub mod merge;
pub mod pipeline;
pub mod reduce_task;
pub mod segment;
pub mod spill;
mod support;

/// Why a map or reduce attempt did not complete.
#[derive(Debug)]
pub enum TaskError {
    /// Underlying I/O failure (for a reducer, including exhausted
    /// shuffle-fetch retries).
    Io(io::Error),
    /// Injected fault (a record, spill-write or key-group budget ran out):
    /// the attempt died. Carries the virtual time it consumed before
    /// dying, so the driver can schedule the dead attempt's slot occupancy
    /// before the retry.
    Injected {
        /// Virtual nanoseconds elapsed at the point of failure.
        virtual_elapsed: VNanos,
    },
    /// The driver cancelled the job while this attempt was running; the
    /// attempt's partial state is discarded without being counted as a
    /// task failure.
    Cancelled,
}

impl From<io::Error> for TaskError {
    fn from(e: io::Error) -> Self {
        TaskError::Io(e)
    }
}
