//! Storage and input: the simulated DFS, input splits, the append-only
//! store, spill files, and the out-of-core framed run format.

pub mod compress;
pub mod dfs;
pub mod frame;
pub mod input;
pub mod spill_file;
pub mod store;

/// Out-of-core streaming knobs, carried by
/// [`ClusterConfig`](crate::cluster::ClusterConfig) and threaded into map
/// and reduce tasks. The default is **off**: the engine runs the legacy
/// materialized paths byte-for-byte, so every shipped figure is
/// unaffected unless a config opts in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Write intermediates (spills, map outputs) as compressed framed
    /// runs with per-run frame indexes (see [`crate::io::frame`]) instead
    /// of bare record streams. This changes the on-disk and on-wire byte
    /// format, so signatures are comparable only within framed mode.
    pub framed: bool,
    /// Target uncompressed bytes per frame.
    pub frame_bytes: usize,
    /// Read framed intermediates by materializing whole runs up front
    /// instead of streaming one frame window at a time. The bytes on disk
    /// and on the wire are identical either way — this toggles only
    /// residency, which is what the streamed-vs-materialized determinism
    /// tests pin.
    pub materialize_reads: bool,
    /// Chunk-window size for disk-backed input splits.
    pub input_chunk_bytes: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            framed: false,
            frame_bytes: frame::DEFAULT_FRAME_BYTES,
            materialize_reads: false,
            input_chunk_bytes: input::DEFAULT_INPUT_CHUNK,
        }
    }
}

impl StreamingConfig {
    /// Streaming on with default sizes: framed intermediates, windowed
    /// reads, chunked input.
    pub fn streamed() -> Self {
        StreamingConfig {
            framed: true,
            ..Default::default()
        }
    }

    /// Framed intermediates with whole-run (materialized) reads — the
    /// byte-identical reference point for the streamed path.
    pub fn materialized() -> Self {
        StreamingConfig {
            framed: true,
            materialize_reads: true,
            ..Default::default()
        }
    }
}
