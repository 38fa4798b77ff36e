//! Storage and input: the simulated DFS, input splits, the append-only
//! store, spill files, and the out-of-core framed run format.

pub mod compress;
pub mod dfs;
pub mod frame;
pub mod input;
pub mod spill_file;
pub mod store;
