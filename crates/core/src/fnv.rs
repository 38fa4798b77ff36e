//! FNV-1a hashing for hot-path hash tables — re-exported from
//! `textmr_engine::hash` so every hot-path table in the workspace shares
//! one implementation (and one cost profile).

// textmr-lint: allow(unordered-iteration, reason = "re-export of the engine's fixed-seed FNV aliases; iteration order is a pure function of the key set — see engine::hash")
pub use textmr_engine::hash::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
