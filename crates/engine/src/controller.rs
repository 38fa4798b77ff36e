//! Extension points where the paper's optimizations plug into the engine.
//!
//! The paper stresses that frequency-buffering and spill-matcher need "only
//! small changes to the MapReduce system" and no user-code changes. The
//! engine realizes that as two narrow traits:
//!
//! * [`SpillController`] — decides the spill fraction `x` (the Hadoop
//!   `io.sort.spill.percent`) before each spill. The baseline is
//!   [`FixedSpill`] (Hadoop's static 0.8); `textmr-core`'s `SpillMatcher`
//!   adapts it per spill from observed produce/consume rates.
//! * [`EmitFilter`] — intercepts `(key, value)` pairs between the user's
//!   `map()` and the spill buffer. The baseline is no filter;
//!   `textmr-core`'s `FrequencyBuffer` absorbs frequent keys into an
//!   in-memory combining hash table.
//!
//! Both are created per map task through factory closures carried by the
//! job configuration, so node-level state (e.g. the per-node frequent-key
//! registry) lives in the closure's captures.

use crate::job::{Emit, Job};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// What the engine observed about the previous spill; input to
/// [`SpillController::next_fraction`].
///
/// The spill's consume time is measured on the support thread, which may
/// still be sorting, combining and writing the segment when the
/// controller runs. [`consume_ns`](SpillObservation::consume_ns) (and
/// [`consume_rate`](SpillObservation::consume_rate)) waits for it: a
/// controller that asks keeps the map thread waiting for the spill, one
/// that does not lets it go on producing.
#[derive(Clone, Copy)]
pub struct SpillObservation<'a> {
    /// Size of the spill segment in buffer-accounted bytes.
    pub bytes: usize,
    /// Measured time the map thread took to produce the segment (ns).
    pub produce_ns: u64,
    /// Spill buffer capacity M in bytes.
    pub capacity: usize,
    /// Measured time the support thread took to consume the segment (ns).
    consume: ConsumeTime<'a>,
}

/// A spill's consume time: known, or waited for when asked.
#[derive(Clone, Copy)]
enum ConsumeTime<'a> {
    Known(u64),
    Ask(&'a dyn Fn() -> u64),
}

impl SpillObservation<'static> {
    /// An observation whose consume time is known.
    pub fn new(bytes: usize, produce_ns: u64, consume_ns: u64, capacity: usize) -> Self {
        SpillObservation {
            bytes,
            produce_ns,
            capacity,
            consume: ConsumeTime::Known(consume_ns),
        }
    }
}

impl<'a> SpillObservation<'a> {
    /// An observation whose consume time `ask` returns, waiting for it;
    /// `ask` must return the same time on every call.
    pub fn deferred(
        bytes: usize,
        produce_ns: u64,
        capacity: usize,
        ask: &'a dyn Fn() -> u64,
    ) -> Self {
        SpillObservation {
            bytes,
            produce_ns,
            capacity,
            consume: ConsumeTime::Ask(ask),
        }
    }

    /// Measured time the support thread took to consume the segment (ns);
    /// waits for the spill to finish if it has not.
    pub fn consume_ns(&self) -> u64 {
        match self.consume {
            ConsumeTime::Known(ns) => ns,
            ConsumeTime::Ask(ask) => ask(),
        }
    }

    /// Produce rate `p` in bytes/sec.
    pub fn produce_rate(&self) -> f64 {
        self.bytes as f64 / (self.produce_ns.max(1) as f64 / 1e9)
    }

    /// Consume rate `c` in bytes/sec; waits like
    /// [`consume_ns`](SpillObservation::consume_ns).
    pub fn consume_rate(&self) -> f64 {
        self.bytes as f64 / (self.consume_ns().max(1) as f64 / 1e9)
    }
}

impl std::fmt::Debug for SpillObservation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SpillObservation");
        d.field("bytes", &self.bytes)
            .field("produce_ns", &self.produce_ns);
        match self.consume {
            ConsumeTime::Known(ns) => d.field("consume_ns", &ns),
            ConsumeTime::Ask(_) => d.field("consume_ns", &"asked for"),
        };
        d.field("capacity", &self.capacity).finish()
    }
}

/// Per-spill policy for the spill fraction `x ∈ (0, 1]`.
pub trait SpillController: Send {
    /// Fraction used for the first spill (no observation yet).
    fn initial_fraction(&mut self) -> f64;

    /// Fraction for the next spill given the previous spill's
    /// observation. A policy that reads the consume time waits for the
    /// spill; one that needs only bytes lets the map thread run on.
    fn next_fraction(&mut self, obs: &SpillObservation<'_>) -> f64;
}

/// Hadoop's default policy: a fixed spill percentage (default 0.8).
#[derive(Debug, Clone, Copy)]
pub struct FixedSpill(pub f64);

impl Default for FixedSpill {
    fn default() -> Self {
        FixedSpill(0.8)
    }
}

impl SpillController for FixedSpill {
    fn initial_fraction(&mut self) -> f64 {
        self.0
    }

    fn next_fraction(&mut self, _obs: &SpillObservation<'_>) -> f64 {
        self.0
    }
}

/// The out-of-core memory-budget policy: a *bytes-only* adaptive spill
/// trigger, the new knob beside the paper's fixed spill percentage.
///
/// State machine (see DESIGN.md §3i): the fraction starts at `initial`
/// and moves inside `[floor, ceil]`.
///
/// * **Backpressure** — the observed segment overshot its threshold by
///   more than 25 % (`bytes > fraction·capacity·5/4`, i.e. records kept
///   landing while the spill drained). The controller halves the
///   fraction toward the floor so the next spill starts earlier and the
///   buffer's headroom absorbs the overrun instead of growing.
/// * **Stability** — after 3 consecutive spills without overshoot it
///   grows the fraction by 1.25× toward the ceiling, reclaiming
///   throughput (fewer, larger spills) when pressure subsides.
///
/// Unlike `textmr-core`'s timing-driven `SpillMatcher`, this policy
/// reads **only byte counts** from the observation — never measured
/// rates — so spill boundaries stay a pure function of the input and the
/// engine's timing-free signatures remain deterministic under it (the
/// determinism doctrine in `tests/determinism.rs`).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBudget {
    /// Fraction used for the first spill.
    pub initial: f64,
    /// Lower bound on the fraction (keeps spills from degenerating).
    pub floor: f64,
    /// Upper bound on the fraction.
    pub ceil: f64,
    cur: f64,
    stable: u32,
}

impl AdaptiveBudget {
    /// Policy with the default band: start at 0.5, clamp to
    /// `[0.125, 0.9]`.
    pub fn new() -> Self {
        AdaptiveBudget {
            initial: 0.5,
            floor: 0.125,
            ceil: 0.9,
            cur: 0.5,
            stable: 0,
        }
    }
}

impl Default for AdaptiveBudget {
    fn default() -> Self {
        Self::new()
    }
}

impl SpillController for AdaptiveBudget {
    fn initial_fraction(&mut self) -> f64 {
        self.cur = self.initial.clamp(self.floor, self.ceil);
        self.cur
    }

    fn next_fraction(&mut self, obs: &SpillObservation<'_>) -> f64 {
        // Bytes-only: overshoot is measured against the threshold the
        // current fraction implied. 5/4 tolerates the record that tips
        // the buffer past the threshold plus modest drain-lag growth.
        let threshold = (self.cur * obs.capacity as f64).max(1.0);
        if obs.bytes as f64 > threshold * 1.25 {
            self.cur = (self.cur * 0.5).max(self.floor);
            self.stable = 0;
        } else {
            self.stable += 1;
            if self.stable >= 3 {
                self.cur = (self.cur * 1.25).min(self.ceil);
                self.stable = 0;
            }
        }
        self.cur
    }
}

/// Convenience: a factory for [`AdaptiveBudget`] with the default band.
pub fn adaptive_budget_factory() -> SpillControllerFactory {
    Arc::new(move |_ctx| Box::new(AdaptiveBudget::new()))
}

/// Map-side emit interceptor (frequency-buffering's hook).
///
/// `offer` sees every pair the user emits, *before* it reaches the spill
/// buffer. Returning `true` means the filter absorbed the pair (it will
/// surface later, combined, through `sink` — either on overflow or in
/// [`EmitFilter::finish`]). Returning `false` sends the pair down the
/// normal spill path. Every absorbed pair's aggregate must eventually be
/// emitted to `sink`, or output would be lost.
pub trait EmitFilter: Send {
    /// Offer one emitted pair. The time spent here is accounted as `emit`
    /// overhead, matching the paper's treatment of profiling/hashing cost.
    fn offer(&mut self, key: &[u8], value: &[u8], sink: &mut dyn Emit) -> bool;

    /// Called once per map *input* record, before its `map()` runs. The
    /// paper's sampling fraction `s` is defined over input records
    /// (Sec. III-B), so stage transitions key off this count.
    fn on_input_record(&mut self) {}

    /// End of map input: drain all buffered state into `sink`.
    fn finish(&mut self, sink: &mut dyn Emit);

    /// Number of pairs absorbed so far (for profiles; Fig. 7's removed
    /// records derive from this).
    fn absorbed(&self) -> u64 {
        0
    }

    /// Whether the filter will actually do anything for this job. A filter
    /// that disabled itself (e.g. frequency-buffering on a combinerless
    /// job) returns `false`, and the engine reclaims its memory carve-out
    /// for the spill buffer instead of paying for an inert table.
    fn is_active(&self) -> bool {
        true
    }

    /// Drain the nanoseconds this filter spent inside the *user's*
    /// `combine()` since the last call. The engine re-attributes that time
    /// from the `emit` operation to `combine` so profiles keep the paper's
    /// user-code/framework split.
    fn take_user_combine_ns(&mut self) -> u64 {
        0
    }
}

/// Identity of a map task, handed to factories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskCtx {
    /// Node index the task runs on.
    pub node: usize,
    /// Task index within the job.
    pub task: usize,
}

/// Context available when constructing an [`EmitFilter`] for a map task.
pub struct FilterCtx {
    /// Task identity.
    pub task: TaskCtx,
    /// The job, for calling its `combine()` from inside the filter.
    pub job: Arc<dyn Job>,
    /// Memory budget (bytes) carved out of the spill buffer for the filter.
    pub budget_bytes: usize,
    /// Estimated number of map-input records for this task (drives
    /// profiling-stage sizing).
    pub estimated_records: u64,
    /// Lowest task id scheduled on this task's node — the *designated
    /// publisher* for node-level shared state (the frequent-key registry).
    /// Derived from the split plan, so it is identical at any worker-thread
    /// count; a task for which `task.task == node_first_task` publishes,
    /// everyone else consumes.
    pub node_first_task: usize,
    /// Job-wide cancellation flag (set when any task dooms the job). A
    /// filter blocking on a node-level outcome must poll this so a doomed
    /// job drains instead of deadlocking.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Factory producing a fresh controller per map task.
pub type SpillControllerFactory = Arc<dyn Fn(TaskCtx) -> Box<dyn SpillController> + Send + Sync>;

/// Factory producing a fresh emit filter per map task.
pub type EmitFilterFactory = Arc<dyn Fn(FilterCtx) -> Box<dyn EmitFilter> + Send + Sync>;

/// Convenience: a factory for [`FixedSpill`].
pub fn fixed_spill_factory(fraction: f64) -> SpillControllerFactory {
    Arc::new(move |_ctx| Box::new(FixedSpill(fraction)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_spill_never_adapts() {
        let mut c = FixedSpill(0.8);
        assert_eq!(c.initial_fraction(), 0.8);
        let obs = SpillObservation::new(100, 10, 90, 1000);
        assert_eq!(c.next_fraction(&obs), 0.8);
    }

    #[test]
    fn observation_rates() {
        // 1 MB produced in 1 s and consumed in 0.5 s.
        let obs = SpillObservation::new(1_000_000, 1_000_000_000, 500_000_000, 10_000_000);
        assert!((obs.produce_rate() - 1e6).abs() < 1.0);
        assert!((obs.consume_rate() - 2e6).abs() < 1.0);
    }

    #[test]
    fn adaptive_budget_backs_off_and_recovers() {
        let mut c = AdaptiveBudget::new();
        assert_eq!(c.initial_fraction(), 0.5);
        let cap = 1000;
        let obs = |bytes| SpillObservation::new(bytes, 0, 0, cap);
        // 700 > 0.5 * 1000 * 1.25.
        assert_eq!(c.next_fraction(&obs(700)), 0.25);
        // Keep overshooting: halves to the floor and stays there.
        assert_eq!(c.next_fraction(&obs(400)), 0.125);
        assert_eq!(c.next_fraction(&obs(400)), 0.125);
        // Three calm spills grow the fraction back by 1.25×.
        c.next_fraction(&obs(100));
        c.next_fraction(&obs(100));
        let grown = c.next_fraction(&obs(100));
        assert!((grown - 0.15625).abs() < 1e-9);
    }

    #[test]
    fn adaptive_budget_ignores_timing() {
        // Identical byte sequences must produce identical fractions no
        // matter what the measured rates were — the determinism contract.
        let mut a = AdaptiveBudget::new();
        let mut b = AdaptiveBudget::new();
        a.initial_fraction();
        b.initial_fraction();
        for (i, &bytes) in [700usize, 100, 200, 90, 800, 50].iter().enumerate() {
            let fast = SpillObservation::new(bytes, 1, 1, 1000);
            let slow =
                SpillObservation::new(bytes, 1_000_000_000 * (i as u64 + 1), 77_000_000, 1000);
            assert_eq!(a.next_fraction(&fast), b.next_fraction(&slow));
        }
    }

    #[test]
    fn byte_only_policies_never_ask_for_the_consume_time() {
        let ask = || -> u64 { panic!("asked for the consume time") };
        let mut fixed = FixedSpill(0.8);
        let mut budget = AdaptiveBudget::new();
        budget.initial_fraction();
        for bytes in [700, 100, 100, 100, 900] {
            let obs = SpillObservation::deferred(bytes, 5, 1000, &ask);
            assert_eq!(fixed.next_fraction(&obs), 0.8);
            budget.next_fraction(&obs);
        }
        let asked = std::cell::Cell::new(0);
        let counting = || {
            asked.set(asked.get() + 1);
            42
        };
        let obs = SpillObservation::deferred(100, 5, 1000, &counting);
        assert_eq!(asked.get(), 0);
        assert_eq!(obs.consume_ns(), 42);
        assert_eq!(asked.get(), 1);
    }

    #[test]
    fn factory_produces_independent_controllers() {
        let f = fixed_spill_factory(0.5);
        let mut a = f(TaskCtx { node: 0, task: 0 });
        let mut b = f(TaskCtx { node: 1, task: 1 });
        assert_eq!(a.initial_fraction(), 0.5);
        assert_eq!(b.initial_fraction(), 0.5);
    }
}
