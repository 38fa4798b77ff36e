//! Virtual-time simulation of the map-thread / support-thread pipeline.
//!
//! This is the executable form of the paper's Section IV-C model. Per map
//! task, a *producer* (the map thread: read + map + emit) fills a spill
//! buffer of capacity `M`; a *consumer* (the support thread: sort, combine
//! and spill write) drains it one segment at a time. The spill fraction
//! `x` controls when the active segment is handed over.
//!
//! * handover happens when the active segment reaches `x·M` **and** the
//!   consumer is idle — while the consumer is busy the segment keeps
//!   growing (this is why `m_i` can exceed `x·M`, Eq. 2);
//! * the producer blocks when active + in-flight bytes would exceed `M`
//!   (the `M − m_{i−1}` bound in Eq. 2);
//! * consumer idle gaps between handovers are the support thread's wait
//!   time; producer blocking is the map thread's wait time (Table II).
//!
//! Work is executed for real and *measured*; this module advances the
//! virtual clocks from those measurements. The map task runs the two
//! threads for real as well, so a handover's consume time is known only
//! when the support thread finishes the segment: [`Pipeline::handover`]
//! leaves it *pending* and [`Pipeline::resolve`] delivers it. Until then
//! every decision that does not depend on it goes ahead: a buffer-full
//! block is recorded at the producer's clock and charged on arrival as
//! `max(0, busy_until − v_at_block)`, which is what the wait would have
//! been had the time been known at once. Only a decision that does depend
//! on it — a spill-threshold check made before the buffer-full point —
//! answers `None`, and the caller resolves and asks again. Resolving at
//! once or as late as that allows gives the same admissions, clocks and
//! waits. The recurrence in `textmr-core::model` is the closed-form
//! special case of this machine under constant rates, and the property
//! tests cross-validate the two.

use crate::metrics::VNanos;

/// The spill threshold in bytes for fraction `x` of capacity `m`. Ceil so
/// that x = 1.0 requires a genuinely full buffer.
fn threshold(x: f64, m: usize) -> usize {
    (x * m as f64).ceil() as usize
}

/// Outcome of offering a record to the pipeline: what the caller (the map
/// task) must do before appending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Append to the active segment; no spill.
    Append,
    /// Hand the active segment to the consumer first, then append.
    SpillThenAppend,
}

/// Virtual-time state of one map task's producer/consumer pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Spill buffer capacity M (accounted bytes).
    capacity: usize,
    /// Spill fraction x in force for the active segment.
    fraction: f64,
    /// Spill threshold in bytes, `⌈x·M⌉`: computed when `x` is set, not
    /// on every append.
    threshold: usize,
    /// Producer virtual clock.
    v_producer: VNanos,
    /// Virtual time at which the consumer finishes its current segment
    /// (stale while a handover is pending).
    consumer_busy_until: VNanos,
    /// Accounted bytes of the segment currently being consumed.
    in_flight: usize,
    /// Accounted bytes of the active (growing) segment, mirrored here so
    /// admission decisions need no access to the segment itself.
    active_bytes: usize,
    /// Producer busy virtual time (read + map + emit work).
    pub produce_busy: VNanos,
    /// Consumer busy virtual time (sort + combine + write work).
    pub consume_busy: VNanos,
    /// Producer blocked-on-full-buffer virtual time.
    pub producer_wait: VNanos,
    /// Consumer waiting-for-spill virtual time.
    pub consumer_wait: VNanos,
    /// Producer busy time when the active segment started (for per-spill
    /// produce-time observations).
    segment_produce_start: VNanos,
    /// The last handover, while its consume time has not arrived.
    pending: Option<Pending>,
    /// Producer wait charged when the last record ended
    /// ([`end_record`](Pipeline::end_record)).
    waited_at: VNanos,
    /// A record ended blocked for a wait still pending.
    record_held: bool,
}

/// A handover whose consume time has not arrived.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Producer clock at the handover: the consumer starts then.
    at: VNanos,
    /// Producer clock at which a full buffer blocked the producer, if it
    /// did; the producer resumes once the consumer is done.
    blocked_at: Option<VNanos>,
}

impl Pipeline {
    /// New pipeline over a buffer of `capacity` accounted bytes with the
    /// initial spill fraction.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `fraction` is not in `(0, 1]`.
    pub fn new(capacity: usize, fraction: f64) -> Self {
        assert!(capacity > 0, "spill buffer capacity must be positive");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "spill fraction must be in (0,1]"
        );
        Pipeline {
            capacity,
            fraction,
            threshold: threshold(fraction, capacity),
            v_producer: 0,
            consumer_busy_until: 0,
            in_flight: 0,
            active_bytes: 0,
            produce_busy: 0,
            consume_busy: 0,
            producer_wait: 0,
            consumer_wait: 0,
            segment_produce_start: 0,
            pending: None,
            waited_at: 0,
            record_held: false,
        }
    }

    /// Buffer capacity M.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spill fraction currently in force.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Set the spill fraction for the *next* segment (controllers call this
    /// through the map task after each spill).
    pub fn set_fraction(&mut self, x: f64) {
        assert!(
            x > 0.0 && x <= 1.0,
            "spill fraction must be in (0,1], got {x}"
        );
        self.fraction = x;
        self.threshold = threshold(x, self.capacity);
    }

    /// Producer performed `ns` of measured work (advances its clock).
    #[inline]
    pub fn produce(&mut self, ns: u64) {
        self.v_producer += ns;
        self.produce_busy += ns;
    }

    /// Free the in-flight segment if the consumer has finished by now.
    #[inline]
    fn reap(&mut self) {
        if self.v_producer >= self.consumer_busy_until {
            self.in_flight = 0;
        }
    }

    /// Decide how to admit a record of accounted size `cost`. May advance
    /// the producer clock (blocking on a full buffer). `None` while a
    /// handover is pending and the answer depends on its consume time:
    /// [`resolve`](Pipeline::resolve) it and ask again (nothing changed).
    pub fn admit(&mut self, cost: usize) -> Option<Admission> {
        if let Some(p) = &mut self.pending {
            if p.blocked_at.is_none() {
                if self.active_bytes + cost + self.in_flight <= self.capacity {
                    // The threshold hands over only if the consumer is done.
                    return (self.active_bytes < self.threshold).then_some(Admission::Append);
                }
                // Buffer full: block until the consumer frees its segment
                // (charged when its time arrives; nothing if already done).
                p.blocked_at = Some(self.v_producer);
                self.in_flight = 0;
            }
            // Blocked: the consumer is idle once the producer resumes.
            let spill = (self.active_bytes + cost > self.capacity && self.active_bytes > 0)
                || self.active_bytes >= self.threshold;
            return Some(if spill {
                Admission::SpillThenAppend
            } else {
                Admission::Append
            });
        }
        self.reap();
        // Would the buffer overflow?
        if self.active_bytes + cost + self.in_flight > self.capacity {
            if self.in_flight > 0 {
                // Block until the consumer frees its segment, then resume
                // filling toward the threshold (Hadoop does not spill a
                // sub-threshold segment just because it had to wait).
                debug_assert!(self.consumer_busy_until > self.v_producer);
                self.producer_wait += self.consumer_busy_until - self.v_producer;
                self.v_producer = self.consumer_busy_until;
                self.in_flight = 0;
            }
            // The active segment alone no longer fits (threshold ≈ 1, or an
            // oversized record): it must be spilled to make room.
            if self.active_bytes + cost > self.capacity && self.active_bytes > 0 {
                return Some(Admission::SpillThenAppend);
            }
            // Oversized single record with an empty buffer: append anyway;
            // it will exceed the threshold and spill on the next check.
        }
        // Reaching the spill threshold hands over only if the consumer is
        // idle; otherwise the segment keeps growing (Eq. 2).
        if self.active_bytes >= self.threshold && self.v_producer >= self.consumer_busy_until {
            return Some(Admission::SpillThenAppend);
        }
        Some(Admission::Append)
    }

    /// Record that `cost` accounted bytes were appended to the active
    /// segment.
    #[inline]
    pub fn appended(&mut self, cost: usize) {
        self.active_bytes += cost;
    }

    /// Should the active segment spill right now? Checked after appends:
    /// true when the threshold is reached and the consumer is idle. `None`
    /// when that depends on a pending consume time, as for
    /// [`admit`](Pipeline::admit).
    pub fn should_spill(&mut self) -> Option<bool> {
        if self.active_bytes < self.threshold {
            return Some(false);
        }
        if let Some(p) = &self.pending {
            return p.blocked_at.map(|_| true);
        }
        self.reap();
        Some(self.v_producer >= self.consumer_busy_until)
    }

    /// Whether the producer blocked on a full buffer for a time that is
    /// not known yet (it arrives with the pending consume time).
    fn is_blocked_pending(&self) -> bool {
        self.pending.is_some_and(|p| p.blocked_at.is_some())
    }

    /// Hand the active segment (its size is tracked internally) to the
    /// consumer, whose cost of sorting, combining and writing it arrives
    /// later through [`resolve`](Pipeline::resolve). Returns the per-spill
    /// observation inputs `(segment_bytes, produce_ns_for_segment)`.
    ///
    /// The consumer must be idle (callers only spill under that condition);
    /// its idle gap since finishing the previous segment is accounted as
    /// consumer wait.
    ///
    /// # Panics
    /// Panics if the previous handover is still pending.
    pub fn handover(&mut self) -> (usize, u64) {
        assert!(self.pending.is_none(), "handover before the last resolved");
        debug_assert!(
            self.v_producer >= self.consumer_busy_until,
            "handover while consumer busy"
        );
        let seg_bytes = self.active_bytes;
        let produce_ns = self.produce_busy - self.segment_produce_start;
        self.consumer_wait += self.v_producer - self.consumer_busy_until;
        self.pending = Some(Pending {
            at: self.v_producer,
            blocked_at: None,
        });
        self.in_flight = seg_bytes;
        self.active_bytes = 0;
        self.segment_produce_start = self.produce_busy;
        (seg_bytes, produce_ns)
    }

    /// The pending handover's *measured* consume time arrived: the consumer
    /// is busy until handover + `consume_ns`, and a producer that blocked
    /// meanwhile resumes then. Returns the rest of a record's wait when
    /// [`end_record`](Pipeline::end_record) left one to come.
    ///
    /// # Panics
    /// Panics if no handover is pending.
    pub fn resolve(&mut self, consume_ns: u64) -> Option<VNanos> {
        let p = self.pending.take().expect("no handover pending");
        self.consumer_busy_until = p.at + consume_ns;
        self.consume_busy += consume_ns;
        if let Some(at) = p.blocked_at {
            let wait = self.consumer_busy_until.saturating_sub(at);
            self.producer_wait += wait;
            self.v_producer += wait;
        }
        std::mem::take(&mut self.record_held).then(|| self.end_record().0)
    }

    /// End one producer record: the producer wait charged since the last
    /// record ended (it precedes this record's work), and whether the
    /// record also blocked for a wait still pending, whose rest
    /// [`resolve`](Pipeline::resolve) returns. Traces call this to put
    /// each wait before the record that blocked.
    pub fn end_record(&mut self) -> (VNanos, bool) {
        let wait = self.producer_wait - self.waited_at;
        self.waited_at = self.producer_wait;
        let held = self.is_blocked_pending() && !self.record_held;
        self.record_held |= held;
        (wait, held)
    }

    /// End of input: if the consumer is still busy, the map thread waits
    /// for it (the flush barrier before the final spill / merge). Advances
    /// the producer clock to the consumer's completion.
    ///
    /// # Panics
    /// Panics if a handover is pending.
    pub fn drain_barrier(&mut self) {
        assert!(
            self.pending.is_none(),
            "drain barrier before the last resolved"
        );
        if self.consumer_busy_until > self.v_producer {
            self.producer_wait += self.consumer_busy_until - self.v_producer;
            self.v_producer = self.consumer_busy_until;
        }
        self.in_flight = 0;
    }

    /// Bytes currently in the active segment (tracks the real segment).
    pub fn active_bytes(&self) -> usize {
        self.active_bytes
    }

    /// Virtual time at which the pipelined portion ends (both threads
    /// done), once no handover is pending.
    pub fn pipeline_end(&self) -> VNanos {
        debug_assert!(self.pending.is_none(), "pipeline end while pending");
        self.v_producer.max(self.consumer_busy_until)
    }

    /// Producer's current virtual clock (exact once no blocked wait is
    /// pending).
    pub fn producer_clock(&self) -> VNanos {
        self.v_producer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the pipeline with constant produce cost per byte and constant
    /// consume cost per byte, each consume time arriving at the handover;
    /// returns (producer_wait, consumer_wait, spill sizes).
    fn drive(
        capacity: usize,
        fraction: f64,
        record_cost: usize,
        produce_ns_per_rec: u64,
        consume_ns_per_byte: u64,
        records: usize,
    ) -> (u64, u64, Vec<usize>) {
        let mut p = Pipeline::new(capacity, fraction);
        let mut spills = Vec::new();
        let mut spill = |p: &mut Pipeline| {
            let (b, _) = p.handover();
            p.resolve(b as u64 * consume_ns_per_byte);
            spills.push(b);
        };
        for _ in 0..records {
            if p.admit(record_cost) == Some(Admission::SpillThenAppend) {
                spill(&mut p);
            }
            p.appended(record_cost);
            p.produce(produce_ns_per_rec);
            if p.should_spill() == Some(true) {
                spill(&mut p);
            }
        }
        p.drain_barrier();
        if p.active_bytes() > 0 {
            spill(&mut p);
        }
        (p.producer_wait, p.consumer_wait, spills)
    }

    #[test]
    fn first_spill_is_exactly_threshold() {
        // 100-byte records, capacity 1000, x = 0.5 → first spill at 500.
        let (_, _, spills) = drive(1000, 0.5, 100, 10, 0, 20);
        assert_eq!(spills[0], 500);
    }

    #[test]
    fn fast_consumer_never_blocks_producer() {
        // Consumer is instantaneous: producer never waits.
        let (pw, _cw, _) = drive(1000, 0.8, 100, 10, 0, 1000);
        assert_eq!(pw, 0);
    }

    #[test]
    fn slow_consumer_blocks_producer_at_full_buffer() {
        // Consumer far slower than producer with x=0.8: producer must block.
        let (pw, cw, spills) = drive(1000, 0.8, 100, 1, 1000, 100);
        assert!(pw > 0, "producer should have blocked");
        // Consumer is the bottleneck; it should essentially never wait
        // after the first spill. Allow the initial ramp.
        assert!(cw < 1000 * 2, "consumer wait unexpectedly large: {cw}");
        // Segments cannot exceed capacity.
        assert!(spills.iter().all(|&s| s <= 1000));
    }

    #[test]
    fn half_fraction_keeps_slow_consumer_waitfree() {
        // Eq. 1: when p > c the wait-free maximum for the *slower* thread
        // (the consumer) is x = 1/2: while it consumes one half, the
        // producer refills the other half, so a new segment is always ready
        // the moment it finishes. Only the initial ramp-up (time to produce
        // the very first spill: 5 records × 1 ns) counts as consumer wait.
        let (pw, cw, spills) = drive(1000, 0.5, 100, 1, 50, 200);
        assert_eq!(cw, 5, "slower consumer must be wait-free after ramp-up");
        // The faster producer is expected to block — that is the tradeoff.
        assert!(pw > 0);
        // Steady-state spills are exactly x·M = 500.
        assert!(spills.iter().all(|&s| s == 500), "{spills:?}");
    }

    #[test]
    fn segment_grows_past_threshold_while_consumer_busy() {
        // Slow consumer, x = 0.3: segments grow beyond 300 while the
        // consumer is busy (Eq. 2's max{xM, …} behaviour).
        let (_, _, spills) = drive(1000, 0.3, 100, 1, 100, 200);
        assert!(spills.iter().any(|&s| s > 300), "{spills:?}");
    }

    #[test]
    fn slower_producer_below_eq1_bound_never_blocks() {
        // p < c: producer slower. produce 300 ns/rec → p = 1/3 B/ns;
        // consume 1 ns/B → c = 1 B/ns; Eq. 1's continuous bound is
        // x = c/(p+c) = 0.75. At exactly the bound, record granularity can
        // tip the buffer over by one record (the continuous model is only
        // *marginally* wait-free there), so we test strictly below it.
        let (pw, cw, _) = drive(1000, 0.7, 100, 300, 1, 500);
        assert_eq!(pw, 0, "slower producer must be wait-free below x = c/(p+c)");
        assert!(cw > 0, "the faster consumer bears the waiting");
    }

    #[test]
    fn above_eq1_bound_producer_blocks() {
        // Same rates, x above the c/(p+c)=0.75 bound: the slower producer
        // must now block — Eq. 1 is necessary as well as sufficient.
        let (pw, _cw, _) = drive(1000, 0.9, 100, 300, 1, 500);
        assert!(pw > 0, "x above the bound must stall the producer");
    }

    #[test]
    fn oversized_record_is_admitted_alone() {
        let mut p = Pipeline::new(100, 0.8);
        assert_eq!(p.admit(500), Some(Admission::Append));
        p.appended(500);
        assert_eq!(p.should_spill(), Some(true));
        let (b, _) = p.handover();
        assert_eq!(b, 500);
    }

    #[test]
    fn waits_accumulate_consistently() {
        let (pw, cw, spills) = drive(1000, 0.8, 50, 5, 20, 400);
        assert!(!spills.is_empty());
        // Producer + consumer busy/wait times are all non-negative by type;
        // sanity: total spilled bytes equals records * cost.
        let total: usize = spills.iter().sum();
        assert_eq!(total, 400 * 50);
        // At least one of the threads must have waited (rates differ).
        assert!(pw + cw > 0);
    }

    #[test]
    fn a_block_before_the_consume_time_is_charged_when_it_arrives() {
        // x = 0.8 over 1000 bytes: the second segment fills the buffer
        // before its threshold, so the block is decided without the time.
        let mut p = Pipeline::new(1000, 0.8);
        for _ in 0..8 {
            assert_eq!(p.admit(100), Some(Admission::Append));
            p.appended(100);
            p.produce(10);
        }
        assert_eq!(p.should_spill(), Some(true));
        assert_eq!(p.handover(), (800, 80));
        for _ in 0..2 {
            assert_eq!(p.admit(100), Some(Admission::Append));
            p.appended(100);
            p.produce(10);
            assert_eq!(p.should_spill(), Some(false));
        }
        assert!(!p.is_blocked_pending());
        // Full: the producer blocks at 100 ns, for a time still unknown.
        assert_eq!(p.admit(100), Some(Admission::Append));
        assert!(p.is_blocked_pending());
        p.appended(100);
        p.produce(10);
        assert_eq!(p.end_record(), (0, true));
        // The consumer took 500 ns from 80: the producer waited 480 − 100.
        assert_eq!(p.resolve(500), Some(480));
        assert_eq!((p.producer_wait, p.producer_clock()), (480, 590));
    }

    #[test]
    fn a_threshold_before_the_buffer_fills_waits_for_the_consume_time() {
        // x = 0.3: the threshold comes first, and whether it hands over
        // depends on whether the consumer is done.
        let mut p = Pipeline::new(1000, 0.3);
        for _ in 0..3 {
            p.admit(100);
            p.appended(100);
            p.produce(10);
        }
        assert_eq!(p.should_spill(), Some(true));
        p.handover();
        for _ in 0..3 {
            assert_eq!(p.admit(100), Some(Admission::Append));
            p.appended(100);
            p.produce(10);
        }
        assert_eq!(p.should_spill(), None);
        assert_eq!(p.admit(100), None);
        assert_eq!(p.resolve(10), None);
        assert_eq!(p.should_spill(), Some(true));
    }

    #[test]
    #[should_panic(expected = "spill fraction")]
    fn zero_fraction_rejected() {
        Pipeline::new(100, 0.0);
    }
}
