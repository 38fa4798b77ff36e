//! The calibration pass: a fixed piece of work that uses none of the
//! repository's code, timed between the repetitions of a run, so that a
//! timing can be reported relative to how fast the host was *while it was
//! taken*.
//!
//! This host is shared, and switches — for seconds to minutes at a time, at
//! zero steal — into a mode where everything runs slower: a byte scanner
//! 1.25×, cache-missing memory accesses up to 2×, the workloads 1.3–1.5×
//! (README, "Noise on this host"). A median of raw seconds therefore reads
//! which mode the run fell into, not the program. A calibration pass takes
//! ~0.14 s and mixes three kinds of work, because no single one slows like
//! the workloads do: a byte-at-a-time state machine over an L2-resident
//! buffer (compute), a chain of dependent random accesses over a table
//! twice the size of L2 (memory latency), and an in-place sort of the same
//! 8 MB.
//!
//! A timing between two passes is divided by their mean and multiplied by
//! [`REFERENCE_PASS_S`]: *calibrated seconds*, the seconds it would have
//! taken had the passes around it run at the reference speed.
//!
//! A pass allocates nothing. Its two buffers (8.25 MB) are allocated once,
//! before set-up, and stay resident to the end, so the allocator serves the
//! engine exactly as it would without them and `peak_rss_mb` carries them as
//! a constant.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// What a pass takes on this host class when the host is quiet (Xeon
/// 2.1 GHz guest, first reading): calibrated seconds equal host seconds
/// when the host runs at this speed. A constant, never re-measured, so that
/// two commits are scaled alike.
pub const REFERENCE_PASS_S: f64 = 0.135;

const SCAN_BYTES: usize = 256 << 10;
const SCAN_ROUNDS: usize = 30;
const TABLE_LEN: usize = 1 << 20;
const TABLE_OPS: usize = 3 << 19;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

pub struct Calib {
    text: Vec<u8>,
    table: Vec<u64>,
    /// Seconds of every pass so far, in order.
    passes: Vec<f64>,
    /// Folded results of the work, so that none of it can be optimised away
    /// and a test can pin it.
    checksum: u64,
}

impl Calib {
    pub fn new() -> Calib {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let alphabet = b"abcdefghij \"\\{}[]:,0123456789\n";
        let text = (0..SCAN_BYTES)
            .map(|_| alphabet[(xorshift(&mut s) % alphabet.len() as u64) as usize])
            .collect();
        Calib {
            text,
            table: vec![0; TABLE_LEN],
            passes: Vec::with_capacity(64),
            checksum: 0,
        }
    }

    fn scan(&self) -> u64 {
        let (mut acc, mut state) = (0u64, 0u64);
        for _ in 0..SCAN_ROUNDS {
            for &b in black_box(&self.text) {
                state = match b {
                    b'"' => state ^ 1,
                    b'\\' => state.wrapping_add(3),
                    b'{' | b'[' => state.wrapping_add(16),
                    b'}' | b']' => state.wrapping_sub(16),
                    _ => state,
                };
                acc = acc.wrapping_mul(31).wrapping_add(state ^ u64::from(b));
            }
        }
        acc
    }

    fn chase(&mut self) -> u64 {
        let mut s = 0x2545_F491_4F6C_DD1D;
        self.table.fill(0);
        // Each slot is chosen from the count just read, so every access
        // waits for the one before it.
        let mut slot = 0;
        for _ in 0..TABLE_OPS {
            let seen = self.table[slot];
            self.table[slot] = seen + 1;
            slot = (xorshift(&mut s).wrapping_add(seen)) as usize % TABLE_LEN;
        }
        self.table[0] ^ (self.table[TABLE_LEN / 2] << 8)
    }

    fn sort(&mut self) -> u64 {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        self.table.fill_with(|| xorshift(&mut s));
        self.table.sort_unstable();
        self.table[TABLE_LEN / 2]
    }

    /// One pass: all three kernels. Records and returns its seconds.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let folded = self.scan() ^ self.chase() ^ self.sort();
        let seconds = t.elapsed().as_secs_f64();
        self.checksum = black_box(folded);
        self.passes.push(seconds);
        seconds
    }

    pub fn passes(&self) -> &[f64] {
        &self.passes
    }
}

/// Median calibrated seconds of `timings`, where `passes[i]` was taken just
/// before `timings[i]` and `passes[i + 1]` just after it.
pub fn calibrated_median(timings: &[f64], passes: &[f64]) -> f64 {
    assert_eq!(
        passes.len(),
        timings.len() + 1,
        "one pass around each timing"
    );
    let scaled: Vec<f64> = timings
        .iter()
        .zip(passes.windows(2))
        .map(|(t, around)| t / ((around[0] + around[1]) / 2.0) * REFERENCE_PASS_S)
        .collect();
    median(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_the_same_work_every_time() {
        let mut c = Calib::new();
        assert!(c.pass() > 0.0);
        let first = c.checksum;
        assert!(c.pass() > 0.0);
        assert_eq!(c.checksum, first);
        assert_ne!(first, 0);
        assert_eq!(c.passes().len(), 2);
    }

    #[test]
    fn calibrated_seconds_follow_the_passes_around_each_timing() {
        // Host at reference speed: calibrated = raw.
        let r = REFERENCE_PASS_S;
        let got = calibrated_median(&[1.0, 1.2, 1.1], &[r, r, r, r]);
        assert!((got - 1.1).abs() < 1e-12);
        // The host is 1.5× slower around the second and third timing, and
        // so are they: every ratio, and so the median, is unchanged.
        let got = calibrated_median(&[1.0, 1.5, 1.5], &[r, r, 2.0 * r, r]);
        assert!((got - 1.0).abs() < 1e-12);
        // Passes twice as slow on both sides halve the calibrated time.
        let got = calibrated_median(&[3.0], &[2.0 * r, 2.0 * r]);
        assert!((got - 1.5).abs() < 1e-12);
    }
}
