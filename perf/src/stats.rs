//! Order statistics and the repetition rule.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// reads the same as the one the driver computes. One sample has no
/// spread: both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// `(q3 - q1) / median`: the run-to-run spread the bounds are held against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// When a run stops repeating its operation: after **both** `min_reps`
/// repetitions and `min_seconds` on the clock since the first, or at `cap`
/// repetitions.
/// The rule is the same on every commit, so a faster engine does more
/// repetitions, not a shorter run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepRule {
    pub min_reps: usize,
    pub min_seconds: f64,
    pub cap: usize,
}

/// Fewest repetitions any full run may report a median from.
pub const REP_FLOOR: usize = 7;

impl RepRule {
    /// The stand-alone rule: ≥ 9 repetitions and ≥ 15 s, cap 400.
    pub const DEFAULT: RepRule = RepRule {
        min_reps: 9,
        min_seconds: 15.0,
        cap: 400,
    };

    /// The rule for a time box of `seconds`: the default when the box is
    /// the default's, otherwise the shortened box with the repetition floor
    /// — the box shrinks uniformly, the inputs never do, and no run goes
    /// below [`REP_FLOOR`] repetitions.
    pub fn for_seconds(seconds: f64) -> RepRule {
        if seconds >= RepRule::DEFAULT.min_seconds {
            RepRule {
                min_seconds: seconds,
                ..RepRule::DEFAULT
            }
        } else {
            RepRule {
                min_reps: REP_FLOOR,
                min_seconds: seconds,
                cap: RepRule::DEFAULT.cap,
            }
        }
    }

    /// One repetition, for `--smoke`: exercises every code path and the
    /// full verification, reports nothing worth comparing.
    pub const SMOKE: RepRule = RepRule {
        min_reps: 1,
        min_seconds: 0.0,
        cap: 1,
    };

    /// Whether to stop after `reps` repetitions totalling `elapsed` seconds.
    pub fn done(&self, reps: usize, elapsed: f64) -> bool {
        reps >= self.cap || (reps >= self.min_reps && elapsed >= self.min_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_rule_needs_both_reps_and_seconds() {
        let r = RepRule::DEFAULT;
        assert!(!r.done(8, 100.0), "9 repetitions even when slow");
        assert!(!r.done(9, 14.9), "15 s even when fast");
        assert!(r.done(9, 15.0));
        assert!(!r.done(399, 1.0));
        assert!(r.done(400, 1.0), "cap ends a very fast operation's run");
    }

    #[test]
    fn shortened_box_never_goes_below_seven_repetitions() {
        for seconds in [1.0, 5.0, 10.0, 14.9] {
            let r = RepRule::for_seconds(seconds);
            assert_eq!(r.min_reps, REP_FLOOR);
            assert!(!r.done(6, 1e9));
            assert!(r.done(7, seconds));
            assert_eq!(r.cap, 400);
        }
        assert_eq!(RepRule::for_seconds(15.0), RepRule::DEFAULT);
        assert_eq!(RepRule::for_seconds(30.0).min_reps, 9);
    }
}
