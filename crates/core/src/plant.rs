//! The physical plant: inertia, envelopes, and the five-second rule.
//!
//! Section 1 of the paper argues BTR is safe *because the plant filters
//! short fault windows*: "the flight control system in an airplane can
//! typically operate within a relatively large flight envelope and is
//! already equipped to handle small disturbances ... Because of inertia,
//! a short malfunction will not be enough to push the airplane out of
//! this envelope". Section 3 derives the provisioning rule: with an
//! overall deadline D "after which damage can occur in the absence of
//! correct outputs, it seems prudent to set R := D/f rather than R := D".
//!
//! [`Plant`] operationalises that: an integrator of control error.
//! Each period of wrong/missing outputs pumps it up; a correct period
//! clears it. The plant is *damaged* the moment the error exceeds the
//! envelope, which by construction happens iff bad outputs persist for
//! the deadline D.

use crate::oracle::SinkVerdict;
use btr_model::workload::Workload;
use btr_model::Duration;

/// The integrator envelope model.
#[derive(Debug, Clone)]
pub struct Plant {
    /// The damage deadline D: continuous bad output for this long breaks
    /// the envelope.
    deadline: Duration,
    period: Duration,
    /// Accumulated error in periods-of-bad-output units.
    error: f64,
    /// Worst error level reached.
    peak: f64,
    /// True once the envelope was exceeded (latched).
    damaged: bool,
}

impl Plant {
    /// A plant for a system period that is damaged after `deadline` of
    /// continuous bad output and recovers fully after one correct period.
    pub fn new(deadline: Duration, period: Duration) -> Plant {
        Plant {
            deadline,
            period,
            error: 0.0,
            peak: 0.0,
            damaged: false,
        }
    }

    /// Budget in periods before damage.
    fn budget(&self) -> f64 {
        self.deadline.as_micros() as f64 / self.period.as_micros() as f64
    }

    /// Feed one period's outcome: `ok` = all safety-relevant outputs of
    /// the period were acceptable.
    pub fn step(&mut self, ok: bool) {
        if ok {
            self.error = 0.0;
        } else {
            self.error += 1.0;
        }
        if self.error > self.peak {
            self.peak = self.error;
        }
        if self.error >= self.budget() {
            self.damaged = true;
        }
    }

    /// Drive the plant from judged verdicts: a period is OK if every
    /// Safety-criticality slot in it is acceptable.
    pub fn drive(w: &Workload, deadline: Duration, verdicts: &[SinkVerdict]) -> Plant {
        let mut plant = Plant::new(deadline, w.period);
        let max_period = verdicts.iter().map(|v| v.period).max().unwrap_or(0);
        for p in 0..=max_period {
            let ok = verdicts
                .iter()
                .filter(|v| v.period == p && v.criticality == btr_model::Criticality::Safety)
                .all(|v| v.verdict.acceptable());
            plant.step(ok);
        }
        plant
    }

    /// True if the envelope was exceeded at any point.
    pub fn damaged(&self) -> bool {
        self.damaged
    }

    /// Worst error level reached, as a fraction of the damage budget.
    pub fn peak_stress(&self) -> f64 {
        self.peak / self.budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant(deadline_ms: u64) -> Plant {
        Plant::new(
            Duration::from_millis(deadline_ms),
            Duration::from_millis(10),
        )
    }

    #[test]
    fn short_outage_tolerated() {
        // D = 50 ms = 5 periods; 3 bad periods stay inside the envelope.
        let mut p = plant(50);
        for _ in 0..3 {
            p.step(false);
        }
        assert!(!p.damaged());
        assert!(p.peak_stress() < 1.0);
        // Recovery drains the error.
        p.step(true);
        assert!(p.error < 0.001);
    }

    #[test]
    fn long_outage_damages() {
        let mut p = plant(50);
        for _ in 0..5 {
            p.step(false);
        }
        assert!(p.damaged());
        assert!(p.peak_stress() >= 1.0);
    }

    #[test]
    fn damage_latches() {
        let mut p = plant(20);
        p.step(false);
        p.step(false);
        assert!(p.damaged());
        for _ in 0..10 {
            p.step(true);
        }
        assert!(p.damaged(), "damage must latch");
    }

    #[test]
    fn r_equals_d_over_f_rule_holds() {
        // With D = 5 periods and f = 2, provisioning R = D/2 means two
        // sequential R-length outages (k <= f) cannot damage the plant,
        // while R = D would.
        let d_periods = 6;
        let mut safe = plant(d_periods * 10);
        // Two outages of D/2 = 3 periods, separated by recovery.
        for _ in 0..3 {
            safe.step(false);
        }
        safe.step(true);
        for _ in 0..3 {
            safe.step(false);
        }
        assert!(
            !safe.damaged(),
            "R = D/f provisioning survives k = f faults"
        );

        // Back-to-back without recovery (the adversary's best case when
        // R = D is provisioned naively): damage.
        let mut naive = plant(d_periods * 10);
        for _ in 0..d_periods {
            naive.step(false);
        }
        assert!(naive.damaged());
    }
}
