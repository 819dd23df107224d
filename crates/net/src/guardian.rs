//! Bandwidth guardians: the babbling-idiot defence.
//!
//! Section 2.1: "we assume ... that there is some solution to the
//! babbling-idiot problem \[11\] — e.g., that the bandwidth of each link is
//! statically allocated between the nodes", and "the MAC is often
//! implemented in hardware and thus can enforce bandwidth allocations
//! even if nodes are corrupted". A [`Guardian`] is that hardware MAC:
//! a per-period byte budget that refills at period boundaries and cannot
//! be bypassed by the node software (faulty or not) because the simulator
//! routes every send through it.

use btr_model::{Duration, Time};

/// Outcome of a guardian check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardianVerdict {
    /// The send fits in the current period's remaining budget.
    Permit,
    /// The send exceeds the budget and is dropped at the MAC.
    Deny,
}

/// A per-period byte-budget enforcer for one (sender, link) pair.
#[derive(Debug, Clone)]
pub struct Guardian {
    /// Budget in bytes per period.
    budget: u64,
    /// Refill interval.
    period: Duration,
    /// Start of the period the current budget belongs to; the period is
    /// `[start, start + period)`.
    start: u64,
    /// Bytes still available in the current period.
    remaining: u64,
    /// Total bytes denied over the guardian's lifetime (diagnostics).
    denied: u64,
}

impl Guardian {
    /// Create a guardian with `budget` bytes per `period`.
    ///
    /// # Panics
    /// Panics if the period is zero.
    pub fn new(budget: u64, period: Duration) -> Guardian {
        assert!(period.as_micros() > 0, "guardian period must be positive");
        Guardian {
            budget,
            period,
            start: 0,
            remaining: budget,
            denied: 0,
        }
    }

    /// True while `now` lies in the period the budget belongs to. The
    /// window is two-sided because a lane does not see monotonic time
    /// (a relayed message reaches it at its *arrival* time, which can be
    /// ahead of the lane's own node): an earlier `now` leaves the period
    /// just as a later one does. No division — `start` is a multiple of
    /// the period, so the subtraction decides it, at any `now`.
    #[inline]
    fn in_period(&self, now: Time) -> bool {
        now.0 >= self.start && now.0 - self.start < self.period.0
    }

    /// Move the budget to the period containing `now`; divides only when
    /// `now` has left the current one.
    #[inline]
    fn roll(&mut self, now: Time) {
        if !self.in_period(now) {
            self.start = now.0 - now.0 % self.period.0;
            self.remaining = self.budget;
        }
    }

    /// Check (and account for) a send of `bytes` at time `now`.
    pub fn check(&mut self, now: Time, bytes: u64) -> GuardianVerdict {
        self.roll(now);
        if bytes <= self.remaining {
            self.remaining -= bytes;
            GuardianVerdict::Permit
        } else {
            self.denied += bytes;
            GuardianVerdict::Deny
        }
    }

    /// Remaining budget in the period containing `now` (without spending).
    pub fn remaining_at(&self, now: Time) -> u64 {
        if self.in_period(now) {
            self.remaining
        } else {
            self.budget
        }
    }

    /// Total bytes denied so far.
    pub fn denied_bytes(&self) -> u64 {
        self.denied
    }

    /// The configured per-period budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The refill interval.
    pub fn period(&self) -> Duration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn permits_within_budget() {
        let mut g = Guardian::new(100, Duration(1_000));
        assert_eq!(g.check(Time(0), 60), GuardianVerdict::Permit);
        assert_eq!(g.check(Time(10), 40), GuardianVerdict::Permit);
        assert_eq!(g.check(Time(20), 1), GuardianVerdict::Deny);
        assert_eq!(g.denied_bytes(), 1);
    }

    #[test]
    fn refills_at_period_boundary() {
        let mut g = Guardian::new(100, Duration(1_000));
        assert_eq!(g.check(Time(0), 100), GuardianVerdict::Permit);
        assert_eq!(g.check(Time(999), 1), GuardianVerdict::Deny);
        assert_eq!(g.check(Time(1_000), 100), GuardianVerdict::Permit);
    }

    #[test]
    fn remaining_at_is_pure() {
        let mut g = Guardian::new(100, Duration(1_000));
        g.check(Time(0), 30);
        assert_eq!(g.remaining_at(Time(1)), 70);
        assert_eq!(g.remaining_at(Time(1)), 70);
        // Next period looks fresh even before a check rolls it.
        assert_eq!(g.remaining_at(Time(1_000)), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = Guardian::new(10, Duration(0));
    }

    /// The guardian as first written: one division per call, the period
    /// index as the window. The division-free window is held to it.
    struct IndexOracle {
        budget: u64,
        period: Duration,
        current_period: u64,
        remaining: u64,
        denied: u64,
    }

    impl IndexOracle {
        fn check(&mut self, now: Time, bytes: u64) -> GuardianVerdict {
            let p = now.period_index(self.period);
            if p != self.current_period {
                self.current_period = p;
                self.remaining = self.budget;
            }
            if bytes <= self.remaining {
                self.remaining -= bytes;
                GuardianVerdict::Permit
            } else {
                self.denied += bytes;
                GuardianVerdict::Deny
            }
        }

        fn remaining_at(&self, now: Time) -> u64 {
            if now.period_index(self.period) != self.current_period {
                self.budget
            } else {
                self.remaining
            }
        }
    }

    #[test]
    fn earlier_time_leaves_the_period_too() {
        // A relayed message charged at its arrival time (period 1), then
        // the lane's own node sending at an earlier `now` (period 0):
        // both directions refill, as the period-index rule always did.
        let mut g = Guardian::new(100, Duration(1_000));
        assert_eq!(g.check(Time(1_500), 100), GuardianVerdict::Permit);
        assert_eq!(g.remaining_at(Time(999)), 100);
        assert_eq!(g.check(Time(999), 100), GuardianVerdict::Permit);
        assert_eq!(g.check(Time(0), 1), GuardianVerdict::Deny);
        assert_eq!(g.check(Time(1_000), 100), GuardianVerdict::Permit);
    }

    proptest! {
        /// `roll`/`check`/`remaining_at` without a division agree with
        /// the period-index oracle on every step of an arbitrary — not
        /// monotonic — time sequence, for any budget and any period, up
        /// to the last representable instants.
        #[test]
        fn prop_window_matches_period_index_oracle(
            budget in 0u64..5_000,
            period_raw in any::<u64>(),
            shift in 0u32..64,
            base in any::<u64>(),
            steps in proptest::collection::vec((0u8..5, any::<u64>(), 0u64..2_000), 1..80),
        ) {
            let period = Duration((period_raw >> shift).max(1));
            let near = period.0.saturating_mul(3);
            let mut g = Guardian::new(budget, period);
            let mut oracle = IndexOracle {
                budget,
                period,
                current_period: 0,
                remaining: budget,
                denied: 0,
            };
            let mut last = Time(0);
            for (kind, raw, bytes) in steps {
                let now = Time(match kind {
                    0 => base.saturating_add(raw % near),
                    1 => base.saturating_sub(raw % near),
                    2 => raw,
                    3 => raw % near,
                    _ => u64::MAX - 1 - raw % 3,
                });
                prop_assert_eq!(g.remaining_at(now), oracle.remaining_at(now));
                prop_assert_eq!(g.check(now, bytes), oracle.check(now, bytes));
                prop_assert_eq!(g.remaining_at(now), oracle.remaining_at(now));
                prop_assert_eq!(g.remaining_at(last), oracle.remaining_at(last));
                prop_assert_eq!(g.denied_bytes(), oracle.denied);
                last = now;
            }
        }

        /// Within any single period, permitted bytes never exceed budget.
        #[test]
        fn prop_budget_never_exceeded(budget in 1u64..10_000,
                                      sends in proptest::collection::vec((0u64..2_000, 0u64..999), 1..50)) {
            let mut g = Guardian::new(budget, Duration(1_000));
            let mut permitted = 0u64;
            for (bytes, t) in sends {
                if g.check(Time(t), bytes) == GuardianVerdict::Permit {
                    permitted += bytes;
                }
            }
            prop_assert!(permitted <= budget);
        }

        /// Over k periods, permitted bytes never exceed k * budget.
        #[test]
        fn prop_multi_period_bound(budget in 1u64..1_000,
                                   sends in proptest::collection::vec((0u64..500, 0u64..5_000), 1..100)) {
            let mut g = Guardian::new(budget, Duration(1_000));
            let mut by_period = std::collections::BTreeMap::new();
            let mut ordered = sends.clone();
            ordered.sort_by_key(|&(_, t)| t);
            for (bytes, t) in ordered {
                if g.check(Time(t), bytes) == GuardianVerdict::Permit {
                    *by_period.entry(t / 1_000).or_insert(0u64) += bytes;
                }
            }
            for (_, total) in by_period {
                prop_assert!(total <= budget);
            }
        }
    }
}
