//! Bandwidth guardians: the babbling-idiot defence.
//!
//! Section 2.1: "we assume ... that there is some solution to the
//! babbling-idiot problem \[11\] — e.g., that the bandwidth of each link is
//! statically allocated between the nodes", and "the MAC is often
//! implemented in hardware and thus can enforce bandwidth allocations
//! even if nodes are corrupted". A `Guardian` is that hardware MAC:
//! a per-period byte budget that refills at period boundaries and cannot
//! be bypassed by the node software (faulty or not) because both
//! substrates route every send through it. It sits on the link a message
//! leaves its originator by, and is charged at the originator's own send
//! instants, so the times it sees never go back.

use btr_model::{Duration, Time};

/// Outcome of a guardian check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardianVerdict {
    /// The send fits in the current period's remaining budget.
    Permit,
    /// The send exceeds the budget and is dropped at the MAC.
    Deny,
}

/// A per-period byte-budget enforcer for one (sender, link) pair.
#[derive(Debug, Clone)]
pub(crate) struct Guardian {
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
    pub(crate) fn new(budget: u64, period: Duration) -> Guardian {
        assert!(period.as_micros() > 0, "guardian period must be positive");
        Guardian {
            budget,
            period,
            start: 0,
            remaining: budget,
            denied: 0,
        }
    }

    /// Move the budget to the period containing `now`; divides only when
    /// `now` has passed the current one (`start` is a multiple of the
    /// period, so one subtraction decides it). An earlier `now` than the
    /// last never reaches a guardian; it would count against the current
    /// period.
    #[inline]
    fn roll(&mut self, now: Time) {
        if now.0.saturating_sub(self.start) >= self.period.0 {
            self.start = now.0 - now.0 % self.period.0;
            self.remaining = self.budget;
        }
    }

    /// Check (and account for) a send of `bytes` at time `now`.
    pub(crate) fn check(&mut self, now: Time, bytes: u64) -> GuardianVerdict {
        self.roll(now);
        if bytes <= self.remaining {
            self.remaining -= bytes;
            GuardianVerdict::Permit
        } else {
            self.denied += bytes;
            GuardianVerdict::Deny
        }
    }

    /// Total bytes denied so far.
    pub(crate) fn denied_bytes(&self) -> u64 {
        self.denied
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
    }

    proptest! {
        /// `roll`/`check` without a division agree with the period-index
        /// oracle on every step of a nondecreasing time sequence — the
        /// only kind a lane's owner produces — for any budget and any
        /// period, up to the last representable instants.
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
            let mut times: Vec<(u64, u64)> = steps
                .into_iter()
                .map(|(kind, raw, bytes)| {
                    let now = match kind {
                        0 => base.saturating_add(raw % near),
                        1 => base.saturating_sub(raw % near),
                        2 => raw,
                        3 => raw % near,
                        _ => u64::MAX - 1 - raw % 3,
                    };
                    (now, bytes)
                })
                .collect();
            times.sort_by_key(|&(now, _)| now);
            for (now, bytes) in times {
                prop_assert_eq!(g.check(Time(now), bytes), oracle.check(Time(now), bytes));
                prop_assert_eq!(g.denied_bytes(), oracle.denied);
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
