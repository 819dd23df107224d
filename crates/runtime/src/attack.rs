//! Scripted Byzantine behaviours.
//!
//! The threat model (Section 2.1): "there is an adversary who has
//! compromised some subset of the nodes and has complete control over
//! them". A compromised node in our simulation runs the *same* BTR stack
//! but with an [`Attack`] script spliced into its output, heartbeat, and
//! control paths — it keeps its signing key (the adversary controls the
//! node, not the keys of others) and stays bound by the link guardians
//! (the MAC is hardware).

use btr_model::{Duration, TaskId, Time};
use std::collections::BTreeSet;

/// A scripted compromise, active from a start time onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attack {
    /// Send wrong values (commission). If `garble_commitment` is set the
    /// attacker also lies about its input commitment — which evades
    /// re-execution proofs but is convicted by `BadWitness` instead.
    Commission {
        /// Activation time.
        from: Time,
        /// Only these tasks are corrupted (None = all hosted tasks).
        tasks: Option<BTreeSet<TaskId>>,
        /// Lie about the input commitment too.
        garble_commitment: bool,
    },
    /// Silently drop outputs and/or heartbeats (omission).
    Omission {
        /// Activation time.
        from: Time,
        /// Drop task outputs.
        drop_outputs: bool,
        /// Drop heartbeats too (looks like a crash).
        drop_heartbeats: bool,
    },
    /// Emit outputs late — "doing the right thing at the wrong time".
    Timing {
        /// Activation time.
        from: Time,
        /// Extra delay added to every output emission.
        delay: Duration,
    },
    /// Send conflicting signed outputs to different consumers.
    Equivocate {
        /// Activation time.
        from: Time,
    },
    /// Flood the control plane with bogus evidence (DoS, Section 4.3).
    EvidenceSpam {
        /// Activation time.
        from: Time,
        /// Bogus records per period.
        per_period: u32,
    },
    /// Babbling idiot: saturate the node's bandwidth allocation.
    Babble {
        /// Activation time.
        from: Time,
        /// Garbage messages per period (guardians clip the excess).
        msgs_per_period: u32,
    },
}

impl Attack {
    /// The attack's activation time.
    pub fn from(&self) -> Time {
        match self {
            Attack::Commission { from, .. }
            | Attack::Omission { from, .. }
            | Attack::Timing { from, .. }
            | Attack::Equivocate { from }
            | Attack::EvidenceSpam { from, .. }
            | Attack::Babble { from, .. } => *from,
        }
    }

    /// True once the attack is live at `now`.
    pub fn active(&self, now: Time) -> bool {
        now >= self.from()
    }

    /// True if this attack corrupts the value of `task` at `now`.
    pub fn corrupts(&self, now: Time, task: TaskId) -> bool {
        match self {
            Attack::Commission { tasks, .. } if self.active(now) => {
                tasks.as_ref().is_none_or(|set| set.contains(&task))
            }
            _ => false,
        }
    }

    /// True if this attack drops the node's task outputs at `now`.
    pub fn drops_outputs(&self, now: Time) -> bool {
        matches!(
            self,
            Attack::Omission {
                drop_outputs: true,
                ..
            }
        ) && self.active(now)
    }

    /// True if this attack drops the node's heartbeats at `now`.
    pub fn drops_heartbeats(&self, now: Time) -> bool {
        matches!(
            self,
            Attack::Omission {
                drop_heartbeats: true,
                ..
            }
        ) && self.active(now)
    }

    /// The delay this attack adds to an emission scheduled at `now`.
    pub fn emit_delay(&self, now: Time) -> Duration {
        match self {
            Attack::Timing { delay, .. } if self.active(now) => *delay,
            _ => Duration::ZERO,
        }
    }

    /// True if this attack sends conflicting outputs at `now`.
    pub fn equivocates(&self, now: Time) -> bool {
        matches!(self, Attack::Equivocate { .. }) && self.active(now)
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Attack::Commission { .. } => "commission",
            Attack::Omission { .. } => "omission",
            Attack::Timing { .. } => "timing",
            Attack::Equivocate { .. } => "equivocation",
            Attack::EvidenceSpam { .. } => "evidence-spam",
            Attack::Babble { .. } => "babble",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_gating() {
        let a = Attack::Equivocate {
            from: Time::from_millis(50),
        };
        assert!(!a.active(Time::from_millis(49)));
        assert!(a.active(Time::from_millis(50)));
        assert_eq!(a.from(), Time::from_millis(50));
    }

    #[test]
    fn commission_task_filter() {
        let a = Attack::Commission {
            from: Time(0),
            tasks: Some(BTreeSet::from([TaskId(3)])),
            garble_commitment: false,
        };
        assert!(a.corrupts(Time(0), TaskId(3)));
        assert!(!a.corrupts(Time(0), TaskId(4)));
        let all = Attack::Commission {
            from: Time(0),
            tasks: None,
            garble_commitment: false,
        };
        assert!(all.corrupts(Time(1), TaskId(9)));
        // Non-commission attacks never corrupt values.
        let o = Attack::Omission {
            from: Time(0),
            drop_outputs: true,
            drop_heartbeats: false,
        };
        assert!(!o.corrupts(Time(1), TaskId(0)));
    }

    #[test]
    fn labels() {
        assert_eq!(
            Attack::Babble {
                from: Time(0),
                msgs_per_period: 1
            }
            .label(),
            "babble"
        );
    }
}
