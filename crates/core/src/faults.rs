//! Scriptable fault injection.
//!
//! A [`FaultScenario`] lists which nodes the adversary compromises, when,
//! and how (one of the paper's Byzantine manifestations). Both hosts of
//! the protocol read a node's fault through [`FaultScenario::fault_of`]:
//! an attack script handed to its runtime, or a crash its host applies.

use btr_model::{Duration, FaultKind, NodeId, Time};
use btr_runtime::Attack;

/// Optional refinements of a fault's manifestation.
///
/// The base [`FaultKind`] fixes the family; these flags select the
/// adversary's sub-strategy within it. They matter for campaign-scale
/// fuzzing because the detection path differs: a garbled commitment
/// evades re-execution proofs (and is convicted via `BadWitness`
/// instead), and dropped heartbeats make an omission look like a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMods {
    /// Commission only: also lie about the input commitment.
    pub garble_commitment: bool,
    /// Omission only: drop heartbeats too (masquerade as a crash).
    pub drop_heartbeats: bool,
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The compromised node.
    pub node: NodeId,
    /// How it misbehaves.
    pub kind: FaultKind,
    /// When the fault manifests.
    pub at: Time,
    /// Sub-strategy refinements (ignored by kinds they don't apply to).
    pub mods: FaultMods,
}

impl InjectedFault {
    /// A fault with default modifiers.
    pub fn new(node: NodeId, kind: FaultKind, at: Time) -> InjectedFault {
        InjectedFault {
            node,
            kind,
            at,
            mods: FaultMods::default(),
        }
    }

    /// Same fault with the given modifiers.
    pub fn with_mods(mut self, mods: FaultMods) -> InjectedFault {
        self.mods = mods;
        self
    }

    /// The runtime attack script for this fault (None for crashes, which
    /// the host applies instead: see `InjectedFault::crash_at`).
    pub fn attack(&self) -> Option<Attack> {
        match self.kind {
            FaultKind::Crash => None,
            FaultKind::Omission => Some(Attack::Omission {
                from: self.at,
                drop_outputs: true,
                drop_heartbeats: self.mods.drop_heartbeats,
            }),
            FaultKind::Commission => Some(Attack::Commission {
                from: self.at,
                tasks: None,
                garble_commitment: self.mods.garble_commitment,
            }),
            FaultKind::Timing => Some(Attack::Timing {
                from: self.at,
                delay: Duration::from_millis(6),
            }),
            FaultKind::Equivocation => Some(Attack::Equivocate { from: self.at }),
            FaultKind::Babble => Some(Attack::Babble {
                from: self.at,
                msgs_per_period: 2_500,
            }),
            FaultKind::EvidenceSpam => Some(Attack::EvidenceSpam {
                from: self.at,
                per_period: 16,
            }),
        }
    }

    /// The instant the host fail-stops the node, if this fault is a
    /// crash: a control action in the world, free-running or paced.
    pub(crate) fn crash_at(&self) -> Option<Time> {
        (self.kind == FaultKind::Crash).then_some(self.at)
    }
}

/// A full adversarial script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScenario {
    /// The injected faults (at most one per node; later entries for the
    /// same node are ignored, see [`FaultScenario::fault_of`]).
    pub faults: Vec<InjectedFault>,
}

impl FaultScenario {
    /// No faults (reference behaviour).
    pub fn none() -> Self {
        FaultScenario::default()
    }

    /// A single fault.
    pub fn single(node: NodeId, kind: FaultKind, at: Time) -> Self {
        FaultScenario {
            faults: vec![InjectedFault::new(node, kind, at)],
        }
    }

    /// A sequence of faults of the same kind, `gap` apart, on the given
    /// nodes (the paper's "trigger a new fault every R seconds" attack).
    pub fn sequential(nodes: &[NodeId], kind: FaultKind, first_at: Time, gap: Duration) -> Self {
        FaultScenario {
            faults: nodes
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    InjectedFault::new(node, kind, first_at + Duration(gap.as_micros() * i as u64))
                })
                .collect(),
        }
    }

    /// The fault `node` suffers, if it is compromised: its first entry.
    /// The one reading both hosts make of a scenario.
    pub fn fault_of(&self, node: NodeId) -> Option<&InjectedFault> {
        self.faults.iter().find(|f| f.node == node)
    }

    /// The earliest manifestation time, if any fault is injected.
    pub fn first_manifestation(&self) -> Option<Time> {
        self.faults.iter().map(|f| f.at).min()
    }

    /// All compromised nodes.
    pub fn compromised(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.faults.iter().map(|f| f.node).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_none() {
        let s = FaultScenario::single(NodeId(3), FaultKind::Crash, Time(100));
        assert_eq!(s.compromised(), vec![NodeId(3)]);
        assert_eq!(s.first_manifestation(), Some(Time(100)));
        let crash = s.fault_of(NodeId(3)).expect("n3 is compromised");
        assert_eq!((crash.attack(), crash.crash_at()), (None, Some(Time(100))));
        assert!(FaultScenario::none().first_manifestation().is_none());
    }

    #[test]
    fn a_node_suffers_its_first_entry() {
        let s = FaultScenario {
            faults: vec![
                InjectedFault::new(NodeId(6), FaultKind::Commission, Time(42_000)),
                InjectedFault::new(NodeId(6), FaultKind::Crash, Time(60_000)),
            ],
        };
        let f = s.fault_of(NodeId(6)).expect("n6 is compromised");
        assert_eq!((f.kind, f.crash_at()), (FaultKind::Commission, None));
    }

    #[test]
    fn sequential_spacing() {
        let s = FaultScenario::sequential(
            &[NodeId(1), NodeId(2), NodeId(3)],
            FaultKind::Omission,
            Time::from_millis(10),
            Duration::from_millis(50),
        );
        assert_eq!(s.faults[0].at, Time::from_millis(10));
        assert_eq!(s.faults[1].at, Time::from_millis(60));
        assert_eq!(s.faults[2].at, Time::from_millis(110));
        assert!(s
            .fault_of(NodeId(2))
            .and_then(InjectedFault::attack)
            .is_some());
        assert!(s.fault_of(NodeId(7)).is_none());
    }

    #[test]
    fn every_kind_maps_to_a_script_or_crash() {
        for kind in FaultKind::ALL {
            let f = InjectedFault::new(NodeId(0), kind, Time(5));
            match kind {
                FaultKind::Crash => assert!(f.attack().is_none() && f.crash_at() == Some(Time(5))),
                _ => assert!(f.attack().is_some() && f.crash_at().is_none(), "{kind}"),
            }
        }
    }

    #[test]
    fn mods_select_attack_substrategy() {
        let garbled =
            InjectedFault::new(NodeId(0), FaultKind::Commission, Time(5)).with_mods(FaultMods {
                garble_commitment: true,
                ..FaultMods::default()
            });
        assert!(matches!(
            garbled.attack(),
            Some(Attack::Commission {
                garble_commitment: true,
                ..
            })
        ));
        let stealthy =
            InjectedFault::new(NodeId(1), FaultKind::Omission, Time(5)).with_mods(FaultMods {
                drop_heartbeats: true,
                ..FaultMods::default()
            });
        assert!(matches!(
            stealthy.attack(),
            Some(Attack::Omission {
                drop_heartbeats: true,
                ..
            })
        ));
        // Mods are inert on kinds they don't apply to.
        let crash = InjectedFault::new(NodeId(2), FaultKind::Crash, Time(5)).with_mods(FaultMods {
            garble_commitment: true,
            drop_heartbeats: true,
        });
        assert!(crash.attack().is_none());
    }
}
