//! Fault kinds and fault sets.
//!
//! The threat model (Section 2.1) is Byzantine: "there is an adversary who
//! has compromised some subset of the nodes and has complete control over
//! them". [`FaultKind`] enumerates the concrete manifestations our fault
//! injector can script; [`FaultSet`] is the append-only set of nodes that
//! correct nodes have *convicted or excluded*, which Section 4.4 uses to
//! converge on a plan without running agreement.

use crate::ids::NodeId;
use std::collections::BTreeSet;

/// A concrete fault behaviour that can manifest on a compromised node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// The node stops entirely (fail-stop).
    Crash,
    /// The node silently drops some or all of its required messages.
    Omission,
    /// The node sends wrong values (commission faults).
    Commission,
    /// The node does the right thing at the wrong time (Section 4.2:
    /// "doing the right thing at the wrong time").
    Timing,
    /// The node sends conflicting signed outputs to different peers.
    Equivocation,
    /// The node floods its bandwidth allocation (babbling idiot / DoS).
    Babble,
    /// The node fabricates bogus evidence to DoS the verifiers (4.3).
    EvidenceSpam,
}

impl FaultKind {
    /// All kinds, in a stable order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Crash,
        FaultKind::Omission,
        FaultKind::Commission,
        FaultKind::Timing,
        FaultKind::Equivocation,
        FaultKind::Babble,
        FaultKind::EvidenceSpam,
    ];

    /// Short label for tables.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Omission => "omission",
            FaultKind::Commission => "commission",
            FaultKind::Timing => "timing",
            FaultKind::Equivocation => "equivocation",
            FaultKind::Babble => "babble",
            FaultKind::EvidenceSpam => "evidence-spam",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An append-only set of nodes believed faulty.
///
/// Section 4.4: "this set is append-only, and, if a node receives valid
/// evidence of a fault on some other node X, it can safely add X to its
/// local set". Plan selection is a deterministic function of this set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FaultSet(BTreeSet<NodeId>);

impl FaultSet {
    /// The empty set (the all-correct mode).
    pub fn empty() -> Self {
        FaultSet::default()
    }

    /// Build from a list of nodes.
    pub fn from_nodes(nodes: &[NodeId]) -> Self {
        FaultSet(nodes.iter().copied().collect())
    }

    /// Add a node; returns true if it was newly inserted.
    pub fn insert(&mut self, n: NodeId) -> bool {
        self.0.insert(n)
    }

    /// True if `n` is in the set.
    pub fn contains(&self, n: NodeId) -> bool {
        self.0.contains(&n)
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no node is marked faulty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().copied()
    }

    /// True if `self` ⊆ `other`.
    pub fn is_subset(&self, other: &FaultSet) -> bool {
        self.0.is_subset(&other.0)
    }

    /// The set as a borrowed `BTreeSet` (for graph algorithms).
    pub fn as_set(&self) -> &BTreeSet<NodeId> {
        &self.0
    }
}

impl FromIterator<NodeId> for FaultSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        FaultSet(iter.into_iter().collect())
    }
}

impl std::fmt::Display for FaultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn append_only_semantics() {
        let mut fs = FaultSet::empty();
        assert!(fs.is_empty());
        assert!(fs.insert(NodeId(3)));
        assert!(!fs.insert(NodeId(3)));
        assert!(fs.insert(NodeId(1)));
        assert_eq!(fs.len(), 2);
        assert!(fs.contains(NodeId(1)));
        assert!(!fs.contains(NodeId(0)));
    }

    #[test]
    fn display_sorted() {
        let fs = FaultSet::from_nodes(&[NodeId(3), NodeId(1)]);
        assert_eq!(fs.to_string(), "{n1,n3}");
        assert_eq!(FaultSet::empty().to_string(), "{}");
    }

    #[test]
    fn subset_and_union() {
        let a = FaultSet::from_nodes(&[NodeId(1)]);
        let b = FaultSet::from_nodes(&[NodeId(1), NodeId(2)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn fault_kind_labels_unique() {
        let labels: BTreeSet<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    proptest! {
        /// Insertion order never affects the canonical representation.
        #[test]
        fn prop_canonical_independent_of_order(mut ids in proptest::collection::vec(0u32..16, 0..10)) {
            let fs1: FaultSet = ids.iter().map(|&i| NodeId(i)).collect();
            ids.reverse();
            let fs2: FaultSet = ids.iter().map(|&i| NodeId(i)).collect();
            prop_assert_eq!(fs1, fs2);
        }
    }
}
