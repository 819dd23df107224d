//! Identifiers for nodes, tasks, links, plans, replicas, and periods.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A physical node (processor) in the CPS.
    NodeId,
    "n"
);
id_type!(
    /// A workload task in the dataflow graph (sources and sinks included).
    TaskId,
    "t"
);
id_type!(
    /// A network link (point-to-point or bus).
    LinkId,
    "l"
);
id_type!(
    /// A plan computed by the offline planner.
    PlanId,
    "plan"
);

/// Which replica of a task (0-based). The primary is replica 0.
pub type ReplicaIdx = u8;

/// Index of a release period since simulation start.
pub type PeriodIdx = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(TaskId(7).to_string(), "t7");
        assert_eq!(LinkId(1).to_string(), "l1");
        assert_eq!(PlanId(0).to_string(), "plan0");
        assert_eq!(NodeId(9).index(), 9);
        assert_eq!(NodeId::from(4), NodeId(4));
    }

    #[test]
    fn ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert!(TaskId(0) < TaskId(10));
    }
}
