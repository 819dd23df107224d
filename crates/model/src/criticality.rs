//! Mixed-criticality levels.
//!
//! The paper motivates fine-grained degradation with mixed-criticality
//! workloads: "the CPS on an airplane might run flight control and the
//! in-flight entertainment system. Thus, when a fault occurs, the system
//! can disable some of the less critical tasks and allocate their
//! resources to the more critical ones" (Section 1). We use four levels,
//! loosely modelled on automotive ASIL bands.

/// Criticality of a task's output. Higher levels are shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Criticality {
    /// Best-effort (e.g. in-flight entertainment).
    #[default]
    Low,
    /// Mission-relevant but not safety-relevant (e.g. telemetry).
    Medium,
    /// Important to the mission (e.g. navigation).
    High,
    /// Safety-critical; loss can cause physical damage (e.g. flight control).
    Safety,
}

impl Criticality {
    /// All levels, from lowest to highest.
    pub const ALL: [Criticality; 4] = [
        Criticality::Low,
        Criticality::Medium,
        Criticality::High,
        Criticality::Safety,
    ];

    /// A small integer rank (0 = lowest).
    pub const fn rank(self) -> u8 {
        match self {
            Criticality::Low => 0,
            Criticality::Medium => 1,
            Criticality::High => 2,
            Criticality::Safety => 3,
        }
    }

    /// Inverse of [`Criticality::rank`].
    pub const fn from_rank(rank: u8) -> Option<Criticality> {
        match rank {
            0 => Some(Criticality::Low),
            1 => Some(Criticality::Medium),
            2 => Some(Criticality::High),
            3 => Some(Criticality::Safety),
            _ => None,
        }
    }

    /// Short human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            Criticality::Low => "LOW",
            Criticality::Medium => "MED",
            Criticality::High => "HIGH",
            Criticality::Safety => "SAFETY",
        }
    }
}

impl std::fmt::Display for Criticality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_rank() {
        assert!(Criticality::Low < Criticality::Medium);
        assert!(Criticality::Medium < Criticality::High);
        assert!(Criticality::High < Criticality::Safety);
        for c in Criticality::ALL {
            assert_eq!(Criticality::from_rank(c.rank()), Some(c));
        }
        assert_eq!(Criticality::from_rank(9), None);
    }

    #[test]
    fn labels() {
        assert_eq!(Criticality::Safety.to_string(), "SAFETY");
        assert_eq!(Criticality::Low.to_string(), "LOW");
    }
}
