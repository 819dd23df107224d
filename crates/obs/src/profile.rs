//! Deterministic subsystem cost profiles for the hot path.
//!
//! A [`Profile`] attributes hot-path work to a small fixed set of
//! [`Subsystem`]s in two parallel ledgers:
//!
//! - **Event counts** — how many times each subsystem ran. These are a
//!   pure function of the logical schedule, so they are digest-stable:
//!   a profiled run and an unprofiled run of the same scenario produce
//!   byte-identical logical traces, and the counts themselves are
//!   reproducible across machines. Counts may therefore appear in
//!   reports, CI assertions, and campaign cell summaries.
//! - **Wall nanoseconds** — optional scoped timings collected only when
//!   the caller explicitly enables wall sampling. Wall times are
//!   machine- and load-dependent, so they are *reported but never
//!   folded into digests or verdicts*; they exist to say where the
//!   time goes, not to judge protocol behaviour.
//!
//! Like [`crate::Histogram`], merging is element-wise saturating
//! addition — associative and commutative — so per-run profiles fold
//! into campaign cells in work-stealing completion order without
//! disturbing report determinism. Pinned by proptest in
//! `tests/props.rs`.

/// Hot-path subsystems the simulator attributes cost to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Subsystem {
    /// Route lookup / path materialization (`RouteBackend`).
    Routing,
    /// Envelope signing (`signed_with` on the send path).
    CryptoSign,
    /// Envelope tag verification (`verify_env`).
    CryptoVerify,
    /// Arena event-queue operations (pushes and pops).
    Queue,
    /// Detector/evidence audit (`verify_output` witness checks).
    Audit,
    /// Control-plane work: fault injection, crash handling, route
    /// healing, mode switches.
    ModeSwitch,
    /// Behaviour dispatch (message and timer handlers).
    Dispatch,
    /// Everything not scoped above (wall remainder; count 0 by
    /// construction — only a reader of the profile, such as the
    /// repository benchmark, assigns remainder wall time).
    Other,
}

/// Number of [`Subsystem`] kinds (array sizing).
pub(crate) const SUBSYSTEM_KINDS: usize = 8;

impl Subsystem {
    /// Stable lowercase label (JSON keys, benchmark metric names).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Routing => "routing",
            Subsystem::CryptoSign => "crypto_sign",
            Subsystem::CryptoVerify => "crypto_verify",
            Subsystem::Queue => "queue",
            Subsystem::Audit => "audit",
            Subsystem::ModeSwitch => "mode_switch",
            Subsystem::Dispatch => "dispatch",
            Subsystem::Other => "other",
        }
    }

    /// All kinds in label order.
    pub fn all() -> [Subsystem; SUBSYSTEM_KINDS] {
        [
            Subsystem::Routing,
            Subsystem::CryptoSign,
            Subsystem::CryptoVerify,
            Subsystem::Queue,
            Subsystem::Audit,
            Subsystem::ModeSwitch,
            Subsystem::Dispatch,
            Subsystem::Other,
        ]
    }
}

/// A mergeable per-subsystem cost profile: deterministic event counts
/// plus optional (non-deterministic, never-digested) wall nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    counts: [u64; SUBSYSTEM_KINDS],
    wall_ns: [u64; SUBSYSTEM_KINDS],
}

impl Default for Profile {
    fn default() -> Self {
        Self::new()
    }
}

impl Profile {
    /// An empty profile.
    pub(crate) const fn new() -> Profile {
        Profile {
            counts: [0; SUBSYSTEM_KINDS],
            wall_ns: [0; SUBSYSTEM_KINDS],
        }
    }

    /// Count one subsystem invocation. Allocation-free; saturating so
    /// merge order can never matter.
    #[inline]
    pub fn bump(&mut self, s: Subsystem) {
        self.counts[s as usize] = self.counts[s as usize].saturating_add(1);
    }

    /// Count `n` subsystem invocations at once.
    #[inline]
    pub fn bump_n(&mut self, s: Subsystem, n: u64) {
        self.counts[s as usize] = self.counts[s as usize].saturating_add(n);
    }

    /// Add scoped wall time to a subsystem (wall-sampling mode only).
    #[inline]
    pub fn add_wall(&mut self, s: Subsystem, ns: u64) {
        self.wall_ns[s as usize] = self.wall_ns[s as usize].saturating_add(ns);
    }

    /// A subsystem's event count.
    pub fn count(&self, s: Subsystem) -> u64 {
        self.counts[s as usize]
    }

    /// A subsystem's accumulated wall nanoseconds (0 unless wall
    /// sampling was enabled).
    pub fn wall_ns(&self, s: Subsystem) -> u64 {
        self.wall_ns[s as usize]
    }

    /// Sum of all subsystem counts.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Sum of all subsystem wall nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// True when nothing has been recorded (neither counts nor wall).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0 && self.total_wall_ns() == 0
    }

    /// Fold another profile in (element-wise saturating add on both
    /// ledgers). Associative and commutative.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..SUBSYSTEM_KINDS {
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
            self.wall_ns[i] = self.wall_ns[i].saturating_add(other.wall_ns[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert_eq!(p.total_count(), 0);
        assert_eq!(p.total_wall_ns(), 0);
    }

    #[test]
    fn bump_and_wall() {
        let mut p = Profile::new();
        p.bump(Subsystem::Routing);
        p.bump_n(Subsystem::Routing, 4);
        p.bump(Subsystem::CryptoSign);
        p.add_wall(Subsystem::CryptoSign, 1_500);
        assert_eq!(p.count(Subsystem::Routing), 5);
        assert_eq!(p.count(Subsystem::CryptoSign), 1);
        assert_eq!(p.wall_ns(Subsystem::CryptoSign), 1_500);
        assert_eq!(p.total_count(), 6);
        assert_eq!(p.total_wall_ns(), 1_500);
    }

    #[test]
    fn merge_matches_interleaved() {
        let mut a = Profile::new();
        let mut b = Profile::new();
        let mut all = Profile::new();
        for (i, s) in [
            Subsystem::Routing,
            Subsystem::Queue,
            Subsystem::Dispatch,
            Subsystem::Queue,
            Subsystem::Audit,
        ]
        .iter()
        .enumerate()
        {
            if i % 2 == 0 {
                a.bump(*s);
            } else {
                b.bump(*s);
            }
            all.bump(*s);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn labels_are_unique() {
        let mut l: Vec<_> = Subsystem::all().iter().map(|s| s.label()).collect();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), SUBSYSTEM_KINDS);
    }
}
