//! The recorder hook: how instrumented code hands facts to the
//! observability layer without being able to read anything back.
//!
//! The trait is deliberately one-way — every method takes `&mut self`
//! and plain-value facts, and returns nothing. An implementation can
//! aggregate, but it cannot influence the caller: that one-way shape is
//! the whole inertness argument (see the crate docs). Every method has
//! an empty default body, and a substrate with observation off holds no
//! recorder at all, so the pinned hot-path goldens are untouched.

use crate::hist::Histogram;
use crate::profile::Profile;
use crate::timeline::PhaseMark;

/// Monotonic counters the substrates maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events popped off the simulator queue (all kinds).
    Events,
    /// Message deliveries dispatched to a behaviour.
    Delivers,
    /// Timer firings dispatched to a behaviour.
    Timers,
    /// Control actions applied (fault injections, crashes).
    Controls,
    /// Actuator outputs committed to the logical trace.
    Actuations,
    /// Envelopes handed to the network layer.
    Sends,
    /// Phase marks observed.
    Marks,
}

/// Number of [`Counter`] kinds (array sizing).
pub const COUNTER_KINDS: usize = 7;

/// Latency families the substrates measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Lat {
    /// Network transit: send instant → delivery instant (logical µs).
    Delivery,
    /// Per-run slack to R (campaign oracle: budget − window).
    Slack,
}

/// Number of [`Lat`] kinds (array sizing).
pub(crate) const LAT_KINDS: usize = 2;

impl Counter {
    /// All kinds, in declaration order.
    pub fn all() -> [Counter; COUNTER_KINDS] {
        [
            Counter::Events,
            Counter::Delivers,
            Counter::Timers,
            Counter::Controls,
            Counter::Actuations,
            Counter::Sends,
            Counter::Marks,
        ]
    }
}

/// The observability hook. Strictly write-only from the caller's
/// perspective; all methods default to no-ops so instrumented code pays
/// nothing when observation is off.
pub trait Recorder {
    /// Bump a monotonic counter.
    #[inline]
    fn count(&mut self, _c: Counter, _n: u64) {}

    /// Record a latency sample (µs).
    #[inline]
    fn latency(&mut self, _l: Lat, _us: u64) {}

    /// Fold a pre-aggregated latency histogram in. Instrumentation
    /// sites hot enough to care batch samples into a concrete local
    /// [`Histogram`] (inlined record, no virtual dispatch) and flush
    /// it here once; the merge is lossless because the buckets are
    /// identical on both sides.
    #[inline]
    fn latencies(&mut self, _l: Lat, _h: &Histogram) {}

    /// Record a recovery-phase boundary observation.
    #[inline]
    fn mark(&mut self, _m: PhaseMark) {}

    /// Fold a pre-aggregated subsystem profile in. Like
    /// [`Recorder::latencies`], the hot path batches into a concrete
    /// local [`Profile`] and flushes it here once per run.
    #[inline]
    fn profile(&mut self, _p: &Profile) {}

    /// Downcast support, so callers holding `Box<dyn Recorder>` can
    /// retrieve a concrete recorder's contents after a run (mirrors
    /// the `NodeBehavior::as_any` pattern).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The collecting recorder: fixed arrays for counters and histograms
/// (allocation-free on the record path) plus an append-only mark log.
#[derive(Debug, Clone, Default)]
pub struct ObsRecorder {
    counters: [u64; COUNTER_KINDS],
    lats: [Histogram; LAT_KINDS],
    marks: Vec<PhaseMark>,
    profile: Profile,
}

impl ObsRecorder {
    /// An empty recorder.
    pub fn new() -> ObsRecorder {
        ObsRecorder {
            counters: [0; COUNTER_KINDS],
            lats: [Histogram::new(), Histogram::new()],
            marks: Vec::new(),
            profile: Profile::new(),
        }
    }

    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// A latency histogram.
    pub fn lat(&self, l: Lat) -> &Histogram {
        &self.lats[l as usize]
    }

    /// All observed phase marks, in observation order.
    pub fn marks(&self) -> &[PhaseMark] {
        &self.marks
    }

    /// The accumulated subsystem profile.
    pub fn subsystem_profile(&self) -> &Profile {
        &self.profile
    }
}

impl Recorder for ObsRecorder {
    #[inline]
    fn count(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] = self.counters[c as usize].saturating_add(n);
    }

    #[inline]
    fn latency(&mut self, l: Lat, us: u64) {
        self.lats[l as usize].record(us);
    }

    #[inline]
    fn latencies(&mut self, l: Lat, h: &Histogram) {
        self.lats[l as usize].merge(h);
    }

    #[inline]
    fn mark(&mut self, m: PhaseMark) {
        self.counters[Counter::Marks as usize] += 1;
        self.marks.push(m);
    }

    #[inline]
    fn profile(&mut self, p: &Profile) {
        self.profile.merge(p);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Phase;
    use btr_model::{NodeId, Time};

    #[test]
    fn obs_collects() {
        let mut r = ObsRecorder::new();
        r.count(Counter::Delivers, 3);
        r.count(Counter::Delivers, 2);
        r.latency(Lat::Delivery, 40);
        r.mark(PhaseMark {
            observer: NodeId(1),
            subject: NodeId(6),
            phase: Phase::Attributed,
            at: Time(55_000),
        });
        assert_eq!(r.counter(Counter::Delivers), 5);
        assert_eq!(r.counter(Counter::Marks), 1);
        assert_eq!(r.lat(Lat::Delivery).count(), 1);
        assert_eq!(r.marks().len(), 1);
    }

    #[test]
    fn profile_and_traffic_flow_through() {
        use crate::profile::Subsystem;
        let mut p = Profile::new();
        p.bump_n(Subsystem::Routing, 9);
        let mut r = ObsRecorder::new();
        r.profile(&p);
        r.count(Counter::Sends, 4);
        r.count(Counter::Delivers, 3);
        assert_eq!(r.subsystem_profile().count(Subsystem::Routing), 9);
        assert_eq!(r.counter(Counter::Sends), 4);
        assert_eq!(r.counter(Counter::Delivers), 3);
    }
}
