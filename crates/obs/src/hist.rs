//! Allocation-free log-bucketed latency histogram.
//!
//! HDR-style with the resolution knob removed: values land in
//! power-of-two buckets (`bucket k` covers `[2^(k-1), 2^k)`; bucket 0
//! is exactly zero), so recording is a `leading_zeros` and an
//! increment — no allocation, no branching on configuration. Sixty-four
//! buckets cover the full `u64` range of microsecond latencies; at the
//! scales this repo cares about (µs to minutes) the half-order-of-
//! magnitude resolution is plenty to tell a 40 µs hop from a 40 ms
//! blackout.
//!
//! Merging is element-wise saturating addition, which makes it
//! **associative and commutative** — the property the campaign runner
//! needs to fold per-run slack histograms in work-stealing completion
//! order and still render a deterministic report. Pinned by proptest in
//! `tests/props.rs`.

/// Number of buckets (fixed; covers all of `u64`).
pub(crate) const BUCKETS: usize = 64;

/// A mergeable log-bucketed histogram of `u64` samples (microseconds
/// by convention, but unit-agnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in: 0 for 0, otherwise
    /// `bit_length(v)` clamped to the last bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket (the value reported for
    /// percentiles — a conservative over-estimate, never an under-).
    fn bucket_ceil(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Record one sample. Allocation-free; saturates rather than
    /// overflowing so merge order can never matter.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] = self.buckets[Self::bucket_of(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram in (element-wise saturating add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), clamped to the observed max. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q=1.0 is the last one.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Some(Self::bucket_ceil(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(inclusive_ceiling, count)` pairs, in
    /// ascending value order — the compact JSON rendering.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Self::bucket_ceil(b).min(self.max), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.nonzero().is_empty());
    }

    #[test]
    fn bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        // Each bucket's ceiling sits inside the next bucket's floor.
        assert_eq!(Histogram::bucket_ceil(0), 0);
        assert_eq!(Histogram::bucket_ceil(1), 1);
        assert_eq!(Histogram::bucket_ceil(2), 3);
        assert_eq!(Histogram::bucket_ceil(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 40_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(40_000));
        assert_eq!(h.quantile(0.0), Some(0));
        // q=1 reports the observed max exactly (ceil clamped).
        assert_eq!(h.quantile(1.0), Some(40_000));
        // Median of six samples is rank 3 → value 2's bucket (ceil 3).
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn quantile_never_underestimates() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * 1000.0_f64).ceil() as u64).clamp(1, 1000);
            assert!(h.quantile(q).unwrap() >= rank, "q={q}");
        }
    }

    #[test]
    fn merge_matches_interleaved_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for (i, v) in [5u64, 0, 17, 9_000, 3, 3, 123_456].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            all.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
