//! Per-period bookkeeping in a window of reusable rows.
//!
//! Everything a node remembers per period — the outputs it holds, the
//! lanes a checker has seen, the outputs it has echoed — is asked about
//! for the last few periods and collected behind them. [`PeriodRows`]
//! keeps one row per period of the window `[base, base + W)` at
//! `rows[period % W]`: a lookup is an index, and collecting a period
//! clears its row, which then serves the period `W` later with the
//! capacity it already has. Once the window has gone round, honest
//! traffic allocates nothing here. `W` is the number of periods the
//! owner keeps, so no row sits idle.
//!
//! A Byzantine producer may sign any period: a row for a period outside
//! the window when it is first written goes to an ordered map, the
//! overflow, and moves into the window's rows when the window reaches
//! it. A period is in exactly one place, so lookups ask one.

use btr_model::PeriodIdx;
use std::collections::BTreeMap;

/// Periods the detector's state spans: `Detector` collects four periods
/// behind the one it closes, and outputs arrive for the present one.
pub(crate) const DETECTOR_PERIODS: usize = 6;

/// Periods a node's own state spans: its period boundary collects three
/// periods behind the present one.
pub(crate) const NODE_PERIODS: usize = 4;

/// A per-period row: emptied, not freed, when its period is collected.
pub(crate) trait Row: Default {
    /// Forget the row's contents and keep its storage.
    fn clear(&mut self);
}

impl<T> Row for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// One row per period of a moving window of `W` periods, plus an
/// overflow for periods outside it (see the module docs).
#[derive(Debug)]
pub(crate) struct PeriodRows<R, const W: usize> {
    rows: [R; W],
    /// First period of the window: the greatest `before` collected so far.
    base: PeriodIdx,
    overflow: BTreeMap<PeriodIdx, R>,
}

impl<R: Row, const W: usize> Default for PeriodRows<R, W> {
    fn default() -> Self {
        PeriodRows {
            rows: std::array::from_fn(|_| R::default()),
            base: 0,
            overflow: BTreeMap::new(),
        }
    }
}

impl<R: Row, const W: usize> PeriodRows<R, W> {
    fn slot(&self, period: PeriodIdx) -> Option<usize> {
        let w = W as u64;
        (period >= self.base && period - self.base < w).then_some((period % w) as usize)
    }

    /// `period`'s row, if it has one (every period of the window has).
    pub(crate) fn get(&self, period: PeriodIdx) -> Option<&R> {
        match self.slot(period) {
            Some(i) => Some(&self.rows[i]),
            // Empty unless someone signed a period far from the present.
            None if self.overflow.is_empty() => None,
            None => self.overflow.get(&period),
        }
    }

    /// `period`'s row, made if it is outside the window and has none.
    pub(crate) fn get_mut(&mut self, period: PeriodIdx) -> &mut R {
        match self.slot(period) {
            Some(i) => &mut self.rows[i],
            None => self.overflow.entry(period).or_default(),
        }
    }

    /// Forget every period before `before`. The window moves up to start
    /// there (it never moves down): the rows it leaves are cleared and
    /// serve the periods it moves onto, whose overflow rows move in.
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
        let w = W as u64;
        if before > self.base {
            for p in self.base..before.min(self.base.saturating_add(w)) {
                self.rows[(p % w) as usize].clear();
            }
            self.base = before;
            if !self.overflow.is_empty() {
                let last = before.saturating_add(w - 1);
                while let Some(entry) = self.overflow.range(before..=last).next() {
                    let p = *entry.0;
                    let row = self.overflow.remove(&p).unwrap_or_default();
                    self.rows[(p % w) as usize] = row;
                }
            }
        }
        if !self.overflow.is_empty() {
            self.overflow.retain(|&p, _| p >= before);
        }
    }

    /// Every row, the window's and the overflow's: what the tests count.
    #[cfg(test)]
    pub(crate) fn all(&self) -> impl Iterator<Item = &R> {
        self.rows.iter().chain(self.overflow.values())
    }

    /// True if no row is in the overflow.
    #[cfg(test)]
    pub(crate) fn overflow_is_empty(&self) -> bool {
        self.overflow.is_empty()
    }
}

/// A period as the reference-model proptests deal them, from a dealt
/// byte `p` and a small `r`: around the present period `now`, ahead of
/// the window, far ahead, at the end of time, or near zero.
#[cfg(test)]
pub(crate) fn dealt_period(now: PeriodIdx, p: u8, r: u8) -> PeriodIdx {
    match p {
        0..=11 => (now + u64::from(p)).saturating_sub(6),
        12..=15 => now + u64::from(p),
        16..=18 => now + 1_000 * u64::from(p),
        19 => u64::MAX - u64::from(r),
        _ => u64::from(p - 20),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of the window keep their storage across collections; rows of
    /// the overflow move into the window as it reaches them.
    #[test]
    fn rows_are_reused_and_the_overflow_moves_in() {
        let mut rows: PeriodRows<Vec<u64>, 8> = PeriodRows::default();
        for p in 0..8 {
            rows.get_mut(p).push(p);
        }
        rows.get_mut(20).push(20);
        let buffers: Vec<*const u64> = rows.rows.iter().map(|r| r.as_ptr()).collect();
        rows.gc(13);
        // Periods 13..21: 20 moved in from the overflow, the rest empty.
        assert!(rows.overflow_is_empty());
        assert_eq!(rows.get(20), Some(&vec![20]));
        assert_eq!(rows.get(13), Some(&vec![]));
        assert_eq!(rows.get(3), None);
        for p in 13..21 {
            if p != 20 {
                let i = (p % 8) as usize;
                assert_eq!(
                    rows.rows[i].as_ptr(),
                    buffers[i],
                    "period {p} reuses its row"
                );
                assert!(rows.rows[i].capacity() > 0);
            }
        }
        // Collecting backwards moves nothing.
        rows.gc(2);
        assert_eq!(rows.get(20), Some(&vec![20]));
    }
}
