//! Timer-id encoding for the BTR node.
//!
//! The simulator hands back opaque `u64` timer ids; the runtime packs its
//! bookkeeping into them: `[kind:4][version:8][idx:12][period:40]`.
//! The `version` field is the schedule version — slot timers armed under
//! an old plan are dropped after a mode switch instead of double-running.

use btr_model::PeriodIdx;

/// Decoded timer meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Start of a period (re-arms itself).
    PeriodBoundary {
        /// The period that starts now.
        period: PeriodIdx,
    },
    /// A schedule slot begins (gather inputs, start executing).
    SlotStart {
        /// Schedule version the slot belongs to.
        version: u8,
        /// Index into the node's schedule entries.
        idx: u16,
        /// The period of this instance.
        period: PeriodIdx,
    },
    /// A slot's execution budget elapsed (emit outputs / actuate).
    SlotEmit {
        /// Schedule version the slot belongs to.
        version: u8,
        /// Index into the node's schedule entries.
        idx: u16,
        /// The period of this instance.
        period: PeriodIdx,
    },
    /// A pending mode switch may be due.
    Activate,
}

const PERIOD_BITS: u64 = 40;
const IDX_BITS: u64 = 12;
const VERSION_BITS: u64 = 8;
const PERIOD_MASK: u64 = (1 << PERIOD_BITS) - 1;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;

/// Encode a timer into a simulator timer id.
pub fn encode(t: Timer) -> u64 {
    let (kind, version, idx, period) = match t {
        Timer::PeriodBoundary { period } => (1u64, 0u64, 0u64, period),
        Timer::SlotStart {
            version,
            idx,
            period,
        } => (2, version as u64, idx as u64, period),
        Timer::SlotEmit {
            version,
            idx,
            period,
        } => (3, version as u64, idx as u64, period),
        Timer::Activate => (4, 0, 0, 0),
    };
    (kind << (VERSION_BITS + IDX_BITS + PERIOD_BITS))
        | ((version & VERSION_MASK) << (IDX_BITS + PERIOD_BITS))
        | ((idx & IDX_MASK) << PERIOD_BITS)
        | (period & PERIOD_MASK)
}

/// Decode a simulator timer id (None for foreign/corrupt ids).
///
/// Strict: fields a kind does not use must be zero, so every valid raw
/// id is exactly `encode` of its decoding. A raw with stray bits set —
/// a foreign subsystem's id, a corrupted one — is rejected rather than
/// aliased onto a nearby timer.
pub fn decode(raw: u64) -> Option<Timer> {
    let kind = raw >> (VERSION_BITS + IDX_BITS + PERIOD_BITS);
    let version = ((raw >> (IDX_BITS + PERIOD_BITS)) & VERSION_MASK) as u8;
    let idx = ((raw >> PERIOD_BITS) & IDX_MASK) as u16;
    let period = raw & PERIOD_MASK;
    match kind {
        1 if version == 0 && idx == 0 => Some(Timer::PeriodBoundary { period }),
        2 => Some(Timer::SlotStart {
            version,
            idx,
            period,
        }),
        3 => Some(Timer::SlotEmit {
            version,
            idx,
            period,
        }),
        4 if version == 0 && idx == 0 && period == 0 => Some(Timer::Activate),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            Timer::PeriodBoundary { period: 0 },
            Timer::PeriodBoundary { period: 1 << 39 },
            Timer::SlotStart {
                version: 255,
                idx: 4095,
                period: 123456789,
            },
            Timer::SlotEmit {
                version: 7,
                idx: 0,
                period: 42,
            },
            Timer::Activate,
        ];
        for t in cases {
            assert_eq!(decode(encode(t)), Some(t), "{t:?}");
        }
    }

    #[test]
    fn distinct_encodings() {
        let a = encode(Timer::SlotStart {
            version: 1,
            idx: 2,
            period: 3,
        });
        let b = encode(Timer::SlotEmit {
            version: 1,
            idx: 2,
            period: 3,
        });
        assert_ne!(a, b);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decode(0), None);
        assert_eq!(decode(u64::MAX), None);
    }

    #[test]
    fn unused_bits_rejected() {
        // Kind 1 (PeriodBoundary) leaves version and idx unused; kind 4
        // (Activate) uses no payload fields at all. A raw with those
        // bits set is not `encode` of anything and must not alias.
        let boundary = encode(Timer::PeriodBoundary { period: 42 });
        assert_eq!(decode(boundary | (1 << (IDX_BITS + PERIOD_BITS))), None);
        assert_eq!(decode(boundary | (1 << PERIOD_BITS)), None);
        let activate = encode(Timer::Activate);
        assert_eq!(decode(activate | 1), None);
        assert_eq!(decode(activate | (1 << PERIOD_BITS)), None);
        assert_eq!(decode(activate | (1 << (IDX_BITS + PERIOD_BITS))), None);
    }

    /// Property sweep over the full `Timer` space with a seeded PRNG:
    /// encode∘decode is the identity on timers, decode∘encode is the
    /// identity on the raws it accepts, and mutating any single bit of a
    /// valid raw never aliases back onto the same timer.
    #[test]
    fn prop_round_trip_full_space() {
        let mut rng = btr_crypto::SplitMix64::new(0xb7c0de);
        for _ in 0..20_000 {
            let r = rng.next_u64();
            let t = match r & 3 {
                0 => Timer::PeriodBoundary {
                    period: (r >> 2) & PERIOD_MASK,
                },
                1 => Timer::SlotStart {
                    version: (r >> 2) as u8,
                    idx: ((r >> 10) & IDX_MASK) as u16,
                    period: (r >> 22) & PERIOD_MASK,
                },
                2 => Timer::SlotEmit {
                    version: (r >> 2) as u8,
                    idx: ((r >> 10) & IDX_MASK) as u16,
                    period: (r >> 22) & PERIOD_MASK,
                },
                _ => Timer::Activate,
            };
            let raw = encode(t);
            assert_eq!(decode(raw), Some(t), "{t:?}");
            let flip = raw ^ (1 << (rng.next_u64() % 64));
            if let Some(aliased) = decode(flip) {
                assert_ne!(aliased, t, "bit flip of {raw:#x} aliased {t:?}");
            }
        }
    }

    /// Dual direction: arbitrary raws either decode to a timer whose
    /// re-encoding is bit-identical to the raw, or are rejected.
    #[test]
    fn prop_decode_is_partial_inverse_of_encode() {
        let mut rng = btr_crypto::SplitMix64::new(0x7e57);
        for _ in 0..20_000 {
            let raw = rng.next_u64();
            if let Some(t) = decode(raw) {
                assert_eq!(encode(t), raw, "lossy decode of {raw:#x} -> {t:?}");
            }
        }
    }
}
