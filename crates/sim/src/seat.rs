//! The node's half of hosting: what belongs to one node whichever
//! substrate runs it.

use btr_crypto::{digest64, AuthSuite, NodeKey, Signer};
use btr_model::{Duration, NodeId, Time};

/// Maximum absolute per-node clock skew: every local clock stays within
/// this bound of global time (the paper's synchrony assumption).
pub(crate) const MAX_CLOCK_SKEW: Duration = Duration(20);

/// One node's seat at the protocol: its local clock and its signing key,
/// both derived from `(seed, node)`.
///
/// Both substrates build a seat per node with [`Seat::derive`] and lend
/// it to a [`NodeCtx`](crate::NodeCtx) for each dispatch, so a node
/// stamps and signs the same on either — the substance of the
/// trace-equivalence claim — and a behaviour can reach no signer but the
/// one of the seat it is dispatched on.
pub struct Seat {
    /// Local clock = global + offset (µs, may be negative).
    pub(crate) clock_offset: i64,
    pub(crate) signer: Signer,
}

impl Seat {
    /// The seat of `node` under `seed`: a clock skew within
    /// `MAX_CLOCK_SKEW` of global time, and the node's key under `suite`.
    pub fn derive(seed: u64, node: NodeId, suite: AuthSuite) -> Seat {
        let (seed_bytes, id_bytes) = (seed.to_be_bytes(), node.0.to_be_bytes());
        let span = 2 * MAX_CLOCK_SKEW.as_micros() + 1;
        let skew = (digest64(&[b"btr-skew", &seed_bytes, &id_bytes]) % span) as i64
            - MAX_CLOCK_SKEW.as_micros() as i64;
        Seat {
            clock_offset: skew,
            signer: Signer::new(NodeKey::derive_suite(seed, node.0, suite)),
        }
    }

    /// The node's local reading of global instant `now`.
    pub(crate) fn local(&self, now: Time) -> Time {
        Time((now.as_micros() as i64 + self.clock_offset).max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Envelope, Payload};

    #[test]
    fn derivations_are_pinned() {
        // Skew and a tag as the parent of the commit that introduced
        // `Seat` derived them in both substrates: every committed digest
        // and replay token depends on these.
        let seat = Seat::derive(1, NodeId(2), AuthSuite::HmacSha256);
        assert_eq!(seat.clock_offset, -4);
        assert_eq!(seat.local(Time(100)), Time(96));
        let env = Envelope::new(NodeId(2), NodeId(0), Time(7), Payload::Control(9));
        let sig = env.signed(&seat.signer).sig.expect("signed");
        assert_eq!(format!("{sig:?}"), "Sig(k2,d4ba053d)");
    }
}
