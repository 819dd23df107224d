//! The pinned signed-traffic scenario and its cross-suite goldens.
//!
//! PR 1/PR 4 made raw delivery allocation-free, which left HMAC-SHA-256
//! sign+verify as the dominant cost of *signed* traffic — the messages
//! the detector audits. This module pins a 20-node scenario where every
//! message carries an evidence set (a signed task output plus the last
//! [`SIGNED_WITNESSES`] accepted outputs as witnesses) inside a signed
//! envelope, and the receiver performs the full audit-path verification:
//! envelope signature, then a batched pass over the output and all
//! witnesses (`btr_crypto::SigBatch`).
//!
//! Per delivered message that is 2 MAC signs (envelope + output) and
//! `2 + SIGNED_WITNESSES` MAC verifies. The runtime's `Payload::Output`
//! handling checks the same items one at a time through
//! `NodeCtx::verifier` and never batches; re-pointing this audit at that
//! path is ROADMAP direction 5 (a). The scenario runs unchanged under both
//! [`AuthSuite`]s; because authenticator wire sizes are suite-independent
//! the two runs are bit-identical in everything but tag bytes, which the
//! equivalence tests below pin. The wall clock of this scenario is the
//! benchmark's `sim_mesh20_signed` workload (`benchmark/`).

use crate::hotpath::horizon;
use btr_crypto::{AuthSuite, SigBatch};
use btr_model::{Duration, Envelope, NodeId, Payload, SignedOutput, TaskId, Topology};
use btr_sim::{NodeBehavior, NodeCtx, SimConfig, SimMetrics, TimerId, World};

/// Nodes in the pinned scenario (the same 4x5 mesh as the raw hot path).
pub(crate) const SIGNED_NODES: usize = 20;
/// Witnesses attached to every output message (evidence-set size).
pub(crate) const SIGNED_WITNESSES: usize = 3;

/// Signed-traffic generator and auditor.
///
/// Every period each node signs a fresh task output, wraps it with its
/// most recent accepted outputs as witnesses, and sends it (in a signed
/// envelope) to its successor. On receipt it runs the audit path:
/// envelope verify, then one batched verification pass over output +
/// witnesses, keeping accepted outputs as future witness material.
struct SignedBlaster {
    period: Duration,
    periods: u64,
    fired: u64,
    n: u32,
    /// Rolling window of accepted peer outputs (witness material).
    window: Vec<SignedOutput>,
    /// Reusable staging for the batched audit pass.
    batch: SigBatch,
    ok: Vec<bool>,
    /// Reusable scratch for output signing bytes.
    scratch: Vec<u8>,
    /// MACs produced (envelope + output signs).
    signs: u64,
    /// MACs checked (envelope + output + witness verifies).
    verifies: u64,
    /// Messages that failed any verification step (must stay 0).
    rejects: u64,
}

impl SignedBlaster {
    fn new(period: Duration, periods: u64, n: u32) -> SignedBlaster {
        SignedBlaster {
            period,
            periods,
            fired: 0,
            n,
            window: Vec::with_capacity(SIGNED_WITNESSES + 1),
            batch: SigBatch::new(),
            ok: Vec::new(),
            scratch: Vec::new(),
            signs: 0,
            verifies: 0,
            rejects: 0,
        }
    }
}

impl NodeBehavior for SignedBlaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        // Audit path, exactly like the runtime's authentication gate.
        if ctx.verify_env(&env).is_err() {
            self.rejects += 1;
            return;
        }
        self.verifies += 1;
        if let Payload::Output { output, witnesses } = env.payload {
            self.batch.clear();
            self.ok.clear();
            output.stage_for_verify(&mut self.batch);
            for w in &witnesses {
                w.stage_for_verify(&mut self.batch);
            }
            self.verifies += self.batch.len() as u64;
            let valid = ctx.keystore().verify_batch(&self.batch, &mut self.ok);
            if valid != self.batch.len() {
                self.rejects += 1;
                return;
            }
            // Accepted: keep as witness material for this node's next
            // emission (bounded window).
            if self.window.len() == SIGNED_WITNESSES {
                self.window.remove(0);
            }
            self.window.push(output);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let p = self.fired;
        // Sign this period's output (task id = node id keeps values
        // deterministic and distinct per lane).
        let output = SignedOutput::sign_with(
            ctx.signer(),
            TaskId(me),
            0,
            p,
            ((me as u64) << 32) | p,
            0,
            ctx.id(),
            &mut self.scratch,
        );
        self.signs += 1;
        let witnesses = self.window.clone();
        // Envelope signing happens inside ctx.send.
        self.signs += 1;
        ctx.send(
            NodeId((me + 1) % self.n),
            Payload::Output { output, witnesses },
        );
        self.fired += 1;
        if self.fired < self.periods {
            ctx.set_timer(self.period, 0);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Build the pinned signed-traffic world. Loss is disabled: the signed
/// scenario isolates authenticator cost, and loss-free runs make the
/// cross-suite bit-equality oracle exact.
pub(crate) fn signed_world(seed: u64, suite: AuthSuite, periods: u64, trace: bool) -> World {
    let topo = Topology::mesh(4, 5, 1_000_000, Duration(5));
    let mut cfg = SimConfig::new(seed);
    cfg.auth_suite = suite;
    cfg.trace = trace;
    let mut w = World::new(topo, cfg);
    for i in 0..SIGNED_NODES as u32 {
        w.set_behavior(
            NodeId(i),
            Box::new(SignedBlaster::new(w.period(), periods, SIGNED_NODES as u32)),
        );
    }
    w
}

/// Run the pinned signed scenario and return its metrics (tests).
pub(crate) fn run_signed(seed: u64, suite: AuthSuite, periods: u64) -> SimMetrics {
    let mut w = signed_world(seed, suite, periods, false);
    w.start();
    w.run_until(horizon(w.period(), periods));
    *w.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_sim::TraceEvent;

    fn traced_run(seed: u64, suite: AuthSuite, periods: u64) -> (SimMetrics, Vec<TraceEvent>) {
        let mut w = signed_world(seed, suite, periods, true);
        w.start();
        w.run_until(horizon(w.period(), periods));
        (*w.metrics(), w.trace().to_vec())
    }

    #[test]
    fn suites_are_bit_identical_on_the_signed_scenario() {
        // The cross-suite differential oracle: tag bytes are the only
        // difference between the two runs, and nothing downstream of
        // verification reads tag bytes, so metrics and the full event
        // trace must match exactly.
        let hmac = traced_run(7, AuthSuite::HmacSha256, 100);
        let sip = traced_run(7, AuthSuite::SipHash24, 100);
        assert_eq!(hmac.0, sip.0, "metrics diverged across suites");
        assert_eq!(hmac.1, sip.1, "traces diverged across suites");
        assert!(hmac.0.msgs_delivered > 0);
    }

    #[test]
    fn hmac_signed_scenario_matches_pinned_golden() {
        // The default suite's golden for the signed scenario, seed 7,
        // 200 periods: the refactor that introduced AuthSuite must not
        // silently change the default suite's behaviour, and future
        // suite work must not drift this scenario. 20 nodes × 200
        // periods = 4000 sends, all delivered loss-free.
        let m = run_signed(7, AuthSuite::HmacSha256, 200);
        let golden = SimMetrics {
            msgs_sent: 4_000,
            bytes_sent: 3_867_032,
            msgs_delivered: 4_000,
            drops_guardian: 0,
            drops_forward: 0,
            drops_other: 0,
            events: 8_000,
            timers: 4_000,
            actuations: 0,
        };
        assert_eq!(m, golden, "signed-scenario pinned run changed");
        // And the SipHash suite reproduces it bit for bit.
        assert_eq!(run_signed(7, AuthSuite::SipHash24, 200), golden);
    }

    #[test]
    fn every_message_verifies_under_both_suites() {
        for suite in AuthSuite::ALL {
            let mut w = signed_world(3, suite, 50, false);
            w.start();
            w.run_until(horizon(w.period(), 50));
            let (mut signs, mut verifies, mut rejects) = (0u64, 0u64, 0u64);
            for i in 0..SIGNED_NODES as u32 {
                let b = w
                    .behavior(NodeId(i))
                    .and_then(|b| b.as_any())
                    .and_then(|a| a.downcast_ref::<SignedBlaster>())
                    .expect("signed blaster installed");
                signs += b.signs;
                verifies += b.verifies;
                rejects += b.rejects;
            }
            let m = w.metrics();
            assert_eq!(rejects, 0, "{suite}: verification rejected traffic");
            assert_eq!(m.msgs_delivered, m.msgs_sent);
            // 2 signs per sent message; 2..=2+W verifies per delivery
            // (the witness window fills over the first periods).
            assert_eq!(signs, 2 * m.msgs_sent);
            assert!(verifies >= 2 * m.msgs_delivered);
            assert!(
                verifies <= (2 + SIGNED_WITNESSES as u64) * m.msgs_delivered,
                "{suite}: {verifies} verifies for {} deliveries",
                m.msgs_delivered
            );
        }
    }
}
