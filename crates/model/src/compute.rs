//! The deterministic task computation.
//!
//! Every workload task computes a *deterministic* function of its inputs.
//! This is what makes the paper's evidence mechanism work: a "verification
//! task" can re-execute any task from its (signed) inputs and compare the
//! result against a replica's (signed) output, yielding a transferable
//! proof of misbehaviour — the PeerReview recipe the authors build on.
//!
//! In the simulation the function is a digest: real control-law outputs
//! are stand-ins for 64-bit values derived via SHA-256 from the task id,
//! the period index, and the (sorted) input values. Determinism, input
//! sensitivity, and cheap re-execution are the properties the protocol
//! needs, and the digest provides all three.

use crate::ids::{PeriodIdx, TaskId};
use btr_crypto::digest64;

/// A task output value.
pub type Value = u64;

/// Input pairs sorted and laid out on the stack; a longer list takes the
/// heap.
const INLINE_INPUTS: usize = 16;

/// Digest `head` followed by `inputs` sorted by producer id, under
/// `domain`.
///
/// The sort is by key only (`sort_unstable_by_key` on a copy of the
/// slice, as it always was): pairs of *distinct* producers land in one
/// order whatever order the caller had them in, but two pairs of one
/// producer — two lanes of one upstream task, whose values differ under a
/// commission fault — stay in whichever order that sort leaves them,
/// which depends on the order they came in. A caller that must agree
/// with another on such a list has to present it in the same order.
fn digest_sorted(domain: &[u8], head: &[u8], inputs: &[(TaskId, Value)]) -> u64 {
    const PAIR: usize = 12;
    const HEAD: usize = 12;
    debug_assert!(head.len() <= HEAD);
    let lay_out = |sorted: &mut [(TaskId, Value)], bytes: &mut [u8]| {
        sorted.copy_from_slice(inputs);
        sorted.sort_unstable_by_key(|(t, _)| *t);
        bytes[..head.len()].copy_from_slice(head);
        for ((t, v), out) in sorted
            .iter()
            .zip(bytes[head.len()..].chunks_exact_mut(PAIR))
        {
            out[..4].copy_from_slice(&t.0.to_be_bytes());
            out[4..].copy_from_slice(&v.to_be_bytes());
        }
        digest64(&[domain, &bytes[..head.len() + PAIR * inputs.len()]])
    };
    if inputs.len() <= INLINE_INPUTS {
        let mut sorted = [(TaskId(0), 0); INLINE_INPUTS];
        let mut bytes = [0u8; HEAD + PAIR * INLINE_INPUTS];
        lay_out(&mut sorted[..inputs.len()], &mut bytes)
    } else {
        let mut sorted = vec![(TaskId(0), 0); inputs.len()];
        let mut bytes = vec![0u8; HEAD + PAIR * inputs.len()];
        lay_out(&mut sorted, &mut bytes)
    }
}

/// Compute a task's output for one period from its input values.
///
/// `inputs` is (producer task, value) pairs; the function sorts them by
/// producer id internally so callers need not pre-sort (pairs of one
/// producer keep an order that depends on the caller's; see
/// [`digest_sorted`]). Allocates nothing up to [`INLINE_INPUTS`] pairs.
pub fn task_value(task: TaskId, period: PeriodIdx, inputs: &[(TaskId, Value)]) -> Value {
    let mut head = [0u8; 12];
    head[..4].copy_from_slice(&task.0.to_be_bytes());
    head[4..].copy_from_slice(&period.to_be_bytes());
    digest_sorted(b"btr-task", &head, inputs)
}

/// Commitment digest over the exact inputs a replica consumed.
///
/// Covered by the producer's signature on its [`crate::SignedOutput`], this
/// is what makes bad-computation proofs *sound*: an honest replica commits
/// to the inputs it actually used, so re-execution over any input set
/// matching the commitment always reproduces its output — no valid proof
/// against an honest node can exist, even when an upstream equivocates
/// (the PeerReview-style argument; see DESIGN.md). Sorted as
/// [`task_value`] sorts.
pub fn inputs_digest(inputs: &[(TaskId, Value)]) -> u64 {
    digest_sorted(b"btr-inputs", &[], inputs)
}

/// Compute a sensor (source) task's reading for one period.
///
/// Sources have no dataflow inputs; their "reading" is derived from the
/// workload seed so reference and live runs agree.
pub fn sensor_value(task: TaskId, period: PeriodIdx, workload_seed: u64) -> Value {
    digest64(&[
        b"btr-sensor",
        &workload_seed.to_be_bytes(),
        &task.0.to_be_bytes(),
        &period.to_be_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let inputs = [(TaskId(1), 10), (TaskId(2), 20)];
        assert_eq!(
            task_value(TaskId(5), 3, &inputs),
            task_value(TaskId(5), 3, &inputs)
        );
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = task_value(TaskId(5), 3, &[(TaskId(1), 10), (TaskId(2), 20)]);
        let b = task_value(TaskId(5), 3, &[(TaskId(2), 20), (TaskId(1), 10)]);
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_every_argument() {
        let base = task_value(TaskId(5), 3, &[(TaskId(1), 10)]);
        assert_ne!(base, task_value(TaskId(6), 3, &[(TaskId(1), 10)]));
        assert_ne!(base, task_value(TaskId(5), 4, &[(TaskId(1), 10)]));
        assert_ne!(base, task_value(TaskId(5), 3, &[(TaskId(1), 11)]));
        assert_ne!(base, task_value(TaskId(5), 3, &[(TaskId(2), 10)]));
        assert_ne!(base, task_value(TaskId(5), 3, &[]));
    }

    #[test]
    fn inputs_digest_order_independent_and_sensitive() {
        let a = inputs_digest(&[(TaskId(1), 10), (TaskId(2), 20)]);
        let b = inputs_digest(&[(TaskId(2), 20), (TaskId(1), 10)]);
        assert_eq!(a, b);
        assert_ne!(a, inputs_digest(&[(TaskId(1), 10), (TaskId(2), 21)]));
        assert_ne!(a, inputs_digest(&[(TaskId(1), 10)]));
        assert_ne!(inputs_digest(&[]), a);
    }

    /// Descending ids, so the sort has work to do.
    fn long(n: u32) -> Vec<(TaskId, Value)> {
        (0..n)
            .map(|i| {
                let v = 0x0101_0101_0101_0101u64.wrapping_mul(i as u64 + 1);
                (TaskId(n - i), v)
            })
            .collect()
    }

    #[test]
    fn values_are_pinned_on_the_stack_and_past_it() {
        // Literals printed by the `Vec`-building bodies these replaced.
        let few = [(TaskId(7), 70), (TaskId(2), 20), (TaskId(5), 50)];
        assert_eq!(task_value(TaskId(5), 3, &few), 0x3744eca439a8cbef);
        assert_eq!(task_value(TaskId(5), 3, &[]), 0xc5c4e2715e091a0c);
        assert_eq!(inputs_digest(&few), 0x6e48e7a5aac3cb5f);
        assert_eq!(inputs_digest(&[]), 0x4a5c6917d5fc6122);
        assert_eq!(sensor_value(TaskId(4), 6, 42), 0x92f2d9c57fa134ec);
        // At the inline capacity, one past it, and well past it.
        let pins = [
            (16, 0x0f6a2b260e93f690, 0x25ca35cead875301),
            (17, 0x8b88ff91901dc2b3, 0x34317065f1224fa4),
            (40, 0xa9ff7e57821f80e7, 0xdc1580bc7cd07301u64),
        ];
        assert_eq!(pins[0].0 as usize, INLINE_INPUTS);
        for (n, value, digest) in pins {
            assert_eq!(task_value(TaskId(1), 2, &long(n)), value, "{n} inputs");
            assert_eq!(inputs_digest(&long(n)), digest, "{n} inputs");
        }
    }

    #[test]
    fn pairs_of_one_producer_keep_the_callers_order() {
        // Two lanes of upstream task 3 disagree (a commission fault on
        // one): the sort is by producer id alone, so which lane's value
        // is hashed first is the caller's order, as it always was.
        let ab = [(TaskId(3), 0xAAAA), (TaskId(1), 9), (TaskId(3), 0xBBBB)];
        let ba = [(TaskId(3), 0xBBBB), (TaskId(1), 9), (TaskId(3), 0xAAAA)];
        assert_eq!(task_value(TaskId(9), 11, &ab), 0xd3f1a867b8c6b46f);
        assert_eq!(task_value(TaskId(9), 11, &ba), 0xacd5d6863500fdf6);
        assert_eq!(inputs_digest(&ab), 0xe1dd95a16c45b8a6);
        assert_eq!(inputs_digest(&ba), 0xfefdaac98ba10f85);
    }

    #[test]
    fn sensor_values_vary_with_seed_task_period() {
        let v = sensor_value(TaskId(0), 0, 42);
        assert_ne!(v, sensor_value(TaskId(0), 0, 43));
        assert_ne!(v, sensor_value(TaskId(1), 0, 42));
        assert_ne!(v, sensor_value(TaskId(0), 1, 42));
        assert_eq!(v, sensor_value(TaskId(0), 0, 42));
    }
}
