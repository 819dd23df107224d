//! Campaign determinism: the contract that makes `CAMPAIGN_btr.json`
//! comparable across machines, runs, and thread counts.
//!
//! * The same campaign seed must produce a byte-identical deterministic
//!   report region at 1 vs N threads (the `"timing"` object is the only
//!   part allowed to differ).
//! * The schedule generator must be a pure function of its seed
//!   (property-tested over random seeds).
//! * The fuzzer's mutation operators must be pure in their seed, never
//!   leave the admissible fault space, and the corpus must be a fixed
//!   point under re-insertion of its own canonical forms.

use btr_campaign::corpus::{canonical_key, Corpus};
use btr_campaign::schedule::{generate, mutate, ScheduleParams};
use btr_campaign::{report, run_campaign, CampaignConfig, CellSpec, TopoSpec};
use btr_model::{Duration, Time};
use proptest::prelude::*;

/// A small single-cell campaign that still exercises schedules of
/// several variant classes plus multi-fault combos.
fn small_config(threads: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(1234, 12, threads);
    cfg.sim_seeds = 1;
    cfg.combos = true;
    cfg.cells = vec![CellSpec {
        workload: "avionics".into(),
        topo: TopoSpec::Bus {
            n: 9,
            bytes_per_ms: 100_000,
            latency_us: 5,
        },
        f: 2,
        r_bound: Duration::from_millis(150),
    }];
    cfg
}

#[test]
fn campaign_report_is_byte_identical_across_thread_counts() {
    let seq = run_campaign(&small_config(1)).expect("sequential campaign");
    let par = run_campaign(&small_config(3)).expect("parallel campaign");

    assert_eq!(seq.records, par.records, "records must match exactly");
    assert_eq!(
        report::render_deterministic(&seq),
        report::render_deterministic(&par),
        "deterministic report regions must be byte-identical"
    );
    assert_eq!(
        report::runs_digest(&seq.records),
        report::runs_digest(&par.records)
    );

    // The full JSON differs only in the timing region.
    let full_seq = seq.to_json();
    let full_par = par.to_json();
    let key = "\n  \"timing\": {";
    let det = |s: &str| s.split(key).next().unwrap().to_string();
    assert!(full_seq.contains(key) && full_par.contains(key));
    assert_eq!(det(&full_seq), det(&full_par));

    // Scaling carries one entry per executed pass: [1] and [1, 3].
    assert_eq!(seq.scaling.len(), 1);
    assert_eq!(par.scaling.len(), 2);
    assert_eq!(par.scaling[1].threads, 3);
}

#[test]
fn same_seed_same_report_across_invocations() {
    let a = run_campaign(&small_config(1)).expect("campaign");
    let b = run_campaign(&small_config(1)).expect("campaign");
    assert_eq!(
        report::render_deterministic(&a),
        report::render_deterministic(&b)
    );
}

fn gen_params(n_nodes: u32, f: u8) -> ScheduleParams {
    ScheduleParams {
        n_nodes,
        f,
        period: Duration::from_millis(10),
        deadline: Duration::from_millis(8),
        first_at: Time::from_millis(40),
        last_at: Time::from_millis(240),
        gap: (Duration::from_millis(150), Duration::from_millis(250)),
        combos: true,
        over_budget: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generator is a pure function of `(params, seed, count)`.
    #[test]
    fn prop_schedule_generation_is_pure_in_its_seed(
        seed in any::<u64>(),
        n_nodes in 2u32..16,
        f in 1u8..3,
        count in 1usize..96,
    ) {
        let params = gen_params(n_nodes, f);
        let a = generate(&params, seed, count);
        let b = generate(&params, seed, count);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), count);
        // Well-formedness invariants hold for every generated schedule.
        for s in &a {
            prop_assert!(s.scenario.faults.len() <= params.max_faults() as usize);
            prop_assert!(s.budget() == s.scenario.faults.len());
            for fault in &s.scenario.faults {
                prop_assert!(fault.node.0 < n_nodes);
                prop_assert!(fault.at >= params.first_at);
            }
        }
        // A different seed changes the sampled phase (the boundary
        // prefix is deliberately seed-independent).
        let c = generate(&params, seed ^ 0xDEAD_BEEF, count);
        let boundary = a.iter().zip(&c).take_while(|(x, y)| x == y).count();
        prop_assert!(boundary <= count.div_ceil(2));
    }

    /// Mutation is a pure function of `(params, schedule, seed)`, and
    /// mutants never leave the admissible space: budget ≤ f, activations
    /// ordered, victims in range, nothing before `first_at`. This is the
    /// fuzzer's safety net — a mutant that exceeded f would turn the
    /// "zero admissible violations" gate into noise.
    #[test]
    fn prop_mutation_is_pure_and_admissibility_preserving(
        gen_seed in any::<u64>(),
        mut_seed in any::<u64>(),
        n_nodes in 2u32..16,
        f in 1u8..4,
        rounds in 1usize..6,
    ) {
        let params = gen_params(n_nodes, f);
        let mut s = generate(&params, gen_seed, 4).remove(0);
        for r in 0..rounds {
            let seed = mut_seed.wrapping_add(r as u64);
            let a = mutate(&params, &s, seed);
            let b = mutate(&params, &s, seed);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.budget() <= f as usize, "mutant exceeded f");
            for w in a.scenario.faults.windows(2) {
                prop_assert!(w[0].at <= w[1].at, "activation order");
            }
            for fault in &a.scenario.faults {
                prop_assert!(fault.node.0 < n_nodes);
                prop_assert!(fault.at >= params.first_at);
            }
            s = a;
        }
    }

    /// Corpus dedup idempotence: re-offering a resident's canonical
    /// schedule at the same score never changes the corpus (the
    /// insert-after-shrink fixed point), and keys are invariant under
    /// fault reordering.
    #[test]
    fn prop_corpus_insertion_is_idempotent(
        gen_seed in any::<u64>(),
        scores in proptest::collection::vec(0u64..5_000, 1..12),
        cap in 1usize..8,
    ) {
        let params = gen_params(9, 3);
        let schedules = generate(&params, gen_seed, scores.len());
        let mut corpus = Corpus::new(cap);
        for (s, &score) in schedules.iter().zip(&scores) {
            corpus.offer(0, "cell", s, score, 0);
        }
        let digest = corpus.digest();
        let residents: Vec<_> = corpus.entries().cloned().collect();
        for e in &residents {
            // Re-offering the canonical resident is a no-op…
            prop_assert!(!corpus.offer(e.cell_idx, "cell", &e.schedule, e.score, 0));
            // …and its key round-trips through canonicalization.
            prop_assert_eq!(
                canonical_key("cell", &e.schedule),
                {
                    let mut shuffled = e.schedule.clone();
                    shuffled.scenario.faults.reverse();
                    canonical_key("cell", &shuffled)
                }
            );
        }
        prop_assert_eq!(corpus.digest(), digest);
        prop_assert!(corpus.len() <= cap);
    }
}
