//! Workload generators: realistic CPS dataflow graphs.
//!
//! Each generator pins sources and sinks to nodes of a given platform
//! size (round-robin over sensing/actuating nodes), so the same workload
//! family can be instantiated on any topology used in the experiments.

use super::{Workload, WorkloadBuilder};
use crate::{Criticality, Duration, NodeId, TaskId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

/// The avionics workload from the paper's motivation: safety-critical
/// flight control sharing the platform with in-flight entertainment
/// (Section 1: "the CPS on an airplane might run flight control and the
/// in-flight entertainment system").
///
/// 16 tasks: pitot/gyro/GPS sensing, filtering, state fusion, the flight
/// control law driving elevator and aileron actuators (Safety), a
/// navigation pipeline (High), telemetry downlink (Medium), and two
/// entertainment streams (Low). Period 10 ms.
///
/// `n_nodes` controls source/sink pinning (round-robin).
pub fn avionics(n_nodes: usize) -> Workload {
    assert!(n_nodes >= 2, "avionics needs at least 2 nodes");
    let node = |i: usize| NodeId((i % n_nodes) as u32);
    let mut b = WorkloadBuilder::new(ms(10), 0xA1A5);

    // Sensing (Safety-critical chain).
    let pitot = b.source("pitot", node(0), Duration(150), Criticality::Safety, ms(10));
    let gyro = b.source("gyro", node(1), Duration(150), Criticality::Safety, ms(10));
    let gps = b.source("gps", node(2), Duration(200), Criticality::High, ms(10));

    // Filtering and fusion.
    let air_filter = b.compute(
        "air-filter",
        &[pitot],
        Duration(250),
        Criticality::Safety,
        ms(10),
        256,
    );
    let att_filter = b.compute(
        "attitude-filter",
        &[gyro],
        Duration(250),
        Criticality::Safety,
        ms(10),
        256,
    );
    let fusion = b.compute(
        "state-fusion",
        &[air_filter, att_filter],
        Duration(400),
        Criticality::Safety,
        ms(10),
        512,
    );

    // Flight control law -> actuators.
    let ctl = b.compute(
        "flight-control",
        &[fusion],
        Duration(500),
        Criticality::Safety,
        ms(10),
        1024,
    );
    b.sink(
        "elevator",
        node(3),
        &[ctl],
        Duration(100),
        Criticality::Safety,
        ms(8),
    );
    b.sink(
        "aileron",
        node(4),
        &[ctl],
        Duration(100),
        Criticality::Safety,
        ms(8),
    );

    // Navigation (High).
    let nav = b.compute(
        "nav-planner",
        &[gps, fusion],
        Duration(450),
        Criticality::High,
        ms(10),
        2048,
    );
    b.sink(
        "nav-display",
        node(5),
        &[nav],
        Duration(120),
        Criticality::High,
        ms(10),
    );

    // Telemetry (Medium).
    let telem = b.compute(
        "telemetry-pack",
        &[fusion, gps],
        Duration(300),
        Criticality::Medium,
        ms(10),
        512,
    );
    b.sink(
        "downlink",
        node(6),
        &[telem],
        Duration(100),
        Criticality::Medium,
        ms(10),
    );

    // In-flight entertainment (Low).
    let media = b.compute(
        "media-decode",
        &[gps],
        Duration(600),
        Criticality::Low,
        ms(10),
        4096,
    );
    b.sink(
        "cabin-screens",
        node(7),
        &[media],
        Duration(150),
        Criticality::Low,
        ms(10),
    );
    b.sink(
        "seat-audio",
        node(8),
        &[media],
        Duration(100),
        Criticality::Low,
        ms(10),
    );

    b.build().expect("avionics workload is well-formed")
}

/// An automotive brake-by-wire + engine-control mix ("even a simple CPS
/// such as a modern car contains about a hundred microprocessors").
///
/// Four wheel-speed sensors feed an ABS controller driving four brake
/// actuators (Safety); an engine pipeline (High); infotainment (Low).
/// Period 5 ms (automotive control loops are fast).
pub fn automotive(n_nodes: usize) -> Workload {
    assert!(n_nodes >= 2, "automotive needs at least 2 nodes");
    let node = |i: usize| NodeId((i % n_nodes) as u32);
    let mut b = WorkloadBuilder::new(ms(5), 0xCA55);

    let wheels: Vec<TaskId> = (0..4)
        .map(|i| {
            b.source(
                &format!("wheel-speed-{i}"),
                node(i),
                Duration(80),
                Criticality::Safety,
                ms(5),
            )
        })
        .collect();
    let abs = b.compute(
        "abs-controller",
        &wheels,
        Duration(350),
        Criticality::Safety,
        ms(5),
        512,
    );
    for i in 0..4 {
        b.sink(
            &format!("brake-{i}"),
            node(i),
            &[abs],
            Duration(60),
            Criticality::Safety,
            ms(4),
        );
    }

    let crank = b.source(
        "crankshaft",
        node(4),
        Duration(100),
        Criticality::High,
        ms(5),
    );
    let o2 = b.source("o2-sensor", node(5), Duration(90), Criticality::High, ms(5));
    let ecu = b.compute(
        "engine-control",
        &[crank, o2],
        Duration(400),
        Criticality::High,
        ms(5),
        1024,
    );
    b.sink(
        "injectors",
        node(4),
        &[ecu],
        Duration(80),
        Criticality::High,
        ms(5),
    );

    let radio = b.source(
        "radio-tuner",
        node(6),
        Duration(120),
        Criticality::Low,
        ms(5),
    );
    let infot = b.compute(
        "infotainment",
        &[radio],
        Duration(300),
        Criticality::Low,
        ms(5),
        2048,
    );
    b.sink(
        "dash-display",
        node(7),
        &[infot],
        Duration(80),
        Criticality::Low,
        ms(5),
    );

    b.build().expect("automotive workload is well-formed")
}

/// A SCADA-style plant control loop (Section 2's pressure-valve example:
/// "when a sensor indicates a pressure increase ... the system may need
/// to respond within seconds — e.g., by opening a safety valve — to
/// prevent an explosion"). Period 20 ms.
pub fn scada(n_nodes: usize) -> Workload {
    assert!(n_nodes >= 2, "scada needs at least 2 nodes");
    let node = |i: usize| NodeId((i % n_nodes) as u32);
    let mut b = WorkloadBuilder::new(ms(20), 0x5CAD);

    let pressure = b.source(
        "pressure",
        node(0),
        Duration(200),
        Criticality::Safety,
        ms(20),
    );
    let temp = b.source(
        "temperature",
        node(1),
        Duration(200),
        Criticality::High,
        ms(20),
    );
    let flow = b.source("flow", node(2), Duration(200), Criticality::Medium, ms(20));

    let plc = b.compute(
        "plc-logic",
        &[pressure, temp],
        Duration(600),
        Criticality::Safety,
        ms(20),
        1024,
    );
    b.sink(
        "safety-valve",
        node(3),
        &[plc],
        Duration(150),
        Criticality::Safety,
        ms(15),
    );
    b.sink(
        "alarm",
        node(4),
        &[plc],
        Duration(100),
        Criticality::High,
        ms(20),
    );

    let hist = b.compute(
        "historian",
        &[pressure, temp, flow],
        Duration(500),
        Criticality::Low,
        ms(20),
        8192,
    );
    b.sink(
        "archive",
        node(5),
        &[hist],
        Duration(150),
        Criticality::Low,
        ms(20),
    );

    b.build().expect("scada workload is well-formed")
}

/// Parameters for [`random_layered`].
#[derive(Debug, Clone)]
pub struct RandomParams {
    /// RNG seed (also the workload's sensor seed).
    pub seed: u64,
    /// Number of dataflow layers, including source and sink layers (>= 2).
    pub layers: usize,
    /// Tasks per interior layer.
    pub width: usize,
    /// Max dataflow inputs per task (>= 1).
    pub fanin: usize,
    /// Target single-copy utilisation (sum of WCETs / period).
    pub utilization: f64,
    /// System period.
    pub period: Duration,
    /// Number of platform nodes (for source/sink pinning).
    pub n_nodes: usize,
}

impl Default for RandomParams {
    fn default() -> Self {
        RandomParams {
            seed: 7,
            layers: 4,
            width: 3,
            fanin: 2,
            utilization: 0.5,
            period: ms(10),
            n_nodes: 6,
        }
    }
}

/// Generate a random layered DAG workload.
///
/// Layer 0 is all sources; the last layer is all sinks; interior layers
/// draw inputs uniformly from the previous layer (guaranteeing
/// acyclicity). Criticalities are assigned round-robin so every level is
/// represented. WCETs are scaled so total utilisation hits the target.
pub fn random_layered(p: &RandomParams) -> Workload {
    assert!(p.layers >= 2, "need at least source and sink layers");
    assert!(p.width >= 1 && p.fanin >= 1 && p.n_nodes >= 1);
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let total_tasks = p.layers * p.width;
    // Draw raw weights, then scale to the utilisation target.
    let weights: Vec<f64> = (0..total_tasks).map(|_| rng.gen_range(0.5..1.5)).collect();
    let wsum: f64 = weights.iter().sum();
    let budget = p.utilization * p.period.0 as f64;
    let wcet_of = |i: usize| -> Duration {
        let raw = (weights[i] / wsum * budget).max(1.0);
        Duration(raw as u64)
    };
    let crit_of = |i: usize| Criticality::ALL[i % 4];

    let mut b = WorkloadBuilder::new(p.period, p.seed);
    let mut prev: Vec<TaskId> = Vec::new();
    let mut idx = 0usize;
    for layer in 0..p.layers {
        let mut cur = Vec::with_capacity(p.width);
        for w in 0..p.width {
            let name = format!("L{layer}T{w}");
            let node = NodeId(((layer * p.width + w) % p.n_nodes) as u32);
            let id = if layer == 0 {
                b.source(&name, node, wcet_of(idx), crit_of(idx), p.period)
            } else {
                // Draw 1..=fanin distinct inputs from the previous layer.
                let k = rng.gen_range(1..=p.fanin.min(prev.len()));
                let mut pool = prev.clone();
                let mut inputs = Vec::with_capacity(k);
                for _ in 0..k {
                    let j = rng.gen_range(0..pool.len());
                    inputs.push(pool.swap_remove(j));
                }
                if layer == p.layers - 1 {
                    b.sink(&name, node, &inputs, wcet_of(idx), crit_of(idx), p.period)
                } else {
                    let state = rng.gen_range(64..4096);
                    b.compute(&name, &inputs, wcet_of(idx), crit_of(idx), p.period, state)
                }
            };
            cur.push(id);
            idx += 1;
        }
        prev = cur;
    }
    // Interior tasks with no consumers would fail validation; wire any
    // dangling interior task into a final-layer sink-side consumer by
    // retrying with denser fan-in if needed.
    match b.clone().build() {
        Ok(w) => w,
        Err(_) => {
            // Fall back: add a drain sink consuming every dangling task.
            let snapshot = b;
            let mut fix = snapshot.clone();
            // Find dangling: rebuild consumer counts manually.
            let tasks = snapshot.tasks.clone();
            let mut consumed = vec![false; tasks.len()];
            for t in &tasks {
                for i in &t.inputs {
                    consumed[i.index()] = true;
                }
            }
            let dangling: Vec<TaskId> = tasks
                .iter()
                .filter(|t| {
                    !consumed[t.id.index()] && !matches!(t.kind, super::TaskKind::Sink { .. })
                })
                .map(|t| t.id)
                .collect();
            if !dangling.is_empty() {
                fix.sink(
                    "drain",
                    NodeId(0),
                    &dangling,
                    Duration(10),
                    Criticality::Low,
                    p.period,
                );
            }
            fix.build().expect("drained random workload is well-formed")
        }
    }
}

/// A deep sensor-fusion chain of configurable length (stresses end-to-end
/// latency and multi-hop flows). Period 10 ms.
pub fn fusion_chain(depth: usize, n_nodes: usize) -> Workload {
    assert!(depth >= 1 && n_nodes >= 2);
    let node = |i: usize| NodeId((i % n_nodes) as u32);
    let mut b = WorkloadBuilder::new(ms(10), 0xF051);
    let s1 = b.source("radar", node(0), Duration(150), Criticality::Safety, ms(10));
    let s2 = b.source("lidar", node(1), Duration(150), Criticality::Safety, ms(10));
    let mut prev = b.compute(
        "fuse-0",
        &[s1, s2],
        Duration(200),
        Criticality::Safety,
        ms(10),
        512,
    );
    for i in 1..depth {
        prev = b.compute(
            &format!("fuse-{i}"),
            &[prev],
            Duration(200),
            Criticality::Safety,
            ms(10),
            512,
        );
    }
    b.sink(
        "steering",
        node(2),
        &[prev],
        Duration(100),
        Criticality::Safety,
        ms(10),
    );
    b.build().expect("fusion chain is well-formed")
}

/// A named workload generator: the platform node count in, the
/// workload out.
pub(crate) type NamedGenerator = (&'static str, fn(usize) -> Workload);

/// The named workload-generator catalog.
///
/// Campaign grids and replay tokens refer to workload families by name,
/// so the mapping from name to generator must be stable and enumerable.
/// Each entry is `(name, generator)` where the generator takes the
/// platform node count.
pub(crate) fn catalog() -> &'static [NamedGenerator] {
    fn fusion4(n: usize) -> Workload {
        fusion_chain(4, n)
    }
    &[
        ("avionics", avionics),
        ("automotive", automotive),
        ("scada", scada),
        ("fusion-chain", fusion4),
    ]
}

/// Look up a catalog generator by name.
pub fn by_name(name: &str) -> Option<fn(usize) -> Workload> {
    catalog().iter().find(|(n, _)| *n == name).map(|(_, g)| *g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TaskKind;

    #[test]
    fn catalog_names_resolve_and_generate() {
        for (name, gen) in catalog() {
            let via_lookup = by_name(name).expect("catalog name resolves");
            assert_eq!(via_lookup(9), gen(9), "{name} lookup mismatch");
            assert!(!gen(9).is_empty(), "{name} generates tasks");
        }
        assert!(by_name("no-such-workload").is_none());
    }

    #[test]
    fn avionics_shape() {
        let w = avionics(9);
        assert_eq!(w.len(), 16);
        assert_eq!(w.sources().count(), 3);
        assert_eq!(w.sinks().count(), 6);
        // All four criticality levels present.
        for c in Criticality::ALL {
            assert!(w.tasks_at(c).count() > 0, "missing criticality {c}");
        }
        // Flight control chain is Safety end to end.
        let ctl = w
            .tasks()
            .iter()
            .find(|t| t.name == "flight-control")
            .unwrap();
        assert_eq!(ctl.criticality, Criticality::Safety);
    }

    #[test]
    fn automotive_shape() {
        let w = automotive(8);
        assert_eq!(w.sources().count(), 7);
        assert_eq!(w.sinks().count(), 6);
        assert!(w.utilization() > 0.0);
        // ABS consumes all four wheel sensors.
        let abs = w
            .tasks()
            .iter()
            .find(|t| t.name == "abs-controller")
            .unwrap();
        assert_eq!(abs.inputs.len(), 4);
    }

    #[test]
    fn scada_shape() {
        let w = scada(6);
        assert_eq!(w.sinks().count(), 3);
        let valve = w.tasks().iter().find(|t| t.name == "safety-valve").unwrap();
        assert_eq!(valve.criticality, Criticality::Safety);
    }

    #[test]
    fn random_layered_respects_params() {
        let p = RandomParams {
            seed: 42,
            layers: 5,
            width: 4,
            fanin: 3,
            utilization: 0.8,
            period: Duration::from_millis(10),
            n_nodes: 8,
        };
        let w = random_layered(&p);
        assert!(w.len() >= p.layers * p.width);
        // Utilisation within 20% of target (integer truncation + drain).
        assert!(
            (w.utilization() - 0.8).abs() < 0.2,
            "util = {}",
            w.utilization()
        );
        // Sources exactly the first layer.
        assert_eq!(w.sources().count(), p.width);
    }

    #[test]
    fn random_layered_is_deterministic() {
        let p = RandomParams::default();
        assert_eq!(random_layered(&p), random_layered(&p));
        let p2 = RandomParams { seed: 8, ..p };
        assert_ne!(
            random_layered(&p2),
            random_layered(&RandomParams::default())
        );
    }

    #[test]
    fn fusion_chain_depth() {
        let w = fusion_chain(5, 4);
        // 2 sources + 5 fusion + 1 sink.
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn pinning_wraps_round_robin() {
        let w = avionics(2);
        for t in w.tasks() {
            if let Some(n) = t.kind.pinned_node() {
                assert!(n.index() < 2);
            }
        }
    }

    #[test]
    fn generators_all_validate() {
        // Build a spread of random workloads; all must validate.
        for seed in 0..20 {
            let p = RandomParams {
                seed,
                layers: 3 + (seed as usize % 4),
                width: 2 + (seed as usize % 3),
                fanin: 1 + (seed as usize % 3),
                utilization: 0.3 + 0.1 * (seed % 5) as f64,
                period: Duration::from_millis(10),
                n_nodes: 4 + (seed as usize % 5),
            };
            let w = random_layered(&p);
            assert!(!w.is_empty());
            assert!(matches!(
                w.tasks().last().map(|t| &t.kind),
                Some(TaskKind::Sink { .. })
                    | Some(TaskKind::Compute)
                    | Some(TaskKind::Source { .. })
            ));
        }
    }
}
