//! The campaign grid: which (workload × platform × fault budget) cells a
//! campaign sweeps, and how each cell is planned.
//!
//! Cells carry their own fault-variant set so a grid can focus a sweep,
//! but the default grid no longer excludes anything: the R-bound gaps
//! the first campaign found (equivocation on sparse-consumer victims,
//! SCADA omission/timing attribution, the sequential false-attribution
//! cascade, ring re-routing) are fixed, and every cell now schedules
//! every variant — including the fusion-chain ring cell that the gaps
//! had kept out. CI asserts zero admissible violations across the whole
//! space (see EXPERIMENTS.md "campaign findings — resolved").

use crate::schedule::{FaultVariant, ScheduleParams};
use btr_core::{BtrSystem, SystemError};
use btr_crypto::AuthSuite;
use btr_model::{Duration, Time, Topology};
use btr_planner::PlannerConfig;
use btr_workload::generators;

/// The longest span a replay token may name, µs: an hour of simulated
/// time. No cell comes near it; a latency, bound, horizon or fault
/// instant past it is a parse error instead of a run that never ends.
pub(crate) const MAX_TOKEN_US: u64 = 3_600_000_000;

/// Platform family, sized. Spelled `bus9x100000x5` in labels and replay
/// tokens: family, node count, bytes/ms, latency µs (mesh adds rows×cols).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpec {
    /// A single shared bus.
    Bus {
        /// Node count.
        n: usize,
        /// Usable bandwidth, bytes per millisecond.
        bytes_per_ms: u32,
        /// Propagation latency, µs.
        latency_us: u64,
    },
    /// A point-to-point ring.
    Ring {
        /// Node count.
        n: usize,
        /// Usable bandwidth, bytes per millisecond.
        bytes_per_ms: u32,
        /// Propagation latency, µs.
        latency_us: u64,
    },
    /// A 2D mesh (grid).
    Mesh {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Usable bandwidth, bytes per millisecond.
        bytes_per_ms: u32,
        /// Propagation latency, µs.
        latency_us: u64,
    },
    /// A 2D torus (mesh with wrap-around links; see `btr_model::topology::torus`).
    Torus {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Usable bandwidth, bytes per millisecond.
        bytes_per_ms: u32,
        /// Propagation latency, µs.
        latency_us: u64,
    },
    /// A k-ary fat-tree (see `btr_model::topology::fat_tree`; `k³/4 + 5k²/4` nodes).
    FatTree {
        /// Tree arity (even, ≥ 2).
        k: usize,
        /// Usable bandwidth, bytes per millisecond.
        bytes_per_ms: u32,
        /// Propagation latency, µs.
        latency_us: u64,
    },
}

impl TopoSpec {
    /// Number of nodes this spec instantiates.
    pub fn n_nodes(&self) -> usize {
        match *self {
            TopoSpec::Bus { n, .. } | TopoSpec::Ring { n, .. } => n,
            TopoSpec::Mesh { rows, cols, .. } | TopoSpec::Torus { rows, cols, .. } => rows * cols,
            TopoSpec::FatTree { k, .. } => btr_model::topology::fat_tree_size(k),
        }
    }

    /// Build the topology.
    pub(crate) fn build(&self) -> Topology {
        match *self {
            TopoSpec::Bus {
                n,
                bytes_per_ms,
                latency_us,
            } => Topology::bus(n, bytes_per_ms, Duration(latency_us)),
            TopoSpec::Ring {
                n,
                bytes_per_ms,
                latency_us,
            } => Topology::ring(n, bytes_per_ms, Duration(latency_us)),
            TopoSpec::Mesh {
                rows,
                cols,
                bytes_per_ms,
                latency_us,
            } => Topology::mesh(rows, cols, bytes_per_ms, Duration(latency_us)),
            TopoSpec::Torus {
                rows,
                cols,
                bytes_per_ms,
                latency_us,
            } => btr_model::topology::torus(rows, cols, bytes_per_ms, Duration(latency_us))
                .expect("torus specs are size-validated at parse/construction"),
            TopoSpec::FatTree {
                k,
                bytes_per_ms,
                latency_us,
            } => btr_model::topology::fat_tree(k, 0, bytes_per_ms, Duration(latency_us))
                .expect("fat-tree specs are size-validated at parse/construction"),
        }
    }

    /// Canonical token spelling (parseable by [`TopoSpec::parse`]).
    pub(crate) fn token(&self) -> String {
        match *self {
            TopoSpec::Bus {
                n,
                bytes_per_ms,
                latency_us,
            } => format!("bus{n}x{bytes_per_ms}x{latency_us}"),
            TopoSpec::Ring {
                n,
                bytes_per_ms,
                latency_us,
            } => format!("ring{n}x{bytes_per_ms}x{latency_us}"),
            TopoSpec::Mesh {
                rows,
                cols,
                bytes_per_ms,
                latency_us,
            } => format!("mesh{rows}x{cols}x{bytes_per_ms}x{latency_us}"),
            TopoSpec::Torus {
                rows,
                cols,
                bytes_per_ms,
                latency_us,
            } => format!("torus{rows}x{cols}x{bytes_per_ms}x{latency_us}"),
            TopoSpec::FatTree {
                k,
                bytes_per_ms,
                latency_us,
            } => format!("fattree{k}x{bytes_per_ms}x{latency_us}"),
        }
    }

    /// Parse a [`TopoSpec::token`] spelling.
    pub(crate) fn parse(s: &str) -> Option<TopoSpec> {
        let (family, rest) = if let Some(r) = s.strip_prefix("bus") {
            ("bus", r)
        } else if let Some(r) = s.strip_prefix("ring") {
            ("ring", r)
        } else if let Some(r) = s.strip_prefix("mesh") {
            ("mesh", r)
        } else if let Some(r) = s.strip_prefix("torus") {
            ("torus", r)
        } else if let Some(r) = s.strip_prefix("fattree") {
            ("fattree", r)
        } else {
            return None;
        };
        let nums: Vec<u64> = rest
            .split('x')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        // A crafted token must parse to None (the replay CLI's clean
        // exit(2) path), never truncate on its way into a field, panic in
        // a topology builder (zero bandwidth) or overflow in a later
        // n_nodes()/generator computation: bandwidth and latency are the
        // last two numbers of every family, sizes are checked per family
        // with checked arithmetic and sane ceilings.
        let (sizes, &[b, latency_us]) = nums.split_last_chunk::<2>()?;
        let bytes_per_ms = u32::try_from(b).ok().filter(|&b| b > 0)?;
        if latency_us > MAX_TOKEN_US {
            return None;
        }
        let grid = |r: u64, c: u64| r.checked_mul(c).is_some_and(|p| (2..=1 << 20).contains(&p));
        match (family, sizes) {
            ("bus", &[n]) => Some(TopoSpec::Bus {
                n: n as usize,
                bytes_per_ms,
                latency_us,
            }),
            ("ring", &[n]) => Some(TopoSpec::Ring {
                n: n as usize,
                bytes_per_ms,
                latency_us,
            }),
            ("mesh", &[r, c]) if grid(r, c) => Some(TopoSpec::Mesh {
                rows: r as usize,
                cols: c as usize,
                bytes_per_ms,
                latency_us,
            }),
            ("torus", &[r, c]) if grid(r, c) => Some(TopoSpec::Torus {
                rows: r as usize,
                cols: c as usize,
                bytes_per_ms,
                latency_us,
            }),
            ("fattree", &[k]) if (2..=64).contains(&k) && k % 2 == 0 => Some(TopoSpec::FatTree {
                k: k as usize,
                bytes_per_ms,
                latency_us,
            }),
            _ => None,
        }
    }
}

/// One campaign cell: a planned deployment the runner injects faults into.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Workload family (a `btr_workload::generators::catalog` name).
    pub workload: String,
    /// Platform.
    pub topo: TopoSpec,
    /// Fault budget the strategy is planned for.
    pub f: u8,
    /// The recovery bound R the cell is judged against.
    pub r_bound: Duration,
    /// The authenticator suite the cell's deployment runs with
    /// (HMAC-SHA-256 default; verdicts are suite-independent, so a
    /// SipHash twin of a cell is a differential oracle, not new
    /// coverage). Spelled `a=sip` in replay tokens, `-sip` in names.
    pub auth: AuthSuite,
    /// The fault variants scheduled on this cell.
    pub variants: Vec<FaultVariant>,
}

impl CellSpec {
    /// Short display name, e.g. `avionics9-bus-f1` (`-sip` appended for
    /// the non-default authenticator suite).
    pub fn name(&self) -> String {
        let family = match self.topo {
            TopoSpec::Bus { .. } => "bus",
            TopoSpec::Ring { .. } => "ring",
            TopoSpec::Mesh { .. } => "mesh",
            TopoSpec::Torus { .. } => "torus",
            TopoSpec::FatTree { .. } => "fattree",
        };
        format!(
            "{}{}-{}-f{}{}",
            self.workload,
            self.topo.n_nodes(),
            family,
            self.f,
            match self.auth {
                AuthSuite::HmacSha256 => "",
                AuthSuite::SipHash24 => "-sip",
            }
        )
    }

    /// Plan the cell into a runnable system.
    pub fn plan(&self) -> Result<BtrSystem, CellError> {
        let gen = generators::by_name(&self.workload)
            .ok_or_else(|| CellError::UnknownWorkload(self.workload.clone()))?;
        // Validate the platform size before handing it to the workload
        // generators, which assert (panic) below two nodes — a crafted
        // replay token or grid must fail cleanly instead.
        let n = self.topo.n_nodes();
        if n < 2 {
            return Err(CellError::TooFewNodes { got: n });
        }
        let workload = gen(n);
        let mut cfg = PlannerConfig::new(self.f, self.r_bound);
        cfg.admit_best_effort = true;
        BtrSystem::plan(workload, self.topo.build(), cfg)
            .map(|s| s.with_auth_suite(self.auth))
            .map_err(CellError::Planning)
    }

    /// Schedule-generator parameters for this cell.
    ///
    /// Activation windows and gaps scale with the cell's period and R:
    /// faults start after 4 warm-up periods, first activations spread
    /// over 20 periods, and sequential faults are spaced at least R
    /// apart (the paper's "a new fault every R" adversary).
    pub(crate) fn schedule_params(
        &self,
        period: Duration,
        deadline: Duration,
        combos: bool,
        over_budget: bool,
    ) -> ScheduleParams {
        let p = period.as_micros();
        let r = self.r_bound.as_micros();
        ScheduleParams {
            n_nodes: self.topo.n_nodes() as u32,
            f: self.f,
            period,
            deadline,
            first_at: Time(4 * p),
            last_at: Time(4 * p + 20 * p),
            gap: (Duration(r), Duration(r + 10 * p)),
            variants: self.variants.clone(),
            combos,
            over_budget,
        }
    }

    /// The judging horizon: latest possible activation, plus R to
    /// recover, plus a 10-period settling tail.
    pub(crate) fn horizon(&self, period: Duration, combos: bool, over_budget: bool) -> Duration {
        let p = period.as_micros();
        let r = self.r_bound.as_micros();
        let max_faults = if over_budget {
            self.f as u64 + 1
        } else if combos {
            self.f as u64
        } else {
            1
        };
        let last_activation = 24 * p + (max_faults - 1) * (r + 10 * p);
        Duration(last_activation + r + 10 * p)
    }
}

/// Cell construction / planning errors.
#[derive(Debug)]
pub enum CellError {
    /// The workload name is not in the generator catalog.
    UnknownWorkload(String),
    /// The platform has too few nodes to host any workload.
    TooFewNodes {
        /// The offending node count.
        got: usize,
    },
    /// The planner failed for this cell.
    Planning(SystemError),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::UnknownWorkload(w) => write!(f, "unknown workload '{w}'"),
            CellError::TooFewNodes { got } => {
                write!(f, "platform has {got} node(s); workloads need at least 2")
            }
            CellError::Planning(e) => write!(f, "cell planning failed: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

/// The default campaign grid: nine cells spanning four workload
/// families, five platform families (bus, multi-hop ring, mesh, torus,
/// fat-tree), and budgets f ∈ {1, 2}, every cell scheduling **every**
/// fault variant. CI asserts zero admissible violations here, including
/// under `--combos`. The variant exclusions and the missing ring cell
/// that used to pin this grid to a "clean" subspace were R-bound gaps,
/// now fixed — see EXPERIMENTS.md "campaign findings — resolved"; the
/// mesh/torus/fat-tree cells and the second f=2 cell are the ROADMAP's
/// "scale the grid" step riding on `btr_model::topology`'s platform
/// families.
pub(crate) fn default_grid() -> Vec<CellSpec> {
    vec![
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Bus {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Bus {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 2,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "automotive".into(),
            topo: TopoSpec::Bus {
                n: 8,
                bytes_per_ms: 200_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(100),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "scada".into(),
            topo: TopoSpec::Bus {
                n: 6,
                bytes_per_ms: 100_000,
                latency_us: 10,
            },
            f: 1,
            r_bound: Duration::from_millis(400),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "fusion-chain".into(),
            topo: TopoSpec::Ring {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        // The ROADMAP-requested multi-hop grid growth: the same avionics
        // workload on a 3x3 mesh (relayed flows, crash re-routing), the
        // torus wrap variant, a 36-node k=4 fat-tree (host/switch
        // asymmetry with redundant aggregation — k=2 was rejected: every
        // switch is a single point of failure there, so one dead agg
        // partitions its pod and forces structurally-unservable sheds
        // the criticality oracle rightly flags), and a second f=2 cell
        // on a multi-hop platform.
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Mesh {
                rows: 3,
                cols: 3,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "fusion-chain".into(),
            topo: TopoSpec::Torus {
                rows: 3,
                cols: 3,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        // Datacenter-class bandwidth: at CAN-bus rates the period-start
        // heartbeat/evidence bursts queue ~1-3 ms on the shared relay
        // lanes of the tree's aggregation layer, blowing through the
        // schedule's producer-to-consumer slot gaps in fault-free runs.
        CellSpec {
            workload: "scada".into(),
            topo: TopoSpec::FatTree {
                k: 4,
                bytes_per_ms: 1_000_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(400),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Mesh {
                rows: 3,
                cols: 3,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 2,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
    ]
}

/// The fuzzer's hunting grid: small, deep cells aimed where the PR 3
/// direct-evidence gating has least margin — the f=3 sequential-chain
/// regime on the avionics bus (three cascading faults, any variant mix)
/// and f=2 on the sparse-fan-in SCADA bus whose scaled attribution
/// thresholds the campaign already bent once. Kept to two cells so a
/// bounded `--budget` buys chain depth rather than grid breadth.
pub(crate) fn fuzz_grid() -> Vec<CellSpec> {
    vec![
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Bus {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 3,
            r_bound: Duration::from_millis(150),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
        CellSpec {
            workload: "scada".into(),
            topo: TopoSpec::Bus {
                n: 6,
                bytes_per_ms: 100_000,
                latency_us: 10,
            },
            f: 2,
            r_bound: Duration::from_millis(400),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        },
    ]
}

/// The same cells as `default_grid` with every variant enabled. Since
/// the campaign-found gaps were fixed, the default grid already runs the
/// full variant space, so this is an alias; it remains the stable name
/// scripts pass via `--all-variants`.
pub fn all_variant_grid() -> Vec<CellSpec> {
    default_grid()
}

/// Force one authenticator suite on every cell of a grid (`harness
/// campaign --auth hmac|sip`). Running the same grid under each suite
/// and comparing `runs_digest` is the campaign-level cross-suite
/// differential oracle — verdicts must be bit-identical.
pub fn with_auth(mut cells: Vec<CellSpec>, suite: AuthSuite) -> Vec<CellSpec> {
    for c in &mut cells {
        c.auth = suite;
    }
    cells
}

/// Duplicate every cell with a SipHash twin (`harness campaign --auth
/// both`): one campaign sweeps both suites side by side, twins
/// distinguished by the `-sip` name suffix and the `a=sip` token field.
pub fn auth_sweep(cells: Vec<CellSpec>) -> Vec<CellSpec> {
    let mut out = Vec::with_capacity(cells.len() * 2);
    for c in cells {
        let mut twin = c.clone();
        twin.auth = AuthSuite::SipHash24;
        out.push(c);
        out.push(twin);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_tokens_round_trip() {
        let specs = [
            TopoSpec::Bus {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            TopoSpec::Ring {
                n: 6,
                bytes_per_ms: 400_000,
                latency_us: 3,
            },
            TopoSpec::Mesh {
                rows: 4,
                cols: 5,
                bytes_per_ms: 150_000,
                latency_us: 5,
            },
            TopoSpec::Torus {
                rows: 3,
                cols: 4,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            TopoSpec::FatTree {
                k: 4,
                bytes_per_ms: 1_000_000,
                latency_us: 5,
            },
        ];
        for s in specs {
            assert_eq!(
                TopoSpec::parse(&s.token()),
                Some(s.clone()),
                "{}",
                s.token()
            );
            assert_eq!(s.build().node_count(), s.n_nodes());
        }
        assert!(TopoSpec::parse("star5x1x1").is_none());
        assert!(TopoSpec::parse("bus9x100000").is_none());
        // Degenerate or overflow-prone sizes must parse to None, not
        // panic in the guard or in a later n_nodes() computation.
        assert!(TopoSpec::parse("torus1x1x100x1").is_none());
        assert!(TopoSpec::parse("torus4294967296x4294967297x1x1").is_none());
        assert!(TopoSpec::parse("torus3000000000x3000000000x1x1").is_none());
        assert!(TopoSpec::parse("fattree3x100x1").is_none());
        assert!(TopoSpec::parse("fattree0x100x1").is_none());
        assert!(TopoSpec::parse("fattree6000000x1x1").is_none());
        assert!(TopoSpec::parse("mesh4294967296x4294967296x100x5").is_none());
        // Bandwidth is 1..=u32::MAX — zero panics in the topology
        // builder, and 2^32 used to truncate to it — and latency stops
        // at the token ceiling.
        assert!(TopoSpec::parse("bus9x0x5").is_none());
        assert!(TopoSpec::parse("bus9x4294967296x5").is_none());
        assert!(TopoSpec::parse("bus9x4294967295x5").is_some());
        assert!(TopoSpec::parse("ring6x100x3600000001").is_none());
        assert!(TopoSpec::parse("ring6x100x3600000000").is_some());
    }

    #[test]
    fn default_grid_cells_plan() {
        for cell in default_grid() {
            let sys = cell
                .plan()
                .unwrap_or_else(|e| panic!("{}: {e}", cell.name()));
            assert_eq!(sys.strategy().f, cell.f, "{}", cell.name());
            assert_eq!(sys.strategy().r_bound, cell.r_bound, "{}", cell.name());
        }
    }

    #[test]
    fn fuzz_grid_cells_plan_at_their_fault_budgets() {
        let cells = fuzz_grid();
        assert!(cells.iter().any(|c| c.f == 3), "fuzz grid must reach f=3");
        for cell in cells {
            let sys = cell
                .plan()
                .unwrap_or_else(|e| panic!("{}: {e}", cell.name()));
            assert_eq!(sys.strategy().f, cell.f, "{}", cell.name());
            let params = cell.schedule_params(
                Duration::from_millis(10),
                Duration::from_millis(8),
                true,
                true,
            );
            assert_eq!(params.f, cell.f, "{}", cell.name());
        }
    }

    #[test]
    fn cell_names_are_distinct() {
        let names: std::collections::BTreeSet<String> =
            default_grid().iter().map(CellSpec::name).collect();
        assert_eq!(names.len(), default_grid().len());
    }

    #[test]
    fn auth_sweep_twins_every_cell() {
        let base = default_grid();
        let swept = auth_sweep(default_grid());
        assert_eq!(swept.len(), 2 * base.len());
        // Twins differ only in suite; names stay distinct grid-wide.
        for pair in swept.chunks(2) {
            assert_eq!(pair[0].auth, AuthSuite::HmacSha256);
            assert_eq!(pair[1].auth, AuthSuite::SipHash24);
            assert_eq!(pair[1].name(), format!("{}-sip", pair[0].name()));
        }
        let names: std::collections::BTreeSet<String> = swept.iter().map(CellSpec::name).collect();
        assert_eq!(names.len(), swept.len());
        // Forcing a suite touches every cell and plans with it.
        let forced = with_auth(default_grid(), AuthSuite::SipHash24);
        assert!(forced.iter().all(|c| c.auth == AuthSuite::SipHash24));
        let sys = forced[0].plan().expect("plans");
        assert_eq!(sys.auth_suite(), AuthSuite::SipHash24);
    }

    #[test]
    fn horizon_covers_latest_activation_plus_r() {
        for cell in default_grid() {
            let period = Duration::from_millis(10);
            let params = cell.schedule_params(period, Duration::from_millis(8), true, true);
            let h = cell.horizon(period, true, true);
            let worst_last = params.last_at.as_micros()
                + (params.max_faults() as u64 - 1) * params.gap.1.as_micros();
            assert!(
                h.as_micros() >= worst_last + cell.r_bound.as_micros(),
                "{}: horizon {h} too short for last activation {worst_last}",
                cell.name()
            );
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cell = CellSpec {
            workload: "warp-drive".into(),
            topo: TopoSpec::Bus {
                n: 4,
                bytes_per_ms: 1000,
                latency_us: 1,
            },
            f: 1,
            r_bound: Duration::from_millis(100),
            auth: AuthSuite::HmacSha256,
            variants: FaultVariant::ALL.to_vec(),
        };
        assert!(matches!(cell.plan(), Err(CellError::UnknownWorkload(_))));
    }
}
