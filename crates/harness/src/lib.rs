//! Scenario-matrix conformance harness.
//!
//! PRs 2–4 made the simulator fast and bit-reproducible; this crate
//! verifies, continuously, that the *paper's claims* hold on top of it.
//! Every protocol of the reproduction — Luby and Ghaffari MIS, the
//! Algorithm 2/3 MaxIS variants, the grouped and fast matchings, and the
//! deterministic coloring pipeline — is executed across a
//! **topology × weight-distribution × seed** matrix, validated against
//! the exact solvers in `congest-exact`, and checked against the paper's
//! guarantees:
//!
//! * MaxIS (Algorithms 2 and 3): `w(S) · Δ ≥ w(OPT)` (Theorems 2.3, 2.7),
//!   with `OPT` from branch-and-bound MWIS;
//! * MIS (Luby / Ghaffari): maximality + independence, and the
//!   domination bound `|S| · (Δ+1) ≥ α(G)`;
//! * matching: `2 · w(M) ≥ w(M*)` for the local-ratio variants and
//!   `(2+ε) · w(M) ≥ w(M*)` for the Appendix B.1 pipeline, with `M*`
//!   from the Hungarian / blossom / branch-and-bound oracles;
//! * coloring: properness and `≤ Δ+1` colors;
//! * rounds: within generous `O(MIS(G)·log W)`-style budgets (see
//!   [`round_budget`]) — a 4–8× constant over the measured trajectory, so
//!   a complexity regression trips the harness while scheduler noise
//!   cannot.
//!
//! Each cell is summarized as one record of the append-only
//! `QUALITY_engine.json` ledger (same storage convention as
//! `BENCH_engine.json`, shared via [`congest_bench::ledger`]). A second,
//! fault-injection suite re-runs selected cells under seeded message-drop
//! and node-crash adversaries ([`congest_sim::Adversary`]) and records
//! how each guarantee degrades.
//!
//! A third suite — the [`degradation`] grid — sweeps the full fault
//! model (drops, async delays, duplication, corruption, reordering,
//! crash+restart) at three intensities per axis and writes its records
//! to the separate `DEGRADATION_engine.json` ledger.
//!
//! A fourth suite — the [`churn`] grid — stresses the *topology* instead
//! of the delivery layer: per-round edge flips and node joins/leaves via
//! the churn adversary, plus `DeltaGraph` repair probes comparing the
//! incremental `luby_repair`/`grouped_mwm_repair` variants against
//! from-scratch recomputes, ledgered in `CHURN_engine.json`.
//!
//! The fault, degradation and churn cells run their protocol through one
//! evaluator, so they assert one set of checks: Luby and Ghaffari agree
//! between the sequential and parallel executors; the grouped matching
//! agrees between them too and stays a valid matching under any fault
//! schedule; Alg. 2 replays; every fault knob that is off leaves its
//! counter at zero; restarts never outnumber crashes nor rejoins
//! departures; and every run halts, reaches its round cap, or loses nodes
//! to crashes or departures. Completion, progress, independence and the
//! approximation ratio are *recorded*: faults may legitimately break them.
//!
//! A fifth suite — the [`service`] oracle grid — drives the
//! matching-as-a-service façade (`congest-service`) through its whole
//! request surface on the same small topologies and validates every
//! *served* answer (matchings, MIS, point queries, post-delta repairs)
//! against the exact oracles, ledgered in `SERVICE_engine.json`
//! alongside the `load_gen` throughput records.
//!
//! [`Suites::run`] runs all five and [`Suites::grids`] renders the fresh
//! grid each of the four [`LEDGERS`] gets; [`newest_grid_matches`] is the
//! staleness check behind `harness --check` and its tier-1 twin.

pub mod churn;
pub mod degradation;
pub mod service;
pub use churn::{
    churn_acceptance, churn_cell, churn_suite, ChurnAxis, ChurnReport, CHURN_AXES, CHURN_LEVELS,
    CHURN_PROTOCOLS,
};
pub use degradation::{
    degradation_cell, degradation_suite, DegradationReport, FaultAxis, AXES, DEGRADATION_PROTOCOLS,
    LEVELS,
};
pub use service::{service_cell, service_suite, ServiceReport, SERVICE_SHARDS, SERVICE_WEIGHTINGS};

use congest_approx::fast::{mcm_two_plus_eps, mwm_two_plus_eps};
use congest_approx::matching::{mwm_grouped, mwm_grouped_with, mwm_grouped_with_parallel};
use congest_approx::maxis::{alg2, alg2_with, alg2_with_parallel, alg3, Alg2Config};
use congest_bench::ledger::{json_object, json_str};
use congest_coloring::{deterministic_delta_plus_one, num_colors, verify_coloring};
use congest_exact::{
    blossom_maximum_matching, brute_force_mwis, greedy_matching, max_weight_matching_oracle,
};
use congest_graph::{generators, Graph, NodeId};
use congest_mis::{verify_mis, GhaffariMis, LubyMis, MisResult};
use congest_sim::{Adversary, Engine, Protocol, RunOutcome, RunStats, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// ε used for every `(2+ε)` pipeline in the matrix; the bound checks use
/// the exact rational `2 + 1/2 = 5/2` so they run in integer arithmetic.
pub const EPS: f64 = 0.5;

/// One topology of the matrix. Kept small enough that every exact oracle
/// (branch-and-bound MWIS, Hungarian, blossom) is instant, so the bound
/// checks compare against the true optimum, not a stand-in.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Family name as recorded in the ledger (`gnp`, `watts_strogatz`, …).
    pub family: &'static str,
    /// Human-readable generator parameters, for the ledger.
    pub param: &'static str,
    /// Seed of the generator's RNG (irrelevant for deterministic
    /// families).
    pub graph_seed: u64,
    build: fn(u64) -> Graph,
}

/// The topology axis: random families spanning sparse/clustered/skewed
/// degree profiles plus the deterministic corner cases (complete = max
/// density, path = max diameter, star = the paper's own worst case for
/// naive parallel local ratio).
pub fn topologies() -> Vec<Topology> {
    fn gnp16(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::gnp(16, 0.25, &mut rng)
    }
    fn ws16(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::watts_strogatz(16, 4, 0.2, &mut rng)
    }
    fn plc16(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::power_law_cluster(16, 2, 0.3, &mut rng)
    }
    fn complete8(_seed: u64) -> Graph {
        generators::complete(8)
    }
    fn path15(_seed: u64) -> Graph {
        generators::path(15)
    }
    fn star13(_seed: u64) -> Graph {
        generators::star(13)
    }
    vec![
        Topology {
            family: "gnp",
            param: "n=16 p=0.25",
            graph_seed: 9,
            build: gnp16,
        },
        Topology {
            family: "watts_strogatz",
            param: "n=16 k=4 beta=0.2",
            graph_seed: 5,
            build: ws16,
        },
        Topology {
            family: "power_law_cluster",
            param: "n=16 m=2 p=0.3",
            graph_seed: 3,
            build: plc16,
        },
        Topology {
            family: "complete",
            param: "n=8",
            graph_seed: 0,
            build: complete8,
        },
        Topology {
            family: "path",
            param: "n=15",
            graph_seed: 0,
            build: path15,
        },
        Topology {
            family: "star",
            param: "n=13",
            graph_seed: 0,
            build: star13,
        },
    ]
}

/// The weight-distribution axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weighting {
    /// All weights 1 (the generators' default) — used for the
    /// cardinality protocols, where weights are meaningless.
    Unit,
    /// Node and edge weights uniform in `[1, 64]`.
    Uniform,
    /// Heavy-tailed (Pareto/zipf-like) weights in `[1, 2²⁰]`: a few huge
    /// weights dominate, stressing the `log W` layering of Algorithm 2.
    Zipf,
    /// Deterministic degree-correlated weights (`w(v) = deg(v)+1`,
    /// `w(e) = deg(u)+deg(v)`): many ties and weight concentrated on
    /// hubs, the adversarial shape for greedy/local choices on stars.
    Adversarial,
}

impl Weighting {
    /// Ledger name.
    pub fn name(self) -> &'static str {
        match self {
            Weighting::Unit => "unit",
            Weighting::Uniform => "uniform",
            Weighting::Zipf => "zipf",
            Weighting::Adversarial => "adversarial",
        }
    }

    /// Applies the distribution to `g` (weight RNG derived from
    /// `seed`, independent of the engine seeds).
    pub fn apply(self, g: &mut Graph, seed: u64) {
        match self {
            Weighting::Unit => {}
            Weighting::Uniform => {
                let mut rng = SmallRng::seed_from_u64(seed);
                generators::randomize_node_weights(g, 64, &mut rng);
                generators::randomize_edge_weights(g, 64, &mut rng);
            }
            Weighting::Zipf => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let pareto = |rng: &mut SmallRng| -> u64 {
                    let u: f64 = rng.random();
                    // Inverse-CDF Pareto with α ≈ 1.16 (the "80/20" zipf
                    // exponent), clamped into the CONGEST-polynomial
                    // weight range [1, 2²⁰].
                    let w = (1.0 - u).powf(-1.0 / 1.16);
                    (w as u64).clamp(1, 1 << 20)
                };
                for v in 0..g.num_nodes() {
                    let w = pareto(&mut rng);
                    g.set_node_weight(NodeId(v as u32), w);
                }
                for e in 0..g.num_edges() {
                    let w = pareto(&mut rng);
                    g.set_edge_weight(congest_graph::EdgeId(e as u32), w);
                }
            }
            Weighting::Adversarial => {
                for v in g.nodes().collect::<Vec<_>>() {
                    g.set_node_weight(v, g.degree(v) as u64 + 1);
                }
                for e in g.edges().collect::<Vec<_>>() {
                    let (u, v) = g.endpoints(e);
                    g.set_edge_weight(e, (g.degree(u) + g.degree(v)) as u64);
                }
            }
        }
    }
}

/// Protocols of the matrix. Weighted protocols sweep all three non-unit
/// distributions; cardinality protocols run once, on unit weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Luby's randomized MIS.
    LubyMis,
    /// Ghaffari's nearly-maximal IS looped to maximality.
    GhaffariMis,
    /// Algorithm 2: randomized Δ-approximate MaxIS.
    MaxIsAlg2,
    /// Algorithm 3: deterministic coloring-based Δ-approximate MaxIS.
    MaxIsAlg3,
    /// Grouped (footnote-5) 2-approximate MWM.
    GroupedMwm,
    /// Appendix B.1 `(2+ε)`-approximate MWM (buckets + augmentation).
    FastMwm,
    /// Theorem 3.2 `(2+ε)`-approximate MCM on the line graph.
    FastMcm,
    /// Linial + Kuhn–Wattenhofer `(Δ+1)`-coloring pipeline.
    Coloring,
}

/// All protocols, in ledger order.
pub const PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::LubyMis,
    ProtocolKind::GhaffariMis,
    ProtocolKind::MaxIsAlg2,
    ProtocolKind::MaxIsAlg3,
    ProtocolKind::GroupedMwm,
    ProtocolKind::FastMwm,
    ProtocolKind::FastMcm,
    ProtocolKind::Coloring,
];

impl ProtocolKind {
    /// Ledger name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::LubyMis => "luby_mis",
            ProtocolKind::GhaffariMis => "ghaffari_mis",
            ProtocolKind::MaxIsAlg2 => "maxis_alg2",
            ProtocolKind::MaxIsAlg3 => "maxis_alg3",
            ProtocolKind::GroupedMwm => "grouped_mwm",
            ProtocolKind::FastMwm => "fast_mwm_2eps",
            ProtocolKind::FastMcm => "fast_mcm_2eps",
            ProtocolKind::Coloring => "coloring_delta_plus_one",
        }
    }

    /// Whether the protocol optimizes a weighted objective (and therefore
    /// sweeps the weight-distribution axis).
    pub fn weighted(self) -> bool {
        matches!(
            self,
            ProtocolKind::MaxIsAlg2
                | ProtocolKind::MaxIsAlg3
                | ProtocolKind::GroupedMwm
                | ProtocolKind::FastMwm
        )
    }

    /// Whether the protocol is deterministic (one seed suffices).
    pub fn deterministic(self) -> bool {
        matches!(self, ProtocolKind::MaxIsAlg3 | ProtocolKind::Coloring)
    }

    /// The weighting of the protocol's fault, degradation and churn cells:
    /// uniform for the weighted objectives, unit for MIS.
    pub fn fault_weighting(self) -> Weighting {
        if self.weighted() {
            Weighting::Uniform
        } else {
            Weighting::Unit
        }
    }
}

/// Generous round budget for one protocol on a graph with `n` nodes,
/// max degree `delta`, and max weight `w`. These are *sanity budgets*:
/// the paper's asymptotic shapes with constants 4–8× above the measured
/// trajectory of this reproduction, so a complexity regression (a
/// protocol suddenly taking Θ(n) rounds where it took Θ(log n)) trips
/// the harness while normal variance cannot.
pub fn round_budget(kind: ProtocolKind, n: usize, delta: usize, w: u64) -> usize {
    let log_n = (n.max(2) as f64).log2().ceil() as usize + 1;
    let log_w = (64 - w.max(1).leading_zeros() as usize).max(1) + 1;
    let log_d = ((delta.max(2)) as f64).log2().ceil() as usize + 1;
    match kind {
        // O(log n) w.h.p.; ~3 engine rounds per Luby cycle.
        ProtocolKind::LubyMis => 24 * log_n + 24,
        // O(log Δ + log 1/δ) iterations, looped to maximality.
        ProtocolKind::GhaffariMis => 48 * log_n + 48,
        // O(MIS(G) · log W) (Theorem 2.3).
        ProtocolKind::MaxIsAlg2 => 24 * log_n * log_w + 48,
        // O(Δ log Δ + log* n) coloring + O(Δ) local ratio.
        ProtocolKind::MaxIsAlg3 => 16 * (delta + 2) * log_d + 16 * log_n + 64,
        // O(MIS · log W) on the grouped edge competition.
        ProtocolKind::GroupedMwm => 32 * log_n * log_w + 64,
        // O(1/ε) bucket passes, each O(log Δ / log log Δ)-shaped.
        ProtocolKind::FastMwm => 64 * log_d * log_w + 256,
        ProtocolKind::FastMcm => 64 * log_d + 128,
        // Linial O(log* n) + KW O(Δ log Δ).
        ProtocolKind::Coloring => 16 * (delta + 2) * log_d + 16 * log_n + 64,
    }
}

/// Outcome of one seeded run of one protocol on one weighted graph.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// Output passed validity checks (independence/maximality, matching
    /// feasibility, coloring properness).
    pub valid: bool,
    /// Rounds executed (total physical rounds for staged pipelines).
    pub rounds: usize,
    /// Achieved objective value (set weight, matching weight/cardinality,
    /// `Δ+1` for a proper coloring — see [`opt_value`]).
    pub alg_value: u64,
    /// Reference value measured by the run itself, overriding
    /// [`CellOptimum::value`] when set. Used by self-referential checks:
    /// the coloring cell's reference is the number of colors its own
    /// (deterministic) run used, so the pipeline runs once, not once per
    /// [`opt_value`] call and once per run.
    pub opt_override: Option<u64>,
}

/// The optimum (or reference value) one cell's ratios are measured
/// against, plus the oracle that produced it.
#[derive(Clone, Copy, Debug)]
pub struct CellOptimum {
    /// Optimal objective value (a *lower bound* on it for `greedy_lb`).
    pub value: u64,
    /// Which oracle: `brute_mwis`, `hungarian`/`blossom`/`brute_mwm`
    /// (via [`max_weight_matching_oracle`]), `greedy_lb`, or
    /// `delta_plus_one`.
    pub oracle: &'static str,
    /// Numerator of the required ratio `alg/opt ≥ num/den`, kept
    /// rational so the bound check is exact integer arithmetic.
    pub bound_num: u64,
    /// Denominator of the required ratio (see
    /// [`bound_num`](Self::bound_num)).
    pub bound_den: u64,
}

/// Computes the reference optimum for `kind` on `g`.
pub fn opt_value(kind: ProtocolKind, g: &Graph) -> CellOptimum {
    let delta = g.max_degree().max(1) as u64;
    match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => CellOptimum {
            // Unit weights: brute MWIS is exactly α(G). Domination gives
            // |S|·(Δ+1) ≥ n ≥ α for any maximal IS.
            value: brute_force_mwis(g).weight(g),
            oracle: "brute_mwis",
            bound_num: 1,
            bound_den: delta + 1,
        },
        ProtocolKind::MaxIsAlg2 | ProtocolKind::MaxIsAlg3 => CellOptimum {
            value: brute_force_mwis(g).weight(g),
            oracle: "brute_mwis",
            bound_num: 1,
            bound_den: delta,
        },
        ProtocolKind::GroupedMwm | ProtocolKind::FastMwm => {
            let (value, oracle) = match max_weight_matching_oracle(g) {
                Some(m) => {
                    let w = m.weight(g);
                    (
                        w,
                        if congest_graph::Bipartition::of(g).is_some() {
                            "hungarian"
                        } else {
                            "brute_mwm"
                        },
                    )
                }
                // Dense non-bipartite graph beyond the branch-and-bound
                // cap: fall back to the greedy 2-approximation as a lower
                // bound on OPT. `alg ≥ OPT/c ≥ greedy/c` still holds, so
                // the check stays sound, just less tight.
                None => (greedy_matching(g).weight(g), "greedy_lb"),
            };
            let (bound_num, bound_den) = match kind {
                ProtocolKind::GroupedMwm => (1, 2),
                _ => (2, 5), // 1/(2+ε) with ε = 1/2
            };
            CellOptimum {
                value,
                oracle,
                bound_num,
                bound_den,
            }
        }
        ProtocolKind::FastMcm => CellOptimum {
            value: blossom_maximum_matching(g).len() as u64,
            oracle: "blossom",
            bound_num: 2,
            bound_den: 5,
        },
        ProtocolKind::Coloring => CellOptimum {
            // The coloring reference is *self-measured*: the run reports
            // the number of colors it used via
            // [`SeedOutcome::opt_override`] (the pipeline is
            // deterministic, so this is a pure function of `g` — and it
            // only runs once this way). The run's `alg_value` is the
            // promised palette `Δ+1`, so the `alg ≥ opt` check (bound
            // 1/1) reads "colors used stayed within the promised
            // palette", and the ledger ratio is `(Δ+1)/colors_used ≥ 1`.
            // The `value` here is the never-worse fallback `Δ+1`, only
            // reachable if a run fails to report.
            value: delta + 1,
            oracle: "colors_used",
            bound_num: 1,
            bound_den: 1,
        },
    }
}

/// Runs Luby or Ghaffari sequentially *and* in parallel, asserting the
/// two executors agree on every output and statistic; returns the
/// sequential outcome. `ctx` names the cell in the panic.
fn run_mis_both(
    ctx: &str,
    kind: ProtocolKind,
    g: &Graph,
    config: &SimConfig,
    seed: u64,
) -> RunOutcome<MisResult> {
    fn both<P: Protocol<Output = MisResult>>(
        ctx: &str,
        g: &Graph,
        config: &SimConfig,
        factory: fn() -> P,
        seed: u64,
    ) -> RunOutcome<MisResult> {
        let seq = Engine::build(g, config.clone(), move |_| factory()).run(seed);
        let par = Engine::build(g, config.clone(), move |_| factory()).run_parallel(seed);
        assert_eq!(
            (&seq.outputs, &seq.stats),
            (&par.outputs, &par.stats),
            "{ctx}: sequential and parallel executors diverged"
        );
        seq
    }
    match kind {
        ProtocolKind::LubyMis => both(ctx, g, config, LubyMis::new, seed),
        ProtocolKind::GhaffariMis => both(ctx, g, config, || GhaffariMis::with_k(2.0), seed),
        _ => unreachable!("{ctx}: {} is not an MIS protocol", kind.name()),
    }
}

/// Shared scoring for the run shapes that carry (validity, rounds,
/// value) directly.
fn scored(valid: bool, rounds: usize, alg_value: u64) -> SeedOutcome {
    SeedOutcome {
        valid,
        rounds,
        alg_value,
        opt_override: None,
    }
}

/// Runs one protocol once and evaluates validity + objective value.
pub fn run_cell(kind: ProtocolKind, g: &Graph, seed: u64) -> SeedOutcome {
    match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => {
            let run = run_mis_both("conformance", kind, g, &SimConfig::congest_for(g), seed);
            let rounds = run.stats.rounds;
            match verify_mis(g, &run.into_outputs()) {
                Ok(set) => scored(true, rounds, set.weight(g)),
                Err(_) => scored(false, rounds, 0),
            }
        }
        ProtocolKind::MaxIsAlg2 => {
            let run = alg2(g, &Alg2Config::default(), seed);
            scored(
                run.independent_set.is_independent(g),
                run.rounds,
                run.independent_set.weight(g),
            )
        }
        ProtocolKind::MaxIsAlg3 => {
            let run = alg3(g);
            scored(
                run.independent_set.is_independent(g),
                run.rounds,
                run.independent_set.weight(g),
            )
        }
        ProtocolKind::GroupedMwm => {
            let run = mwm_grouped(g, seed);
            scored(
                run.matching.is_valid(g),
                run.physical_rounds,
                run.matching.weight(g),
            )
        }
        ProtocolKind::FastMwm => {
            let run = mwm_two_plus_eps(g, EPS, seed);
            scored(
                run.matching.is_valid(g),
                run.physical_rounds,
                run.matching.weight(g),
            )
        }
        ProtocolKind::FastMcm => {
            let run = mcm_two_plus_eps(g, EPS, seed);
            scored(
                run.matching.is_valid(g),
                run.physical_rounds,
                run.matching.len() as u64,
            )
        }
        ProtocolKind::Coloring => {
            let run = deterministic_delta_plus_one(g);
            let palette = g.max_degree() + 1;
            SeedOutcome {
                valid: verify_coloring(g, &run.colors, palette).is_ok(),
                rounds: run.rounds,
                alg_value: palette as u64,
                opt_override: Some((num_colors(&run.colors) as u64).max(1)),
            }
        }
    }
}

/// One ledger record: a (protocol, topology, weighting) cell aggregated
/// over its engine seeds.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Protocol ledger name.
    pub protocol: &'static str,
    /// Topology of the cell.
    pub topology: Topology,
    /// Node/edge/degree shape of the instantiated graph.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Max degree.
    pub max_degree: usize,
    /// Weighting ledger name.
    pub weighting: &'static str,
    /// Engine seeds executed.
    pub seeds: usize,
    /// Every seed's output passed its validity check.
    pub all_valid: bool,
    /// Worst (max) round count over seeds.
    pub rounds_max: usize,
    /// The sanity budget the worst round count is checked against.
    pub round_budget: usize,
    /// Worst (min) achieved/optimal ratio over seeds.
    pub ratio_min: f64,
    /// The paper's required ratio for this protocol.
    pub ratio_bound: f64,
    /// `alg · bound_den ≥ opt · bound_num` held for every seed
    /// (exact integer check; `ratio_min`/`ratio_bound` are the float
    /// rendering for the ledger).
    pub within_bound: bool,
    /// Oracle the optimum came from.
    pub oracle: &'static str,
}

impl CellReport {
    /// Renders the record for the `QUALITY_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(self.topology.family)),
            ("param", json_str(self.topology.param)),
            ("seed", self.topology.graph_seed.to_string()),
            ("n", self.n.to_string()),
            ("edges", self.m.to_string()),
            ("max_degree", self.max_degree.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("conformance")),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("weights", json_str(self.weighting)),
            ("seeds", self.seeds.to_string()),
            ("valid", self.all_valid.to_string()),
            ("rounds_max", self.rounds_max.to_string()),
            ("round_budget", self.round_budget.to_string()),
            ("ratio_min", format!("{:.6}", self.ratio_min)),
            ("ratio_bound", format!("{:.6}", self.ratio_bound)),
            ("within_bound", self.within_bound.to_string()),
            ("oracle", json_str(self.oracle)),
            ("adversary", "null".to_string()),
        ])
    }
}

/// The engine seeds swept per cell.
pub const SEEDS: [u64; 3] = [11, 42, 2024];

/// Instantiates the weighted graph of one (topology, weighting) cell.
pub fn build_graph(topo: &Topology, weighting: Weighting) -> Graph {
    let mut g = (topo.build)(topo.graph_seed);
    // Weight seed derived from the topology seed so the same cell always
    // carries the same weights, while distributions stay independent.
    weighting.apply(&mut g, topo.graph_seed ^ 0x5EED_u64);
    g
}

/// Runs one (protocol, topology, weighting) cell over `seeds` and
/// aggregates the report.
///
/// # Panics
/// Panics (with the offending cell in the message) if any seed produces
/// an invalid output, busts its round budget, or misses the paper's
/// approximation bound — the harness's entire job is to refuse to write
/// a ledger recording a broken guarantee.
pub fn conformance_cell(
    kind: ProtocolKind,
    topo: &Topology,
    weighting: Weighting,
    seeds: &[u64],
) -> CellReport {
    let g = build_graph(topo, weighting);
    let opt = opt_value(kind, &g);
    let budget = round_budget(
        kind,
        g.num_nodes(),
        g.max_degree(),
        g.max_node_weight().max(g.max_edge_weight()),
    );
    let seeds_run: &[u64] = if kind.deterministic() {
        &seeds[..1]
    } else {
        seeds
    };

    let mut all_valid = true;
    let mut rounds_max = 0usize;
    let mut ratio_min = f64::INFINITY;
    let mut within = true;
    for &seed in seeds_run {
        let out = run_cell(kind, &g, seed);
        all_valid &= out.valid;
        rounds_max = rounds_max.max(out.rounds);
        let opt_val = out.opt_override.unwrap_or(opt.value);
        let ratio = if opt_val == 0 {
            1.0
        } else {
            out.alg_value as f64 / opt_val as f64
        };
        ratio_min = ratio_min.min(ratio);
        // Exact rational check: alg/opt ≥ num/den ⟺ alg·den ≥ opt·num.
        within &= out.alg_value * opt.bound_den >= opt_val * opt.bound_num;
    }
    if ratio_min.is_infinite() {
        ratio_min = 1.0;
    }
    let report = CellReport {
        protocol: kind.name(),
        topology: *topo,
        n: g.num_nodes(),
        m: g.num_edges(),
        max_degree: g.max_degree(),
        weighting: weighting.name(),
        seeds: seeds_run.len(),
        all_valid,
        rounds_max,
        round_budget: budget,
        ratio_min,
        ratio_bound: opt.bound_num as f64 / opt.bound_den as f64,
        within_bound: within,
        oracle: opt.oracle,
    };
    assert!(
        report.all_valid,
        "{} on {}/{}: invalid output",
        report.protocol, report.topology.family, report.weighting
    );
    assert!(
        report.within_bound,
        "{} on {}/{}: approximation bound missed (ratio {} < {})",
        report.protocol,
        report.topology.family,
        report.weighting,
        report.ratio_min,
        report.ratio_bound
    );
    assert!(
        report.rounds_max <= report.round_budget,
        "{} on {}/{}: {} rounds busts the {}-round sanity budget",
        report.protocol,
        report.topology.family,
        report.weighting,
        report.rounds_max,
        report.round_budget
    );
    report
}

/// The full conformance suite: weighted protocols sweep
/// uniform/zipf/adversarial weights, cardinality protocols run on unit
/// weights, every cell over every topology.
pub fn conformance_suite() -> Vec<CellReport> {
    let mut reports = Vec::new();
    for topo in topologies() {
        for &kind in &PROTOCOLS {
            let weightings: &[Weighting] = if kind.weighted() {
                &[Weighting::Uniform, Weighting::Zipf, Weighting::Adversarial]
            } else {
                &[Weighting::Unit]
            };
            for &w in weightings {
                reports.push(conformance_cell(kind, &topo, w, &SEEDS));
            }
        }
    }
    reports
}

/// One fault-injection record: a (protocol, topology, adversary) cell.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Protocol ledger name.
    pub protocol: &'static str,
    /// Topology of the cell.
    pub topology: Topology,
    /// The injected adversary.
    pub adversary: Adversary,
    /// Whether every node halted normally.
    pub completed: bool,
    /// Fraction of nodes that made *useful progress*: produced an output
    /// (MIS protocols), or ended up matched (grouped matching — a
    /// stalled node still outputs "unmatched" at the round cap, so
    /// matched endpoints are the meaningful progress measure there).
    pub decided_fraction: f64,
    /// Protocol-specific safety: independence among decided in-set nodes
    /// (MIS), matching validity (grouped). Matching safety is guaranteed
    /// by construction and asserted; MIS safety is *recorded* — under
    /// message loss two neighbors can both believe they joined.
    pub safety_ok: bool,
    /// Messages the adversary dropped in flight.
    pub adversary_dropped: u64,
    /// Nodes the adversary crash-stopped.
    pub crashed_nodes: u64,
}

impl FaultReport {
    /// Renders the record for the `QUALITY_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(self.topology.family)),
            ("param", json_str(self.topology.param)),
            ("seed", self.topology.graph_seed.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("fault")),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("adversary", adversary_json(&self.adversary)),
            ("completed", self.completed.to_string()),
            ("decided_fraction", format!("{:.4}", self.decided_fraction)),
            ("safety_ok", self.safety_ok.to_string()),
            ("adversary_dropped", self.adversary_dropped.to_string()),
            ("crashed_nodes", self.crashed_nodes.to_string()),
        ])
    }
}

/// The adversaries of the fault suite: drop-only, crash-only, combined.
pub fn fault_adversaries() -> Vec<Adversary> {
    vec![
        Adversary::message_drops(0.10, 71),
        Adversary::node_crashes(0.02, 72),
        Adversary {
            drop_prob: 0.05,
            crash_prob: 0.01,
            seed: 73,
            ..Adversary::default()
        },
    ]
}

/// Runs the fault suite: Luby/Ghaffari MIS and the grouped matching on
/// the two most structurally different topologies (gnp, star), under
/// every [`fault_adversaries`] schedule. Each cell asserts the checks
/// every faulted run shares (see the crate docs) and records completion,
/// decided fraction, and MIS independence under message loss.
pub fn fault_suite() -> Vec<FaultReport> {
    let topos: Vec<Topology> = topologies()
        .into_iter()
        .filter(|t| t.family == "gnp" || t.family == "star")
        .collect();
    let mut reports = Vec::new();
    for topo in &topos {
        for adv in fault_adversaries() {
            for kind in [
                ProtocolKind::LubyMis,
                ProtocolKind::GhaffariMis,
                ProtocolKind::GroupedMwm,
            ] {
                reports.push(fault_cell(kind, topo, adv));
            }
        }
    }
    reports
}

/// Runs one fault cell (see [`fault_suite`] for the contract).
pub fn fault_cell(kind: ProtocolKind, topo: &Topology, adv: Adversary) -> FaultReport {
    let g = build_graph(topo, kind.fault_weighting());
    let config = SimConfig::congest_for(&g)
        .with_max_rounds(fault_cap(g.num_nodes()))
        .with_adversary(adv);
    let ctx = format!("fault {} on {}", kind.name(), topo.family);
    let f = run_faulted(&ctx, kind, &g, &config);
    FaultReport {
        protocol: kind.name(),
        topology: *topo,
        adversary: adv,
        completed: f.completed,
        decided_fraction: f.decided as f64 / g.num_nodes() as f64,
        safety_ok: f.safety_ok,
        adversary_dropped: f.stats.adversary_dropped_messages,
        crashed_nodes: f.stats.crashed_nodes,
    }
}

/// The ledger object of an adversary's delivery-fault knobs, shared by
/// the fault and degradation records.
fn adversary_json(a: &Adversary) -> String {
    json_object(&[
        ("drop_prob", format!("{}", a.drop_prob)),
        ("dup_prob", format!("{}", a.dup_prob)),
        ("reorder_prob", format!("{}", a.reorder_prob)),
        ("corrupt_prob", format!("{}", a.corrupt_prob)),
        ("crash_prob", format!("{}", a.crash_prob)),
        (
            "restart_after",
            a.restart_after
                .map_or("null".to_string(), |k| k.to_string()),
        ),
        ("seed", a.seed.to_string()),
    ])
}

/// Round cap of every faulted run on `n` nodes: faults may prevent
/// halting, and a bounded cap keeps the suites total.
fn fault_cap(n: usize) -> usize {
    64 * n + 256
}

/// Engine seed of every faulted run.
const FAULT_SEED: u64 = 11;

/// One run of a fault-tolerant protocol under a faulty [`SimConfig`]
/// (see [`run_faulted`]).
struct Faulted {
    /// Every node halted normally.
    completed: bool,
    /// Nodes that made useful progress: produced an output (MIS), ended
    /// up matched (grouped — a stalled node still outputs "unmatched" at
    /// the round cap), or joined the set (Alg. 2, whose `alg2_with` exposes no
    /// per-node outputs).
    decided: usize,
    /// Independence among in-set nodes (MIS, Alg. 2) or matching validity
    /// (grouped, where it is also asserted).
    safety_ok: bool,
    /// The objective reached: set weight or matching weight.
    alg: u64,
    /// Engine statistics of the sequential run.
    stats: RunStats,
}

/// Runs one of the four protocols with a fault-tolerant entry point under
/// `config`, with seed 11, asserts what holds by construction, and checks
/// the fault counters with [`assert_faults_follow_knobs`]. `ctx` names
/// the cell in every panic.
///
/// Asserted: every protocol agrees between the sequential and parallel
/// executors, which also replays the fault schedule — Luby and Ghaffari
/// on outputs and stats, the grouped matching (`mwm_grouped_with` against
/// `mwm_grouped_with_parallel`) on stats and matching, Alg. 2
/// (`alg2_with` against `alg2_with_parallel`) on stats and set — and the
/// grouped matching's mutual-confirmation assembly keeps the matching
/// valid under any schedule. Recorded: completion, progress, MIS and
/// MaxIS independence (under message loss two neighbours can both join),
/// and the objective.
fn run_faulted(ctx: &str, kind: ProtocolKind, g: &Graph, config: &SimConfig) -> Faulted {
    let f = match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => {
            let run = run_mis_both(ctx, kind, g, config, FAULT_SEED);
            let in_set = |v: NodeId| run.outputs[v.index()] == Some(MisResult::InSet);
            Faulted {
                completed: run.completed,
                decided: run.outputs.iter().filter(|o| o.is_some()).count(),
                safety_ok: !g.edges().any(|e| {
                    let (u, v) = g.endpoints(e);
                    in_set(u) && in_set(v)
                }),
                alg: g
                    .nodes()
                    .filter(|&v| in_set(v))
                    .map(|v| g.node_weight(v))
                    .sum(),
                stats: run.stats,
            }
        }
        ProtocolKind::GroupedMwm => {
            let (seq, completed) = mwm_grouped_with(g, config.clone(), FAULT_SEED);
            let (par, _) = mwm_grouped_with_parallel(g, config.clone(), FAULT_SEED);
            assert_eq!(
                (&seq.stats, &seq.matching),
                (&par.stats, &par.matching),
                "{ctx}: grouped matching executors diverged"
            );
            assert!(
                seq.matching.is_valid(g),
                "{ctx}: grouped matching lost safety"
            );
            Faulted {
                completed,
                decided: 2 * seq.matching.len(),
                safety_ok: true,
                alg: seq.matching.weight(g),
                stats: seq.stats,
            }
        }
        ProtocolKind::MaxIsAlg2 => {
            let cfg = Alg2Config::default();
            let (a, completed) = alg2_with(g, &cfg, config.clone(), FAULT_SEED);
            let (b, _) = alg2_with_parallel(g, &cfg, config.clone(), FAULT_SEED);
            assert_eq!(
                (&a.stats, &a.independent_set),
                (&b.stats, &b.independent_set),
                "{ctx}: alg2 executors diverged"
            );
            let set = a.independent_set;
            Faulted {
                completed,
                decided: set.len(),
                safety_ok: set.is_independent(g),
                alg: set.weight(g),
                stats: a.stats,
            }
        }
        _ => unreachable!("{ctx}: {} has no fault-tolerant entry point", kind.name()),
    };
    assert_faults_follow_knobs(ctx, config, &f);
    f
}

/// Asserts that a faulted run's counters follow `config`'s knobs: every
/// knob that is off leaves its counter at zero, restarts never outnumber
/// crashes nor rejoins departures, and the run ended in a legal state —
/// every node halted, the round cap fired, or crashes or departures
/// silenced part of the graph. (A plain `rounds <= cap` would be
/// tautological: the round loop's condition *is* the cap.)
fn assert_faults_follow_knobs(ctx: &str, config: &SimConfig, f: &Faulted) {
    let adv = config.adversary.unwrap_or_default();
    let s = &f.stats;
    let zero_if = |knob_off: bool, count: u64, what: &str| {
        assert!(!knob_off || count == 0, "{ctx}: {count} {what}");
    };
    // A down churn edge eats its messages into the drop counter too.
    let no_drops = adv.drop_prob == 0.0 && adv.edge_flip_prob == 0.0;
    zero_if(
        no_drops,
        s.adversary_dropped_messages,
        "drops without drop_prob",
    );
    zero_if(
        adv.dup_prob == 0.0,
        s.duplicated_messages,
        "duplicates without dup_prob",
    );
    zero_if(
        adv.corrupt_prob == 0.0,
        s.corrupted_messages,
        "corruptions without corrupt_prob",
    );
    zero_if(
        adv.crash_prob == 0.0,
        s.crashed_nodes,
        "crashes without crash_prob",
    );
    zero_if(
        adv.edge_flip_prob == 0.0,
        s.edges_flipped,
        "flips without edge_flip_prob",
    );
    zero_if(
        adv.node_join_prob == 0.0,
        s.nodes_joined,
        "joins without node_join_prob",
    );
    zero_if(
        adv.node_leave_prob == 0.0,
        s.nodes_left,
        "leaves without node_leave_prob",
    );
    zero_if(
        config.scheduler.is_none(),
        s.delayed_messages,
        "delays without a scheduler",
    );
    assert!(
        s.restarted_nodes <= s.crashed_nodes,
        "{ctx}: more restarts than crashes"
    );
    assert!(
        s.nodes_joined <= s.nodes_left,
        "{ctx}: more rejoins than departures"
    );
    assert!(
        f.completed || s.rounds == config.max_rounds || s.crashed_nodes > 0 || s.nodes_left > 0,
        "{ctx}: run ended without halting, exhausting the cap, or losing nodes"
    );
}

/// The four ledgers the harness appends to, in [`Suites::grids`] order.
pub const LEDGERS: [&str; 4] = [
    "QUALITY_engine.json",
    "DEGRADATION_engine.json",
    "CHURN_engine.json",
    "SERVICE_engine.json",
];

/// The records of every suite, from one run of each.
pub struct Suites {
    /// The conformance matrix.
    pub conformance: Vec<CellReport>,
    /// The fault-injection suite.
    pub faults: Vec<FaultReport>,
    /// The degradation grid.
    pub degradation: Vec<DegradationReport>,
    /// The churn grid, then its acceptance rows.
    pub churn: Vec<ChurnReport>,
    /// The service oracle grid.
    pub service: Vec<ServiceReport>,
}

impl Suites {
    /// Runs every suite, panicking on any violated guarantee.
    pub fn run() -> Self {
        Suites {
            conformance: conformance_suite(),
            faults: fault_suite(),
            degradation: degradation_suite(),
            churn: churn_suite()
                .into_iter()
                .chain(churn_acceptance())
                .collect(),
            service: service_suite(),
        }
    }

    /// The fresh grid of each of the [`LEDGERS`]: the records one run
    /// appends to it (QUALITY takes the conformance then the fault rows).
    pub fn grids(&self) -> [Vec<String>; 4] {
        [
            self.conformance
                .iter()
                .map(CellReport::to_json)
                .chain(self.faults.iter().map(FaultReport::to_json))
                .collect(),
            self.degradation
                .iter()
                .map(DegradationReport::to_json)
                .collect(),
            self.churn.iter().map(ChurnReport::to_json).collect(),
            self.service.iter().map(ServiceReport::to_json).collect(),
        ]
    }
}

/// Whether the last `fresh.len()` records of the ledger at `path` equal
/// `fresh`, printing the verdict.
pub fn newest_grid_matches(path: &str, fresh: &[String]) -> bool {
    let contents = std::fs::read_to_string(path).unwrap_or_default();
    let ledger = congest_bench::ledger::records(&contents, path);
    let newest = &ledger[ledger.len().saturating_sub(fresh.len())..];
    let differ = if newest.len() < fresh.len() {
        fresh.len()
    } else {
        fresh
            .iter()
            .zip(newest)
            .filter(|(f, l)| f.trim() != **l)
            .count()
    };
    if differ == 0 {
        println!("{path}: the newest {} records match", fresh.len());
    } else {
        println!(
            "{path}: {differ} of the newest {} records differ from a fresh run",
            fresh.len()
        );
    }
    differ == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_axes_meet_the_acceptance_floor() {
        assert!(topologies().len() >= 5, "need ≥ 5 topologies");
        let weightings = [Weighting::Uniform, Weighting::Zipf, Weighting::Adversarial];
        assert!(weightings.len() >= 3);
        assert_eq!(PROTOCOLS.len(), 8);
    }

    #[test]
    fn graphs_are_reproducible_and_oracle_sized() {
        for topo in topologies() {
            let a = build_graph(&topo, Weighting::Zipf);
            let b = build_graph(&topo, Weighting::Zipf);
            assert_eq!(a.num_edges(), b.num_edges(), "{}", topo.family);
            assert_eq!(a.node_weights(), b.node_weights(), "{}", topo.family);
            assert!(a.num_nodes() <= 40, "{}: brute MWIS cap", topo.family);
        }
    }

    #[test]
    fn weightings_produce_distinct_profiles() {
        let topo = topologies().remove(0);
        let unit = build_graph(&topo, Weighting::Unit);
        let zipf = build_graph(&topo, Weighting::Zipf);
        let adv = build_graph(&topo, Weighting::Adversarial);
        assert!(unit.node_weights().iter().all(|&w| w == 1));
        assert!(zipf.max_node_weight() >= 2, "zipf should spread weights");
        for v in adv.nodes() {
            assert_eq!(adv.node_weight(v), adv.degree(v) as u64 + 1);
        }
    }

    #[test]
    fn one_conformance_cell_end_to_end() {
        let topo = topologies().remove(4); // path: fast + deterministic
        let report = conformance_cell(ProtocolKind::MaxIsAlg2, &topo, Weighting::Uniform, &[11]);
        assert!(report.all_valid && report.within_bound);
        assert!(report.ratio_min >= report.ratio_bound);
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"conformance\""));
        assert!(json.contains("\"protocol\": \"maxis_alg2\""));
        assert!(json.contains("\"within_bound\": true"));
    }

    #[test]
    fn one_fault_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = fault_cell(
            ProtocolKind::GroupedMwm,
            &topo,
            Adversary::message_drops(0.1, 71),
        );
        assert!(report.safety_ok, "grouped matching must stay safe");
        assert!(report.adversary_dropped > 0, "10% drops on gnp must fire");
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"fault\""));
        assert!(json.contains("\"drop_prob\": 0.1"));
    }

    /// A completed run with the given counters, for the knob checks.
    fn completed_with(stats: RunStats) -> Faulted {
        Faulted {
            completed: true,
            decided: 0,
            safety_ok: true,
            alg: 0,
            stats,
        }
    }

    #[test]
    fn drops_under_edge_flips_alone_pass_the_knob_check() {
        let config = SimConfig::local().with_adversary(Adversary::edge_flips(0.1, 1));
        let stats = RunStats {
            edges_flipped: 4,
            adversary_dropped_messages: 7,
            ..RunStats::default()
        };
        assert_faults_follow_knobs("flip", &config, &completed_with(stats));
    }

    #[test]
    #[should_panic(expected = "drops without drop_prob")]
    fn drops_without_a_fault_knob_panic() {
        let config = SimConfig::local().with_adversary(Adversary::default());
        let stats = RunStats {
            adversary_dropped_messages: 1,
            ..RunStats::default()
        };
        assert_faults_follow_knobs("default", &config, &completed_with(stats));
    }

    #[test]
    #[should_panic(expected = "more restarts than crashes")]
    fn more_restarts_than_crashes_panic() {
        let adv = Adversary::node_crashes(0.1, 1).with_restart_after(3);
        let config = SimConfig::local().with_adversary(adv);
        let stats = RunStats {
            crashed_nodes: 1,
            restarted_nodes: 2,
            ..RunStats::default()
        };
        assert_faults_follow_knobs("restart", &config, &completed_with(stats));
    }
}
