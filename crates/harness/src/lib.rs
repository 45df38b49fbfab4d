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
//! how each guarantee degrades — by construction the grouped matching
//! stays *safe* (valid matching) under any fault schedule, while MIS
//! independence is allowed to fail and is reported as data.
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
//! A fifth suite — the [`service`] oracle grid — drives the
//! matching-as-a-service façade (`congest-service`) through its whole
//! request surface on the same small topologies and validates every
//! *served* answer (matchings, MIS, point queries, post-delta repairs)
//! against the exact oracles, ledgered in `SERVICE_engine.json`
//! alongside the `load_gen` throughput records.

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
use congest_approx::matching::{mwm_grouped, mwm_grouped_with};
use congest_approx::maxis::{alg2, alg3, Alg2Config};
use congest_bench::ledger::{json_object, json_str};
use congest_coloring::{deterministic_delta_plus_one, num_colors, verify_coloring};
use congest_exact::{
    blossom_maximum_matching, brute_force_mwis, greedy_matching, max_weight_matching_oracle,
};
use congest_graph::{generators, Graph, NodeId};
use congest_mis::{verify_mis, GhaffariMis, LubyMis, MisResult};
use congest_sim::{run_protocol, Adversary, Engine, NodeInfo, Protocol, RunOutcome, SimConfig};
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

/// Shared MIS evaluation: run the protocol, verify
/// maximality/independence, score the set weight.
fn run_mis_cell<P: Protocol<Output = MisResult>>(
    g: &Graph,
    seed: u64,
    factory: impl FnMut(&NodeInfo<'_>) -> P,
) -> SeedOutcome {
    let outcome = run_protocol(g, SimConfig::congest_for(g), factory, seed);
    let rounds = outcome.stats.rounds;
    let results: Vec<MisResult> = outcome.into_outputs();
    match verify_mis(g, &results) {
        Ok(set) => SeedOutcome {
            valid: true,
            rounds,
            alg_value: set.weight(g),
            opt_override: None,
        },
        Err(_) => SeedOutcome {
            valid: false,
            rounds,
            alg_value: 0,
            opt_override: None,
        },
    }
}

/// Runs an engine-driven MIS cell of the `suite` grid sequentially *and*
/// in parallel, asserting the two executors agree on every output and
/// statistic before scoring the sequential outcome.
fn run_mis_both<P>(
    suite: &str,
    g: &Graph,
    config: &SimConfig,
    factory: fn() -> P,
    seed: u64,
) -> RunOutcome<MisResult>
where
    P: Protocol<Output = MisResult>,
{
    let seq = Engine::build(g, config.clone(), move |_| factory()).run(seed);
    let par = Engine::build(g, config.clone(), move |_| factory()).run_parallel(seed);
    assert_eq!(
        seq.outputs, par.outputs,
        "{suite} cell: sequential and parallel executors diverged"
    );
    assert_eq!(seq.stats, par.stats);
    seq
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
        ProtocolKind::LubyMis => run_mis_cell(g, seed, |_| LubyMis::new()),
        ProtocolKind::GhaffariMis => run_mis_cell(g, seed, |_| GhaffariMis::with_k(2.0)),
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
        let adv = json_object(&[
            ("drop_prob", format!("{}", self.adversary.drop_prob)),
            ("dup_prob", format!("{}", self.adversary.dup_prob)),
            ("reorder_prob", format!("{}", self.adversary.reorder_prob)),
            ("corrupt_prob", format!("{}", self.adversary.corrupt_prob)),
            ("crash_prob", format!("{}", self.adversary.crash_prob)),
            (
                "restart_after",
                self.adversary
                    .restart_after
                    .map_or("null".to_string(), |k| k.to_string()),
            ),
            ("seed", self.adversary.seed.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("fault")),
            ("protocol", json_str(self.protocol)),
            ("graph", graph),
            ("adversary", adv),
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
/// every [`fault_adversaries`] schedule.
///
/// What is *asserted* (degrades gracefully, by construction):
/// * every run terminates within a bounded round cap — faults can stall
///   progress but never hang or panic the engine;
/// * the grouped matching stays a **valid matching** under every
///   schedule (mutual-confirmation assembly);
/// * adversary statistics are consistent (drops only when `drop_prob >
///   0`, crashes only when `crash_prob > 0`).
///
/// What is *recorded* (degrades, reported as data): completion,
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
    let weighting = if kind == ProtocolKind::GroupedMwm {
        Weighting::Uniform
    } else {
        Weighting::Unit
    };
    let g = build_graph(topo, weighting);
    let n = g.num_nodes();
    // Faults may prevent halting; a bounded cap keeps the suite total.
    let cap = 64 * n + 256;
    let config = SimConfig::congest_for(&g)
        .with_max_rounds(cap)
        .with_adversary(adv);
    let seed = 11;
    let (completed, decided, safety_ok, stats) = match kind {
        ProtocolKind::LubyMis | ProtocolKind::GhaffariMis => {
            let outcome = if kind == ProtocolKind::LubyMis {
                run_protocol(&g, config, |_| LubyMis::new(), seed)
            } else {
                run_protocol(&g, config, |_| GhaffariMis::with_k(2.0), seed)
            };
            let decided = outcome.outputs.iter().filter(|o| o.is_some()).count();
            // Safety here = independence among nodes that *decided* InSet;
            // under message loss this can fail and is recorded, not
            // asserted.
            let independent = !g.edges().any(|e| {
                let (u, v) = g.endpoints(e);
                outcome.outputs[u.index()] == Some(MisResult::InSet)
                    && outcome.outputs[v.index()] == Some(MisResult::InSet)
            });
            (outcome.completed, decided, independent, outcome.stats)
        }
        ProtocolKind::GroupedMwm => {
            let (run, completed) = mwm_grouped_with(&g, config, seed);
            // By construction (mutual confirmation) this must hold under
            // ANY fault schedule; a failure here is an engine/protocol
            // bug, so it is asserted rather than recorded.
            assert!(
                run.matching.is_valid(&g),
                "grouped matching lost safety under faults on {}",
                topo.family
            );
            let decided = 2 * run.matching.len();
            (completed, decided, true, run.stats)
        }
        _ => unreachable!("fault suite only runs MIS and grouped matching"),
    };
    // A run can only end in one of three observable ways: every node
    // halted, the cap fired, or crashes emptied the active set. Anything
    // else would mean the engine's round loop escaped its bound (a
    // plain `rounds <= cap` would be tautological — the loop condition
    // *is* the cap).
    assert!(
        completed || stats.rounds == cap || stats.crashed_nodes > 0,
        "fault run ended without halting, exhausting the cap, or crashing out"
    );
    if adv.drop_prob == 0.0 {
        assert_eq!(
            stats.adversary_dropped_messages, 0,
            "drops without drop_prob"
        );
    }
    if adv.crash_prob == 0.0 {
        assert_eq!(stats.crashed_nodes, 0, "crashes without crash_prob");
    }
    FaultReport {
        protocol: kind.name(),
        topology: *topo,
        adversary: adv,
        completed,
        decided_fraction: decided as f64 / n as f64,
        safety_ok,
        adversary_dropped: stats.adversary_dropped_messages,
        crashed_nodes: stats.crashed_nodes,
    }
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
}
