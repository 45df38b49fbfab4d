//! Service oracle suite: drives the long-running matching/MIS façade
//! ([`congest_service::MatchingService`]) through its whole request
//! surface on the small harness topologies and validates every served
//! answer against the exact oracles — the fifth suite of the harness,
//! ledgered into `SERVICE_engine.json` alongside the `load_gen`
//! throughput records (which carry `"bench": "load_gen"`; these carry
//! `"kind": "oracle"`).
//!
//! Per cell (topology × weighting × shard count) the suite asserts:
//!
//! * **MatchUsers** — the served pairs form a valid, *maximal* matching
//!   of the service's current graph, and `2·w(M) ≥ w(M*)` against
//!   [`max_weight_matching_oracle`]-backed optima (the same
//!   [`opt_value`] machinery as the conformance matrix, so the check is
//!   exact integer arithmetic on these ≤16-node graphs);
//! * **MisQuery** — the served `in_set` reconstructs into per-slot
//!   results that pass [`verify_mis`] (independence + maximality);
//! * **IsIndependent / IsMatched / Fingerprint** — consistent with the
//!   served MIS, the live matching, and the overlay fingerprint;
//! * **ApplyDeltas** — after a seeded mutation batch the fingerprint
//!   moves, re-queries validate against oracles recomputed on the
//!   *mutated* graph (so stale cache entries would be caught), and the
//!   incrementally-repaired live state still passes the same oracles;
//! * **caching** — re-asking an answered seed is served `cached: true`
//!   and byte-identical.
//!
//! Like every other suite, a violated guarantee panics before anything
//! is ledgered.

use congest_bench::ledger::{json_object, json_str};
use congest_graph::{DeltaGraph, Graph, Matching, NodeId};
use congest_mis::{verify_mis, MisResult};
use congest_service::{DeltaOp, MatchingService, Request, Response, ServiceConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{build_graph, opt_value, topologies, ProtocolKind, Topology, Weighting, SEEDS};

/// Shard counts swept per cell: the single-worker baseline and an
/// uneven split (16-node graphs over 3 shards), so the suite also
/// certifies that sharding never changes a served answer's validity.
pub const SERVICE_SHARDS: [usize; 2] = [1, 3];

/// Weightings swept per cell. Uniform and adversarial exercise the
/// non-unit-weight maximality repair (the satellite bugfix); zipf is
/// covered by the conformance matrix and adds only runtime here.
pub const SERVICE_WEIGHTINGS: [Weighting; 3] =
    [Weighting::Unit, Weighting::Uniform, Weighting::Adversarial];

/// One record of the service oracle suite.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Topology of the cell.
    pub topology: Topology,
    /// Nodes of the instantiated graph.
    pub n: usize,
    /// Edges of the instantiated graph.
    pub m: usize,
    /// Weighting ledger name.
    pub weighting: &'static str,
    /// Worker shards the service ran on.
    pub shards: usize,
    /// Engine seeds queried.
    pub seeds: usize,
    /// Every served matching was valid and maximal (also asserted).
    pub matching_ok: bool,
    /// Worst served-weight/optimum ratio over seeds (before mutation).
    pub ratio_min: f64,
    /// The paper's bound the ratio is checked against (0.5).
    pub ratio_bound: f64,
    /// Oracle the optimum came from.
    pub oracle: &'static str,
    /// Every served MIS passed [`verify_mis`] (also asserted).
    pub mis_ok: bool,
    /// IsIndependent/IsMatched/Fingerprint agreed with the served
    /// answers and the live state (also asserted).
    pub queries_consistent: bool,
    /// Mutations the `ApplyDeltas` probe applied.
    pub deltas: usize,
    /// Engine rounds the matching + MIS repairs spent.
    pub repair_rounds: u64,
    /// Post-mutation answers and live state passed the oracles
    /// recomputed on the mutated graph (also asserted).
    pub post_repair_ok: bool,
    /// A re-asked seed was served from the cache, byte-identical.
    pub cache_roundtrip_ok: bool,
    /// Service cache hits at the end of the cell.
    pub cache_hits: u64,
    /// Service cache misses at the end of the cell.
    pub cache_misses: u64,
    /// Requests the cell issued in total.
    pub requests: u64,
}

impl ServiceReport {
    /// Renders the record for the `SERVICE_engine.json` array.
    pub fn to_json(&self) -> String {
        let graph = json_object(&[
            ("family", json_str(self.topology.family)),
            ("param", json_str(self.topology.param)),
            ("seed", self.topology.graph_seed.to_string()),
            ("n", self.n.to_string()),
            ("edges", self.m.to_string()),
        ]);
        let matching = json_object(&[
            ("ok", self.matching_ok.to_string()),
            ("ratio_min", format!("{:.6}", self.ratio_min)),
            ("ratio_bound", format!("{:.6}", self.ratio_bound)),
            ("oracle", json_str(self.oracle)),
        ]);
        let repair = json_object(&[
            ("deltas", self.deltas.to_string()),
            ("rounds", self.repair_rounds.to_string()),
            ("ok", self.post_repair_ok.to_string()),
        ]);
        let cache = json_object(&[
            ("roundtrip_ok", self.cache_roundtrip_ok.to_string()),
            ("hits", self.cache_hits.to_string()),
            ("misses", self.cache_misses.to_string()),
        ]);
        json_object(&[
            ("suite", json_str("service")),
            ("kind", json_str("oracle")),
            ("graph", graph),
            ("weights", json_str(self.weighting)),
            ("shards", self.shards.to_string()),
            ("seeds", self.seeds.to_string()),
            ("matching", matching),
            ("mis_ok", self.mis_ok.to_string()),
            ("queries_consistent", self.queries_consistent.to_string()),
            ("repair", repair),
            ("cache", cache),
            ("requests", self.requests.to_string()),
        ])
    }
}

/// Unwraps a served matching response (panicking with cell context on
/// anything else) into `(fingerprint, cached, weight, pairs)`.
fn served_matching(svc: &mut MatchingService, seed: u64) -> (u64, bool, u64, Vec<(u32, u32)>) {
    match svc.handle(&Request::MatchUsers { seed }) {
        Response::Matching {
            fingerprint,
            cached,
            weight,
            pairs,
        } => (fingerprint, cached, weight, pairs),
        other => panic!("MatchUsers(seed={seed}) answered {other:?}"),
    }
}

/// Validates one served matching against `g`: pairs are edges, disjoint,
/// the reported weight is the real weight, the matching is maximal, and
/// `2·w(M) ≥ w(M*)` against the cell's oracle. Returns the achieved
/// ratio `w(M)/opt` (1.0 when the graph has no weight to collect).
fn check_served_matching(g: &Graph, weight: u64, pairs: &[(u32, u32)], ctx: &str) -> f64 {
    let mut matching = Matching::new(g);
    for &(u, v) in pairs {
        let (u, v) = (NodeId(u), NodeId(v));
        assert!(u.index() < g.num_nodes() && v.index() < g.num_nodes());
        let e = g
            .find_edge(u, v)
            .unwrap_or_else(|| panic!("{ctx}: served pair {u:?}-{v:?} is not an edge"));
        assert!(
            matching.try_insert(g, e),
            "{ctx}: served pairs are not disjoint at {u:?}-{v:?}"
        );
    }
    assert_eq!(
        matching.weight(g),
        weight,
        "{ctx}: served weight disagrees with the served pairs"
    );
    assert!(
        matching.is_maximal(g),
        "{ctx}: served matching is not maximal"
    );
    let opt = opt_value(ProtocolKind::GroupedMwm, g);
    assert!(
        weight * opt.bound_den >= opt.value * opt.bound_num,
        "{ctx}: 2·w(M) = {} < w(M*) = {} ({})",
        2 * weight,
        opt.value,
        opt.oracle
    );
    if opt.value == 0 {
        1.0
    } else {
        weight as f64 / opt.value as f64
    }
}

/// Validates one served MIS against `g`: the `in_set` slots, with every
/// other slot read as dominated, must pass [`verify_mis`] (independence
/// and maximality over the full compacted slot space — departed slots
/// are isolated there and so must be in the set).
fn check_served_mis(g: &Graph, in_set: &[u32], ctx: &str) {
    let mut results = vec![MisResult::Dominated; g.num_nodes()];
    for &v in in_set {
        assert!(
            (v as usize) < g.num_nodes(),
            "{ctx}: served MIS names out-of-range slot {v}"
        );
        results[v as usize] = MisResult::InSet;
    }
    verify_mis(g, &results).unwrap_or_else(|e| panic!("{ctx}: served MIS fails the oracle: {e}"));
}

/// A seeded, always-valid mutation batch against the service's current
/// graph: one node departure, one fresh node wired in, one new edge
/// between non-adjacent survivors, one edge removal. Validity is
/// guaranteed by materializing against a [`DeltaGraph`] mirror, the same
/// way the service validates on arrival.
fn seeded_deltas(g: &Graph, seed: u64) -> Vec<DeltaOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mirror = DeltaGraph::new(g.clone());
    let mut ops = Vec::new();
    let alive = |m: &DeltaGraph| -> Vec<u32> {
        (0..m.num_slots() as u32)
            .filter(|&v| m.is_alive(NodeId(v)))
            .collect()
    };

    let victims = alive(&mirror);
    if victims.len() > 2 {
        let v = victims[rng.random_range(0..victims.len())];
        mirror.remove_node(NodeId(v));
        ops.push(DeltaOp::RemoveNode(v));
    }
    let w = rng.random_range(1..=8u64);
    let a = mirror.add_node(w);
    ops.push(DeltaOp::AddNode(w));
    let peers = alive(&mirror);
    for _ in 0..8 {
        let u = peers[rng.random_range(0..peers.len())];
        if NodeId(u) != a && !mirror.has_edge(a, NodeId(u)) {
            let ew = rng.random_range(1..=8u64);
            mirror.insert_edge(a, NodeId(u), ew);
            ops.push(DeltaOp::InsertEdge(a.0, u, ew));
            break;
        }
    }
    let mut edges = Vec::new();
    for u in alive(&mirror) {
        for (v, _) in mirror.neighbors(NodeId(u)) {
            if u < v.0 {
                edges.push((u, v.0));
            }
        }
    }
    if !edges.is_empty() {
        let (u, v) = edges[rng.random_range(0..edges.len())];
        mirror.remove_edge(NodeId(u), NodeId(v));
        ops.push(DeltaOp::RemoveEdge(u, v));
    }
    ops
}

/// Cross-checks the point queries against the served answers: the served
/// MIS must test independent, a matched pair's endpoints must not, and
/// `IsMatched` must agree with the service's live matching for every
/// slot. Returns the number of requests issued.
fn check_point_queries(svc: &mut MatchingService, in_set: &[u32], ctx: &str) -> u64 {
    let mut issued = 0u64;
    issued += 1;
    assert_eq!(
        svc.handle(&Request::IsIndependent {
            nodes: in_set.to_vec()
        }),
        Response::Independent(true),
        "{ctx}: the served MIS must test independent"
    );
    if let Some(&(u, v)) = svc.live_pairs().first() {
        issued += 1;
        assert_eq!(
            svc.handle(&Request::IsIndependent {
                nodes: vec![u.0, v.0]
            }),
            Response::Independent(false),
            "{ctx}: a matched pair's endpoints are adjacent"
        );
    }
    let mate_of: std::collections::BTreeMap<u32, u32> = svc
        .live_pairs()
        .iter()
        .flat_map(|&(u, v)| [(u.0, v.0), (v.0, u.0)])
        .collect();
    for node in 0..svc.graph().num_nodes() as u32 {
        issued += 1;
        assert_eq!(
            svc.handle(&Request::IsMatched { node }),
            Response::Mate {
                node,
                mate: mate_of.get(&node).copied()
            },
            "{ctx}: IsMatched({node}) disagrees with the live matching"
        );
    }
    issued
}

/// Asserts the service's incrementally-repaired live state passes the
/// same oracles a fresh answer would: live MIS verifies, live pairs form
/// a valid matching.
fn check_live_state(svc: &MatchingService, ctx: &str) {
    let g = svc.graph();
    verify_mis(g, svc.live_mis())
        .unwrap_or_else(|e| panic!("{ctx}: live MIS fails the oracle: {e}"));
    let mut matching = Matching::new(g);
    for &(u, v) in svc.live_pairs() {
        let e = g
            .find_edge(u, v)
            .unwrap_or_else(|| panic!("{ctx}: live pair {u:?}-{v:?} is not an edge"));
        assert!(matching.try_insert(g, e), "{ctx}: live pairs overlap");
    }
}

/// Runs one service oracle cell; see the module docs for the contract.
///
/// # Panics
/// Panics (with the offending cell in the message) if any served answer
/// fails its oracle — the suite refuses to ledger a broken guarantee.
pub fn service_cell(
    topo: &Topology,
    weighting: Weighting,
    shards: usize,
    seeds: &[u64],
) -> ServiceReport {
    let ctx = format!(
        "service cell {}/{}/shards={shards}",
        topo.family,
        weighting.name()
    );
    let g = build_graph(topo, weighting);
    let (n, m) = (g.num_nodes(), g.num_edges());
    let oracle = opt_value(ProtocolKind::GroupedMwm, &g).oracle;
    let mut svc = MatchingService::new(
        g,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    );
    let mut requests = 0u64;

    requests += 1;
    assert_eq!(
        svc.handle(&Request::Fingerprint),
        Response::FingerprintIs(svc.fingerprint()),
        "{ctx}: Fingerprint must report the live fingerprint"
    );

    // Served matchings and MIS, one per engine seed, each against the
    // exact oracles.
    let mut ratio_min = f64::INFINITY;
    let mut first_in_set = Vec::new();
    for &seed in seeds {
        requests += 2;
        let (fp, _, weight, pairs) = served_matching(&mut svc, seed);
        assert_eq!(fp, svc.fingerprint(), "{ctx}: stale matching fingerprint");
        let ratio = check_served_matching(svc.graph(), weight, &pairs, &ctx);
        ratio_min = ratio_min.min(ratio);
        match svc.handle(&Request::MisQuery { seed }) {
            Response::Mis { in_set, .. } => {
                check_served_mis(svc.graph(), &in_set, &ctx);
                if first_in_set.is_empty() {
                    first_in_set = in_set;
                }
            }
            other => panic!("{ctx}: MisQuery(seed={seed}) answered {other:?}"),
        }
    }
    requests += check_point_queries(&mut svc, &first_in_set, &ctx);

    // Cache roundtrip: re-asking the first seed must be served from the
    // cache, byte-identical to the first answer.
    let (_, _, w0, p0) = served_matching(&mut svc, seeds[0]);
    let (_, cached, w1, p1) = served_matching(&mut svc, seeds[0]);
    requests += 2;
    assert!(cached, "{ctx}: repeated seed must be served from the cache");
    assert_eq!((w0, p0), (w1, p1), "{ctx}: cached answer diverged");

    // Mutate-and-repair probe: apply a seeded delta batch, then re-ask
    // everything — answers must validate against oracles recomputed on
    // the *mutated* graph, so a stale cache entry or an unrepaired live
    // structure trips the cell.
    let before = svc.fingerprint();
    let ops = seeded_deltas(svc.graph(), topo.graph_seed ^ 0x5EED);
    let deltas = ops.len();
    requests += 1;
    let repair_rounds = match svc.handle(&Request::ApplyDeltas { ops }) {
        Response::Applied {
            fingerprint,
            matching_repair_rounds,
            mis_repair_rounds,
            ..
        } => {
            assert_eq!(fingerprint, svc.fingerprint());
            assert_ne!(fingerprint, before, "{ctx}: mutation left the fingerprint");
            u64::from(matching_repair_rounds) + u64::from(mis_repair_rounds)
        }
        other => panic!("{ctx}: ApplyDeltas answered {other:?}"),
    };
    check_live_state(&svc, &ctx);
    requests += 2;
    let (_, cached, weight, pairs) = served_matching(&mut svc, seeds[0]);
    assert!(!cached, "{ctx}: mutation must invalidate the cache");
    check_served_matching(svc.graph(), weight, &pairs, &ctx);
    match svc.handle(&Request::MisQuery { seed: seeds[0] }) {
        Response::Mis { in_set, .. } => check_served_mis(svc.graph(), &in_set, &ctx),
        other => panic!("{ctx}: post-repair MisQuery answered {other:?}"),
    }

    requests += 1;
    let (hits, misses) = match svc.handle(&Request::Stats) {
        Response::StatsSnapshot {
            requests_served,
            cache_hits,
            cache_misses,
            ..
        } => {
            assert_eq!(requests_served, requests, "{ctx}: request counter drifted");
            (cache_hits, cache_misses)
        }
        other => panic!("{ctx}: Stats answered {other:?}"),
    };

    ServiceReport {
        topology: *topo,
        n,
        m,
        weighting: weighting.name(),
        shards,
        seeds: seeds.len(),
        matching_ok: true,
        ratio_min,
        ratio_bound: 0.5,
        oracle,
        mis_ok: true,
        queries_consistent: true,
        deltas,
        repair_rounds,
        post_repair_ok: true,
        cache_roundtrip_ok: true,
        cache_hits: hits,
        cache_misses: misses,
        requests,
    }
}

/// The full service oracle suite: every harness topology × three
/// weightings × the shard counts of [`SERVICE_SHARDS`] (36 cells).
pub fn service_suite() -> Vec<ServiceReport> {
    let mut reports = Vec::new();
    for topo in &topologies() {
        for &weighting in &SERVICE_WEIGHTINGS {
            for &shards in &SERVICE_SHARDS {
                reports.push(service_cell(topo, weighting, shards, &SEEDS));
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_end_to_end() {
        let topo = topologies().remove(0); // gnp
        let report = service_cell(&topo, Weighting::Uniform, 3, &[11]);
        assert!(report.matching_ok && report.mis_ok && report.post_repair_ok);
        assert!(report.ratio_min >= report.ratio_bound);
        assert!(report.deltas >= 2, "the probe must actually mutate");
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"service\""));
        assert!(json.contains("\"kind\": \"oracle\""));
        assert!(json.contains("\"weights\": \"uniform\""));
        assert!(json.contains("\"shards\": 3"));
    }

    #[test]
    fn star_cell_under_adversarial_weights() {
        // The paper's worst case for naive parallel local ratio, under
        // the tie-heavy weighting — the shape the maximality bugfix
        // (satellite 1) is aimed at.
        let topo = topologies().remove(5); // star
        let report = service_cell(&topo, Weighting::Adversarial, 1, &[11, 42]);
        assert!(report.cache_roundtrip_ok);
        assert!(report.cache_hits >= 1, "the repeat seed must hit the cache");
    }

    #[test]
    fn unit_weight_path_cell() {
        let topo = topologies().remove(4); // path
        let report = service_cell(&topo, Weighting::Unit, 2, &[11]);
        assert!(report.queries_consistent);
        assert!(report.to_json().contains("\"weights\": \"unit\""));
    }
}
