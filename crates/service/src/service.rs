//! The service core: a long-lived graph plus the machinery to answer
//! matching/MIS requests against it.
//!
//! [`MatchingService`] owns the current graph once, as a [`DeltaGraph`]
//! overlay whose canonical base is folded after every accepted batch,
//! so the base *is* the CSR [`Graph`] the engine runs on. Beside it sit
//! the *live* incrementally-repaired matching and MIS, the
//! fingerprint-keyed result caches, and the request counters.
//! [`handle`](MatchingService::handle) is the whole request dispatch;
//! the frontends in [`server`](crate::server) only move [`Request`]s to
//! it and [`Response`]s back.
//!
//! Three invariants shape the design:
//!
//! * **Canonical answers.** `MatchUsers` and `MisQuery` responses are
//!   pure functions of `(fingerprint, seed)`: they come from fresh
//!   engine runs on the folded graph via the sharded executor, which
//!   is bit-identical to the sequential one for every shard count. A
//!   client cannot tell how many worker threads served it.
//! * **Panic-free on any request.** Wire-driven node ids are bounds-
//!   checked and `ApplyDeltas` is validated op by op against a scratch
//!   overlay before the real one is touched, so a bad batch is rejected
//!   atomically with an [`Response::Error`]. The scratch clone shares
//!   the graph: it copies only the free-slot list and the overlay's
//!   pending delta, which is empty between batches.
//! * **Cache honesty.** Results are keyed by the one-`u64`
//!   [`DeltaGraph::fingerprint`]; every mutation updates the
//!   fingerprint in `O(1)`, and an accepted batch evicts entries keyed
//!   by any other value, so a cached answer is only ever replayed
//!   against the exact structure it was computed under.
//!
//! An accepted `ApplyDeltas` of `k` ops costs `O(k log n)` to validate
//! and apply, one in-place fold (a sequential `memmove`-and-shift pass
//! over the CSR arrays, no per-node allocation), and the two repairs.

use std::collections::BTreeMap;

use congest_approx::matching::{grouped_mwm_repair, mwm_grouped_with_sharded};
use congest_graph::{DeltaGraph, FingerprintCache, Graph, NodeId, ShardPartition};
use congest_mis::{luby_repair, LubyMis, MisResult};
use congest_sim::{Engine, SimConfig};

use crate::wire::{DeltaOp, Request, Response};

/// Tuning knobs for a [`MatchingService`] and its frontends.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker shards the slot space is partitioned across for engine
    /// runs. Responses are bit-identical for every value; only
    /// wall-clock and the cross-shard traffic meter change.
    pub shards: usize,
    /// Most requests a frontend worker drains per batch.
    pub max_batch: usize,
    /// Admission control: requests beyond this many waiting in the
    /// queue are rejected with [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// Entries per fingerprint-keyed cache (matching and MIS each).
    pub cache_capacity: usize,
    /// Seed for the live matching/MIS maintained across mutations
    /// (initial runs and every repair).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            max_batch: 16,
            queue_capacity: 1024,
            cache_capacity: 8,
            seed: 0xC0FFEE,
        }
    }
}

/// Monotone request counters, all pure functions of the admitted
/// request trace (so identical across shard counts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests handled (each [`MatchingService::handle`] call).
    pub requests_served: u64,
    /// `(fingerprint, seed)` lookups answered from cache.
    pub cache_hits: u64,
    /// `(fingerprint, seed)` lookups that fell through to an engine run.
    pub cache_misses: u64,
    /// Rejections recorded at admission control (maintained by the
    /// frontend via [`MatchingService::set_overload_rejections`]; always
    /// zero for a directly-driven service).
    pub overload_rejections: u64,
    /// `ApplyDeltas` requests that mutated the graph.
    pub deltas_applied: u64,
}

/// Per-seed cached matching answers: seed → (weight, pairs).
type MatchAnswers = BTreeMap<u64, (u64, Vec<(u32, u32)>)>;

/// The matching-as-a-service core. See the module docs for the design.
pub struct MatchingService {
    config: ServiceConfig,
    /// The graph: structure, liveness and the fingerprint. Folded after
    /// every accepted batch, so its base is the current CSR graph and
    /// what the engine runs on.
    overlay: DeltaGraph,
    partition: ShardPartition,
    /// Live matching, repaired incrementally on every `ApplyDeltas`.
    live_pairs: Vec<(NodeId, NodeId)>,
    /// `mate_of[v]` answers `IsMatched` in O(1).
    mate_of: Vec<Option<u32>>,
    /// Live MIS results, repaired incrementally on every `ApplyDeltas`.
    live_mis: Vec<MisResult>,
    /// seed → (weight, pairs), keyed by fingerprint.
    match_cache: FingerprintCache<MatchAnswers>,
    /// seed → in-set slot ids, keyed by fingerprint.
    mis_cache: FingerprintCache<BTreeMap<u64, Vec<u32>>>,
    stats: ServiceStats,
    /// Delivered messages that crossed a shard boundary, summed over
    /// every engine run this service performed. Deliberately not part
    /// of the wire [`Response::StatsSnapshot`]: it depends on the shard
    /// count, and responses must not.
    cross_shard_messages: u64,
}

impl MatchingService {
    /// Builds a service over `graph` and runs the initial matching and
    /// MIS at `config.seed`, so `IsMatched` is answerable immediately.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or the initial engine runs hit
    /// the round cap (they cannot on a fault-free configuration).
    pub fn new(graph: Graph, config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "ServiceConfig::shards must be positive");
        let overlay = DeltaGraph::new(graph);
        let graph = overlay.base();
        let partition = ShardPartition::contiguous(graph.num_nodes(), config.shards);

        let mut cross_shard_messages = 0;
        let (run, completed, cross) = mwm_grouped_with_sharded(
            graph,
            SimConfig::congest_for(graph),
            config.seed,
            &partition,
        );
        assert!(completed, "initial matching run hit the round cap");
        cross_shard_messages += cross;
        let live_pairs: Vec<(NodeId, NodeId)> = run
            .matching
            .edges(graph)
            .map(|e| graph.endpoints(e))
            .collect();

        let mis = Engine::build(graph, SimConfig::congest_for(graph), |_| LubyMis::new())
            .run_sharded(config.seed, &partition);
        assert!(mis.outcome.completed, "initial MIS run hit the round cap");
        cross_shard_messages += mis.cross_shard_messages;
        let live_mis = mis.outcome.into_outputs();

        let mate_of = mate_map(graph.num_nodes(), &live_pairs);
        let (match_cache, mis_cache) = (
            FingerprintCache::new(config.cache_capacity),
            FingerprintCache::new(config.cache_capacity),
        );
        MatchingService {
            config,
            overlay,
            partition,
            live_pairs,
            mate_of,
            live_mis,
            match_cache,
            mis_cache,
            stats: ServiceStats::default(),
            cross_shard_messages,
        }
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current graph fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.overlay.fingerprint()
    }

    /// The current graph in canonical CSR form: the overlay's base,
    /// which every accepted batch is folded into before its repairs
    /// run, so it never lags the overlay.
    pub fn graph(&self) -> &Graph {
        self.overlay.base()
    }

    /// The live incrementally-repaired matching, as node pairs.
    pub fn live_pairs(&self) -> &[(NodeId, NodeId)] {
        &self.live_pairs
    }

    /// The live incrementally-repaired MIS results, one per slot.
    pub fn live_mis(&self) -> &[MisResult] {
        &self.live_mis
    }

    /// The request counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Cross-shard messages summed over every engine run. A sharding
    /// diagnostic, intentionally absent from wire responses (it varies
    /// with the shard count; responses must not).
    pub fn cross_shard_messages(&self) -> u64 {
        self.cross_shard_messages
    }

    /// Folds the frontend's admission-control rejection count into the
    /// stats snapshot. Called by the queue worker before handling each
    /// batch; a directly-driven service leaves it at zero.
    pub fn set_overload_rejections(&mut self, n: u64) {
        self.stats.overload_rejections = n;
    }

    /// Handles one admitted request. Total: every request value gets a
    /// response, never a panic.
    pub fn handle(&mut self, req: &Request) -> Response {
        self.stats.requests_served += 1;
        match req {
            Request::MatchUsers { seed } => self.match_users(*seed),
            Request::MisQuery { seed } => self.mis_query(*seed),
            Request::IsIndependent { nodes } => self.is_independent(nodes),
            Request::IsMatched { node } => self.is_matched(*node),
            Request::ApplyDeltas { ops } => self.apply_deltas(ops),
            Request::Fingerprint => Response::FingerprintIs(self.fingerprint()),
            Request::Stats => Response::StatsSnapshot {
                requests_served: self.stats.requests_served,
                cache_hits: self.stats.cache_hits,
                cache_misses: self.stats.cache_misses,
                overload_rejections: self.stats.overload_rejections,
                deltas_applied: self.stats.deltas_applied,
            },
        }
    }

    fn match_users(&mut self, seed: u64) -> Response {
        let fp = self.fingerprint();
        if let Some(per_seed) = self.match_cache.get_mut(fp) {
            if let Some((weight, pairs)) = per_seed.get(&seed) {
                self.stats.cache_hits += 1;
                return Response::Matching {
                    fingerprint: fp,
                    cached: true,
                    weight: *weight,
                    pairs: pairs.clone(),
                };
            }
        }
        self.stats.cache_misses += 1;
        let graph = self.overlay.base();
        let (run, completed, cross) =
            mwm_grouped_with_sharded(graph, SimConfig::congest_for(graph), seed, &self.partition);
        self.cross_shard_messages += cross;
        if !completed {
            return Response::Error("matching run hit the round cap".to_string());
        }
        let pairs: Vec<(u32, u32)> = run
            .matching
            .edges(graph)
            .map(|e| {
                let (u, v) = graph.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        let weight = run.matching.weight(graph);
        match self.match_cache.get_mut(fp) {
            Some(per_seed) => {
                per_seed.insert(seed, (weight, pairs.clone()));
            }
            None => {
                let mut per_seed = BTreeMap::new();
                per_seed.insert(seed, (weight, pairs.clone()));
                self.match_cache.insert(fp, per_seed);
            }
        }
        Response::Matching {
            fingerprint: fp,
            cached: false,
            weight,
            pairs,
        }
    }

    fn mis_query(&mut self, seed: u64) -> Response {
        let fp = self.fingerprint();
        if let Some(per_seed) = self.mis_cache.get_mut(fp) {
            if let Some(in_set) = per_seed.get(&seed) {
                self.stats.cache_hits += 1;
                return Response::Mis {
                    fingerprint: fp,
                    cached: true,
                    in_set: in_set.clone(),
                };
            }
        }
        self.stats.cache_misses += 1;
        let graph = self.overlay.base();
        let sharded = Engine::build(graph, SimConfig::congest_for(graph), |_| LubyMis::new())
            .run_sharded(seed, &self.partition);
        self.cross_shard_messages += sharded.cross_shard_messages;
        if !sharded.outcome.completed {
            return Response::Error("MIS run hit the round cap".to_string());
        }
        let in_set: Vec<u32> = sharded
            .outcome
            .into_outputs()
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == MisResult::InSet)
            .map(|(i, _)| i as u32)
            .collect();
        match self.mis_cache.get_mut(fp) {
            Some(per_seed) => {
                per_seed.insert(seed, in_set.clone());
            }
            None => {
                let mut per_seed = BTreeMap::new();
                per_seed.insert(seed, in_set.clone());
                self.mis_cache.insert(fp, per_seed);
            }
        }
        Response::Mis {
            fingerprint: fp,
            cached: false,
            in_set,
        }
    }

    fn is_independent(&self, nodes: &[u32]) -> Response {
        let n = self.overlay.num_slots() as u32;
        if let Some(&bad) = nodes.iter().find(|&&v| v >= n) {
            return Response::Error(format!("node {bad} out of range (slots 0..{n})"));
        }
        let mut sorted: Vec<u32> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &u) in sorted.iter().enumerate() {
            for &v in &sorted[i + 1..] {
                if self.overlay.has_edge(NodeId(u), NodeId(v)) {
                    return Response::Independent(false);
                }
            }
        }
        Response::Independent(true)
    }

    fn is_matched(&self, node: u32) -> Response {
        let n = self.overlay.num_slots() as u32;
        if node >= n {
            return Response::Error(format!("node {node} out of range (slots 0..{n})"));
        }
        Response::Mate {
            node,
            mate: self.mate_of[node as usize],
        }
    }

    fn apply_deltas(&mut self, ops: &[DeltaOp]) -> Response {
        // All-or-nothing: replay the batch on a scratch overlay with
        // explicit pre-checks mirroring DeltaGraph's panic conditions.
        // Only a fully valid batch replaces the real overlay, which then
        // holds the only reference to the base, so the fold is in place.
        let mut scratch = self.overlay.clone();
        for (i, op) in ops.iter().enumerate() {
            if let Err(why) = apply_checked(&mut scratch, op) {
                return Response::Error(format!("op {i} rejected: {why}"));
            }
        }
        self.overlay = scratch;
        let deltas = self.overlay.take_log();
        self.overlay.fold();
        let fingerprint = self.overlay.fingerprint();
        let graph = self.overlay.base();
        self.partition = ShardPartition::contiguous(graph.num_nodes(), self.config.shards);
        self.match_cache.retain_current(fingerprint);
        self.mis_cache.retain_current(fingerprint);

        // Repairs run on the sequential executor: their round counts go
        // out on the wire, so they must not depend on the shard count
        // (and the damaged region is typically far smaller than the
        // graph — the whole point of serving repairs incrementally).
        let mrepair = grouped_mwm_repair(graph, &self.live_pairs, &deltas, self.config.seed, false);
        self.live_pairs.clear();
        self.live_pairs
            .extend(mrepair.matching.edges(graph).map(|e| graph.endpoints(e)));
        self.mate_of = mate_map(graph.num_nodes(), &self.live_pairs);

        let misr = luby_repair(graph, &self.live_mis, &deltas, self.config.seed, false);
        self.live_mis = misr.results;

        self.stats.deltas_applied += 1;
        Response::Applied {
            fingerprint,
            live_nodes: self.overlay.num_live_nodes() as u32,
            matching_repair_rounds: mrepair.rounds as u32,
            mis_repair_rounds: misr.rounds as u32,
        }
    }
}

/// Builds the O(1) mate lookup from the pair list.
fn mate_map(n: usize, pairs: &[(NodeId, NodeId)]) -> Vec<Option<u32>> {
    let mut mate_of = vec![None; n];
    for &(u, v) in pairs {
        mate_of[u.index()] = Some(v.0);
        mate_of[v.index()] = Some(u.0);
    }
    mate_of
}

/// Applies one op to `g` after checking exactly the conditions
/// [`DeltaGraph`]'s mutators would panic on, so the service stays
/// panic-free on wire-driven input.
fn apply_checked(g: &mut DeltaGraph, op: &DeltaOp) -> Result<(), String> {
    let n = g.num_slots() as u32;
    let live = |v: u32| -> Result<NodeId, String> {
        if v >= n {
            return Err(format!("node {v} out of range (slots 0..{n})"));
        }
        if !g.is_alive(NodeId(v)) {
            return Err(format!("node {v} is removed"));
        }
        Ok(NodeId(v))
    };
    match *op {
        DeltaOp::InsertEdge(u, v, w) => {
            if u == v {
                return Err(format!("self-loop at node {u}"));
            }
            let (u, v) = (live(u)?, live(v)?);
            if g.has_edge(u, v) {
                return Err(format!("edge {u}\u{2013}{v} already present"));
            }
            g.insert_edge(u, v, w);
        }
        DeltaOp::RemoveEdge(u, v) => {
            let (u, v) = (live(u)?, live(v)?);
            if !g.has_edge(u, v) {
                return Err(format!("edge {u}\u{2013}{v} not present"));
            }
            g.remove_edge(u, v);
        }
        DeltaOp::AddNode(w) => {
            g.add_node(w);
        }
        DeltaOp::RemoveNode(v) => {
            let v = live(v)?;
            g.remove_node(v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_mis::verify_mis;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn service_on_gnp(n: usize, p: f64, rng_seed: u64, config: ServiceConfig) -> MatchingService {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mut g = generators::gnp(n, p, &mut rng);
        generators::randomize_edge_weights(&mut g, 64, &mut rng);
        MatchingService::new(g, config)
    }

    #[test]
    fn live_state_is_valid_from_construction() {
        let svc = service_on_gnp(30, 0.15, 40, ServiceConfig::default());
        verify_mis(svc.graph(), svc.live_mis()).expect("live MIS verifies");
        let mut seen = vec![false; svc.graph().num_nodes()];
        for &(u, v) in svc.live_pairs() {
            assert!(svc.graph().has_edge(u, v), "live pair must be an edge");
            assert!(
                !seen[u.index()] && !seen[v.index()],
                "pairs must be disjoint"
            );
            seen[u.index()] = true;
            seen[v.index()] = true;
        }
    }

    #[test]
    fn match_users_caches_by_fingerprint_and_seed() {
        let mut svc = service_on_gnp(25, 0.2, 41, ServiceConfig::default());
        let first = svc.handle(&Request::MatchUsers { seed: 9 });
        let Response::Matching {
            cached,
            fingerprint,
            ..
        } = &first
        else {
            panic!("expected a matching, got {first:?}");
        };
        assert!(!cached);
        assert_eq!(*fingerprint, svc.fingerprint());

        let second = svc.handle(&Request::MatchUsers { seed: 9 });
        let Response::Matching {
            cached,
            weight,
            pairs,
            ..
        } = &second
        else {
            panic!("expected a matching, got {second:?}");
        };
        assert!(
            *cached,
            "same (fingerprint, seed) must be served from cache"
        );
        let Response::Matching {
            weight: w1,
            pairs: p1,
            ..
        } = &first
        else {
            unreachable!()
        };
        assert_eq!((weight, pairs), (w1, p1), "cached answer must be identical");

        // A different seed misses the cache but shares the fingerprint.
        let third = svc.handle(&Request::MatchUsers { seed: 10 });
        let Response::Matching { cached, .. } = &third else {
            panic!("expected a matching, got {third:?}");
        };
        assert!(!cached);
        assert_eq!(svc.stats().cache_hits, 1);
        assert_eq!(svc.stats().cache_misses, 2);
    }

    #[test]
    fn apply_deltas_invalidates_stale_cache_entries() {
        let mut svc = service_on_gnp(20, 0.2, 42, ServiceConfig::default());
        let before = svc.fingerprint();
        svc.handle(&Request::MatchUsers { seed: 1 });
        svc.handle(&Request::MisQuery { seed: 1 });

        let resp = svc.handle(&Request::ApplyDeltas {
            ops: vec![DeltaOp::AddNode(5), DeltaOp::InsertEdge(0, 20, 7)],
        });
        let Response::Applied { fingerprint, .. } = resp else {
            panic!("expected Applied, got {resp:?}");
        };
        assert_ne!(fingerprint, before, "mutation must change the fingerprint");

        // The old entries are unreachable and evicted; the re-query is a
        // miss under the new fingerprint.
        let hits = svc.stats().cache_hits;
        let resp = svc.handle(&Request::MatchUsers { seed: 1 });
        let Response::Matching {
            cached,
            fingerprint: fp,
            ..
        } = resp
        else {
            panic!("expected a matching")
        };
        assert!(!cached);
        assert_eq!(fp, fingerprint);
        assert_eq!(svc.stats().cache_hits, hits);
    }

    #[test]
    fn apply_deltas_repairs_live_state() {
        let mut svc = service_on_gnp(30, 0.15, 43, ServiceConfig::default());
        svc.handle(&Request::ApplyDeltas {
            ops: vec![
                DeltaOp::RemoveNode(0),
                DeltaOp::RemoveNode(7),
                DeltaOp::AddNode(3),
                DeltaOp::InsertEdge(1, 2, 9),
            ],
        });
        verify_mis(svc.graph(), svc.live_mis()).expect("repaired MIS verifies");
        for &(u, v) in svc.live_pairs() {
            assert!(svc.graph().has_edge(u, v));
        }
        // IsMatched agrees with the repaired pair list.
        for (u, v) in svc.live_pairs().to_vec() {
            assert_eq!(
                svc.handle(&Request::IsMatched { node: u.0 }),
                Response::Mate {
                    node: u.0,
                    mate: Some(v.0)
                }
            );
        }
    }

    #[test]
    fn bad_delta_batches_are_rejected_atomically() {
        let mut svc = service_on_gnp(15, 0.3, 44, ServiceConfig::default());
        let fp = svc.fingerprint();
        let pairs_before = svc.live_pairs().to_vec();
        for ops in [
            vec![DeltaOp::InsertEdge(3, 3, 1)],
            vec![DeltaOp::RemoveNode(99)],
            vec![DeltaOp::AddNode(1), DeltaOp::RemoveEdge(0, 0)],
            // Valid prefix, invalid suffix: the prefix must not stick.
            vec![
                DeltaOp::AddNode(2),
                DeltaOp::RemoveNode(1),
                DeltaOp::RemoveNode(1),
            ],
        ] {
            let resp = svc.handle(&Request::ApplyDeltas { ops });
            assert!(
                matches!(resp, Response::Error(_)),
                "expected rejection, got {resp:?}"
            );
            assert_eq!(svc.fingerprint(), fp, "rejected batch must not mutate");
            assert_eq!(svc.live_pairs(), pairs_before);
        }
        assert_eq!(svc.stats().deltas_applied, 0);
    }

    #[test]
    fn is_independent_checks_the_overlay() {
        let mut b = congest_graph::GraphBuilder::with_nodes(4);
        b.add_weighted_edge(0.into(), 1.into(), 1);
        b.add_weighted_edge(2.into(), 3.into(), 1);
        let mut svc = MatchingService::new(b.build(), ServiceConfig::default());
        assert_eq!(
            svc.handle(&Request::IsIndependent { nodes: vec![0, 2] }),
            Response::Independent(true)
        );
        assert_eq!(
            svc.handle(&Request::IsIndependent {
                nodes: vec![0, 1, 2]
            }),
            Response::Independent(false)
        );
        // Duplicates are set semantics, not self-conflicts.
        assert_eq!(
            svc.handle(&Request::IsIndependent {
                nodes: vec![0, 0, 2]
            }),
            Response::Independent(true)
        );
        assert!(matches!(
            svc.handle(&Request::IsIndependent { nodes: vec![0, 9] }),
            Response::Error(_)
        ));
        // The answer tracks mutations immediately.
        svc.handle(&Request::ApplyDeltas {
            ops: vec![DeltaOp::InsertEdge(0, 2, 1)],
        });
        assert_eq!(
            svc.handle(&Request::IsIndependent { nodes: vec![0, 2] }),
            Response::Independent(false)
        );
    }

    #[test]
    fn empty_graph_service_answers_everything() {
        let mut svc = MatchingService::new(
            congest_graph::GraphBuilder::with_nodes(0).build(),
            ServiceConfig::default(),
        );
        assert!(matches!(
            svc.handle(&Request::MatchUsers { seed: 1 }),
            Response::Matching { weight: 0, .. }
        ));
        assert!(matches!(
            svc.handle(&Request::MisQuery { seed: 1 }),
            Response::Mis { .. }
        ));
        assert_eq!(
            svc.handle(&Request::IsIndependent { nodes: vec![] }),
            Response::Independent(true)
        );
        // Grow it from nothing.
        let resp = svc.handle(&Request::ApplyDeltas {
            ops: vec![
                DeltaOp::AddNode(1),
                DeltaOp::AddNode(1),
                DeltaOp::InsertEdge(0, 1, 5),
            ],
        });
        assert!(
            matches!(resp, Response::Applied { live_nodes: 2, .. }),
            "got {resp:?}"
        );
        assert_eq!(svc.live_pairs().len(), 1, "repair must match the new edge");
    }

    #[test]
    fn stats_snapshot_reports_the_counters() {
        let mut svc = service_on_gnp(12, 0.3, 45, ServiceConfig::default());
        svc.handle(&Request::MatchUsers { seed: 2 });
        svc.handle(&Request::MatchUsers { seed: 2 });
        svc.handle(&Request::Fingerprint);
        let resp = svc.handle(&Request::Stats);
        assert_eq!(
            resp,
            Response::StatsSnapshot {
                requests_served: 4,
                cache_hits: 1,
                cache_misses: 1,
                overload_rejections: 0,
                deltas_applied: 0,
            }
        );
    }
}
