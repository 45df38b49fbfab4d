//! Incremental matching repair for dynamic graphs.
//!
//! Given the matched pairs of a prior grouped-matching run and the
//! [`DeltaSet`] separating the prior graph from the current one,
//! [`grouped_mwm_repair`] freezes every pair the deltas left intact and
//! re-runs the grouped local-ratio matching only on the *free* nodes —
//! endpoints orphaned by removed edges or departures, new arrivals, and
//! nodes the prior run left unmatched. Because the prior matching covers
//! (almost) every edge outside the damaged region, the free-node subgraph
//! is small and the repair rounds are proportional to the damage, while
//! the union of frozen pairs and the subgraph matching is a valid
//! matching of the current graph by construction.

use congest_graph::{DeltaSet, Graph, Matching, NodeId};
use congest_sim::{RunStats, SimConfig};

use super::{mwm_grouped_with, mwm_grouped_with_parallel};

/// Outcome of an incremental matching repair.
#[derive(Clone, Debug)]
pub struct MatchingRepairRun {
    /// The repaired matching on the current graph: surviving frozen pairs
    /// plus the fresh matching of the free-node subgraph.
    pub matching: Matching,
    /// Rounds spent re-matching the free-node subgraph (0 if it had no
    /// edges left to negotiate).
    pub rounds: usize,
    /// Number of free nodes that were re-decided by the subgraph run.
    pub repaired: usize,
    /// Engine statistics of the subgraph run (`RunStats::default()` if no
    /// run was needed).
    pub stats: RunStats,
}

/// Repairs a prior grouped matching after the graph changed by `deltas`.
///
/// `g` is the *current* graph (e.g.
/// [`DeltaGraph::compact`](congest_graph::DeltaGraph::compact) of the
/// mutated overlay) and `prior_pairs` the matched pairs of the pre-delta
/// run, as endpoint pairs (edge ids are not stable across compaction;
/// node ids are). A pair is **frozen** — kept verbatim — iff its edge
/// still exists in `g` and neither endpoint departed; everything else is
/// re-negotiated.
/// `parallel` selects the engine's deterministic parallel executor; both
/// executors produce bit-identical matchings for the same seed.
///
/// # Panics
///
/// Panics if any prior pair or delta id is out of range, a prior pair is
/// degenerate (`u == v`), or the prior pairs reuse an endpoint — the
/// panic message names the offending argument.
pub fn grouped_mwm_repair(
    g: &Graph,
    prior_pairs: &[(NodeId, NodeId)],
    deltas: &DeltaSet,
    seed: u64,
    parallel: bool,
) -> MatchingRepairRun {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    for &(u, v) in prior_pairs {
        assert!(
            u.index() < n && v.index() < n,
            "grouped_mwm_repair: prior_pairs names node {} out of range (slots 0..{n})",
            u.index().max(v.index())
        );
        assert!(
            u != v,
            "grouped_mwm_repair: prior_pairs contains the degenerate pair ({u:?}, {u:?})"
        );
        assert!(
            !covered[u.index()] && !covered[v.index()],
            "grouped_mwm_repair: prior_pairs reuses an endpoint of ({u:?}, {v:?})"
        );
        covered[u.index()] = true;
        covered[v.index()] = true;
    }
    for &v in deltas
        .joined
        .iter()
        .chain(&deltas.left)
        .chain(deltas.inserted.iter().flat_map(|(u, v)| [u, v]))
        .chain(deltas.removed.iter().flat_map(|(u, v)| [u, v]))
    {
        assert!(
            v.index() < n,
            "grouped_mwm_repair: deltas names node {} out of range (slots 0..{n})",
            v.index()
        );
    }

    let mut departed = vec![false; n];
    for &v in &deltas.left {
        departed[v.index()] = true;
    }

    // Freeze every prior pair the deltas left intact; orphan the rest.
    let mut matching = Matching::new(g);
    let mut free = vec![true; n];
    for &(u, v) in prior_pairs {
        let survives = !departed[u.index()] && !departed[v.index()];
        if let Some(e) = g.find_edge(u, v).filter(|_| survives) {
            assert!(
                matching.try_insert(g, e),
                "frozen pairs are disjoint by validation"
            );
            free[u.index()] = false;
            free[v.index()] = false;
        }
    }

    // Re-match the free nodes among themselves. Frozen endpoints are
    // excluded, so the union stays disjoint; any current edge with both
    // endpoints free appears in the subgraph and gets a chance to match.
    let (sub, old_of_new) = g.induced_subgraph(&free);
    if sub.num_edges() == 0 {
        return MatchingRepairRun {
            matching,
            rounds: 0,
            repaired: 0,
            stats: RunStats::default(),
        };
    }
    let config = SimConfig::congest_for(&sub).with_max_rounds(64 * sub.num_nodes() + 256);
    let (run, completed) = if parallel {
        mwm_grouped_with_parallel(&sub, config, seed)
    } else {
        mwm_grouped_with(&sub, config, seed)
    };
    assert!(completed, "grouped repair run failed to terminate");
    for e in run.matching.edges(&sub).collect::<Vec<_>>() {
        let (su, sv) = sub.endpoints(e);
        let (u, v) = (old_of_new[su.index()], old_of_new[sv.index()]);
        let ge = g
            .find_edge(u, v)
            .expect("subgraph edges exist in the parent graph");
        assert!(
            matching.try_insert(g, ge),
            "free-node matches are disjoint from frozen pairs"
        );
    }
    MatchingRepairRun {
        matching,
        rounds: run.stats.rounds,
        repaired: sub.num_nodes(),
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::super::mwm_grouped;
    use super::*;
    use congest_graph::{generators, DeltaGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pairs_of(g: &Graph, m: &Matching) -> Vec<(NodeId, NodeId)> {
        m.edges(g).map(|e| g.endpoints(e)).collect()
    }

    #[test]
    fn repair_after_edge_flips_is_valid_and_cheaper() {
        let mut rng = SmallRng::seed_from_u64(210);
        for trial in 0..4u64 {
            let mut base = generators::gnp(300, 0.015, &mut rng);
            generators::randomize_edge_weights(&mut base, 32, &mut rng);
            let fresh = mwm_grouped(&base, 50 + trial);
            let prior = pairs_of(&base, &fresh.matching);
            let mut dg = DeltaGraph::new(base.clone());
            let mut pair_rng = SmallRng::seed_from_u64(910 + trial);
            for _ in 0..8 {
                let u = NodeId::from(rand::Rng::random_range(&mut pair_rng, 0..300u32));
                let v = NodeId::from(rand::Rng::random_range(&mut pair_rng, 0..300u32));
                if u == v {
                    continue;
                }
                if dg.has_edge(u, v) {
                    dg.remove_edge(u, v);
                } else {
                    dg.insert_edge(u, v, 5);
                }
            }
            let deltas = dg.take_log();
            let g2 = dg.compact();
            let run = grouped_mwm_repair(&g2, &prior, &deltas, 60 + trial, false);
            assert!(run.matching.is_valid(&g2), "trial {trial}");
            assert!(
                run.rounds <= fresh.stats.rounds,
                "trial {trial}: repair took {} rounds, fresh run {}",
                run.rounds,
                fresh.stats.rounds
            );
            assert!(
                run.repaired < g2.num_nodes() / 2,
                "trial {trial}: damage region exploded ({} free nodes)",
                run.repaired
            );
        }
    }

    #[test]
    fn repair_handles_joins_and_leaves() {
        let mut rng = SmallRng::seed_from_u64(211);
        let mut base = generators::gnp(150, 0.04, &mut rng);
        generators::randomize_edge_weights(&mut base, 16, &mut rng);
        let fresh = mwm_grouped(&base, 70);
        let prior = pairs_of(&base, &fresh.matching);
        let mut dg = DeltaGraph::new(base);
        dg.remove_node(NodeId::from(5u32));
        let a = dg.add_node(1);
        dg.insert_edge(a, NodeId::from(20u32), 9);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let run = grouped_mwm_repair(&g2, &prior, &deltas, 71, false);
        assert!(run.matching.is_valid(&g2));
        assert!(
            !run.matching.is_matched(NodeId::from(5u32)),
            "a departed slot has no edges to match"
        );
    }

    #[test]
    fn repair_is_executor_independent() {
        let mut rng = SmallRng::seed_from_u64(212);
        let mut base = generators::gnp(200, 0.025, &mut rng);
        generators::randomize_edge_weights(&mut base, 32, &mut rng);
        let fresh = mwm_grouped(&base, 80);
        let prior = pairs_of(&base, &fresh.matching);
        let mut dg = DeltaGraph::new(base);
        for v in 1..24u32 {
            let (u, v) = (NodeId::from(0u32), NodeId::from(v));
            if dg.has_edge(u, v) {
                dg.remove_edge(u, v);
            } else {
                dg.insert_edge(u, v, 3);
            }
        }
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let seq = grouped_mwm_repair(&g2, &prior, &deltas, 81, false);
        let par = grouped_mwm_repair(&g2, &prior, &deltas, 81, true);
        assert_eq!(
            seq.matching.edges(&g2).collect::<Vec<_>>(),
            par.matching.edges(&g2).collect::<Vec<_>>(),
            "executors must agree bit-for-bit"
        );
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn frozen_pairs_survive_untouched_regions() {
        let mut base = generators::path(10);
        generators::randomize_edge_weights(&mut base, 8, &mut SmallRng::seed_from_u64(213));
        let fresh = mwm_grouped(&base, 90);
        let prior = pairs_of(&base, &fresh.matching);
        assert!(!prior.is_empty());
        // Remove one edge far from most of the matching.
        let mut dg = DeltaGraph::new(base);
        dg.remove_edge(NodeId::from(0u32), NodeId::from(1u32));
        let deltas = dg.take_log();
        let g2 = dg.compact();
        let run = grouped_mwm_repair(&g2, &prior, &deltas, 91, false);
        assert!(run.matching.is_valid(&g2));
        for &(u, v) in &prior {
            if (u, v) != (NodeId::from(0u32), NodeId::from(1u32)) {
                assert!(
                    run.matching.contains(&g2, g2.find_edge(u, v).unwrap()),
                    "untouched frozen pair ({u:?}, {v:?}) must survive"
                );
            }
        }
    }

    #[test]
    fn repair_survives_fully_departed_graph_without_an_engine_run() {
        // Saturation churn removes every node; the compacted graph keeps
        // the slot space but no edges. No prior pair survives, the
        // free-node subgraph is edgeless, and repair must return the
        // empty matching in zero rounds instead of relying on the caller
        // to special-case it.
        let mut rng = SmallRng::seed_from_u64(260);
        let mut base = generators::gnp(18, 0.25, &mut rng);
        generators::randomize_edge_weights(&mut base, 32, &mut rng);
        let n = base.num_nodes();
        let prior_run = mwm_grouped(&base, 21);
        let prior = pairs_of(&base, &prior_run.matching);
        let mut dg = DeltaGraph::new(base);
        for v in 0..n as u32 {
            dg.remove_node(NodeId::from(v));
        }
        assert_eq!(dg.num_live_nodes(), 0);
        let deltas = dg.take_log();
        let g2 = dg.compact();
        assert_eq!(g2.num_edges(), 0);
        for parallel in [false, true] {
            let run = grouped_mwm_repair(&g2, &prior, &deltas, 22, parallel);
            assert!(run.matching.is_empty(), "no edges can be matched");
            assert_eq!(run.rounds, 0, "edgeless repair must not cost engine rounds");
            assert_eq!(run.repaired, 0);
            assert_eq!(run.stats, RunStats::default());
        }
    }

    #[test]
    fn repair_survives_zero_slot_graph() {
        let g0 = congest_graph::GraphBuilder::new().build();
        let run = grouped_mwm_repair(&g0, &[], &DeltaSet::default(), 1, false);
        assert!(run.matching.is_empty());
        assert_eq!(run.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "grouped_mwm_repair: prior_pairs reuses an endpoint")]
    fn overlapping_prior_pairs_are_rejected() {
        let g = generators::path(4);
        let pairs = vec![
            (NodeId::from(0u32), NodeId::from(1u32)),
            (NodeId::from(1u32), NodeId::from(2u32)),
        ];
        grouped_mwm_repair(&g, &pairs, &DeltaSet::default(), 1, false);
    }

    #[test]
    #[should_panic(expected = "grouped_mwm_repair: prior_pairs names node 9 out of range")]
    fn out_of_range_prior_pair_is_rejected() {
        let g = generators::path(4);
        let pairs = vec![(NodeId::from(0u32), NodeId::from(9u32))];
        grouped_mwm_repair(&g, &pairs, &DeltaSet::default(), 1, false);
    }

    #[test]
    #[should_panic(expected = "grouped_mwm_repair: deltas names node 7 out of range")]
    fn out_of_range_delta_is_rejected() {
        let g = generators::path(4);
        let deltas = DeltaSet {
            left: vec![NodeId::from(7u32)],
            ..DeltaSet::default()
        };
        grouped_mwm_repair(&g, &[], &deltas, 1, false);
    }
}
