//! Property-based tests for the [`DeltaGraph`] overlay and the engine's
//! churn adversary.
//!
//! The overlay's contract is that *any* interleaving of edge inserts,
//! edge removals, node joins, and node departures — applied against a
//! gnp, Watts–Strogatz, or power-law-cluster base — yields an overlay
//! whose [`DeltaGraph::fingerprint`] equals both the fingerprint of its
//! own [`DeltaGraph::compact`] output and the fingerprint of a fresh CSR
//! build of the same (weights, edge set) from scratch, and whose
//! compacted and folded graphs equal, table for table, a from-scratch
//! build of the view's edges in lexicographic order. The engine's
//! contract is that under every churn knob (`edge_flip_prob`,
//! `node_join_prob`, `node_leave_prob`, alone or combined) `run` is
//! bit-identical to a replayed `run` and to `run_parallel`, and that a
//! zeroed knob leaves its `RunStats` counter at zero.

use std::collections::BTreeMap;

use congest_graph::{generators, DeltaGraph, Graph, GraphBuilder, NodeId};
use congest_mis::LubyMis;
use congest_sim::{Adversary, Engine, SimConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mirror of the overlay's expected state, maintained alongside the
/// mutations: per-slot weights (0 for dead slots), liveness flags, and
/// the live edge set keyed by `(min, max)` endpoint pair.
struct Mirror {
    weights: Vec<u64>,
    alive: Vec<bool>,
    edges: BTreeMap<(u32, u32), u64>,
}

impl Mirror {
    fn of(g: &Graph) -> Self {
        let mut edges = BTreeMap::new();
        for v in g.nodes() {
            for (u, e) in g.neighbors(v) {
                if v < u {
                    edges.insert((v.0, u.0), g.edge_weight(e));
                }
            }
        }
        Mirror {
            weights: g.nodes().map(|v| g.node_weight(v)).collect(),
            alive: vec![true; g.num_nodes()],
            edges,
        }
    }

    fn alive_slots(&self) -> Vec<u32> {
        (0..self.alive.len() as u32)
            .filter(|&i| self.alive[i as usize])
            .collect()
    }

    /// Rebuilds the expected graph from scratch, the way `compact` is
    /// specified to: all slots (dead ones weight 0, degree 0), live
    /// edges only.
    fn fresh_build(&self) -> Graph {
        let mut b = GraphBuilder::with_nodes(self.weights.len());
        for (i, &w) in self.weights.iter().enumerate() {
            b.set_node_weight(NodeId(i as u32), w);
        }
        for (&(u, v), &w) in &self.edges {
            b.add_weighted_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    }
}

/// The canonical CSR of the overlay view, built from scratch: every
/// slot with its weight, then the view's edges in lexicographic order
/// through the builder's unchecked path. `compact` and `fold` must
/// produce exactly this graph.
fn reference(dg: &DeltaGraph) -> Graph {
    let n = dg.num_slots();
    let mut b = GraphBuilder::with_nodes(n);
    for v in 0..n as u32 {
        b.set_node_weight(NodeId(v), dg.node_weight(NodeId(v)));
    }
    for v in 0..n as u32 {
        for (u, w) in dg.neighbors(NodeId(v)) {
            if v < u.0 {
                let e = b.add_edge_unchecked(NodeId(v), u);
                b.set_edge_weight(e, w);
            }
        }
    }
    b.build()
}

/// One overlay mutation, drawn as raw indices; `apply` interprets the
/// indices against the current state so every drawn op is valid (ops
/// whose preconditions can't be met — e.g. removing an edge from an
/// empty edge set — are skipped, which proptest's shrinking tolerates).
type Op = (u8, u16, u16, u8);

fn apply(dg: &mut DeltaGraph, m: &mut Mirror, op: Op) {
    let (kind, a, b, wb) = op;
    match kind % 4 {
        0 => {
            // Insert an edge between two distinct live slots.
            let alive = m.alive_slots();
            if alive.len() < 2 {
                return;
            }
            let u = alive[a as usize % alive.len()];
            let v = alive[b as usize % alive.len()];
            if u == v {
                return;
            }
            let key = (u.min(v), u.max(v));
            if m.edges.contains_key(&key) {
                return;
            }
            let w = u64::from(wb % 32) + 1;
            dg.insert_edge(NodeId(u), NodeId(v), w);
            m.edges.insert(key, w);
        }
        1 => {
            // Remove a currently-live edge.
            if m.edges.is_empty() {
                return;
            }
            let idx = a as usize % m.edges.len();
            let &(u, v) = m.edges.keys().nth(idx).unwrap();
            dg.remove_edge(NodeId(u), NodeId(v));
            m.edges.remove(&(u, v));
        }
        2 => {
            // Join: the overlay either reuses the smallest parked slot
            // or appends a new one — mirror whichever it picked.
            let w = u64::from(wb % 16) + 1;
            let v = dg.add_node(w);
            if v.index() == m.weights.len() {
                m.weights.push(w);
                m.alive.push(true);
            } else {
                m.weights[v.index()] = w;
                m.alive[v.index()] = true;
            }
        }
        _ => {
            // Leave: departures cascade into removals of every incident
            // live edge and zero the slot weight.
            let alive = m.alive_slots();
            if alive.len() <= 2 {
                return;
            }
            let v = alive[a as usize % alive.len()];
            dg.remove_node(NodeId(v));
            m.alive[v as usize] = false;
            m.weights[v as usize] = 0;
            m.edges.retain(|&(x, y), _| x != v && y != v);
        }
    }
}

/// Strategy: a base graph from one of the three supported families plus
/// a history of overlay mutations.
fn arb_history() -> impl Strategy<Value = (Graph, Vec<Op>)> {
    (
        0u8..3,
        6usize..=24,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0usize..40,
    )
        .prop_map(|(family, n, seed, op_seed, op_count)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = match family {
                0 => generators::gnp(n, 0.2, &mut rng),
                1 => generators::watts_strogatz(n, 4, 0.2, &mut rng),
                _ => generators::power_law_cluster(n, 2, 0.3, &mut rng),
            };
            generators::randomize_node_weights(&mut g, 32, &mut rng);
            generators::randomize_edge_weights(&mut g, 32, &mut rng);
            let mut op_rng = SmallRng::seed_from_u64(op_seed);
            let ops = (0..op_count)
                .map(|_| {
                    (
                        op_rng.random::<u32>() as u8,
                        op_rng.random::<u32>() as u16,
                        op_rng.random::<u32>() as u16,
                        op_rng.random::<u32>() as u8,
                    )
                })
                .collect();
            (g, ops)
        })
}

/// Churn knob levels: index 0 is off, the rest are light-to-heavy.
const KNOB: [f64; 4] = [0.0, 0.02, 0.05, 0.12];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of inserts/removes/joins/leaves followed by
    /// `compact()` is fingerprint-identical to a fresh CSR build of the
    /// same edge set — across gnp / Watts–Strogatz / power-law-cluster
    /// bases.
    #[test]
    fn overlay_compact_and_fresh_build_agree(history in arb_history()) {
        let (g, ops) = history;
        let mut m = Mirror::of(&g);
        let mut dg = DeltaGraph::new(g);
        for op in ops {
            apply(&mut dg, &mut m, op);
        }
        let compacted = dg.compact();
        prop_assert_eq!(
            dg.fingerprint(),
            compacted.fingerprint());
        let fresh = m.fresh_build();
        prop_assert_eq!(
            compacted.fingerprint(),
            fresh.fingerprint());
        prop_assert_eq!(compacted.num_edges(), m.edges.len());
        prop_assert_eq!(dg.num_live_nodes(), m.alive_slots().len());
    }

    /// The compacted graph round-trips: wrapping it in a fresh overlay
    /// with no mutations preserves the fingerprint.
    #[test]
    fn compacted_graph_roundtrips_through_an_idle_overlay(history in arb_history()) {
        let (g, ops) = history;
        let mut m = Mirror::of(&g);
        let mut dg = DeltaGraph::new(g);
        for op in ops {
            apply(&mut dg, &mut m, op);
        }
        let compacted = dg.compact();
        let idle = DeltaGraph::new(compacted.clone());
        prop_assert_eq!(idle.fingerprint(), compacted.fingerprint());
        prop_assert_eq!(idle.compact().fingerprint(), compacted.fingerprint());
    }

    /// Applied in batches, a history keeps the overlay equal to the
    /// from-scratch canonical build after every batch: `compact()` table
    /// for table, and the base itself after an in-place `fold()` (which
    /// every other batch takes). The `O(1)` fingerprint equals a
    /// from-scratch recomputation after every single op.
    #[test]
    fn compact_and_fold_equal_the_canonical_build_after_every_batch(
        history in arb_history(),
        batch in 1usize..=5,
    ) {
        let (g, ops) = history;
        let mut m = Mirror::of(&g);
        let mut dg = DeltaGraph::new(g);
        prop_assert_eq!(dg.compact(), reference(&dg));
        for (i, chunk) in ops.chunks(batch).enumerate() {
            for &op in chunk {
                apply(&mut dg, &mut m, op);
                prop_assert_eq!(dg.fingerprint(), reference(&dg).fingerprint());
            }
            let expected = reference(&dg);
            prop_assert_eq!(&dg.compact(), &expected);
            if i % 2 == 1 {
                dg.fold();
                prop_assert_eq!(dg.base(), &expected);
                prop_assert_eq!(dg.fingerprint(), expected.fingerprint());
            }
        }
    }

    /// Under every churn knob — flips, joins, leaves, alone or combined
    /// — a run replays bit-identically and matches the deterministic
    /// parallel executor, and zeroed knobs leave their counters at zero.
    #[test]
    fn churned_runs_replay_and_match_parallel(
        n in 6usize..=20,
        gseed in 0u64..=u64::MAX,
        flip in 0usize..4,
        join in 0usize..4,
        leave in 0usize..4,
        aseed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(gseed);
        let g = generators::gnp(n, 0.3, &mut rng);
        let adversary = Adversary::default()
            .with_seed(aseed)
            .with_edge_flip_prob(KNOB[flip])
            .with_node_join_prob(KNOB[join])
            .with_node_leave_prob(KNOB[leave]);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(96)
            .with_adversary(adversary);
        let first = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let replay = Engine::build(&g, config.clone(), |_| LubyMis::new()).run(seed);
        let parallel = Engine::build(&g, config, |_| LubyMis::new()).run_parallel(seed);
        prop_assert_eq!(&first.outputs, &replay.outputs);
        prop_assert_eq!(&first.stats, &replay.stats);
        prop_assert_eq!(first.completed, replay.completed);
        prop_assert_eq!(&first.outputs, &parallel.outputs);
        prop_assert_eq!(&first.stats, &parallel.stats);
        prop_assert_eq!(first.completed, parallel.completed);
        if flip == 0 {
            prop_assert_eq!(first.stats.edges_flipped, 0);
        }
        if join == 0 {
            prop_assert_eq!(first.stats.nodes_joined, 0);
        }
        if leave == 0 {
            prop_assert_eq!(first.stats.nodes_left, 0);
            prop_assert_eq!(first.stats.nodes_joined, 0);
        }
    }
}

/// A gnp base with random weights, its overlay already past one fold.
fn folded_gnp(n: usize, seed: u64) -> DeltaGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = generators::gnp(n, 0.3, &mut rng);
    generators::randomize_edge_weights(&mut g, 32, &mut rng);
    let mut dg = DeltaGraph::new(g);
    dg.fold();
    dg
}

/// Checks `compact()` and an in-place `fold()` against the reference.
fn assert_splices_to_reference(mut dg: DeltaGraph) {
    let expected = reference(&dg);
    assert_eq!(dg.compact(), expected);
    assert_eq!(dg.fingerprint(), expected.fingerprint());
    dg.fold();
    assert_eq!(dg.base(), &expected);
    assert_eq!(dg.compact(), expected, "a fold leaves nothing pending");
}

#[test]
fn splice_inserts_before_the_first_edge_and_after_the_last() {
    // Base edges 1-2 and 2-3: 0-1 sorts before edge 0, 3-4 after the
    // last edge, and 4-5 reaches an appended slot.
    let mut b = GraphBuilder::with_nodes(5);
    b.add_weighted_edge(NodeId(2), NodeId(3), 4);
    b.add_weighted_edge(NodeId(1), NodeId(2), 5);
    let mut dg = DeltaGraph::new(b.build());
    dg.insert_edge(NodeId(1), NodeId(0), 6);
    dg.insert_edge(NodeId(3), NodeId(4), 7);
    let mut appended = dg.clone();
    assert_splices_to_reference(dg);
    let v = appended.add_node(2);
    appended.insert_edge(NodeId(4), v, 8);
    assert_splices_to_reference(appended);
}

#[test]
fn splice_removes_the_only_edge() {
    let mut b = GraphBuilder::with_nodes(3);
    b.add_weighted_edge(NodeId(2), NodeId(0), 9);
    let mut dg = DeltaGraph::new(b.build());
    dg.remove_edge(NodeId(0), NodeId(2));
    let expected = reference(&dg);
    assert_eq!(expected.num_edges(), 0);
    assert_splices_to_reference(dg);
}

#[test]
fn splice_reinserts_a_removed_edge_with_a_new_weight_in_one_batch() {
    let mut dg = folded_gnp(10, 2);
    let (u, v) = dg.base().endpoints(congest_graph::EdgeId(3));
    let old = dg.edge_weight(u, v).unwrap();
    dg.remove_edge(u, v);
    dg.insert_edge(v, u, old + 100);
    assert_eq!(dg.edge_weight(u, v), Some(old + 100));
    assert_splices_to_reference(dg);
}

#[test]
fn splice_gives_appended_slots_their_edges() {
    let mut dg = folded_gnp(9, 3);
    let a = dg.add_node(5);
    let b = dg.add_node(6);
    dg.insert_edge(a, b, 7);
    dg.insert_edge(NodeId(0), b, 8);
    dg.insert_edge(a, NodeId(4), 9);
    assert_splices_to_reference(dg);
}

#[test]
fn splice_handles_a_leave_then_a_join_reusing_the_slot() {
    let mut dg = folded_gnp(10, 4);
    assert!(dg.degree(NodeId(3)) > 0);
    dg.remove_node(NodeId(3));
    let mut left = dg.clone();
    assert_splices_to_reference(left.clone());
    left.fold();
    let v = left.add_node(12);
    assert_eq!(v, NodeId(3), "the join reuses the parked slot");
    left.insert_edge(v, NodeId(7), 2);
    left.insert_edge(NodeId(0), v, 3);
    assert_splices_to_reference(left);
    // The same leave and join in one batch.
    let v = dg.add_node(12);
    dg.insert_edge(v, NodeId(7), 2);
    assert_splices_to_reference(dg);
}

/// A graph whose CSR arrays span many blocks of the fold's shift table,
/// and batches sparse enough that most blocks keep one shift while
/// edits split the rest: the fold's shifts come both from the table and
/// from its search of the runs.
#[test]
fn splice_handles_large_batches_on_a_larger_graph() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut g = generators::gnp(400, 0.02, &mut rng);
    generators::randomize_node_weights(&mut g, 32, &mut rng);
    generators::randomize_edge_weights(&mut g, 32, &mut rng);
    let mut m = Mirror::of(&g);
    let mut dg = DeltaGraph::new(g);
    for batch in [6, 12, 40, 6] {
        for i in 0..batch {
            // Edge inserts and removals only, alternating.
            let op = (
                i as u8 % 2,
                rng.random::<u32>() as u16,
                rng.random::<u32>() as u16,
                rng.random::<u32>() as u8,
            );
            apply(&mut dg, &mut m, op);
        }
        assert_splices_to_reference(dg.clone());
        dg.fold();
        assert_eq!(dg.base(), &m.fresh_build());
    }
}
