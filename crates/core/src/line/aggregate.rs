//! The Theorem 2.8 engine: congestion-free simulation of local
//! aggregation algorithms on the line graph.
//!
//! Per line-graph round, every edge `e = {u, v}`:
//! 1. both endpoints locally aggregate the contributions of their *other*
//!    incident edges (exclude-one prefix/suffix joins — free, no
//!    communication);
//! 2. the secondary endpoint sends its partial aggregate to the primary
//!    (1 physical message over `e`);
//! 3. the primary joins the two partials, steps the edge's state machine,
//!    and sends the new contribution back (1 physical message over `e`).
//!
//! Hence each line-round costs exactly 2 physical rounds and 2 messages
//! per physical edge — congestion 1, versus the naive `Θ(Δ)` (see
//! [`naive`](super::naive)).

use congest_graph::{Graph, NodeId};
use congest_sim::rng::node_rng;
use congest_sim::{Message, PackedMsg};
use rand::rngs::SmallRng;

use super::{edge_infos, EdgeInfo};

/// A local aggregation algorithm on the line graph, in the sense of
/// Definitions 2.4–2.7: per round each edge exposes a *contribution*
/// (an element of the alphabet `Σ`) and observes only the `φ`-join of its
/// line-graph neighbors' contributions.
///
/// `Send`, with a `Send` output, because the naive explicit-`L(G)`
/// simulation runs it as an engine [`Protocol`](congest_sim::Protocol).
pub trait EdgeProtocol: Send {
    /// The alphabet `Σ` (must be `O(log n)` bits for CONGEST; metered).
    /// The [`PackedMsg`] bound lets the naive explicit-`L(G)` simulation
    /// run on the packed message planes.
    type Agg: PackedMsg;
    /// Final per-edge output.
    type Output: Clone + std::fmt::Debug + Send;

    /// The identity element `ε` (`φ(ε, x) = x`).
    fn identity() -> Self::Agg;

    /// The joining function `φ` — must be associative and commutative
    /// (order invariance, Definition 2.4).
    fn join(a: Self::Agg, b: Self::Agg) -> Self::Agg;

    /// This edge's contribution for line-round `round` (1-based). Called
    /// on *every* edge each round, including already-decided ones (which
    /// typically return [`identity`](Self::identity), except for final
    /// announcements).
    fn contribution(&self, round: usize) -> Self::Agg;

    /// One line-round step with the joined neighbor aggregate. Returning
    /// `Some(out)` fixes this edge's output; `step` is not called again.
    fn step(
        &mut self,
        round: usize,
        agg: Self::Agg,
        rng: &mut SmallRng,
        info: &EdgeInfo,
    ) -> Option<Self::Output>;
}

/// Result of an aggregated line-graph run.
#[derive(Clone, Debug)]
pub struct AggregatedRun<O> {
    /// Per-edge outputs (`None` = still undecided at the round cap).
    pub outputs: Vec<Option<O>>,
    /// Line-graph rounds executed.
    pub line_rounds: usize,
    /// Physical CONGEST rounds: `2 ×` line rounds (Theorem 2.8).
    pub physical_rounds: usize,
    /// Physical messages: 2 per physical edge per line round.
    pub physical_messages: u64,
    /// Largest aggregate crossing a physical edge, in bits.
    pub max_agg_bits: usize,
    /// Whether every edge decided before the cap.
    pub completed: bool,
}

/// Runs an [`EdgeProtocol`] over the edges of `g` under the Theorem 2.8
/// simulation. Edge `e`'s RNG stream is `node_rng(seed, e)` — identical
/// to what the explicit-`L(G)` engine gives node `e`, so the two engines
/// produce bit-identical outputs (the equivalence test of ablation A2).
pub fn run_aggregated<P: EdgeProtocol>(
    g: &Graph,
    mut factory: impl FnMut(&EdgeInfo) -> P,
    seed: u64,
    max_line_rounds: usize,
) -> AggregatedRun<P::Output> {
    let infos = edge_infos(g);
    let m = g.num_edges();
    let mut protocols: Vec<P> = infos.iter().map(&mut factory).collect();
    let mut rngs: Vec<SmallRng> = (0..m as u32).map(|e| node_rng(seed, NodeId(e))).collect();
    let mut outputs: Vec<Option<P::Output>> = vec![None; m];
    let mut undecided = m;
    let mut line_rounds = 0;
    let mut max_agg_bits = 0;

    // Incident edge lists per node, fixed for the run.
    let incident: Vec<Vec<usize>> = g
        .nodes()
        .map(|v| g.neighbor_edges(v).iter().map(|e| e.index()).collect())
        .collect();

    while undecided > 0 && line_rounds < max_line_rounds {
        line_rounds += 1;
        let round = line_rounds;
        let contributions: Vec<P::Agg> = protocols.iter().map(|p| p.contribution(round)).collect();

        // Exclude-one aggregates per endpoint via prefix/suffix joins:
        // partial_u[e] (resp. partial_v[e]) = φ over the contributions of
        // the *other* edges at the primary (resp. secondary) endpoint.
        let mut partial_u: Vec<P::Agg> = (0..m).map(|_| P::identity()).collect();
        let mut partial_v: Vec<P::Agg> = (0..m).map(|_| P::identity()).collect();
        for (node_idx, inc) in incident.iter().enumerate() {
            let owner = NodeId(node_idx as u32);
            let k = inc.len();
            if k == 0 {
                continue;
            }
            let mut prefix: Vec<P::Agg> = Vec::with_capacity(k + 1);
            prefix.push(P::identity());
            for &e in inc {
                let joined = P::join(
                    prefix.last().expect("non-empty").clone(),
                    contributions[e].clone(),
                );
                prefix.push(joined);
            }
            let mut suffix: Vec<P::Agg> = vec![P::identity(); k + 1];
            for i in (0..k).rev() {
                suffix[i] = P::join(suffix[i + 1].clone(), contributions[inc[i]].clone());
            }
            for (i, &e) in inc.iter().enumerate() {
                let excl = P::join(prefix[i].clone(), suffix[i + 1].clone());
                if infos[e].endpoints.0 == owner {
                    partial_u[e] = excl;
                } else {
                    partial_v[e] = excl;
                }
            }
        }

        for e in 0..m {
            // The secondary partial crosses the physical edge: meter it.
            max_agg_bits = max_agg_bits.max(partial_v[e].bit_size());
            let agg = P::join(partial_u[e].clone(), partial_v[e].clone());
            if outputs[e].is_none() {
                if let Some(out) = protocols[e].step(round, agg, &mut rngs[e], &infos[e]) {
                    outputs[e] = Some(out);
                    undecided -= 1;
                }
            }
        }
    }

    AggregatedRun {
        outputs,
        line_rounds,
        physical_rounds: 2 * line_rounds,
        physical_messages: 2 * m as u64 * line_rounds as u64,
        max_agg_bits,
        completed: undecided == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// Toy protocol: each edge outputs the sum of all edge ids, computed
    /// by gossiping partial sums — round 1 gives each edge the sum over
    /// its line-neighbors, which together with its own id is enough on a
    /// triangle (every pair of edges is adjacent).
    struct SumIds {
        my_id: u64,
    }
    impl EdgeProtocol for SumIds {
        type Agg = u64;
        type Output = u64;
        fn identity() -> u64 {
            0
        }
        fn join(a: u64, b: u64) -> u64 {
            a + b
        }
        fn contribution(&self, _round: usize) -> u64 {
            self.my_id
        }
        fn step(
            &mut self,
            _round: usize,
            agg: u64,
            _rng: &mut SmallRng,
            _info: &EdgeInfo,
        ) -> Option<u64> {
            Some(agg + self.my_id)
        }
    }

    #[test]
    fn triangle_sum_of_ids() {
        let g = generators::complete(3); // 3 edges, pairwise adjacent in L(G)
        let run = run_aggregated(
            &g,
            |info| SumIds {
                my_id: u64::from(info.edge.0),
            },
            0,
            10,
        );
        assert!(run.completed);
        assert_eq!(run.line_rounds, 1);
        assert_eq!(run.physical_rounds, 2);
        for out in run.outputs {
            assert_eq!(out, Some(1 + 2));
        }
    }

    #[test]
    fn exclude_one_is_correct_on_star() {
        // Star K_{1,4}: every pair of edges is line-adjacent; each edge's
        // neighbor aggregate must exclude exactly itself.
        let g = generators::star(5);
        let run = run_aggregated(
            &g,
            |info| SumIds {
                my_id: u64::from(info.edge.0),
            },
            0,
            10,
        );
        let total: u64 = (0..4).sum();
        for (e, out) in run.outputs.iter().enumerate() {
            // step adds own id back, so every edge sees the full total.
            assert_eq!(*out, Some(total), "edge {e}");
        }
    }

    #[test]
    fn path_neighbors_only() {
        // Path 0-1-2-3: edges e0={0,1}, e1={1,2}, e2={2,3}; L(G) is a
        // path e0–e1–e2. e0's aggregate = id(e1) alone.
        let g = generators::path(4);
        let run = run_aggregated(
            &g,
            |info| SumIds {
                my_id: u64::from(info.edge.0),
            },
            0,
            10,
        );
        // out = agg + own id.
        assert_eq!(run.outputs[0], Some(1));
        assert_eq!(run.outputs[1], Some(2 + 1));
        assert_eq!(run.outputs[2], Some(1 + 2));
    }

    #[test]
    fn round_cap_reported() {
        struct Never;
        impl EdgeProtocol for Never {
            type Agg = u64;
            type Output = ();
            fn identity() -> u64 {
                0
            }
            fn join(a: u64, b: u64) -> u64 {
                a + b
            }
            fn contribution(&self, _round: usize) -> u64 {
                0
            }
            fn step(
                &mut self,
                _r: usize,
                _a: u64,
                _rng: &mut SmallRng,
                _i: &EdgeInfo,
            ) -> Option<()> {
                None
            }
        }
        let g = generators::path(3);
        let run = run_aggregated(&g, |_| Never, 0, 5);
        assert!(!run.completed);
        assert_eq!(run.line_rounds, 5);
    }
}
