//! Algorithm 3: deterministic coloring-based Δ-approximation for weighted
//! MaxIS.
//!
//! A `(Δ+1)`-coloring replaces the weight layers of Algorithm 2: a node
//! performs its local-ratio reduction when its (static) color is a local
//! maximum among the neighbors still in the local-ratio graph. Colors
//! never change, so — unlike the layered variant — no competition round is
//! needed at all: local maxima are unique within a neighborhood by
//! properness. Removal and addition interleave in a single round loop,
//! finishing in `O(Δ)` rounds after the coloring (`O(Δ + log* n)` total
//! with the coloring of \[BEK14, Bar15\]; our Linial+KW substitute makes
//! it `O(Δ log Δ + log* n)` — see DESIGN.md).

use congest_coloring::deterministic_delta_plus_one;
use congest_graph::{Graph, IndependentSet, NodeId};
use congest_sim::{
    bits_for_count, bits_for_value, run_protocol, Context, Inbox, Message, PackedMsg, Protocol,
    SimConfig, Status,
};

use congest_sim::RunStats;

/// Result of [`alg3`].
#[derive(Clone, Debug)]
pub struct Alg3Run {
    /// The computed independent set.
    pub independent_set: IndependentSet,
    /// Rounds spent computing the `(Δ+1)`-coloring.
    pub coloring_rounds: usize,
    /// Rounds spent in the local-ratio stage.
    pub local_ratio_rounds: usize,
    /// Total rounds.
    pub rounds: usize,
    /// Merged statistics of both stages.
    pub stats: RunStats,
}

/// Protocol messages for the local-ratio stage.
#[derive(Clone, Debug, PartialEq)]
pub enum Alg3Msg {
    /// Initial announcement of my (static) color.
    Color(u32),
    /// Local-ratio step: subtract `amount`; the sender became a candidate.
    Reduce(u64),
    /// The sender left the local-ratio graph.
    Removed,
    /// The sender joined the final independent set.
    AddedToIs,
}

impl Message for Alg3Msg {
    fn bit_size(&self) -> usize {
        2 + match self {
            Alg3Msg::Color(c) => bits_for_count(*c as usize + 2),
            Alg3Msg::Reduce(x) => bits_for_value(*x),
            Alg3Msg::Removed | Alg3Msg::AddedToIs => 0,
        }
    }
}

/// Wire format: 2-bit variant tag in the low bits, then the payload.
/// `Color` carries its 32-bit color above the tag; `Reduce` carries its
/// 62-bit amount — weights are `O(log W)`-bit by the paper's model, and
/// the pack asserts the bound.
impl PackedMsg for Alg3Msg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        match self {
            Alg3Msg::Color(c) => u64::from(*c) << 2,
            Alg3Msg::Reduce(x) => {
                assert!(*x < 1 << 62, "reduce amount exceeds the 62-bit wire field");
                1 | (x << 2)
            }
            Alg3Msg::Removed => 2,
            Alg3Msg::AddedToIs => 3,
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            0 => Alg3Msg::Color((word >> 2) as u32),
            1 => Alg3Msg::Reduce(word >> 2),
            2 => Alg3Msg::Removed,
            _ => Alg3Msg::AddedToIs,
        }
    }
}

#[derive(Clone, Debug)]
struct Alg3Node {
    color: u32,
    w: i64,
    gone: Vec<bool>,
    neighbor_color: Vec<u32>,
    candidate: bool,
}

impl Alg3Node {
    fn all_gone(&self) -> bool {
        self.gone.iter().all(|&x| x)
    }

    fn is_local_max(&self) -> bool {
        self.gone
            .iter()
            .zip(&self.neighbor_color)
            .all(|(&gone, &c)| gone || c < self.color)
    }
}

impl Protocol for Alg3Node {
    type Msg = Alg3Msg;
    type Output = bool;

    fn init(&mut self, ctx: &mut Context<'_, Alg3Msg>) {
        self.w = ctx.info().weight as i64;
        self.gone = vec![false; ctx.degree()];
        self.neighbor_color = vec![u32::MAX; ctx.degree()];
        let c = self.color;
        ctx.broadcast(Alg3Msg::Color(c));
    }

    fn round(&mut self, ctx: &mut Context<'_, Alg3Msg>, inbox: Inbox<'_, Alg3Msg>) -> Status<bool> {
        for (port, msg) in inbox {
            match msg {
                Alg3Msg::Color(c) => self.neighbor_color[port] = c,
                Alg3Msg::Reduce(x) => {
                    if !self.candidate {
                        self.w -= x as i64;
                    }
                    self.gone[port] = true;
                }
                Alg3Msg::Removed => self.gone[port] = true,
                Alg3Msg::AddedToIs => {
                    if !self.gone[port] {
                        ctx.broadcast(Alg3Msg::Removed);
                        return Status::Halt(false);
                    }
                }
            }
        }
        if self.candidate {
            if self.all_gone() {
                ctx.broadcast(Alg3Msg::AddedToIs);
                return Status::Halt(true);
            }
            return Status::Active;
        }
        if self.w <= 0 {
            ctx.broadcast(Alg3Msg::Removed);
            return Status::Halt(false);
        }
        if self.is_local_max() {
            let amount = self.w as u64;
            ctx.broadcast_filtered(Alg3Msg::Reduce(amount), |p| !self.gone[p]);
            self.w = 0;
            self.candidate = true;
        }
        Status::Active
    }
}

/// Runs Algorithm 3: deterministic `(Δ+1)`-coloring, then color-priority
/// local ratio. Fully deterministic (no seed).
///
/// # Panics
/// Panics if either stage fails to terminate within its round cap (a
/// protocol bug, not an input condition).
pub fn alg3(g: &Graph) -> Alg3Run {
    let coloring = deterministic_delta_plus_one(g);
    let colors = coloring.colors.clone();
    let config = SimConfig::congest_for(g).with_max_rounds(8 * (g.max_degree() + 2) + 64);
    let outcome = run_protocol(
        g,
        config,
        |info| Alg3Node {
            color: colors[info.id.index()] as u32,
            w: 0,
            gone: Vec::new(),
            neighbor_color: Vec::new(),
            candidate: false,
        },
        0,
    );
    assert!(
        outcome.completed,
        "Algorithm 3 local-ratio stage did not terminate"
    );
    let lr_stats = outcome.stats.clone();
    let outputs = outcome.into_outputs();
    let independent_set = IndependentSet::from_members(
        g,
        outputs
            .iter()
            .enumerate()
            .filter(|(_, &in_is)| in_is)
            .map(|(i, _)| NodeId(i as u32)),
    );
    Alg3Run {
        independent_set,
        coloring_rounds: coloring.rounds,
        local_ratio_rounds: lr_stats.rounds,
        rounds: coloring.rounds + lr_stats.rounds,
        stats: RunStats {
            rounds: coloring.rounds + lr_stats.rounds,
            total_messages: coloring.stats.total_messages + lr_stats.total_messages,
            max_message_bits: coloring
                .stats
                .max_message_bits
                .max(lr_stats.max_message_bits),
            budget_violations: coloring.stats.budget_violations + lr_stats.budget_violations,
            dropped_messages: coloring.stats.dropped_messages + lr_stats.dropped_messages,
            adversary_dropped_messages: coloring.stats.adversary_dropped_messages
                + lr_stats.adversary_dropped_messages,
            crashed_nodes: coloring.stats.crashed_nodes + lr_stats.crashed_nodes,
            delayed_messages: coloring.stats.delayed_messages + lr_stats.delayed_messages,
            duplicated_messages: coloring.stats.duplicated_messages + lr_stats.duplicated_messages,
            corrupted_messages: coloring.stats.corrupted_messages + lr_stats.corrupted_messages,
            restarted_nodes: coloring.stats.restarted_nodes + lr_stats.restarted_nodes,
            edges_flipped: coloring.stats.edges_flipped + lr_stats.edges_flipped,
            nodes_joined: coloring.stats.nodes_joined + lr_stats.nodes_joined,
            nodes_left: coloring.stats.nodes_left + lr_stats.nodes_left,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxis::{check_independent, delta_bound_satisfied};
    use congest_exact::brute_force_mwis;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn independent_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(60);
        for trial in 0..4 {
            let mut g = generators::gnp(50, 0.12, &mut rng);
            generators::randomize_node_weights(&mut g, 100, &mut rng);
            let run = alg3(&g);
            check_independent(&g, &run.independent_set)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(!run.independent_set.is_empty());
            assert_eq!(run.stats.budget_violations, 0);
        }
    }

    #[test]
    fn delta_approximation_vs_brute_force() {
        let mut rng = SmallRng::seed_from_u64(61);
        for trial in 0..8 {
            let mut g = generators::gnp(16, 0.3, &mut rng);
            generators::randomize_node_weights(&mut g, 64, &mut rng);
            let opt = brute_force_mwis(&g).weight(&g);
            let run = alg3(&g);
            let alg = run.independent_set.weight(&g);
            assert!(
                delta_bound_satisfied(&g, alg, opt),
                "trial {trial}: alg {alg} opt {opt} Δ {}",
                g.max_degree()
            );
        }
    }

    #[test]
    fn rounds_do_not_depend_on_weights() {
        // Same graph, W = 2 vs W = 2^20: identical round counts — the
        // claimed advantage of Algorithm 3 over Algorithm 2.
        let mut rng = SmallRng::seed_from_u64(62);
        let g0 = generators::random_regular(48, 4, &mut rng);
        let mut g_small = g0.clone();
        generators::randomize_node_weights(&mut g_small, 2, &mut rng);
        let mut g_large = g0.clone();
        generators::randomize_node_weights(&mut g_large, 1 << 20, &mut rng);
        let a = alg3(&g_small);
        let b = alg3(&g_large);
        // The coloring is weight-oblivious, and the LR stage stays O(Δ)
        // for both weight scales (constants may differ slightly because
        // different nodes survive the reductions).
        assert_eq!(a.coloring_rounds, b.coloring_rounds);
        let cap = 4 * (g0.max_degree() + 2);
        assert!(
            a.local_ratio_rounds <= cap,
            "W=2: {} rounds",
            a.local_ratio_rounds
        );
        assert!(
            b.local_ratio_rounds <= cap,
            "W=2^20: {} rounds",
            b.local_ratio_rounds
        );
    }

    #[test]
    fn local_ratio_rounds_scale_with_delta() {
        // Path (Δ = 2): the LR stage must finish in O(Δ) = a handful of
        // rounds even on a long path.
        let g = generators::path(500);
        let run = alg3(&g);
        assert!(
            run.local_ratio_rounds <= 24,
            "LR stage took {} rounds on a path",
            run.local_ratio_rounds
        );
        check_independent(&g, &run.independent_set).unwrap();
    }

    #[test]
    fn deterministic() {
        let mut rng = SmallRng::seed_from_u64(63);
        let mut g = generators::gnp(40, 0.15, &mut rng);
        generators::randomize_node_weights(&mut g, 30, &mut rng);
        let a = alg3(&g);
        let b = alg3(&g);
        assert_eq!(
            a.independent_set.members().collect::<Vec<_>>(),
            b.independent_set.members().collect::<Vec<_>>()
        );
    }

    #[test]
    fn heavy_center_star() {
        let mut g = generators::star(12);
        g.set_node_weight(NodeId(0), 10_000);
        let run = alg3(&g);
        assert!(run.independent_set.contains(NodeId(0)));
    }
}
