//! Algorithm 2: distributed Δ-approximation for weighted MaxIS in
//! `O(MIS(G) · log W)` rounds (Theorem 2.3).
//!
//! Nodes are layered by weight (`L_i = (2^{i-1}, 2^i]`); a node competes
//! in the MIS black box only while no neighbor sits in a strictly higher
//! layer, so the topmost layer always makes progress and empties after one
//! MIS pass (Lemma A.1). MIS winners zero their weight, subtract it from
//! their (logical) neighborhood — the local-ratio step — and become
//! *candidates*; nodes driven to non-positive weight are *removed*. In
//! the addition stage a candidate joins the final independent set once all
//! surviving (higher-precedence) neighbors have resolved, dying instead if
//! one of them joins.
//!
//! Two message-scope details the PODC pseudocode leaves implicit (see
//! DESIGN.md §faithfulness):
//! 1. `reduce` goes only to the current **logical** neighborhood (the
//!    local-ratio graph), never to nodes that already left it;
//! 2. `removed` / `addedToIS` are broadcast on **physical** edges and
//!    filtered by the receiver's logical view — this is what lets
//!    earlier candidates observe the fate of the later candidates they
//!    wait on.
//!
//! The MIS black box is pluggable ([`MisBox`]): per-cycle random-priority
//! competition (Luby-style, the default) or Ghaffari-style dynamic marking
//! probabilities — the A4 ablation compares them.

use congest_graph::{Graph, IndependentSet, NodeId};
use congest_sim::{
    bits_for_value, run_protocol, Context, Inbox, Message, PackedMsg, Protocol, SimConfig, Status,
};
use rand::Rng;

use crate::maxis::MaxIsRun;
use crate::weights::layer_of_signed;

/// The MIS black box run within each weight layer.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MisBox {
    /// Fresh random priorities every cycle; local maxima join. Luby-style,
    /// `O(log n)` cycles per layer w.h.p.
    RandomPriority,
    /// Ghaffari-style dynamic marking probabilities with growth factor
    /// `K ≥ 2` (Section 3.1's accelerated variant for `K > 2`).
    Ghaffari {
        /// Probability growth/decay factor.
        k: f64,
    },
}

/// Configuration for [`alg2`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Alg2Config {
    /// MIS black box (see [`MisBox`]).
    pub mis_box: MisBox,
}

impl Default for Alg2Config {
    fn default() -> Self {
        Alg2Config {
            mis_box: MisBox::RandomPriority,
        }
    }
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Alg2Msg {
    /// Round-A announcement of a competing node (random-priority box):
    /// current layer and fresh priority.
    Compete {
        /// Sender's current weight layer.
        layer: u32,
        /// Random priority drawn for this cycle.
        prio: u64,
    },
    /// Round-A announcement (Ghaffari box): layer, probability exponent,
    /// and whether the node marked itself this cycle.
    CompeteG {
        /// Sender's current weight layer.
        layer: u32,
        /// Ghaffari marking-probability exponent (`p = 2^-pexp`).
        pexp: u16,
        /// Whether the sender marked itself this cycle.
        marked: bool,
    },
    /// Local-ratio step: subtract `amount` from your weight; the sender
    /// has become a candidate and leaves your logical neighborhood.
    Reduce(u64),
    /// The sender is out (non-positive weight, or dominated by an added
    /// neighbor); it leaves every logical neighborhood.
    Removed,
    /// The sender joined the final independent set.
    AddedToIs,
}

impl Message for Alg2Msg {
    fn bit_size(&self) -> usize {
        3 + match self {
            Alg2Msg::Compete { layer, prio } => {
                6 + bits_for_value(u64::from(*layer)) + bits_for_value(*prio)
            }
            Alg2Msg::CompeteG { layer, .. } => 6 + bits_for_value(u64::from(*layer)) + 17,
            Alg2Msg::Reduce(x) => bits_for_value(*x),
            Alg2Msg::Removed | Alg2Msg::AddedToIs => 0,
        }
    }
}

/// Wire format: 3-bit variant tag in the low bits, then variant fields
/// LSB-first. `Compete` carries `layer` in 7 bits and `prio` in the 54
/// bits above it (the draw domain is capped at `2⁵⁴`, see the Round-A
/// code); `CompeteG` carries `layer` (7) + `pexp` (16) + `marked` (1);
/// `Reduce` carries its 61-bit amount — weights are `O(log W)`-bit by the
/// paper's model, and the pack asserts the bound.
impl PackedMsg for Alg2Msg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        match self {
            Alg2Msg::Compete { layer, prio } => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                debug_assert!(*prio < 1 << 54, "priority exceeds the 54-bit wire field");
                (u64::from(*layer) << 3) | (prio << 10)
            }
            Alg2Msg::CompeteG {
                layer,
                pexp,
                marked,
            } => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                1 | (u64::from(*layer) << 3) | (u64::from(*pexp) << 10) | (u64::from(*marked) << 26)
            }
            Alg2Msg::Reduce(x) => {
                assert!(*x < 1 << 61, "reduce amount exceeds the 61-bit wire field");
                2 | (x << 3)
            }
            Alg2Msg::Removed => 3,
            Alg2Msg::AddedToIs => 4,
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b111 {
            0 => Alg2Msg::Compete {
                layer: ((word >> 3) & 0x7f) as u32,
                prio: word >> 10,
            },
            1 => Alg2Msg::CompeteG {
                layer: ((word >> 3) & 0x7f) as u32,
                pexp: (word >> 10) as u16,
                marked: (word >> 26) & 1 == 1,
            },
            2 => Alg2Msg::Reduce(word >> 3),
            3 => Alg2Msg::Removed,
            _ => Alg2Msg::AddedToIs,
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum NodeState {
    Alive,
    Candidate,
}

/// Per-node protocol state for Algorithm 2.
#[derive(Clone, Debug)]
pub struct Alg2Node {
    cfg: Alg2Config,
    w: i64,
    gone: Vec<bool>,
    state: NodeState,
    // Random-priority box: this cycle's draw.
    my_prio: u64,
    // Ghaffari box state.
    j: u16,
    marked: bool,
    last_layer: Option<u32>,
}

impl Alg2Node {
    fn new(cfg: Alg2Config) -> Self {
        Alg2Node {
            cfg,
            w: 0,
            gone: Vec::new(),
            state: NodeState::Alive,
            my_prio: 0,
            j: 1,
            marked: false,
            last_layer: None,
        }
    }

    fn layer(&self) -> Option<u32> {
        layer_of_signed(self.w)
    }

    fn all_gone(&self) -> bool {
        self.gone.iter().all(|&x| x)
    }

    /// Processes lifecycle messages; `Some(halt)` if this node dies.
    fn absorb(
        &mut self,
        ctx: &mut Context<'_, Alg2Msg>,
        inbox: Inbox<'_, Alg2Msg>,
    ) -> Option<Status<bool>> {
        for (port, msg) in inbox {
            match msg {
                Alg2Msg::Reduce(x) => {
                    // Candidates ignore late reductions (they already left
                    // the local-ratio graph); the sender is gone either way.
                    if self.state == NodeState::Alive {
                        self.w -= x as i64;
                    }
                    self.gone[port] = true;
                }
                Alg2Msg::Removed => {
                    self.gone[port] = true;
                }
                Alg2Msg::AddedToIs if !self.gone[port] => {
                    // A logical neighbor joined the solution: I leave.
                    ctx.broadcast(Alg2Msg::Removed);
                    return Some(Status::Halt(false));
                }
                _ => {}
            }
        }
        None
    }
}

impl Protocol for Alg2Node {
    type Msg = Alg2Msg;
    type Output = bool;

    fn init(&mut self, ctx: &mut Context<'_, Alg2Msg>) {
        self.w = ctx.info().weight as i64;
        self.gone = vec![false; ctx.degree()];
    }

    fn round(&mut self, ctx: &mut Context<'_, Alg2Msg>, inbox: Inbox<'_, Alg2Msg>) -> Status<bool> {
        if let Some(halt) = self.absorb(ctx, inbox) {
            return halt;
        }
        if self.state == NodeState::Candidate {
            if self.all_gone() {
                ctx.broadcast(Alg2Msg::AddedToIs);
                return Status::Halt(true);
            }
            return Status::Active;
        }
        // Alive:
        if self.w <= 0 {
            ctx.broadcast(Alg2Msg::Removed);
            return Status::Halt(false);
        }
        // lint:allow(no-panic-in-round): `self.w > 0` is checked directly above, so `layer()` is `Some`
        let layer = self.layer().expect("alive nodes have positive weight");
        if ctx.round() % 2 == 1 {
            // Round A: announce layer + competition data on logical edges.
            match self.cfg.mis_box {
                MisBox::RandomPriority => {
                    let n = ctx.info().n.max(2) as u64;
                    // Capped at the wire format's 54-bit priority field —
                    // only graphs beyond n ≈ 260k even notice, and ties
                    // still break on node id.
                    let domain = n.saturating_mul(n).saturating_mul(n).min(1 << 54);
                    self.my_prio = ctx.rng().random_range(0..domain);
                    let msg = Alg2Msg::Compete {
                        layer,
                        prio: self.my_prio,
                    };
                    ctx.broadcast_filtered(msg, |p| !self.gone[p]);
                }
                MisBox::Ghaffari { k } => {
                    // Reset the probability on layer change: each layer is
                    // a fresh MIS instance for the black box.
                    if self.last_layer != Some(layer) {
                        self.j = 1;
                        self.last_layer = Some(layer);
                    }
                    let p = k.powi(-i32::from(self.j));
                    self.marked = ctx.rng().random_bool(p.min(1.0));
                    let msg = Alg2Msg::CompeteG {
                        layer,
                        pexp: self.j,
                        marked: self.marked,
                    };
                    ctx.broadcast_filtered(msg, |p| !self.gone[p]);
                }
            }
            Status::Active
        } else {
            // Round B: evaluate the competition.
            let mut eligible = true;
            let mut beaten = false;
            let mut eff_deg = 0.0f64;
            let mut marked_same_layer_neighbor = false;
            for (port, msg) in inbox {
                match msg {
                    Alg2Msg::Compete { layer: l, prio } => {
                        if l > layer {
                            eligible = false;
                        } else if l == layer
                            && (prio, ctx.neighbor(port)) > (self.my_prio, ctx.id())
                        {
                            beaten = true;
                        }
                    }
                    Alg2Msg::CompeteG {
                        layer: l,
                        pexp,
                        marked,
                    } => {
                        if l > layer {
                            eligible = false;
                        } else if l == layer {
                            if let MisBox::Ghaffari { k } = self.cfg.mis_box {
                                eff_deg += k.powi(-i32::from(pexp));
                            }
                            if marked {
                                marked_same_layer_neighbor = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
            let won = match self.cfg.mis_box {
                MisBox::RandomPriority => eligible && !beaten,
                MisBox::Ghaffari { .. } => {
                    // Probability update happens regardless of outcome.
                    if eff_deg >= 2.0 {
                        self.j = self.j.saturating_add(1);
                    } else {
                        self.j = self.j.saturating_sub(1).max(1);
                    }
                    eligible && self.marked && !marked_same_layer_neighbor
                }
            };
            if won {
                let amount = self.w as u64;
                ctx.broadcast_filtered(Alg2Msg::Reduce(amount), |p| !self.gone[p]);
                self.w = 0;
                self.state = NodeState::Candidate;
                if self.all_gone() {
                    // No survivors to wait for; cannot add this round
                    // (the Reduce slots are used), the next round adds.
                }
            }
            Status::Active
        }
    }
}

/// Runs Algorithm 2 on `g` with the given seed; deterministic per seed.
///
/// # Panics
/// Panics if the protocol fails to terminate within the engine round cap
/// (`16·n + 64` cycles — far beyond the `O(MIS(G)·log W)` expectation; a
/// trip signals a protocol bug).
pub fn alg2(g: &Graph, cfg: &Alg2Config, seed: u64) -> MaxIsRun {
    let config = SimConfig::congest_for(g).with_max_rounds(32 * g.num_nodes() + 128);
    let (run, completed) = alg2_with(g, cfg, config, seed);
    assert!(
        completed,
        "Algorithm 2 failed to terminate within the round cap"
    );
    run
}

/// Like [`alg2`] but under a caller-supplied [`SimConfig`] — the
/// degradation harness threads fault adversaries, async schedulers, and
/// round caps through here. The independent set is assembled from the
/// nodes that decided `true`; undecided nodes (crashed, silenced, or cut
/// off by the round cap) simply stay out of the set, so the result is
/// reported as-is without a completion assert. Returns the run plus
/// whether every node halted normally.
pub fn alg2_with(g: &Graph, cfg: &Alg2Config, config: SimConfig, seed: u64) -> (MaxIsRun, bool) {
    let cfg = *cfg;
    let outcome = run_protocol(g, config, move |_| Alg2Node::new(cfg), seed);
    let completed = outcome.completed;
    let stats = outcome.stats.clone();
    let independent_set = IndependentSet::from_members(
        g,
        outcome
            .outputs
            .iter()
            .enumerate()
            .filter(|(_, &o)| o == Some(true))
            .map(|(i, _)| NodeId(i as u32)),
    );
    let run = MaxIsRun {
        independent_set,
        rounds: stats.rounds,
        stats,
    };
    (run, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxis::{check_independent, delta_bound_satisfied};
    use congest_exact::brute_force_mwis;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn boxes() -> Vec<Alg2Config> {
        vec![
            Alg2Config {
                mis_box: MisBox::RandomPriority,
            },
            Alg2Config {
                mis_box: MisBox::Ghaffari { k: 2.0 },
            },
        ]
    }

    #[test]
    fn independent_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(50);
        for trial in 0..4 {
            let mut g = generators::gnp(50, 0.12, &mut rng);
            generators::randomize_node_weights(&mut g, 128, &mut rng);
            for cfg in boxes() {
                let run = alg2(&g, &cfg, 100 + trial);
                check_independent(&g, &run.independent_set)
                    .unwrap_or_else(|e| panic!("trial {trial} {cfg:?}: {e}"));
                assert!(!run.independent_set.is_empty());
                assert_eq!(run.stats.budget_violations, 0, "CONGEST budget violated");
            }
        }
    }

    #[test]
    fn delta_approximation_vs_brute_force() {
        let mut rng = SmallRng::seed_from_u64(51);
        for trial in 0..8 {
            let mut g = generators::gnp(16, 0.3, &mut rng);
            generators::randomize_node_weights(&mut g, 64, &mut rng);
            let opt = brute_force_mwis(&g).weight(&g);
            for (ci, cfg) in boxes().into_iter().enumerate() {
                let run = alg2(&g, &cfg, 500 + 10 * trial + ci as u64);
                let alg = run.independent_set.weight(&g);
                assert!(
                    delta_bound_satisfied(&g, alg, opt),
                    "trial {trial} box {ci}: alg {alg} opt {opt} Δ {}",
                    g.max_degree()
                );
            }
        }
    }

    #[test]
    fn heavy_center_star_selects_center() {
        let mut g = generators::star(10);
        g.set_node_weight(NodeId(0), 1_000);
        let run = alg2(&g, &Alg2Config::default(), 7);
        assert!(run.independent_set.contains(NodeId(0)));
        assert_eq!(run.independent_set.len(), 1);
    }

    #[test]
    fn light_center_star_selects_leaves() {
        // Center heavier than each leaf but lighter than their sum: the
        // layered algorithm reduces via the center first (top layer), the
        // surviving leaves then join — exactly the behaviour the naive
        // parallel variant loses.
        let mut g = generators::star(6);
        g.set_node_weight(NodeId(0), 8);
        for leaf in 1..6u32 {
            g.set_node_weight(NodeId(leaf), 5);
        }
        let run = alg2(&g, &Alg2Config::default(), 3);
        assert!(!run.independent_set.is_empty());
        assert!(run.independent_set.weight(&g) >= 8);
    }

    #[test]
    fn unit_weights_behave_like_mis() {
        let g = generators::cycle(12);
        let run = alg2(&g, &Alg2Config::default(), 11);
        check_independent(&g, &run.independent_set).unwrap();
        assert!(run.independent_set.len() >= 4);
    }

    #[test]
    fn isolated_nodes_all_join() {
        let g = congest_graph::GraphBuilder::with_nodes(5).build();
        let run = alg2(&g, &Alg2Config::default(), 1);
        assert_eq!(run.independent_set.len(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = SmallRng::seed_from_u64(52);
        let mut g = generators::gnp(40, 0.1, &mut rng);
        generators::randomize_node_weights(&mut g, 32, &mut rng);
        let a = alg2(&g, &Alg2Config::default(), 9);
        let b = alg2(&g, &Alg2Config::default(), 9);
        assert_eq!(
            a.independent_set.members().collect::<Vec<_>>(),
            b.independent_set.members().collect::<Vec<_>>()
        );
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn rounds_scale_with_log_w_not_w() {
        // W = 2^14 on a modest graph: rounds should stay far below W.
        let mut rng = SmallRng::seed_from_u64(53);
        let mut g = generators::random_regular(64, 4, &mut rng);
        generators::randomize_node_weights(&mut g, 1 << 14, &mut rng);
        let run = alg2(&g, &Alg2Config::default(), 2);
        assert!(
            run.rounds < 600,
            "rounds {} suggest W-scaling instead of log W",
            run.rounds
        );
    }
}
