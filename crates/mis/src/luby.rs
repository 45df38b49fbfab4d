//! Luby's randomized maximal independent set algorithm \[Lub86\].
//!
//! Random-priority formulation: in each phase every undecided node draws a
//! fresh random priority; a node whose priority beats all undecided
//! neighbors joins the set, and its neighbors become dominated. Each phase
//! removes a constant fraction of the edges in expectation, so the
//! algorithm finishes in `O(log n)` rounds w.h.p. — the `MIS(G)` term the
//! paper plugs into its `O(MIS(G) · log W)` bound for the CONGEST model.

use congest_graph::NodeId;
use congest_sim::{bits_for_value, Context, Inbox, Message, PackedMsg, Protocol, Status};
use rand::Rng;

use crate::MisResult;

/// Messages exchanged by [`LubyMis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LubyMsg {
    /// Phase 1: my random priority this phase.
    Priority(u64),
    /// Phase 2: I won and joined the independent set.
    Joined,
    /// Phase 3: a neighbor of mine joined, I am dominated.
    Covered,
}

impl Message for LubyMsg {
    fn bit_size(&self) -> usize {
        match self {
            LubyMsg::Priority(p) => 2 + bits_for_value(*p),
            LubyMsg::Joined | LubyMsg::Covered => 2,
        }
    }
}

/// Wire format: 2-bit variant tag in the low bits, the priority above it.
/// Priorities live in `[0, n³) ∩ [0, 2⁶²)` ([`LubyMis::priority_domain`]
/// caps the domain), so the 62 payload bits are exact, not truncating.
impl PackedMsg for LubyMsg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        match self {
            LubyMsg::Priority(p) => {
                debug_assert!(*p < 1 << 62, "priority exceeds the 62-bit wire field");
                p << 2
            }
            LubyMsg::Joined => 1,
            LubyMsg::Covered => 2,
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            0 => LubyMsg::Priority(word >> 2),
            1 => LubyMsg::Joined,
            _ => LubyMsg::Covered,
        }
    }
}

/// Luby's MIS as a CONGEST [`Protocol`]; outputs [`MisResult::InSet`] or
/// [`MisResult::Dominated`] at every node (never `Undecided`).
///
/// The protocol advances through a 3-round cycle:
/// `announce` (draw + send priorities) → `decide` (local maxima join) →
/// `cover` (neighbors of joiners leave). Priorities are drawn from
/// `[0, n³)` so they fit in `O(log n)` bits; the vanishing tie probability
/// is handled by breaking ties on node id.
#[derive(Clone, Debug, Default)]
pub struct LubyMis {
    /// Ports whose neighbor is still undecided.
    active: Ports,
    /// Priority drawn this phase.
    my_priority: u64,
}

/// One flag per port. Nodes of degree ≤ 64 keep them in a word, so a run
/// allocates nothing per node; only wider nodes take a heap block. Either
/// way the enum takes 16 bytes.
#[derive(Clone, Debug)]
enum Ports {
    /// Bit `p` is port `p`'s flag.
    Inline(u64),
    Wide(Box<[bool]>),
}

impl Default for Ports {
    fn default() -> Self {
        Ports::Inline(0)
    }
}

impl Ports {
    /// Every port of a degree-`degree` node flagged.
    fn all(degree: usize) -> Self {
        match degree {
            0 => Ports::Inline(0),
            1..=64 => Ports::Inline(u64::MAX >> (64 - degree)),
            _ => Ports::Wide(vec![true; degree].into_boxed_slice()),
        }
    }

    fn get(&self, port: usize) -> bool {
        match self {
            Ports::Inline(bits) => bits >> port & 1 == 1,
            Ports::Wide(flags) => flags[port],
        }
    }

    fn clear(&mut self, port: usize) {
        match self {
            Ports::Inline(bits) => *bits &= !(1 << port),
            Ports::Wide(flags) => flags[port] = false,
        }
    }

    fn any(&self) -> bool {
        match self {
            Ports::Inline(bits) => *bits != 0,
            Ports::Wide(flags) => flags.contains(&true),
        }
    }
}

impl LubyMis {
    /// Creates a fresh protocol instance (one per node).
    pub fn new() -> Self {
        Self::default()
    }

    fn has_active_neighbor(&self) -> bool {
        self.active.any()
    }

    fn priority_domain(n: usize) -> u64 {
        let n = n.max(2) as u64;
        // Capped at the wire format's 62-bit priority field — only graphs
        // beyond n ≈ 1.6M even notice, and the tie probability stays
        // vanishing (ties break on node id regardless).
        n.saturating_mul(n).saturating_mul(n).min(1 << 62)
    }
}

impl Protocol for LubyMis {
    type Msg = LubyMsg;
    type Output = MisResult;

    fn init(&mut self, ctx: &mut Context<'_, LubyMsg>) {
        self.active = Ports::all(ctx.degree());
    }

    fn round(
        &mut self,
        ctx: &mut Context<'_, LubyMsg>,
        inbox: Inbox<'_, LubyMsg>,
    ) -> Status<MisResult> {
        match (ctx.round() - 1) % 3 {
            0 => {
                // Announce: fold in Covered messages from the previous
                // cycle, then either join (no competition left) or draw and
                // send a fresh priority.
                // Only `Covered` deactivates a port: under fault injection
                // (delays, duplicates, reordering) stray `Priority`/`Joined`
                // messages can arrive off-phase and must not be mistaken for
                // coverage. Fault-free, every message here *is* `Covered`.
                for (port, msg) in inbox {
                    if msg == LubyMsg::Covered {
                        self.active.clear(port);
                    }
                }
                if !self.has_active_neighbor() {
                    return Status::Halt(MisResult::InSet);
                }
                let domain = Self::priority_domain(ctx.info().n);
                self.my_priority = ctx.rng().random_range(0..domain);
                let prio = self.my_priority;
                ctx.broadcast_filtered(LubyMsg::Priority(prio), |p| self.active.get(p));
                Status::Active
            }
            1 => {
                // Decide: join iff (priority, id) beats every active neighbor.
                let me = (self.my_priority, ctx.id());
                let mut won = true;
                for (port, msg) in inbox {
                    // Fault-free this phase only carries priorities; under
                    // the fault adversary a delayed or duplicated message of
                    // another variant may slip in — ignore it.
                    let LubyMsg::Priority(p) = msg else { continue };
                    let them: (u64, NodeId) = (p, ctx.neighbor(port));
                    if them > me {
                        won = false;
                    }
                }
                if won {
                    ctx.broadcast_filtered(LubyMsg::Joined, |p| self.active.get(p));
                    Status::Halt(MisResult::InSet)
                } else {
                    Status::Active
                }
            }
            _ => {
                // Cover: leave if any neighbor joined.
                if inbox.iter().any(|(_, m)| m == LubyMsg::Joined) {
                    ctx.broadcast_filtered(LubyMsg::Covered, |p| self.active.get(p));
                    Status::Halt(MisResult::Dominated)
                } else {
                    Status::Active
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_mis;
    use congest_graph::generators;
    use congest_sim::{run_protocol, SimConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_luby(g: &congest_graph::Graph, seed: u64) -> (Vec<MisResult>, congest_sim::RunStats) {
        let outcome = run_protocol(g, SimConfig::congest_for(g), |_| LubyMis::new(), seed);
        assert!(outcome.completed, "Luby must terminate");
        let stats = outcome.stats.clone();
        (outcome.into_outputs(), stats)
    }

    #[test]
    fn isolated_nodes_all_join() {
        let g = congest_graph::GraphBuilder::with_nodes(5).build();
        let (results, stats) = run_luby(&g, 1);
        assert!(results.iter().all(|r| r.is_in_set()));
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn produces_maximal_independent_set_on_families() {
        let mut rng = SmallRng::seed_from_u64(17);
        let graphs = [
            generators::path(17),
            generators::cycle(12),
            generators::star(30),
            generators::complete(9),
            // Wider than 64 ports: the heap-backed flags.
            generators::star(200),
            generators::complete(70),
            generators::gnp(80, 0.1, &mut rng),
            generators::random_regular(60, 5, &mut rng),
            generators::grid(7, 8),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..3 {
                let (results, _) = run_luby(g, 1000 * i as u64 + seed);
                verify_mis(g, &results).unwrap_or_else(|e| panic!("graph {i} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn complete_graph_selects_exactly_one() {
        let g = generators::complete(15);
        let (results, _) = run_luby(&g, 3);
        assert_eq!(results.iter().filter(|r| r.is_in_set()).count(), 1);
    }

    #[test]
    fn respects_congest_budget() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnp(120, 0.05, &mut rng);
        let outcome = run_protocol(&g, SimConfig::congest_for(&g), |_| LubyMis::new(), 2);
        assert_eq!(outcome.stats.budget_violations, 0);
    }

    #[test]
    fn round_count_scales_gently() {
        // Not a formal bound check; ensures the implementation is in the
        // right complexity ballpark (O(log n) phases, 3 rounds each).
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::gnp(400, 0.02, &mut rng);
        let (_, stats) = run_luby(&g, 4);
        assert!(
            stats.rounds <= 3 * 40,
            "rounds {} should be well below 3·40 for n=400",
            stats.rounds
        );
    }
}
