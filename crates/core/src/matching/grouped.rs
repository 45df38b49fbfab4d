//! Footnote 5 of Section 2.4: the line-graph local-ratio matching run
//! *directly on `G`* — "equivalent to iteratively running a maximal
//! matching on weight groups in G and performing local ratio steps on the
//! edges of the matching". Each node manages its incident edges, and every
//! round each physical edge carries one `O(log n)`-bit message per
//! direction, so this is a genuine CONGEST implementation of Theorem 2.10
//! (metered for real, not under the Theorem 2.8 cost model). Adjacent
//! edges share an endpoint, which updates both records without messages.
//!
//! Cycle structure (4 rounds):
//! 1. **Announce** — the primary (smaller-id) endpoint of each remaining
//!    edge draws a fresh priority and sends `(layer, prio)`; with the
//!    primary's id as tiebreak, both endpoints hold `(layer, prio, tie)`.
//! 2. **ExcludeMax** — per incident edge `e`, the max tuple among the
//!    *other* remaining edges (one top-two pass answers every port); `e`
//!    wins ⇔ it beats both side-maxima, Algorithm 2's rule on `L(G)`.
//! 3. **ReduceSum** — per edge, the weight of the *other* winners (the
//!    winner total minus its own); both endpoints apply the same
//!    local-ratio step and classify `e` as remaining / candidate / removed.
//! 4. **Resolve** — per candidate, whether its side's wait-set (the edges
//!    still remaining right after it won) has resolved; a candidate with
//!    both sides clear joins the matching, killing the other candidates at
//!    its endpoints. States only move forward, so the set is no list: a
//!    node numbers its candidacies and stamps each set with the count at
//!    its build, and the unresolved members are the remaining edges plus
//!    the candidates numbered after the stamp, counted in one pass.
//!
//! So a node does O(deg) work per round and allocates once, in `init`: one
//! 32-byte slot per port.

use congest_graph::{Graph, Matching, NodeId, ShardPartition};
use congest_sim::{
    bits_for_value, run_protocol, Context, Engine, Inbox, Message, PackedMsg, Port, Protocol,
    RunOutcome, SimConfig, Status,
};
use rand::Rng;

use crate::weights::layer_of_signed;

/// Per-direction, per-round message: one variant per cycle phase.
#[derive(Clone, Debug, PartialEq)]
pub enum GroupedMsg {
    /// Phase 1 (primary → secondary): the edge's layer and priority.
    Announce {
        /// Weight layer of the sender's candidate edge.
        layer: u32,
        /// Random tiebreak priority drawn for this cycle.
        prio: u64,
    },
    /// Phase 2 (both directions): max `(layer, prio, tiebreak)` among the
    /// sender's *other* remaining incident edges, if any.
    ExcludeMax(Option<(u32, u64, u64)>),
    /// Phase 3 (both directions): summed weight of the sender's *other*
    /// incident edges that won this cycle.
    ReduceSum(u64),
    /// Phase 4 (both directions): whether the sender's wait-set for this
    /// candidate edge has fully resolved, and whether the edge was killed
    /// at the sender's side by an adjacent edge joining the matching.
    Resolve {
        /// The sender's wait-set for this edge is fully resolved.
        side_clear: bool,
        /// An adjacent matched edge killed this edge at the sender.
        killed: bool,
    },
}

impl Message for GroupedMsg {
    fn bit_size(&self) -> usize {
        2 + match self {
            GroupedMsg::Announce { layer, prio } => {
                6 + bits_for_value(u64::from(*layer)) + bits_for_value(*prio)
            }
            GroupedMsg::ExcludeMax(Some((layer, prio, tie))) => {
                7 + bits_for_value(u64::from(*layer)) + bits_for_value(*prio) + bits_for_value(*tie)
            }
            GroupedMsg::ExcludeMax(None) => 1,
            GroupedMsg::ReduceSum(x) => bits_for_value(*x),
            GroupedMsg::Resolve { .. } => 2,
        }
    }
}

/// Wire format: 2-bit variant tag in the low bits, then variant fields
/// LSB-first. `ExcludeMax` is the tight one — a presence bit (1), layer
/// (7), prio (26), and tiebreak (28) fill the word exactly, which is why
/// the priority draw is capped at `2²⁶` and the tiebreak (the primary
/// endpoint's node id) asserts `n < 2²⁸`. `Announce` reuses the same
/// layer/prio fields; `ReduceSum` carries its 62-bit sum; `Resolve` packs
/// its two flags.
impl PackedMsg for GroupedMsg {
    const BITS: u32 = 64;

    fn pack(&self) -> u64 {
        match self {
            GroupedMsg::Announce { layer, prio } => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                debug_assert!(*prio < 1 << 26, "priority exceeds the 26-bit wire field");
                (u64::from(*layer) << 2) | (prio << 9)
            }
            GroupedMsg::ExcludeMax(None) => 1,
            GroupedMsg::ExcludeMax(Some((layer, prio, tie))) => {
                debug_assert!(*layer < 1 << 7, "layer exceeds the 7-bit wire field");
                debug_assert!(*prio < 1 << 26, "priority exceeds the 26-bit wire field");
                assert!(*tie < 1 << 28, "tiebreak id exceeds the 28-bit wire field");
                1 | (1 << 2) | (u64::from(*layer) << 3) | (prio << 10) | (tie << 36)
            }
            GroupedMsg::ReduceSum(x) => {
                assert!(*x < 1 << 62, "reduce sum exceeds the 62-bit wire field");
                2 | (x << 2)
            }
            GroupedMsg::Resolve { side_clear, killed } => {
                3 | (u64::from(*side_clear) << 2) | (u64::from(*killed) << 3)
            }
        }
    }

    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            0 => GroupedMsg::Announce {
                layer: ((word >> 2) & 0x7f) as u32,
                prio: word >> 9,
            },
            1 => {
                if word >> 2 & 1 == 0 {
                    GroupedMsg::ExcludeMax(None)
                } else {
                    GroupedMsg::ExcludeMax(Some((
                        ((word >> 3) & 0x7f) as u32,
                        (word >> 10) & ((1 << 26) - 1),
                        word >> 36,
                    )))
                }
            }
            2 => GroupedMsg::ReduceSum(word >> 2),
            _ => GroupedMsg::Resolve {
                side_clear: (word >> 2) & 1 == 1,
                killed: (word >> 3) & 1 == 1,
            },
        }
    }
}

/// Status of an incident edge as tracked by an endpoint. States only
/// move forward: `Remaining` → `Candidate` → `Matched` or `Dead`, or
/// `Remaining` → `Dead`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EdgeState {
    /// Still in the local-ratio graph.
    Remaining,
    /// Won a reduction cycle; waiting to enter the matching.
    Candidate,
    /// In the final matching.
    Matched,
    /// Removed (weight exhausted or adjacent edge matched).
    Dead,
}

/// Width of the tiebreak (node id) field of a [`key`].
const TIE_BITS: u32 = 28;
/// Width of the priority field of a [`key`].
const PRIO_BITS: u32 = 26;
const TIE_MASK: u64 = (1 << TIE_BITS) - 1;

/// Packs a competition tuple `(layer, prio, tie)` into one word whose
/// integer order is the tuple's lexicographic order. The fields are the
/// wire format's: layer 7 bits, prio 26, tie 28 — so node ids must stay
/// below `2²⁸`.
fn key(layer: u32, prio: u64, tie: u64) -> u64 {
    debug_assert!(layer < 1 << 7, "layer exceeds its 7-bit field");
    debug_assert!(prio < 1 << PRIO_BITS, "priority exceeds its field");
    assert!(tie <= TIE_MASK, "tiebreak id exceeds its field: n ≥ 2²⁸");
    u64::from(layer) << (PRIO_BITS + TIE_BITS) | prio << TIE_BITS | tie
}

/// The tuple a [`key`] packs.
fn tuple(key: u64) -> (u32, u64, u64) {
    (
        (key >> (PRIO_BITS + TIE_BITS)) as u32,
        (key >> TIE_BITS) & ((1 << PRIO_BITS) - 1),
        key & TIE_MASK,
    )
}

/// This node is the edge's primary (smaller-id) endpoint.
const PRIMARY: u8 = 1;
/// The edge won the current cycle.
const WON: u8 = 1 << 1;
/// An adjacent edge (at either endpoint) matched, killing this candidate.
const KILLED: u8 = 1 << 2;
/// The remote side reported its wait-set clear.
const REMOTE_CLEAR: u8 = 1 << 3;
/// This side's wait-set had unresolved edges at the last prune.
const WAITING: u8 = 1 << 4;

/// An endpoint's record of one incident edge: 32 bytes, no heap.
#[derive(Copy, Clone, Debug)]
struct EdgeSlot {
    /// Competition tuple for the current cycle, as a [`key`].
    key: u64,
    /// Running local-ratio weight (kept identical at both endpoints).
    w: i64,
    /// When the edge became a candidate, on the node's candidacy count.
    joined: u32,
    /// The node's candidacy count when this side's wait-set was built.
    stamp: u32,
    state: EdgeState,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<EdgeSlot>() <= 32);

impl EdgeSlot {
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// The weight this edge adds to its endpoint's winner total.
    fn won_weight(&self) -> u64 {
        if self.has(WON) {
            self.w as u64
        } else {
            0
        }
    }
}

/// Node protocol for the grouped (footnote-5) matching. Output: this
/// node's matched `(port, mate)`, if any — the port names the edge
/// directly, so assembly is an O(1) port-indexed lookup per node instead
/// of a binary-search probe.
pub struct GroupedLrMatching {
    /// One slot per port, allocated in `init`.
    slots: Box<[EdgeSlot]>,
    /// Edges that have become candidates at this node so far: the clock
    /// behind [`EdgeSlot::joined`] and [`EdgeSlot::stamp`].
    candidacies: u32,
}

impl GroupedLrMatching {
    fn new() -> Self {
        GroupedLrMatching {
            slots: Box::default(),
            candidacies: 0,
        }
    }

    /// The largest key among remaining edges with its port, and the
    /// largest among the remaining edges other than that port (which
    /// ties the first when two edges share the top key).
    fn top_two(&self) -> (Option<(Port, u64)>, Option<u64>) {
        let mut best: Option<(Port, u64)> = None;
        let mut second = None;
        for (p, s) in self.slots.iter().enumerate() {
            if s.state != EdgeState::Remaining {
                continue;
            }
            match best {
                Some((_, b)) if s.key <= b => second = second.max(Some(s.key)),
                _ => {
                    second = best.map(|(_, b)| b);
                    best = Some((p, s.key));
                }
            }
        }
        (best, second)
    }

    /// Max key among remaining incident edges other than `skip`, from
    /// [`top_two`](Self::top_two).
    fn exclude_max(top: (Option<(Port, u64)>, Option<u64>), skip: Port) -> Option<u64> {
        match top {
            (Some((p, _)), second) if p == skip => second,
            (best, _) => best.map(|(_, b)| b),
        }
    }

    /// Sum of winner weights over every incident edge, wrapping as the
    /// 64-bit word does; an edge's share of its neighbours' wins is this
    /// total minus its own [`EdgeSlot::won_weight`].
    fn winner_total(&self) -> u64 {
        self.slots
            .iter()
            .fold(0u64, |t, s| t.wrapping_add(s.won_weight()))
    }
}

impl Protocol for GroupedLrMatching {
    type Msg = GroupedMsg;
    type Output = Option<(u32, NodeId)>;

    fn init(&mut self, ctx: &mut Context<'_, GroupedMsg>) {
        let id = ctx.id();
        self.slots = (0..ctx.degree())
            .map(|p| EdgeSlot {
                key: 0,
                w: ctx.edge_weight(p) as i64,
                joined: 0,
                stamp: 0,
                state: EdgeState::Remaining,
                flags: if id < ctx.neighbor(p) { PRIMARY } else { 0 },
            })
            .collect();
    }

    fn round(
        &mut self,
        ctx: &mut Context<'_, GroupedMsg>,
        inbox: Inbox<'_, GroupedMsg>,
    ) -> Status<Option<(u32, NodeId)>> {
        match (ctx.round() - 1) % 4 {
            0 => {
                // The resolve handshake of the previous cycle's phase 4
                // lands here: fold it in before announcing.
                for (port, msg) in inbox {
                    if let GroupedMsg::Resolve { side_clear, killed } = msg {
                        let s = &mut self.slots[port];
                        s.flags |= if killed { KILLED } else { 0 };
                        s.flags |= if side_clear { REMOTE_CLEAR } else { 0 };
                    }
                }
                // Phase 1 — announce: primaries draw priorities, capped at
                // the wire format's 26-bit field. The tiebreak is the
                // primary's id, which the secondary reads off the direction
                // the announcement arrives from. It is not unique per edge:
                // two edges of one primary that draw the same layer and
                // priority tie, and neither wins this cycle.
                let n = ctx.info().n.max(2) as u64;
                let domain = n.saturating_mul(n).saturating_mul(n).min(1 << PRIO_BITS);
                let own = u64::from(ctx.id().0);
                for p in 0..self.slots.len() {
                    let s = self.slots[p];
                    if s.state != EdgeState::Remaining || !s.has(PRIMARY) {
                        continue;
                    }
                    // A remaining edge without a layer has no weight left:
                    // it draws nothing, and phase 4 classifies it.
                    let Some(layer) = layer_of_signed(s.w) else {
                        continue;
                    };
                    let prio = ctx.rng().random_range(0..domain);
                    self.slots[p].key = key(layer, prio, own);
                    ctx.send(p, GroupedMsg::Announce { layer, prio });
                }
                Status::Active
            }
            1 => {
                // Phase 2 — record announcements, exchange exclude-maxima.
                for (port, msg) in inbox {
                    if let GroupedMsg::Announce { layer, prio } = msg {
                        let tie = u64::from(ctx.neighbor(port).0);
                        self.slots[port].key = key(layer, prio, tie);
                    }
                }
                // Primaries set their own tiebreak the same way, also on
                // edges that announced nothing, so both sides compare
                // identical tuples.
                let own = u64::from(ctx.id().0);
                for s in self.slots.iter_mut() {
                    if s.state == EdgeState::Remaining && s.has(PRIMARY) {
                        s.key = s.key & !TIE_MASK | own;
                    }
                }
                let top = self.top_two();
                for p in 0..self.slots.len() {
                    if self.slots[p].state == EdgeState::Remaining {
                        let ex = Self::exclude_max(top, p).map(tuple);
                        ctx.send(p, GroupedMsg::ExcludeMax(ex));
                    }
                }
                Status::Active
            }
            2 => {
                // Phase 3 — decide wins, exchange reduction sums.
                let top = self.top_two();
                for (p, msg) in inbox {
                    if let GroupedMsg::ExcludeMax(remote) = msg {
                        let s = &mut self.slots[p];
                        if s.state != EdgeState::Remaining {
                            continue;
                        }
                        let mine = Self::exclude_max(top, p);
                        let remote = remote.map(|(l, pr, t)| key(l, pr, t));
                        let won =
                            mine.is_none_or(|m| s.key > m) && remote.is_none_or(|r| s.key > r);
                        s.set(WON, won);
                    }
                }
                let total = self.winner_total();
                for p in 0..self.slots.len() {
                    let s = self.slots[p];
                    if s.state == EdgeState::Remaining {
                        let sum = total.wrapping_sub(s.won_weight());
                        ctx.send(p, GroupedMsg::ReduceSum(sum));
                    }
                }
                Status::Active
            }
            _ => {
                // Phase 4 — apply reductions symmetrically, classify, and
                // run the resolve handshake for candidates. A loser's
                // local sum is the whole winner total; winners keep
                // their weight until they turn candidate.
                let total = self.winner_total();
                for (p, msg) in inbox {
                    if let GroupedMsg::ReduceSum(remote_sum) = msg {
                        let s = &mut self.slots[p];
                        if s.state == EdgeState::Remaining && !s.has(WON) {
                            s.w -= (total + remote_sum) as i64;
                        }
                    }
                }
                // Classification after reductions, counting what a wait-set
                // can still hold: remaining edges, and the newest candidacy.
                let mut remaining = 0usize;
                let mut newest = 0u32;
                for s in self.slots.iter_mut() {
                    if s.state == EdgeState::Remaining {
                        if s.has(WON) {
                            s.state = EdgeState::Candidate;
                            s.set(WON, false);
                            s.w = 0;
                            self.candidacies += 1;
                            s.joined = self.candidacies;
                        } else if s.w <= 0 {
                            s.state = EdgeState::Dead;
                        }
                    }
                    match s.state {
                        EdgeState::Remaining => remaining += 1,
                        EdgeState::Candidate => newest = newest.max(s.joined),
                        EdgeState::Matched | EdgeState::Dead => {}
                    }
                }
                // Per candidate: build its wait-set right after it wins
                // (or, on fault paths, when an announcement rewrote the key
                // of a candidate whose set had cleared), prune it, and
                // match it once both sides are clear.
                let mut matched = false;
                for s in self.slots.iter_mut() {
                    if s.state != EdgeState::Candidate {
                        continue;
                    }
                    if !s.has(WAITING) && !s.has(KILLED) && s.w == 0 && s.key != 0 {
                        s.stamp = self.candidacies;
                        s.key = 0; // build once
                        s.set(WAITING, true);
                    }
                    // The set built at `stamp` holds the edges remaining
                    // then; those still unresolved are every remaining edge
                    // and every candidate that joined after `stamp`.
                    if s.has(WAITING) && remaining == 0 && newest <= s.stamp {
                        s.set(WAITING, false);
                    }
                    if s.has(KILLED) {
                        s.state = EdgeState::Dead;
                    } else if !s.has(WAITING) && s.has(REMOTE_CLEAR) {
                        s.state = EdgeState::Matched;
                        matched = true;
                    }
                }
                // A match kills every other live edge here (locally), then
                // the resolve handshake goes out for the next cycle.
                let mut done = true;
                let mut mate = None;
                for p in 0..self.slots.len() {
                    let s = &mut self.slots[p];
                    if matched && matches!(s.state, EdgeState::Remaining | EdgeState::Candidate) {
                        s.flags |= KILLED;
                        if s.state == EdgeState::Remaining {
                            s.state = EdgeState::Dead;
                        }
                    }
                    let msg = match s.state {
                        EdgeState::Remaining => {
                            done = false;
                            continue;
                        }
                        EdgeState::Candidate => {
                            done = false;
                            GroupedMsg::Resolve {
                                side_clear: !s.has(WAITING),
                                killed: s.has(KILLED),
                            }
                        }
                        EdgeState::Matched => {
                            mate.get_or_insert(p);
                            GroupedMsg::Resolve {
                                side_clear: true,
                                killed: false,
                            }
                        }
                        // One last notification so the far endpoint can
                        // settle its own records; harmless if repeated
                        // (idempotent).
                        EdgeState::Dead => GroupedMsg::Resolve {
                            side_clear: false,
                            killed: s.has(KILLED),
                        },
                    };
                    ctx.send(p, msg);
                }
                if done {
                    return Status::Halt(mate.map(|p| (p as u32, ctx.neighbor(p))));
                }
                Status::Active
            }
        }
    }
}

/// Driver: runs the grouped protocol and assembles the matching.
///
/// Note: this is the *engineering* variant recorded for completeness and
/// congestion honesty; the reference implementation of Theorem 2.10 (the
/// one the approximation tests certify) is
/// [`mwm_lr_randomized`](super::mwm_lr_randomized). This variant's
/// matching is validated for feasibility/maximality and approximate
/// quality in its tests.
pub fn mwm_grouped(g: &Graph, seed: u64) -> super::LrMatchingRun {
    let config = SimConfig::congest_for(g).with_max_rounds(64 * g.num_nodes() + 256);
    let (run, completed) = mwm_grouped_with(g, config, seed);
    assert!(completed, "grouped matching failed to terminate");
    run
}

/// Like [`mwm_grouped`] but under a caller-supplied [`SimConfig`] — the
/// conformance harness threads fault adversaries and round caps through
/// here. The matching is assembled from **mutually confirmed** mates
/// only, so nodes silenced by crashes, injected message loss, or the
/// round cap degrade to "unmatched" instead of corrupting the matching:
/// whatever subset of nodes answers, the result is a valid matching by
/// construction. On a fault-free completed run the mutual filter is a
/// no-op (the protocol's mate claims are always reciprocal), so this is
/// exactly [`mwm_grouped`]'s assembly. Returns the run plus whether every
/// node halted normally.
pub fn mwm_grouped_with(g: &Graph, config: SimConfig, seed: u64) -> (super::LrMatchingRun, bool) {
    let outcome = run_protocol(g, config, |_| GroupedLrMatching::new(), seed);
    finish_grouped_run(g, &outcome)
}

/// [`mwm_grouped_with`] on the engine's deterministic parallel executor:
/// same protocol, same assembly, bit-identical matching for a given
/// `(graph, config, seed)` — the repair harness uses this to certify that
/// incremental re-matching is executor-independent.
pub fn mwm_grouped_with_parallel(
    g: &Graph,
    config: SimConfig,
    seed: u64,
) -> (super::LrMatchingRun, bool) {
    let outcome = Engine::build(g, config, |_| GroupedLrMatching::new()).run_parallel(seed);
    finish_grouped_run(g, &outcome)
}

/// [`mwm_grouped_with`] on the engine's sharded executor
/// ([`Engine::run_sharded`]): same protocol, same assembly, bit-identical
/// matching for a given `(graph, config, seed)` under *any* partition.
/// The extra return value is the number of delivered messages that
/// crossed a shard boundary — the coordinator↔worker traffic a sharded
/// matching service pays for this request.
pub fn mwm_grouped_with_sharded(
    g: &Graph,
    config: SimConfig,
    seed: u64,
    partition: &ShardPartition,
) -> (super::LrMatchingRun, bool, u64) {
    let sharded =
        Engine::build(g, config, |_| GroupedLrMatching::new()).run_sharded(seed, partition);
    let (run, completed) = finish_grouped_run(g, &sharded.outcome);
    (run, completed, sharded.cross_shard_messages)
}

fn finish_grouped_run(
    g: &Graph,
    outcome: &RunOutcome<Option<(u32, NodeId)>>,
) -> (super::LrMatchingRun, bool) {
    let completed = outcome.completed;
    let stats = outcome.stats.clone();
    let mut matching = assemble_matching(g, &outcome.outputs);
    if completed {
        // Maximality repair (see `augment_to_maximal`): weight exhaustion
        // can leave two adjacent nodes unmatched under non-unit weights.
        // Only on completed runs — a fault-degraded run keeps its
        // degrade-to-unmatched semantics.
        super::augment_to_maximal(g, &mut matching);
        debug_assert!(matching.is_maximal(g), "augmented matching must be maximal");
    }
    let run = super::LrMatchingRun {
        matching,
        line_rounds: stats.rounds,
        physical_rounds: stats.rounds,
        stats,
    };
    (run, completed)
}

/// Assembles mutually confirmed `(port, mate)` claims into a matching.
/// The port names the matched edge directly (`neighbor_edges[port]`), so
/// each node costs O(1) instead of a `find_edge` binary search. Under
/// duplicated/reordered confirmations a node can halt on a stale claim
/// whose port no longer points at the mate it last negotiated; anything
/// failing the port-consistency + disjointness check is skipped so every
/// surviving subset still assembles into a valid matching.
fn assemble_matching(g: &Graph, outputs: &[Option<Option<(u32, NodeId)>>]) -> Matching {
    let mut matching = Matching::new(g);
    for v in g.nodes() {
        if let Some(Some((port, mate))) = outputs[v.index()] {
            let mutual =
                matches!(outputs[mate.index()], Some(Some((_, back))) if back == v && v < mate);
            if !mutual {
                continue;
            }
            let port = port as usize;
            let ids = g.neighbor_ids(v);
            if port < ids.len() && ids[port] == mate {
                let _ = matching.try_insert(g, g.neighbor_edges(v)[port]);
            }
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_exact::max_weight_matching_oracle;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn produces_valid_matchings() {
        let mut rng = SmallRng::seed_from_u64(150);
        for trial in 0..5 {
            let mut g = generators::gnp(30, 0.15, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let run = mwm_grouped(&g, 1000 + trial);
            assert!(run.matching.is_valid(&g), "trial {trial}");
            assert_eq!(
                run.stats.budget_violations, 0,
                "trial {trial}: CONGEST violated"
            );
        }
    }

    #[test]
    fn matchings_are_maximal() {
        // Unit weights (historic coverage) PLUS uniform / zipf /
        // adversarial weight distributions — the regression for the
        // weight-exhaustion maximality gap: under non-unit weights,
        // local-ratio reductions can kill every edge at a node without
        // matching it, leaving adjacent unmatched nodes. The augmentation
        // pass in `finish_grouped_run` must close that gap on every
        // distribution.
        let mut rng = SmallRng::seed_from_u64(151);
        for trial in 0..5u64 {
            for dist in ["unit", "uniform", "zipf", "adversarial"] {
                let mut g = generators::random_regular(40, 4, &mut rng);
                crate::matching::tests::apply_weight_distribution(&mut g, dist, 151 + trial);
                let run = mwm_grouped(&g, 2000 + trial);
                assert!(
                    run.matching.is_maximal(&g),
                    "trial {trial}: grouped matching not maximal under {dist} weights"
                );
                assert!(run.matching.is_valid(&g), "trial {trial} ({dist})");
            }
        }
    }

    #[test]
    fn quality_close_to_two_approx_in_practice() {
        let mut rng = SmallRng::seed_from_u64(152);
        for trial in 0..5 {
            let mut g = generators::random_bipartite(10, 10, 0.3, &mut rng);
            generators::randomize_edge_weights(&mut g, 128, &mut rng);
            if g.num_edges() == 0 {
                continue;
            }
            let opt = max_weight_matching_oracle(&g)
                .expect("bipartite")
                .weight(&g);
            let run = mwm_grouped(&g, 3000 + trial);
            let alg = run.matching.weight(&g).max(1);
            assert!(
                2 * alg >= opt,
                "trial {trial}: grouped matching {alg} vs opt {opt}"
            );
        }
    }

    #[test]
    fn heavy_edge_path() {
        let mut b = congest_graph::GraphBuilder::with_nodes(4);
        b.add_weighted_edge(0.into(), 1.into(), 3);
        b.add_weighted_edge(1.into(), 2.into(), 10);
        b.add_weighted_edge(2.into(), 3.into(), 3);
        let g = b.build();
        let run = mwm_grouped(&g, 5);
        assert_eq!(run.matching.weight(&g), 10);
    }

    #[test]
    fn single_edge() {
        let g = generators::path(2);
        let run = mwm_grouped(&g, 1);
        assert_eq!(run.matching.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = congest_graph::GraphBuilder::with_nodes(3).build();
        let run = mwm_grouped(&g, 1);
        assert!(run.matching.is_empty());
    }

    #[test]
    fn assembly_tolerates_duplicated_and_reordered_confirmations() {
        // Regression for the mutual-confirmation assembly: pin a schedule
        // that both duplicates messages (so confirmations arrive twice,
        // one round late) and reorders inboxes. The assembly used to
        // `expect` adjacency and `insert` unconditionally; it must instead
        // degrade unmatched nodes gracefully and always return a valid
        // matching, identically across replays and executors.
        use congest_sim::Adversary;
        let mut rng = SmallRng::seed_from_u64(153);
        for trial in 0..4 {
            let mut g = generators::gnp(28, 0.18, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let adv = Adversary::default()
                .with_seed(0xD0_0D + trial)
                .with_dup_prob(0.3)
                .with_reorder_prob(0.5);
            let config = SimConfig::congest_for(&g)
                .with_max_rounds(64 * g.num_nodes() + 256)
                .with_adversary(adv);
            let (a, _) = mwm_grouped_with(&g, config.clone(), 7 + trial);
            assert!(
                a.stats.duplicated_messages > 0,
                "trial {trial}: the duplicating schedule must fire"
            );
            assert!(
                a.matching.is_valid(&g),
                "trial {trial}: assembly under duplication must stay valid"
            );
            let (b, _) = mwm_grouped_with(&g, config, 7 + trial);
            assert_eq!(
                a.matching.weight(&g),
                b.matching.weight(&g),
                "trial {trial}: duplicated schedules must replay"
            );
            assert_eq!(a.stats, b.stats, "trial {trial}");
        }
    }

    #[test]
    fn parallel_executor_matches_sequential_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(154);
        for trial in 0..4 {
            let mut g = generators::gnp(32, 0.15, &mut rng);
            generators::randomize_edge_weights(&mut g, 64, &mut rng);
            let config = SimConfig::congest_for(&g).with_max_rounds(64 * g.num_nodes() + 256);
            let (seq, seq_done) = mwm_grouped_with(&g, config.clone(), 40 + trial);
            let (par, par_done) = mwm_grouped_with_parallel(&g, config, 40 + trial);
            assert_eq!(seq_done, par_done, "trial {trial}");
            assert_eq!(
                seq.matching.edges(&g).collect::<Vec<_>>(),
                par.matching.edges(&g).collect::<Vec<_>>(),
                "trial {trial}: executors must agree on the matching"
            );
            assert_eq!(seq.stats, par.stats, "trial {trial}");
        }
    }

    #[test]
    fn port_indexed_assembly_survives_repeated_endpoint_delta_batches() {
        // Regression for the port-indexed assembly: batches of deltas that
        // hammer the *same* endpoints (insert/remove around one hub node,
        // then compact) permute neighbor lists and renumber ports between
        // the prior graph and the compacted one. Re-running the matching
        // on the compacted graph must still assemble a valid maximal
        // matching, and the port lookup must agree with a `find_edge`
        // sweep edge-for-edge.
        use congest_graph::DeltaGraph;
        let mut rng = SmallRng::seed_from_u64(155);
        for trial in 0..4u64 {
            let mut base = generators::gnp(24, 0.2, &mut rng);
            generators::randomize_edge_weights(&mut base, 32, &mut rng);
            let mut dg = DeltaGraph::new(base);
            let hub = NodeId::from(0u32);
            // Repeatedly churn edges incident to the same hub endpoint.
            for other in 1..12u32 {
                let v = NodeId::from(other);
                if dg.has_edge(hub, v) {
                    dg.remove_edge(hub, v);
                    dg.insert_edge(hub, v, 7 + trial);
                } else {
                    dg.insert_edge(hub, v, 7 + trial);
                    dg.remove_edge(hub, v);
                    dg.insert_edge(hub, v, 9 + trial);
                }
            }
            let g = dg.compact();
            let config = SimConfig::congest_for(&g).with_max_rounds(64 * g.num_nodes() + 256);
            let outcome = run_protocol(&g, config, |_| GroupedLrMatching::new(), 60 + trial);
            assert!(outcome.completed, "trial {trial}");
            let matching = assemble_matching(&g, &outcome.outputs);
            assert!(matching.is_valid(&g), "trial {trial}");
            assert!(
                !matching.is_empty(),
                "trial {trial}: matching must be non-trivial"
            );
            // The port lookup must name exactly the edge find_edge names,
            // so the port-indexed assembly reproduces the probe-based one.
            let mut probe_assembled = Matching::new(&g);
            for v in g.nodes() {
                if let Some(Some((port, mate))) = outcome.outputs[v.index()] {
                    assert_eq!(
                        g.neighbor_edges(v)[port as usize],
                        g.find_edge(v, mate).expect("mate must be adjacent"),
                        "trial {trial}: port lookup diverged from find_edge at {v:?}"
                    );
                    let mutual = matches!(
                        outcome.outputs[mate.index()], Some(Some((_, back))) if back == v && v < mate
                    );
                    if mutual {
                        let e = g.find_edge(v, mate).unwrap();
                        let _ = probe_assembled.try_insert(&g, e);
                    }
                }
            }
            assert_eq!(
                matching.edges(&g).collect::<Vec<_>>(),
                probe_assembled.edges(&g).collect::<Vec<_>>(),
                "trial {trial}: port-indexed assembly must match the probe-based assembly"
            );
        }
    }
}
