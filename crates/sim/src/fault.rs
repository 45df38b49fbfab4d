//! Deterministic fault injection: seeded message-drop, duplication,
//! reordering, corruption, node-crash, and restart adversaries.
//!
//! An [`Adversary`] is threaded through [`SimConfig`](crate::SimConfig)
//! and consulted by the engine along several axes:
//!
//! * **message drops** — during the delivery phase, each in-flight
//!   message is dropped with probability [`Adversary::drop_prob`]
//!   (counted in
//!   [`RunStats::adversary_dropped_messages`](crate::RunStats::adversary_dropped_messages));
//! * **duplication** — each delivered message is additionally re-delivered
//!   one round later with probability [`Adversary::dup_prob`] (counted in
//!   [`RunStats::duplicated_messages`](crate::RunStats::duplicated_messages));
//! * **corruption** — each delivered message is garbled in flight with
//!   probability [`Adversary::corrupt_prob`]: the payload's
//!   [`Message::corrupted`](crate::Message::corrupted) hook decides
//!   whether the garbled frame surfaces as a mutated value or is discarded
//!   by the (modeled) transport checksum (counted in
//!   [`RunStats::corrupted_messages`](crate::RunStats::corrupted_messages));
//! * **reordering** — with per-node-per-round probability
//!   [`Adversary::reorder_prob`], a node's inbox row is permuted by a
//!   seeded Fisher–Yates shuffle before the compute phase reads it, so
//!   messages surface out of port order and misattributed to the wrong
//!   neighbor — the classic asynchronous-network hazard;
//! * **node crashes** — at the start of each compute phase (rounds ≥ 1;
//!   every node is guaranteed its `init`), each still-active node
//!   crash-stops with probability [`Adversary::crash_prob`] (counted in
//!   [`RunStats::crashed_nodes`](crate::RunStats::crashed_nodes)).
//!   A crashed node never computes or sends again, produces no output,
//!   and messages addressed to it are dropped exactly like messages to a
//!   halted node — *unless* [`Adversary::restart_after`] is set, in which
//!   case the node rejoins `k` rounds later with **reset protocol state**
//!   (self-stabilization mode; counted in
//!   [`RunStats::restarted_nodes`](crate::RunStats::restarted_nodes));
//! * **topology churn** — at the start of each compute phase (rounds ≥ 1),
//!   each undirected edge flips down/up with probability
//!   [`Adversary::edge_flip_prob`] (a down edge silently eats every
//!   message crossing it; counted in
//!   [`RunStats::edges_flipped`](crate::RunStats::edges_flipped)), each
//!   present node leaves with probability
//!   [`Adversary::node_leave_prob`] (crash-like departure, counted in
//!   [`RunStats::nodes_left`](crate::RunStats::nodes_left)), and each
//!   departed node rejoins with reset protocol state with probability
//!   [`Adversary::node_join_prob`] (counted in
//!   [`RunStats::nodes_joined`](crate::RunStats::nodes_joined)).
//!
//! Every decision is a **pure function** of the adversary seed and the
//! coordinates of the event — `(round, from, to)` for per-message coins,
//! `(round, node)` for crashes and reorders — via SplitMix64 mixing
//! ([`rng::coin`](crate::rng::coin)), never a shared sequential RNG. That
//! makes fault schedules independent of node processing order, of
//! active-list compaction, and of how the parallel executors split nodes
//! across threads: `run` and `run_parallel` see the *same* faults, bit
//! for bit, and re-running with the same seeds reproduces a failure
//! exactly.

use congest_graph::NodeId;

use crate::rng::{coin, mix4};

/// A deterministic fault adversary: seeded message drops, duplication,
/// reordering, corruption, node crashes and restarts.
///
/// With every probability at `0.0` the adversary never fires; the engine
/// additionally special-cases `SimConfig::adversary == None` so the
/// default path stays byte-for-byte the code that the gnp-1000
/// fingerprints pin. Construct with [`Adversary::default`] plus the
/// `with_*` builders (each validates its field), or as a struct literal —
/// literals are re-validated when the config enters the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adversary {
    /// Probability that any single in-flight message is dropped.
    pub drop_prob: f64,
    /// Probability that a delivered message is re-delivered (a duplicate
    /// copy arrives one round after the original).
    pub dup_prob: f64,
    /// Per-node-per-round probability that an inbox row is permuted
    /// before the compute phase reads it.
    pub reorder_prob: f64,
    /// Probability that a delivered message is garbled in flight.
    pub corrupt_prob: f64,
    /// Per-round probability that an active node crash-stops.
    pub crash_prob: f64,
    /// Self-stabilization: a node that crashes in round `r` rejoins with
    /// reset protocol state at round `r + k` (must be ≥ 1). `None` means
    /// crashes are permanent (crash-stop model).
    pub restart_after: Option<usize>,
    /// Per-round probability that any single undirected edge flips its
    /// link state (up → down or down → up). A down edge silently discards
    /// every message crossing it, in either direction.
    pub edge_flip_prob: f64,
    /// Per-round probability that a *departed* node rejoins the network
    /// with reset protocol state (a churn join; requires a prior leave).
    pub node_join_prob: f64,
    /// Per-round probability that a present node leaves the network
    /// (crash-like: it stops computing and messages to it are dropped),
    /// until a join coin readmits it.
    pub node_leave_prob: f64,
    /// Seed of the adversary's private coin stream. Independent of the
    /// protocol seed: the same protocol run can be replayed under many
    /// fault schedules, and vice versa.
    pub seed: u64,
}

impl Default for Adversary {
    /// An adversary that never fires (all probabilities zero, permanent
    /// crashes, seed 0) — the base for struct-update construction.
    fn default() -> Self {
        Adversary {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
            crash_prob: 0.0,
            restart_after: None,
            edge_flip_prob: 0.0,
            node_join_prob: 0.0,
            node_leave_prob: 0.0,
            seed: 0,
        }
    }
}

/// Asserts `p ∈ [0, 1]` (rejecting NaN), naming the offending field.
fn check_prob(field: &str, p: f64) {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "Adversary::{field} = {p} ∉ [0, 1]"
    );
}

impl Adversary {
    /// An adversary that drops each message with probability `p`.
    pub fn message_drops(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_drop_prob(p)
    }

    /// An adversary that duplicates each delivered message with
    /// probability `p` (the copy arrives one round late).
    pub fn message_duplicates(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_dup_prob(p)
    }

    /// An adversary that permutes each node's inbox row with per-round
    /// probability `p`.
    pub fn inbox_reorders(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_reorder_prob(p)
    }

    /// An adversary that garbles each delivered message with
    /// probability `p`.
    pub fn message_corruption(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_corrupt_prob(p)
    }

    /// An adversary that crash-stops each active node with per-round
    /// probability `p`.
    pub fn node_crashes(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_crash_prob(p)
    }

    /// An adversary that flips each undirected edge's link state with
    /// per-round probability `p` (topology churn along the edge axis).
    pub fn edge_flips(p: f64, seed: u64) -> Self {
        Adversary::default().with_seed(seed).with_edge_flip_prob(p)
    }

    /// An adversary under which present nodes leave with per-round
    /// probability `leave` and departed nodes rejoin (reset state) with
    /// per-round probability `join` (topology churn along the node axis).
    pub fn node_churn(join: f64, leave: f64, seed: u64) -> Self {
        Adversary::default()
            .with_seed(seed)
            .with_node_join_prob(join)
            .with_node_leave_prob(leave)
    }

    /// Returns the adversary with the message-drop probability replaced.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        check_prob("drop_prob", p);
        self.drop_prob = p;
        self
    }

    /// Returns the adversary with the duplication probability replaced.
    pub fn with_dup_prob(mut self, p: f64) -> Self {
        check_prob("dup_prob", p);
        self.dup_prob = p;
        self
    }

    /// Returns the adversary with the inbox-reorder probability replaced.
    pub fn with_reorder_prob(mut self, p: f64) -> Self {
        check_prob("reorder_prob", p);
        self.reorder_prob = p;
        self
    }

    /// Returns the adversary with the corruption probability replaced.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        check_prob("corrupt_prob", p);
        self.corrupt_prob = p;
        self
    }

    /// Returns the adversary with the node-crash probability replaced.
    pub fn with_crash_prob(mut self, p: f64) -> Self {
        check_prob("crash_prob", p);
        self.crash_prob = p;
        self
    }

    /// Returns the adversary in self-stabilization mode: crashed nodes
    /// rejoin with reset state after `k ≥ 1` rounds.
    pub fn with_restart_after(mut self, k: usize) -> Self {
        assert!(k >= 1, "Adversary::restart_after = {k} must be ≥ 1");
        self.restart_after = Some(k);
        self
    }

    /// Returns the adversary with the edge-flip probability replaced.
    pub fn with_edge_flip_prob(mut self, p: f64) -> Self {
        check_prob("edge_flip_prob", p);
        self.edge_flip_prob = p;
        self
    }

    /// Returns the adversary with the node-join probability replaced.
    pub fn with_node_join_prob(mut self, p: f64) -> Self {
        check_prob("node_join_prob", p);
        self.node_join_prob = p;
        self
    }

    /// Returns the adversary with the node-leave probability replaced.
    pub fn with_node_leave_prob(mut self, p: f64) -> Self {
        check_prob("node_leave_prob", p);
        self.node_leave_prob = p;
        self
    }

    /// Returns the adversary with the coin seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Re-checks every field (for struct-literal construction); panics
    /// with a message naming the offending field. Called by the engine
    /// when a config carrying this adversary is installed.
    pub fn validate(&self) {
        check_prob("drop_prob", self.drop_prob);
        check_prob("dup_prob", self.dup_prob);
        check_prob("reorder_prob", self.reorder_prob);
        check_prob("corrupt_prob", self.corrupt_prob);
        check_prob("crash_prob", self.crash_prob);
        if let Some(k) = self.restart_after {
            assert!(k >= 1, "Adversary::restart_after = {k} must be ≥ 1");
        }
        check_prob("edge_flip_prob", self.edge_flip_prob);
        check_prob("node_join_prob", self.node_join_prob);
        check_prob("node_leave_prob", self.node_leave_prob);
    }

    /// Whether the adversary can ever fire; the engine skips its hooks
    /// entirely when it cannot.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.crash_prob > 0.0
            || self.has_churn()
    }

    /// Whether any topology-churn coin (edge flips, node joins/leaves)
    /// can fire — the engine runs its per-round churn section only when
    /// this holds.
    pub fn has_churn(&self) -> bool {
        self.edge_flip_prob > 0.0 || self.node_join_prob > 0.0 || self.node_leave_prob > 0.0
    }

    /// Whether any per-message delivery coin (drop / duplicate / corrupt)
    /// can fire — the engine threads the adversary into the delivery hot
    /// path only when this holds.
    pub fn affects_delivery(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.corrupt_prob > 0.0
    }

    /// Whether the message sent `from → to` in `round` is dropped in
    /// flight. Pure in `(seed, round, from, to)`.
    #[inline]
    pub fn drops_message(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        coin(self.seed, DROP_SALT, round as u64, edge_coord(from, to)) < self.drop_prob
    }

    /// Whether the message sent `from → to` in `round` is re-delivered
    /// one round late. Pure in `(seed, round, from, to)`.
    #[inline]
    pub fn duplicates_message(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        if self.dup_prob <= 0.0 {
            return false;
        }
        coin(self.seed, DUP_SALT, round as u64, edge_coord(from, to)) < self.dup_prob
    }

    /// Whether the message sent `from → to` in `round` is garbled in
    /// flight. Pure in `(seed, round, from, to)`.
    #[inline]
    pub fn corrupts_message(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        if self.corrupt_prob <= 0.0 {
            return false;
        }
        coin(self.seed, CORRUPT_SALT, round as u64, edge_coord(from, to)) < self.corrupt_prob
    }

    /// Deterministic entropy word handed to
    /// [`Message::corrupted`](crate::Message::corrupted) when the
    /// corruption coin fires — decides *how* the payload is garbled.
    #[inline]
    pub fn corruption_entropy(&self, round: usize, from: NodeId, to: NodeId) -> u64 {
        mix4(self.seed, ENTROPY_SALT, round as u64, edge_coord(from, to))
    }

    /// Whether node `v`'s inbox row is permuted before the compute phase
    /// of `round` reads it. Pure in `(seed, round, v)`.
    #[inline]
    pub fn reorders_inbox(&self, round: usize, v: NodeId) -> bool {
        if self.reorder_prob <= 0.0 {
            return false;
        }
        coin(self.seed, REORDER_SALT, round as u64, u64::from(v.0)) < self.reorder_prob
    }

    /// The raw coin driving step `i` of the Fisher–Yates shuffle of node
    /// `v`'s inbox in `round` (the engine reduces it mod `i + 1`).
    #[inline]
    pub fn shuffle_coin(&self, round: usize, v: NodeId, i: usize) -> u64 {
        mix4(
            self.seed,
            SHUFFLE_SALT,
            round as u64,
            (u64::from(v.0) << 32) | i as u64,
        )
    }

    /// Whether node `v` crash-stops at the start of `round`. Pure in
    /// `(seed, round, v)`.
    #[inline]
    pub fn crashes(&self, round: usize, v: NodeId) -> bool {
        if self.crash_prob <= 0.0 {
            return false;
        }
        coin(self.seed, CRASH_SALT, round as u64, u64::from(v.0)) < self.crash_prob
    }

    /// Whether the undirected edge `{u, v}` flips its link state at the
    /// start of `round`. Pure in `(seed, round, min(u,v), max(u,v))`, so
    /// both directed views of the edge flip together.
    #[inline]
    pub fn flips_edge(&self, round: usize, u: NodeId, v: NodeId) -> bool {
        if self.edge_flip_prob <= 0.0 {
            return false;
        }
        let (lo, hi) = if u.0 <= v.0 { (u, v) } else { (v, u) };
        coin(self.seed, FLIP_SALT, round as u64, edge_coord(lo, hi)) < self.edge_flip_prob
    }

    /// Whether the present node `v` leaves the network at the start of
    /// `round`. Pure in `(seed, round, v)`.
    #[inline]
    pub fn leaves(&self, round: usize, v: NodeId) -> bool {
        if self.node_leave_prob <= 0.0 {
            return false;
        }
        coin(self.seed, LEAVE_SALT, round as u64, u64::from(v.0)) < self.node_leave_prob
    }

    /// Whether the departed node `v` rejoins the network at the start of
    /// `round`. Pure in `(seed, round, v)`.
    #[inline]
    pub fn rejoins(&self, round: usize, v: NodeId) -> bool {
        if self.node_join_prob <= 0.0 {
            return false;
        }
        coin(self.seed, JOIN_SALT, round as u64, u64::from(v.0)) < self.node_join_prob
    }
}

/// Packs a directed edge into one coin coordinate.
#[inline]
fn edge_coord(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}

/// Domain-separation constants so the coin streams of the different fault
/// axes never collide even for coinciding `(round, coordinate)` pairs.
const DROP_SALT: u64 = 0xD809_5EED_0000_0001;
const CRASH_SALT: u64 = 0xC7A5_45EE_D000_0002;
const DUP_SALT: u64 = 0xD0B1_1CA7_E000_0003;
const CORRUPT_SALT: u64 = 0xC0FF_EE00_0000_0004;
const ENTROPY_SALT: u64 = 0xE47B_0BEE_5000_0005;
const REORDER_SALT: u64 = 0x5EC0_0D20_0000_0006;
const SHUFFLE_SALT: u64 = 0x5837_FF1E_0000_0007;
const FLIP_SALT: u64 = 0xF11F_ED6E_0000_000A;
const LEAVE_SALT: u64 = 0x1EA7_E5C4_0000_000B;
const JOIN_SALT: u64 = 0x901B_ACC0_0000_000C;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coins_are_deterministic_and_seed_sensitive() {
        let a = Adversary::message_drops(0.5, 7);
        let b = Adversary::message_drops(0.5, 8);
        let mut diverged = false;
        for round in 0..64 {
            let (x, y) = (NodeId(round as u32), NodeId(round as u32 + 1));
            assert_eq!(
                a.drops_message(round, x, y),
                a.drops_message(round, x, y),
                "same seed must replay the same schedule"
            );
            if a.drops_message(round, x, y) != b.drops_message(round, x, y) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must give different schedules");
    }

    #[test]
    fn probabilities_are_honored_at_the_extremes() {
        let never = Adversary::default().with_seed(3);
        let always = Adversary {
            drop_prob: 1.0,
            dup_prob: 1.0,
            reorder_prob: 1.0,
            corrupt_prob: 1.0,
            crash_prob: 1.0,
            restart_after: None,
            edge_flip_prob: 1.0,
            node_join_prob: 1.0,
            node_leave_prob: 1.0,
            seed: 3,
        };
        assert!(!never.is_active());
        assert!(!never.affects_delivery());
        assert!(!never.has_churn());
        assert!(always.is_active());
        assert!(always.affects_delivery());
        assert!(always.has_churn());
        for r in 0..32 {
            let (u, v) = (NodeId(r as u32), NodeId(99));
            assert!(!never.drops_message(r, u, v));
            assert!(!never.duplicates_message(r, u, v));
            assert!(!never.corrupts_message(r, u, v));
            assert!(!never.reorders_inbox(r, u));
            assert!(!never.crashes(r, u));
            assert!(!never.flips_edge(r, u, v));
            assert!(!never.leaves(r, u));
            assert!(!never.rejoins(r, u));
            assert!(always.drops_message(r, u, v));
            assert!(always.duplicates_message(r, u, v));
            assert!(always.corrupts_message(r, u, v));
            assert!(always.reorders_inbox(r, u));
            assert!(always.crashes(r, u));
            assert!(always.flips_edge(r, u, v));
            assert!(always.leaves(r, u));
            assert!(always.rejoins(r, u));
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let adv = Adversary::message_drops(0.25, 1234);
        let mut hits = 0u32;
        let trials = 20_000;
        for i in 0..trials {
            if adv.drops_message(i as usize % 50, NodeId(i / 50), NodeId(i % 97)) {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(trials);
        assert!(
            (rate - 0.25).abs() < 0.02,
            "empirical drop rate {rate} far from 0.25"
        );
    }

    #[test]
    fn fault_axis_streams_are_pairwise_independent() {
        // Same coordinates, every probability 0.5: no two decision kinds
        // may be the same coin.
        let adv = Adversary {
            drop_prob: 0.5,
            dup_prob: 0.5,
            reorder_prob: 0.5,
            corrupt_prob: 0.5,
            crash_prob: 0.5,
            restart_after: None,
            edge_flip_prob: 0.5,
            node_join_prob: 0.5,
            node_leave_prob: 0.5,
            seed: 42,
        };
        let streams = |r: usize| {
            let v = NodeId(r as u32);
            [
                adv.drops_message(r, v, NodeId(0)),
                adv.duplicates_message(r, v, NodeId(0)),
                adv.corrupts_message(r, v, NodeId(0)),
                adv.reorders_inbox(r, v),
                adv.crashes(r, v),
                adv.flips_edge(r, v, NodeId(0)),
                adv.leaves(r, v),
                adv.rejoins(r, v),
            ]
        };
        const K: usize = 8;
        let mut differs = [[false; K]; K];
        for r in 0..128 {
            let s = streams(r);
            for i in 0..K {
                for j in 0..K {
                    if s[i] != s[j] {
                        differs[i][j] = true;
                    }
                }
            }
        }
        for (i, row) in differs.iter().enumerate() {
            for (j, &diff) in row.iter().enumerate().skip(i + 1) {
                assert!(diff, "fault streams {i} and {j} must be domain-separated");
            }
        }
    }

    #[test]
    fn corruption_entropy_and_shuffle_coins_vary() {
        let adv = Adversary::message_corruption(1.0, 9).with_reorder_prob(1.0);
        assert_ne!(
            adv.corruption_entropy(1, NodeId(0), NodeId(1)),
            adv.corruption_entropy(2, NodeId(0), NodeId(1))
        );
        assert_ne!(
            adv.shuffle_coin(1, NodeId(0), 0),
            adv.shuffle_coin(1, NodeId(0), 1)
        );
        assert_eq!(
            adv.shuffle_coin(3, NodeId(7), 2),
            adv.shuffle_coin(3, NodeId(7), 2),
            "shuffle coins are pure"
        );
    }

    #[test]
    fn default_is_inert_and_validates() {
        let d = Adversary::default();
        d.validate();
        assert!(!d.is_active());
        assert_eq!(d.restart_after, None);
    }

    #[test]
    #[should_panic(expected = "Adversary::drop_prob")]
    fn out_of_range_probability_is_rejected() {
        let _ = Adversary::message_drops(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::dup_prob")]
    fn nan_probability_is_rejected() {
        let _ = Adversary::message_duplicates(f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::corrupt_prob")]
    fn negative_probability_is_rejected() {
        let _ = Adversary::message_corruption(-0.1, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::restart_after")]
    fn zero_restart_delay_is_rejected() {
        let _ = Adversary::node_crashes(0.1, 0).with_restart_after(0);
    }

    #[test]
    #[should_panic(expected = "Adversary::reorder_prob")]
    fn struct_literal_is_revalidated() {
        let adv = Adversary {
            reorder_prob: 7.0,
            ..Adversary::default()
        };
        adv.validate();
    }

    #[test]
    fn edge_flips_are_direction_symmetric() {
        // Both directed views of an undirected edge must flip together —
        // the coin is keyed by the sorted endpoint pair.
        let adv = Adversary::edge_flips(0.5, 17);
        let mut fired = false;
        for r in 0..64 {
            let (u, v) = (NodeId(r as u32), NodeId(r as u32 + 5));
            assert_eq!(adv.flips_edge(r, u, v), adv.flips_edge(r, v, u));
            fired |= adv.flips_edge(r, u, v);
        }
        assert!(fired, "p = 0.5 over 64 rounds must flip something");
    }

    #[test]
    fn churn_constructors_set_their_fields() {
        let flips = Adversary::edge_flips(0.25, 5);
        assert_eq!(flips.edge_flip_prob, 0.25);
        assert!(flips.has_churn() && flips.is_active());
        assert!(!flips.affects_delivery(), "flips are not a delivery coin");
        let churn = Adversary::node_churn(0.5, 0.125, 6);
        assert_eq!(churn.node_join_prob, 0.5);
        assert_eq!(churn.node_leave_prob, 0.125);
        assert!(churn.has_churn() && churn.is_active());
    }

    #[test]
    #[should_panic(expected = "Adversary::edge_flip_prob")]
    fn out_of_range_edge_flip_prob_is_rejected() {
        let _ = Adversary::edge_flips(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::node_join_prob")]
    fn nan_node_join_prob_is_rejected() {
        let _ = Adversary::node_churn(f64::NAN, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::node_leave_prob")]
    fn negative_node_leave_prob_is_rejected() {
        let _ = Adversary::node_churn(0.1, -0.1, 0);
    }

    #[test]
    #[should_panic(expected = "Adversary::edge_flip_prob")]
    fn churn_struct_literal_is_revalidated() {
        let adv = Adversary {
            edge_flip_prob: f64::INFINITY,
            ..Adversary::default()
        };
        adv.validate();
    }
}
