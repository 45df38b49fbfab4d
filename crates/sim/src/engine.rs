use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{Graph, NodeId, ShardPartition};
use rand::rngs::SmallRng;

use crate::context::Meter;
use crate::message::bits_for_count;
use crate::rng::{node_rng, phase_seed};
use crate::sched::AsyncScheduler;
use crate::{Adversary, Context, Inbox, Message, NodeInfo, PackedMsg, Protocol, Status};

/// Phase tag mixed into the master seed for the RNG of a *restarted* node
/// (self-stabilization mode), so its post-restart coin stream is fresh —
/// independent of its pre-crash stream and of every other node's.
const RESTART_STREAM_SALT: u64 = 0x8E57_A87E_D000_0009;

/// Phase tag mixed into the master seed for the RNG of a node *rejoining*
/// after a churn departure ([`Adversary::node_join_prob`]), keyed by the
/// rejoin round — same construction as [`RESTART_STREAM_SALT`], on a
/// separate stream so churn joins and crash restarts never share coins.
const CHURN_STREAM_SALT: u64 = 0xC409_11ED_0000_000D;

/// Simulation configuration: model (bit budget) and safety limits.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-message bit budget; `None` simulates the LOCAL model
    /// (unbounded messages). Budget overruns are *recorded*, not fatal —
    /// see [`RunStats::budget_violations`].
    pub bit_budget: Option<usize>,
    /// Hard cap on the number of rounds; nodes still active afterwards
    /// produce `None` outputs and [`RunOutcome::completed`] is false.
    pub max_rounds: usize,
    /// Record every message as a [`MessageTrace`] (memory-hungry; meant
    /// for congestion analyses on small graphs). Tracing forces the
    /// delivery phase onto one thread, walking senders in ascending node-id
    /// order — the order of the engine's sender list — so trace order is
    /// reproducible.
    pub record_traces: bool,
    /// Deterministic fault adversary (seeded message drops, duplication,
    /// reordering, corruption, and node crashes with optional restart;
    /// see [`Adversary`]). `None` — the default everywhere — is the
    /// fault-free engine the gnp-1000 fingerprints pin bit-identical;
    /// the adversary's coin stream is keyed by its own seed, so enabling
    /// it never perturbs the protocol's RNG draws.
    pub adversary: Option<Adversary>,
    /// Seeded asynchronous scheduler (see [`AsyncScheduler`]): each
    /// delivered message gains a deterministic per-edge extra delay.
    /// `None` — and any scheduler with `max_delay() == 0` — is the
    /// synchronous engine, bit-identical to the fingerprinted path.
    pub scheduler: Option<AsyncScheduler>,
}

impl SimConfig {
    /// CONGEST configuration for graph `g`: per-message budget of
    /// `8·(⌈log₂ n⌉ + max(⌈log₂ W⌉, ⌈log₂ n⌉))` bits, the usual reading of
    /// "a constant number of ids and weights per message" with weights
    /// polynomial in `n`.
    pub fn congest_for(g: &Graph) -> Self {
        let id_bits = bits_for_count(g.num_nodes().max(2));
        let weight_bits =
            crate::bits_for_value(g.max_node_weight().max(g.max_edge_weight())).max(id_bits);
        SimConfig {
            bit_budget: Some(8 * (id_bits + weight_bits)),
            max_rounds: 1_000_000,
            record_traces: false,
            adversary: None,
            scheduler: None,
        }
    }

    /// LOCAL configuration: unbounded message size.
    pub fn local() -> Self {
        SimConfig {
            bit_budget: None,
            max_rounds: 1_000_000,
            record_traces: false,
            adversary: None,
            scheduler: None,
        }
    }

    /// Returns the configuration with a different round cap.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Returns the configuration with message tracing enabled.
    pub fn with_traces(mut self) -> Self {
        self.record_traces = true;
        self
    }

    /// Returns the configuration with the given fault adversary enabled.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        adversary.validate();
        self.adversary = Some(adversary);
        self
    }

    /// Returns the configuration with the given asynchronous scheduler
    /// enabled.
    pub fn with_scheduler(mut self, scheduler: AsyncScheduler) -> Self {
        scheduler.validate();
        self.scheduler = Some(scheduler);
        self
    }

    /// Re-checks adversary and scheduler parameters (for struct-literal
    /// construction), panicking with a message that names the offending
    /// field. [`Engine::build`] calls this, so no run can start on
    /// silently mis-coining NaN or out-of-range probabilities.
    pub fn validate(&self) {
        if let Some(adv) = &self.adversary {
            adv.validate();
        }
        if let Some(sched) = &self.scheduler {
            sched.validate();
        }
    }
}

/// One recorded message (requires [`SimConfig::record_traces`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageTrace {
    /// Round in which the message was *sent*.
    pub round: usize,
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Message size in bits.
    pub bits: usize,
}

/// Aggregate statistics of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds executed (excluding `init`).
    pub rounds: usize,
    /// Total messages sent (including ones dropped at halted receivers).
    pub total_messages: u64,
    /// Largest message sent, in bits ([`Message::bit_size`]). A message
    /// is metered when it is sent, by its sender's [`Context`], so a
    /// message lost in flight still counts, and a send that wrote no
    /// port does not.
    pub max_message_bits: usize,
    /// Messages exceeding the configured bit budget, metered when sent
    /// like [`max_message_bits`](Self::max_message_bits): a broadcast
    /// over the budget counts once per port it wrote.
    pub budget_violations: u64,
    /// Messages whose receiver was *dead* — halted, or crash-stopped by
    /// the [`Adversary`] — in the sending round or earlier. Round
    /// semantics are order-independent: a message sent in round `r` is
    /// dropped iff its receiver died in some round `≤ r`, regardless of
    /// the relative node ids of sender and receiver.
    pub dropped_messages: u64,
    /// Messages to *live* receivers dropped in flight by the configured
    /// [`Adversary`] (always 0 when [`SimConfig::adversary`] is `None`).
    /// Counted separately from
    /// [`dropped_messages`](Self::dropped_messages), so in-flight
    /// injected losses stay distinguishable from dead-receiver losses
    /// (note that on crash-adversary runs the latter still includes
    /// crash-induced drops — check
    /// [`crashed_nodes`](Self::crashed_nodes) to attribute them).
    pub adversary_dropped_messages: u64,
    /// Nodes crash-stopped by the configured [`Adversary`]. Without
    /// restarts a crashed node produces no output, so any such run
    /// reports [`RunOutcome::completed`] = `false`; in restart mode
    /// ([`Adversary::restart_after`]) the node may still rejoin, halt,
    /// and complete the run.
    pub crashed_nodes: u64,
    /// Messages assigned a nonzero extra delay by the configured
    /// [`AsyncScheduler`] (always 0 without one, or with a zero-delay
    /// distribution).
    pub delayed_messages: u64,
    /// Messages re-delivered one round late by the [`Adversary`]'s
    /// duplication coin.
    pub duplicated_messages: u64,
    /// Messages garbled in flight by the [`Adversary`]'s corruption coin
    /// — whether the payload surfaced mutated or was discarded by the
    /// modeled transport checksum (see [`Message::corrupted`]).
    pub corrupted_messages: u64,
    /// Crashed nodes that rejoined with reset state
    /// ([`Adversary::restart_after`] self-stabilization mode). A node
    /// crashing twice counts twice, in both this and
    /// [`crashed_nodes`](Self::crashed_nodes).
    pub restarted_nodes: u64,
    /// Undirected edges whose link state was toggled by the
    /// [`Adversary`]'s churn coin ([`Adversary::edge_flip_prob`]). An
    /// edge flipping down and back up counts twice.
    pub edges_flipped: u64,
    /// Departed nodes readmitted by the churn join coin
    /// ([`Adversary::node_join_prob`]), booting with reset protocol
    /// state. A node leaving and rejoining twice counts twice.
    pub nodes_joined: u64,
    /// Present nodes removed by the churn leave coin
    /// ([`Adversary::node_leave_prob`]); they stop computing and messages
    /// to them are dropped, until (and unless) a join coin readmits them.
    pub nodes_left: u64,
}

/// Result of running a protocol to completion (or to the round cap).
#[derive(Clone, Debug)]
pub struct RunOutcome<O> {
    /// Per-node outputs; `None` for nodes still active when the round cap
    /// was reached.
    pub outputs: Vec<Option<O>>,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Whether every node produced an output — halted before the round
    /// cap and was not lost to a permanent crash. (In restart mode a
    /// crashed node can rejoin and still halt, so `crashed_nodes > 0`
    /// does not by itself preclude completion.)
    pub completed: bool,
    /// Message traces, if [`SimConfig::record_traces`] was set.
    pub traces: Vec<MessageTrace>,
}

impl<O> RunOutcome<O> {
    /// Unwraps all outputs, panicking if any node failed to halt.
    ///
    /// ```
    /// use congest_graph::generators;
    /// use congest_sim::{run_protocol, Context, Inbox, Protocol, SimConfig, Status};
    ///
    /// struct MyId;
    /// impl Protocol for MyId {
    ///     type Msg = ();
    ///     type Output = u32;
    ///     fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
    ///     fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>)
    ///         -> Status<u32>
    ///     {
    ///         Status::Halt(ctx.id().0)
    ///     }
    /// }
    ///
    /// let outcome = run_protocol(&generators::cycle(3), SimConfig::local(), |_| MyId, 0);
    /// assert_eq!(outcome.into_outputs(), vec![0, 1, 2]);
    /// ```
    ///
    /// # Panics
    /// Panics if the run did not complete.
    pub fn into_outputs(self) -> Vec<O> {
        assert!(
            self.completed,
            "run hit the round cap before all nodes halted"
        );
        self.outputs
            .into_iter()
            .map(|o| o.expect("completed runs have all outputs"))
            .collect()
    }
}

/// Result of [`Engine::run_sharded`]: the ordinary [`RunOutcome`] (bit-
/// identical to [`Engine::run`] for the same seed) plus the sharding
/// cost surface — how much of the protocol's traffic crossed shard
/// boundaries and therefore counts as coordinator↔worker communication
/// in a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardedRun<O> {
    /// The protocol run itself, indistinguishable from a sequential run.
    pub outcome: RunOutcome<O>,
    /// Delivered messages that crossed a shard boundary (both directions
    /// counted, like [`RunStats::total_messages`]). Kept out of
    /// [`RunStats`] so stats stay executor-independent.
    pub cross_shard_messages: u64,
}

/// The graph-global fields of every [`NodeInfo`], computed once per graph
/// so that a node's `NodeInfo` can be built on the stack whenever it is
/// needed instead of being stored per node.
#[derive(Clone, Copy)]
struct Globals {
    n: usize,
    max_degree: usize,
    max_node_weight: u64,
    max_edge_weight: u64,
}

impl Globals {
    fn of(graph: &Graph) -> Self {
        Globals {
            n: graph.num_nodes(),
            max_degree: graph.max_degree(),
            max_node_weight: graph.max_node_weight(),
            max_edge_weight: graph.max_edge_weight(),
        }
    }

    /// Node `v`'s [`NodeInfo`], its slices borrowed from `graph`.
    #[inline]
    fn info<'g>(&self, graph: &'g Graph, v: NodeId) -> NodeInfo<'g> {
        NodeInfo {
            id: v,
            weight: graph.node_weight(v),
            neighbor_ids: graph.neighbor_ids(v),
            neighbor_edges: graph.neighbor_edges(v),
            edge_weights: graph.edge_weights(),
            n: self.n,
            max_degree: self.max_degree,
            max_node_weight: self.max_node_weight,
            max_edge_weight: self.max_edge_weight,
        }
    }
}

/// What one node owns during a run besides its plane rows: its protocol
/// instance, private RNG, and halt latch. A run keeps one per node,
/// indexed by id, and never moves them; its ascending list of active ids
/// says which still step, and its [`LiveSet`] which are alive. Static
/// info is read from the graph by id.
struct NodeState<P: Protocol> {
    proto: P,
    rng: SmallRng,
    /// Output produced this round, if the node chose to halt; applied to
    /// the live set only at the delivery phase so that drop decisions
    /// cannot observe a half-updated round.
    pending_halt: Option<P::Output>,
    /// Set when the node reboots after a crash (restart mode) or a churn
    /// departure: its next compute phase runs `init` — with the current
    /// round number — instead of `round`, exactly like a node booting
    /// with reset state.
    needs_init: bool,
}

/// Raw shared handle to one message plane: a flat array of packed payload
/// *words* (`u64`, one per directed edge — length `2m`, shaped exactly
/// like the graph's CSR block, so the word for `(node v, port p)` is
/// `row_offsets[v] + p`) plus an occupancy bitmap. Payload words of silent
/// ports are stale garbage; the occupancy bit is the only truth.
///
/// The two kinds of plane lay their bitmaps out differently:
///
/// * The **send** plane's bitmap is word-aligned per node — node `v`'s
///   occupancy words follow those of every smaller id and span
///   `⌈degree(v) / 64⌉` words — so the compute phase can take plain
///   `&mut [u64]` occupancy rows of distinct nodes without sharing any
///   word across threads.
/// * A **receive** plane has one bit per directed slot: bit `j` says
///   whether word `j` holds a message. Delivery addresses both through
///   the sender slot's mirror (`mirror[i]`), with no lookup at the
///   receiver, and the bitmap costs 1 bit per directed edge. Rows of
///   neighbouring nodes share words, so the compute phase only reads the
///   bitmap, and the round loop clears it between the phases.
///
/// The handle deliberately erases Rust's aliasing information so disjoint
/// CSR rows (compute phase) and disjoint directed-edge cells (delivery
/// phase) can be written from multiple threads. Every `unsafe` access site
/// states which disjointness argument makes it sound. The one genuinely
/// shared location — a receive-plane occupancy word, covering up to 64
/// slots fed by different senders — is written during delivery only
/// through [`set_bit`](Self::set_bit), atomically whenever more than one
/// worker delivers the phase, and never through a reference.
struct PlanePtr {
    words: *mut u64,
    occ: *mut u64,
    words_len: usize,
    occ_len: usize,
}

impl Clone for PlanePtr {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for PlanePtr {}

// SAFETY: a `PlanePtr` is only a capability to *derive* references (or
// atomic views); all derivations happen under the row/cell disjointness
// contracts documented on `words_row` / `occ_row` / `occ_view` /
// `write_word` / `set_bit`, and the payload is plain `u64`s. No reference
// is ever shared across threads through it.
unsafe impl Send for PlanePtr {}
// SAFETY: as for `Send` above — sharing the handle only shares the
// *capability*; actual access is serialized per row/cell by the engine's
// disjointness contracts (or made atomic, for delivery's occupancy bits).
unsafe impl Sync for PlanePtr {}

/// How delivery sets receive-plane occupancy bits. The executor picks it,
/// because only the executor knows whether other workers deliver into the
/// same planes in the same phase.
#[derive(Clone, Copy)]
enum BitSet {
    /// One worker delivers the whole phase: a plain load, OR, and store.
    Plain,
    /// Several workers share the phase: an atomic `fetch_or`, since
    /// neighbouring slots of one occupancy word have different senders.
    Atomic,
}

impl PlanePtr {
    /// A plane over `buf`: payload words `..words_len`, then the
    /// occupancy bitmap.
    fn new(buf: &mut [u64], words_len: usize) -> Self {
        let (words, occ) = buf.split_at_mut(words_len);
        PlanePtr {
            words: words.as_mut_ptr(),
            occ: occ.as_mut_ptr(),
            words_len,
            occ_len: occ.len(),
        }
    }

    /// Mutable view of the payload row `start..start + len`.
    ///
    /// # Safety
    /// The caller must guarantee that no other live reference (on this or
    /// any other thread) overlaps the row. The engine upholds this by only
    /// handing out rows keyed by node id — CSR rows of distinct nodes are
    /// disjoint, and each node id occurs once in the active-id list.
    // The `&self -> &mut` shape is the point of the type: exclusivity is
    // a caller obligation (see Safety), exactly like `UnsafeCell::get`.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn words_row(&self, start: usize, len: usize) -> &mut [u64] {
        debug_assert!(start + len <= self.words_len, "plane row out of bounds");
        std::slice::from_raw_parts_mut(self.words.add(start), len)
    }

    /// Mutable view of occupancy words `start..start + len`: one node's
    /// word-aligned row of the send plane, or a whole receive bitmap.
    ///
    /// # Safety
    /// As for [`words_row`](Self::words_row). Send-plane rows are
    /// word-aligned per node, so rows of distinct nodes never share a
    /// word; receive bitmaps are taken whole, in the round loop's
    /// sequential section only. Must not be held while any thread may
    /// call [`set_bit`](Self::set_bit) on this plane (the engine's compute
    /// and delivery phases never overlap).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn occ_row(&self, start: usize, len: usize) -> &mut [u64] {
        debug_assert!(start + len <= self.occ_len, "occupancy row out of bounds");
        std::slice::from_raw_parts_mut(self.occ.add(start), len)
    }

    /// The whole occupancy bitmap, mutably.
    ///
    /// # Safety
    /// As for [`occ_row`](Self::occ_row): no other reference to any of
    /// the plane's occupancy words may be live.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn occ_all(&self) -> &mut [u64] {
        self.occ_row(0, self.occ_len)
    }

    /// Shared view of the receive-plane occupancy words covering bits
    /// `first_bit..first_bit + len`: one node's receive row, whose first
    /// and last words it may share with neighbouring rows.
    ///
    /// # Safety
    /// No thread may write any of these words while the view is live. The
    /// compute phase upholds this: it only reads receive bitmaps, which
    /// are cleared and written only outside it.
    #[inline]
    unsafe fn occ_view(&self, first_bit: usize, len: usize) -> &[u64] {
        let (first, end) = (first_bit / 64, (first_bit + len).div_ceil(64));
        debug_assert!(end <= self.occ_len, "occupancy bits out of bounds");
        std::slice::from_raw_parts(self.occ.add(first), end - first)
    }

    /// Plain (non-atomic) write of one payload word.
    ///
    /// # Safety
    /// The caller must guarantee the cell is not accessed concurrently.
    /// The delivery phase upholds this by addressing cells by *directed
    /// edge* (the sender slot's mirror), and each directed edge has
    /// exactly one sender.
    #[inline]
    unsafe fn write_word(&self, idx: usize, word: u64) {
        debug_assert!(idx < self.words_len, "plane cell out of bounds");
        *self.words.add(idx) = word;
    }

    /// Sets receive-plane occupancy bit `bit`, returning whether it was
    /// already set — the collision detector: a set bit means a message of
    /// an earlier phase already occupied the cell (async ring only).
    /// [`BitSet::Atomic`] is a Relaxed `fetch_or`: the bits carry no
    /// payload ordering, and the phase-ending thread join publishes
    /// everything.
    ///
    /// # Safety
    /// `bit < 64 * occ_len`, and no thread may hold a reference to the
    /// bitmap (the engine confines those to the compute phase and the
    /// sequential section). [`BitSet::Plain`] additionally requires that no
    /// other thread touches this plane's bitmap during the phase.
    #[inline]
    unsafe fn set_bit(&self, bit: usize, mode: BitSet) -> bool {
        debug_assert!(bit / 64 < self.occ_len, "occupancy bit out of bounds");
        let word = self.occ.add(bit / 64);
        let mask = 1u64 << (bit % 64);
        let prior = match mode {
            BitSet::Plain => {
                let prior = *word;
                *word = prior | mask;
                prior
            }
            BitSet::Atomic => AtomicU64::from_ptr(word).fetch_or(mask, Ordering::Relaxed),
        };
        prior & mask != 0
    }

    /// Hints the cache to fetch the payload word and occupancy word of
    /// cell `idx` ahead of [`write_word`](Self::write_word) and
    /// [`set_bit`](Self::set_bit). The addresses are computed with
    /// `wrapping_add`, so no out-of-bounds pointer arithmetic happens.
    #[inline]
    fn prefetch(&self, idx: usize) {
        prefetch(self.words.wrapping_add(idx));
        prefetch(self.occ.wrapping_add(idx / 64));
    }
}

/// Hints the cache to fetch the line holding `*p`, for the round loop's
/// look-ahead and the delivery batch. A no-op off x86-64.
#[inline]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is only a hint: it never faults and never
        // changes memory, whatever the address, and dereferences nothing.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// How many places ahead in an id list the round loop prefetches: the
/// offsets of the id [`PREFETCH_FAR`] places ahead, then the rows of the
/// one [`PREFETCH_NEAR`] places ahead, whose offsets arrived meanwhile.
const PREFETCH_FAR: usize = 16;
/// See [`PREFETCH_FAR`].
const PREFETCH_NEAR: usize = 8;

/// Liveness per node id, one bit each: set while the node has neither
/// halted nor departed. Delivery drops every message to a node whose bit
/// is clear, and the round loop steps only live ids. At 1M nodes it is
/// 125 kB, against 1 MB for a byte per node, so the kernel's random test
/// of the receiver stays in cache. Bits past the last id are never set.
struct LiveSet(Vec<u64>);

impl LiveSet {
    /// Every id of `0..n` live.
    fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        LiveSet(words)
    }

    #[inline]
    fn contains(&self, v: usize) -> bool {
        self.0[v / 64] >> (v % 64) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, v: usize) {
        self.0[v / 64] |= 1 << (v % 64);
    }

    #[inline]
    fn remove(&mut self, v: usize) {
        self.0[v / 64] &= !(1 << (v % 64));
    }

    /// The live ids, ascending.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(64 * w as u32 + bit)
            })
        })
    }
}

/// Clears bits `start..start + len` of `bitmap`, returning how many were
/// set: the crash and leave wipes of one node's receive row.
fn take_bits(bitmap: &mut [u64], start: usize, len: usize) -> u64 {
    let (mut bit, end) = (start, start + len);
    let mut taken = 0;
    while bit < end {
        let (w, lo) = (bit / 64, bit % 64);
        let hi = (end - 64 * w).min(64);
        let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
        taken += u64::from((bitmap[w] & mask).count_ones());
        bitmap[w] &= !mask;
        bit = 64 * (w + 1);
    }
    taken
}

/// The read-only tables of a run through which both phases address a
/// node, by id: the graph (CSR rows, mirror table, neighbour and edge
/// ids), its global parameters, and the planes — the send plane with each
/// node's occupancy start, and the *ring* of receive planes.
///
/// Synchronous runs use a ring of one plane — exactly the two-plane
/// engine the fingerprints pin. An [`AsyncScheduler`] with maximum delay
/// `d` (plus one extra plane when the duplication adversary is on, whose
/// copies trail originals by a round) widens the ring to `d + 1 (+ 1)`
/// planes indexed by *arrival round* modulo the ring length: delivery in
/// round `r` writes arrivals `r + 1 ..= r + 1 + d (+ 1)`, and the compute
/// phase of round `t` reads plane `t % len`, which the round loop clears
/// before that round's delivery, so a plane is always drained before the
/// ring cycles back onto it.
struct Layout<'g> {
    graph: &'g Graph,
    globals: Globals,
    send: PlanePtr,
    /// `occ_start[v]`: where node `v`'s occupancy words start in the send
    /// plane's bitmap, after those of every smaller id; the row spans
    /// `⌈degree / 64⌉` words.
    occ_start: Vec<u32>,
    recv: Vec<PlanePtr>,
}

impl Layout<'_> {
    /// Node `v`'s CSR row — equally its row in every plane — as (start,
    /// degree).
    #[inline]
    fn row(&self, v: usize) -> (usize, usize) {
        let offsets = self.graph.row_offsets();
        let start = offsets[v] as usize;
        (start, offsets[v + 1] as usize - start)
    }

    /// Prefetches what a phase reads about the ids ahead of position `i`
    /// of `ids`: the CSR and send-occupancy offsets of the id
    /// [`PREFETCH_FAR`] places ahead and, of the id [`PREFETCH_NEAR`]
    /// places ahead, the send row with its occupancy word, the neighbour
    /// row, and either its row of the receive plane `recv` (the compute
    /// phase) or, with `recv` = `None`, its mirror row (delivery).
    #[inline]
    fn prefetch_ahead(&self, ids: &[u32], i: usize, recv: Option<&PlanePtr>) {
        if let Some(&far) = ids.get(i + PREFETCH_FAR) {
            prefetch(&self.graph.row_offsets()[far as usize]);
            prefetch(&self.occ_start[far as usize]);
        }
        let Some(&near) = ids.get(i + PREFETCH_NEAR) else {
            return;
        };
        let (start, _) = self.row(near as usize);
        let occ_start = self.occ_start[near as usize] as usize;
        prefetch(self.send.words.wrapping_add(start));
        prefetch(self.send.occ.wrapping_add(occ_start));
        prefetch(self.graph.neighbor_ids(NodeId(near)).as_ptr());
        match recv {
            Some(plane) => plane.prefetch(start),
            None => prefetch(self.graph.mirror().as_ptr().wrapping_add(start)),
        }
    }

    /// The receive plane messages arriving in `arrival_round` land in.
    #[inline]
    fn recv_for(&self, arrival_round: usize) -> &PlanePtr {
        &self.recv[arrival_round % self.recv.len()]
    }

    /// Clears the receive row `start..start + degree` in every plane of
    /// the ring, returning how many messages it held: the crash and leave
    /// wipes.
    fn wipe(&self, start: usize, degree: usize) -> u64 {
        self.recv
            .iter()
            .map(|plane| {
                // SAFETY: called only from the round loop's sequential
                // section — no worker holds any plane reference.
                let occ = unsafe { plane.occ_all() };
                take_bits(occ, start, degree)
            })
            .sum()
    }
}

/// Read-only context the delivery phase needs besides the [`Layout`].
struct DeliverArgs<'a> {
    /// The receive plane of arrival round `round + 1`, picked once per
    /// round: every undelayed original lands there.
    next: &'a PlanePtr,
    /// Liveness per node id, with this round's halts already applied.
    live: &'a LiveSet,
    /// The round being delivered, so adversary and scheduler coins can be
    /// keyed by `(round, from, to)` — pure functions, independent of
    /// delivery order and parallel chunking.
    round: usize,
    /// Per-message fault adversary (drop / duplicate / corrupt coins),
    /// pre-filtered to `None` when none of those can fire so the
    /// fault-free hot path tests one `Option` discriminant only.
    adversary: Option<Adversary>,
    /// Asynchronous delay scheduler, pre-filtered to `None` when its
    /// maximum delay is zero (the synchronous case).
    scheduler: Option<AsyncScheduler>,
    /// Link-state bitmap of the churn adversary, one bit per undirected
    /// edge id (set = down: messages crossing the edge are silently
    /// discarded). `None` whenever [`Adversary::edge_flip_prob`] is zero,
    /// so the static path never tests it per message.
    edge_down: Option<&'a [u64]>,
}

/// Most messages one [`Batch`] holds before it writes them out.
const BATCH: usize = 16;

/// Messages the delivery kernel has decided on but not yet written, as
/// (receive plane, cell, payload word). Each target is prefetched when
/// queued and the batch is written when full and once more at the end of
/// the worker's share of the phase, so the cache misses of consecutive
/// messages overlap instead of stalling one after another. The order of
/// the writes does not matter: within one phase no (plane, cell) pair is
/// written twice. Writing also counts collisions. Its `mode` comes from
/// the caller of `deliver_all`, under that function's safety contract;
/// `HOOKED` is the kernel's (see [`Engine::deliver_node`]).
struct Batch<'p, const HOOKED: bool> {
    mode: BitSet,
    len: usize,
    entries: [(&'p PlanePtr, u32, u64); BATCH],
}

impl<'p, const HOOKED: bool> Batch<'p, HOOKED> {
    fn new(plane: &'p PlanePtr, mode: BitSet) -> Self {
        Batch {
            mode,
            len: 0,
            entries: [(plane, 0, 0); BATCH],
        }
    }

    /// Queues `word` for cell `cell` of `plane`, writing the batch out
    /// once it is full.
    #[inline]
    fn push(&mut self, plane: &'p PlanePtr, cell: u32, word: u64, tally: &mut Tally) {
        plane.prefetch(cell as usize);
        self.entries[self.len] = (plane, cell, word);
        self.len += 1;
        if self.len == BATCH {
            self.flush(tally);
        }
    }

    /// Writes every queued message into its receive-plane cell and sets
    /// its occupancy bit, counting a collision — two in-flight messages of
    /// one directed edge converging on the same arrival round, where the
    /// later-sent one wins — as a lost message. Collisions need a delay or
    /// a duplicate, so only a `HOOKED` kernel can meet one: without hooks
    /// every edge delivers at most one message per phase into the one
    /// plane, which is cleared every round.
    #[inline]
    fn flush(&mut self, tally: &mut Tally) {
        for &(plane, cell, word) in &self.entries[..self.len] {
            let cell = cell as usize;
            // SAFETY: `cell` is the mirror of the sender's slot, i.e. the
            // receive cell of one directed edge (sender → receiver); the
            // mirror table is a bijection on directed edges, so within
            // this delivery phase no other sender (on any thread) writes
            // any plane's copy of this cell — and the original and
            // duplicate of this edge target planes of *different* arrival
            // rounds. Nothing reads the receive planes during delivery.
            unsafe { plane.write_word(cell, word) };
            // SAFETY: `cell < 2m ≤ 64 * occ_len`; no reference to a
            // receive bitmap exists during delivery, and `self.mode` is
            // `Plain` only when this worker delivers the whole phase
            // (`deliver_all`'s contract), `Atomic` whenever workers share
            // it (the word covers up to 64 slots, each fed by a different
            // sender).
            let collided = unsafe { plane.set_bit(cell, self.mode) };
            if HOOKED {
                tally.dropped_messages += u64::from(collided);
            } else {
                debug_assert!(!collided, "synchronous delivery collided at cell {cell}");
            }
        }
        self.len = 0;
    }
}

/// Per-worker statistics accumulator for the delivery phase: what became
/// of the messages in flight. What they cost to send was metered when
/// they were sent (see [`Context`]).
#[derive(Clone, Copy, Default)]
struct Tally {
    dropped_messages: u64,
    adversary_dropped_messages: u64,
    delayed_messages: u64,
    duplicated_messages: u64,
    corrupted_messages: u64,
    /// Messages to a receiver outside the sender's shard
    /// ([`ShardedRun::cross_shard_messages`]); not part of [`RunStats`].
    crossed: u64,
}

impl Tally {
    /// Sums: commutative and associative, so however a phase is split
    /// between workers, their merged tallies are the sequential one.
    fn merge(self, other: Tally) -> Tally {
        Tally {
            dropped_messages: self.dropped_messages + other.dropped_messages,
            adversary_dropped_messages: self.adversary_dropped_messages
                + other.adversary_dropped_messages,
            delayed_messages: self.delayed_messages + other.delayed_messages,
            duplicated_messages: self.duplicated_messages + other.duplicated_messages,
            corrupted_messages: self.corrupted_messages + other.corrupted_messages,
            crossed: self.crossed + other.crossed,
        }
    }

    /// Adds one phase's tally to the run's statistics.
    fn add_to(self, stats: &mut RunStats) {
        stats.dropped_messages += self.dropped_messages;
        stats.adversary_dropped_messages += self.adversary_dropped_messages;
        stats.delayed_messages += self.delayed_messages;
        stats.duplicated_messages += self.duplicated_messages;
        stats.corrupted_messages += self.corrupted_messages;
    }
}

/// Minimum ids *per shard* — active ids in a compute phase, senders in a
/// delivery phase — for a phase to run on one scoped thread per shard;
/// below it (and always on one shard) the calling thread runs the phase,
/// since spawning workers for a nearly-drained (or small) round costs
/// more than the round.
const PAR_MIN_SLOTS_PER_WORKER: usize = 1024;

/// Whether a phase over `active` ids of a run on `shards` shards runs on
/// the calling thread (see [`PAR_MIN_SLOTS_PER_WORKER`]).
fn runs_inline(active: usize, shards: usize) -> bool {
    shards == 1 || active < shards.saturating_mul(PAR_MIN_SLOTS_PER_WORKER)
}

/// The ascending active-id list `ids` cut at `partition`'s boundaries:
/// each shard's run of it, found by `partition_point`, with the shard's
/// slot range, in shard order.
fn shard_runs<'a>(
    ids: &'a [u32],
    partition: &'a ShardPartition,
) -> impl Iterator<Item = (&'a [u32], Range<usize>)> + 'a {
    let mut rest = ids;
    (0..partition.shards()).map(move |s| {
        let shard = partition.range(s);
        let (run, tail) = rest.split_at(rest.partition_point(|&v| (v as usize) < shard.end));
        rest = tail;
        (run, shard)
    })
}

/// Splits `len` items off the front of `rest`: how a phase hands each
/// shard its own slice of a buffer indexed by id.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    front
}

/// Ids that one compute phase recorded, per shard, in ascending order:
/// `n` slots cut at the shard boundaries like the state rows, then one
/// count per shard. The worker that steps shard `s` fills the shard's
/// slots from their start and says how many in count `s`. The counts
/// share the slots' allocation: as a block of their own, reused run after
/// run, they split the free heap space that the next run's protocol
/// instances would take, and raised `luby-1m`'s peak RSS by 24 MB.
struct ShardIds(Vec<u32>);

impl ShardIds {
    fn new(n: usize, shards: usize) -> Self {
        ShardIds(vec![0; n + shards])
    }

    /// Each shard's recorded ids with its slot range, in shard order.
    fn runs<'a>(
        &'a self,
        partition: &'a ShardPartition,
    ) -> impl Iterator<Item = (&'a [u32], Range<usize>)> + 'a {
        let (slots, counts) = self.0.split_at(partition.num_slots());
        counts.iter().enumerate().map(|(s, &count)| {
            let shard = partition.range(s);
            (&slots[shard.start..shard.start + count as usize], shard)
        })
    }

    /// How many ids are recorded.
    fn count(&self, partition: &ShardPartition) -> usize {
        let counts = &self.0[partition.num_slots()..];
        counts.iter().map(|&count| count as usize).sum()
    }

    /// Each shard's slots and count, in shard order, emptied.
    fn shards_mut<'a>(
        &'a mut self,
        partition: &'a ShardPartition,
    ) -> impl Iterator<Item = ShardSlots<'a>> + 'a {
        let (mut slots, counts) = self.0.split_at_mut(partition.num_slots());
        counts.iter_mut().enumerate().map(move |(s, count)| {
            *count = 0;
            ShardSlots {
                slots: take_front(&mut slots, partition.range(s).len()),
                count,
            }
        })
    }
}

/// One shard's slots of a [`ShardIds`] and their count, being filled.
struct ShardSlots<'a> {
    slots: &'a mut [u32],
    count: &'a mut u32,
}

impl ShardSlots<'_> {
    /// Records `v`, which is larger than every id recorded before it.
    #[inline]
    fn push(&mut self, v: u32) {
        self.slots[*self.count as usize] = v;
        *self.count += 1;
    }
}

/// One shard's share of a compute phase: its run of the active list, its
/// state rows (from node `base`'s on), and its slots of the run's sender
/// and halter lists.
struct ShardWork<'a, P: Protocol> {
    ids: &'a [u32],
    base: usize,
    rows: &'a mut [NodeState<P>],
    senders: ShardSlots<'a>,
    halters: ShardSlots<'a>,
}

/// Runs one [`Protocol`] instance per node of a graph.
///
/// Build with [`Engine::build`], execute with [`Engine::run`] (or
/// [`Engine::run_parallel`] / [`Engine::run_sharded`], which produce
/// bit-identical results). See the crate-level docs for an end-to-end
/// example.
///
/// # One executor
///
/// All three are one round loop over a [`ShardPartition`] of the slot
/// space: `run` is one shard, `run_parallel` one equal contiguous shard
/// per worker, and `run_sharded` the caller's partition. A round's work
/// follows what moved in it. The compute phase steps each shard's run of
/// the ascending active-id list against the shard's own state rows, and
/// records, in id order, the ids whose step sent a message and the ids
/// that halted, into the shard's own slots of two lists. The halt pass
/// then visits only the halters, and delivery drains only the senders'
/// rows. A compute phase with enough active ids per shard, or a delivery
/// phase with enough senders, runs on one scoped thread per shard; any
/// other phase, and every traced one, runs on the calling thread. Both
/// loops prefetch the rows of the id a few places ahead. Either way
/// every message to a receiver outside its sender's shard is counted, by
/// one range check, in [`ShardedRun::cross_shard_messages`].
///
/// # Round semantics
///
/// Each synchronous round has two phases:
///
/// 1. **Compute** — every active node's [`Protocol::round`] runs against
///    the messages sent to it in the previous round, filling its send-plane
///    row and possibly deciding to halt. Nodes cannot observe each other
///    mid-round, so the execution order (including parallel execution)
///    cannot affect results.
/// 2. **Deliver** — halts are applied, then every sender's send-plane row
///    is scattered into the receive plane: the message node `v` sent
///    through the slot `i = row_offsets[v] + p` lands in cell `mirror[i]`
///    (see [`Graph::mirror`]), i.e. in the receiver `u`'s own
///    port-indexed inbox row, at the port that leads back to `v`. A
///    message is dropped (counted in [`RunStats::dropped_messages`]) iff
///    its receiver halted in the sending round or earlier. Distinct
///    directed edges map to distinct cells, so delivery parallelizes
///    without locks while staying bit-identical.
///
/// # Memory discipline
///
/// Every message plane (2·`m` packed payload words plus the occupancy
/// bitmap — see [`plane_bytes_for`]) and every other buffer of the round
/// loop is allocated once, in `build`/`run`; the steady-state loop
/// performs **zero engine-side heap allocations** in rounds it runs on
/// the calling thread (the traced path, which pushes [`MessageTrace`]s,
/// is the documented small-graph exception, and a round on scoped
/// threads allocates their handles).
/// Per node, a run keeps only what changes while it runs — the protocol,
/// its RNG, a halt latch and a reboot flag, in one row indexed by id that
/// never moves — plus a send-occupancy offset, an entry in an ascending
/// list of active ids, a slot in each of the sender and halter lists, and
/// one liveness bit; a [`NodeInfo`] is built on the stack from the
/// graph's CSR whenever the node steps. Every executor compacts the
/// active list with a stable `retain` after each delivery phase, so late
/// rounds iterate only live nodes.
pub struct Engine<'g, P: Protocol> {
    graph: &'g Graph,
    config: SimConfig,
    globals: Globals,
    nodes: Vec<P>,
    /// Kept beyond `build` for the restart and churn-join adversaries,
    /// which re-instantiate a rebooting node's protocol from scratch
    /// (self-stabilization: rebooted nodes boot with reset state, not a
    /// snapshot).
    factory: Box<dyn FnMut(&NodeInfo<'g>) -> P + 'g>,
}

impl<'g, P: Protocol> Engine<'g, P> {
    /// Creates an engine, instantiating the protocol at every node via
    /// `factory` (called in ascending node-id order).
    ///
    /// Zero-copy: each [`NodeInfo`] handed to the factory is built on the
    /// stack and borrows its per-port slices straight out of the graph's
    /// CSR block, and the mirror-slot table was already computed by the
    /// graph in `O(n + m)`, so building the engine allocates only the
    /// protocol instances — independent of the number of edges — and
    /// parallel rounds share one read-only adjacency image.
    pub fn build(
        graph: &'g Graph,
        config: SimConfig,
        mut factory: impl FnMut(&NodeInfo<'g>) -> P + 'g,
    ) -> Self {
        config.validate();
        // Monomorphization-time width check: building an engine for a
        // protocol whose `Msg` claims more than 64 packed bits is a
        // compile error, not a runtime truncation.
        #[allow(clippy::let_unit_value)]
        let () = <P::Msg as PackedMsg>::BITS_OK;
        let globals = Globals::of(graph);
        let nodes = graph
            .nodes()
            .map(|v| factory(&globals.info(graph, v)))
            .collect();
        Engine {
            graph,
            config,
            globals,
            nodes,
            factory: Box::new(factory),
        }
    }

    /// Runs the protocol to completion (all nodes halted) or to the round
    /// cap, using `seed` to derive every node's private RNG, on the
    /// calling thread: the executor over one shard.
    pub fn run(self, seed: u64) -> RunOutcome<P::Output> {
        let n = self.graph.num_nodes();
        self.run_on(seed, &ShardPartition::contiguous(n, 1)).0
    }

    /// Like [`run`](Engine::run), but executes each round's compute *and*
    /// delivery phases on all hardware threads: the executor over one
    /// equal contiguous shard of the slot space per thread.
    ///
    /// Outputs, statistics, and traces are bit-identical to the
    /// sequential path for the same `seed`: every node steps against its
    /// own private [`SmallRng`] and disjoint plane rows (no cross-node
    /// state), delivery writes each directed edge's unique cell, and the
    /// statistics merge with commutative sums/max. Rounds with fewer than
    /// a fixed number of active ids per shard (every round, on a
    /// single-threaded host) execute inline, so the parallel executor
    /// degrades to the sequential one instead of paying worker overhead it
    /// cannot recoup.
    pub fn run_parallel(self, seed: u64) -> RunOutcome<P::Output> {
        self.run_parallel_with(seed, rayon::current_num_threads())
    }

    /// [`run_parallel`](Self::run_parallel) with an explicit worker count
    /// instead of the host's hardware parallelism — the bench harness
    /// sweeps this to record a `threads` column, and tests use it to
    /// exercise the multi-worker path on single-core hosts. `threads` is
    /// clamped to `1..=max(n, 1)`, so no shard is empty. Results are
    /// bit-identical to [`run`](Self::run) for any `threads`.
    pub fn run_parallel_with(self, seed: u64, threads: usize) -> RunOutcome<P::Output> {
        let n = self.graph.num_nodes();
        let shards = threads.clamp(1, n.max(1));
        self.run_on(seed, &ShardPartition::contiguous(n, shards)).0
    }

    /// Shard-partitioned executor for the matching-as-a-service façade:
    /// each shard's contiguous id range is stepped and delivered by its
    /// own worker thread (or, in small rounds, all shards in turn by the
    /// calling thread), and every message crossing a shard boundary is
    /// metered as coordinator↔worker traffic — the per-party
    /// communication count of the Huang–Radunovic–Vojnovic–Zhang k-party
    /// model, taken by one range check against the sender's shard.
    ///
    /// Outputs, statistics, and completion are **bit-identical to
    /// [`run`](Self::run)** for the same `(graph, config, seed)`, for any
    /// partition: [`run`](Self::run) and
    /// [`run_parallel`](Self::run_parallel) are this executor over one
    /// shard and over equal shards. The cross-shard meter is kept out of
    /// [`RunStats`] so stats equality across partitions stays exact.
    ///
    /// # Panics
    /// Panics if `partition` does not cover exactly the graph's slots.
    pub fn run_sharded(self, seed: u64, partition: &ShardPartition) -> ShardedRun<P::Output> {
        assert_eq!(
            partition.num_slots(),
            self.graph.num_nodes(),
            "Engine::run_sharded: partition covers {} slots, graph has {}",
            partition.num_slots(),
            self.graph.num_nodes()
        );
        let (outcome, cross_shard_messages) = self.run_on(seed, partition);
        ShardedRun {
            outcome,
            cross_shard_messages,
        }
    }

    /// Compute phase over one shard's live ids, each stepped against its
    /// state row and charged to `meter`, while the rows of the ids ahead
    /// are prefetched. Records the ids whose step sent (the meter's count
    /// moved) and those that halted, in order, in the shard's slots of
    /// the sender and halter lists.
    fn step_all(
        mut work: ShardWork<'_, P>,
        round: usize,
        layout: &Layout<'g>,
        live: &LiveSet,
        meter: &mut Meter,
    ) {
        let (ids, base) = (work.ids, work.base);
        let recv = layout.recv_for(round);
        for (i, &v) in ids.iter().enumerate() {
            layout.prefetch_ahead(ids, i, Some(recv));
            if let Some(&far) = ids.get(i + PREFETCH_FAR) {
                prefetch(work.rows.as_ptr().wrapping_add(far as usize - base));
            }
            if !live.contains(v as usize) {
                continue;
            }
            let state = &mut work.rows[v as usize - base];
            let before = meter.messages;
            Self::step(state, v, round, layout, meter);
            if meter.messages != before {
                work.senders.push(v);
            }
            if state.pending_halt.is_some() {
                work.halters.push(v);
            }
        }
    }

    /// Untraced delivery phase: on the calling thread, or one scoped
    /// thread per shard with senders, whose tallies merge at the end.
    fn deliver<const HOOKED: bool>(
        senders: &ShardIds,
        layout: &Layout<'g>,
        args: &DeliverArgs<'_>,
        partition: &ShardPartition,
    ) -> Tally {
        let runs = senders.runs(partition);
        if runs_inline(senders.count(partition), partition.shards()) {
            // SAFETY: no worker is spawned; this thread delivers the
            // whole phase.
            return unsafe {
                Self::deliver_all::<HOOKED>(runs, layout, args, BitSet::Plain, |_, _, _| {})
            };
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = runs
                .filter(|(ids, _)| !ids.is_empty())
                .map(|run| {
                    // SAFETY: atomic bit sets, as several workers deliver
                    // this phase.
                    scope.spawn(move || unsafe {
                        Self::deliver_all::<HOOKED>(
                            [run],
                            layout,
                            args,
                            BitSet::Atomic,
                            |_, _, _| {},
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .fold(Tally::default(), Tally::merge)
        })
    }

    /// Delivery from the senders of `runs` — each one shard's senders and
    /// the shard's slot range — by one worker, prefetching the rows of
    /// the senders ahead: the sole entry to the delivery kernel. A
    /// message to a receiver outside its sender's shard counts in
    /// [`Tally::crossed`].
    /// `on_message(from, to, word)` runs once per message before its drop
    /// decision, in a `HOOKED` kernel only — the trace hook; the untraced
    /// paths pass a no-op closure that monomorphizes away.
    ///
    /// # Safety
    /// With `mode` = [`BitSet::Plain`], no other thread may deliver into
    /// the planes while this call runs: the caller delivers the whole
    /// phase. [`BitSet::Atomic`] is sound under any concurrency.
    unsafe fn deliver_all<'a, 'p, const HOOKED: bool>(
        runs: impl IntoIterator<Item = (&'a [u32], Range<usize>)>,
        layout: &'p Layout<'g>,
        args: &DeliverArgs<'p>,
        mode: BitSet,
        mut on_message: impl FnMut(NodeId, NodeId, u64),
    ) -> Tally {
        let mut tally = Tally::default();
        let mut batch = Batch::new(args.next, mode);
        for (ids, shard) in runs {
            for (i, &v) in ids.iter().enumerate() {
                layout.prefetch_ahead(ids, i, None);
                Self::deliver_node::<HOOKED>(
                    v,
                    &shard,
                    layout,
                    args,
                    &mut batch,
                    &mut tally,
                    &mut on_message,
                );
            }
        }
        batch.flush(&mut tally);
        tally
    }

    /// The round loop, the engine's one executor: round 0 runs `init`,
    /// then every round runs its sequential section (restarts, crash and
    /// churn coins, inbox reordering), its compute phase and its delivery
    /// phase, each phase split at `partition`'s shard boundaries. Also
    /// returns how many messages crossed a shard boundary.
    fn run_on(self, seed: u64, partition: &ShardPartition) -> (RunOutcome<P::Output>, u64) {
        let (graph, config) = (self.graph, self.config);
        let n = graph.num_nodes();
        // Send-plane occupancy rows, word-aligned: node `v`'s bits live in
        // `⌈degree / 64⌉` words of its own, laid out in id order, so no
        // two nodes ever share a send occupancy word and the compute phase
        // can hold plain `&mut` rows.
        let mut send_occ_len: u32 = 0;
        let occ_start: Vec<u32> = graph
            .row_offsets()
            .windows(2)
            .map(|w| {
                let start = send_occ_len;
                send_occ_len += (w[1] - w[0]).div_ceil(64);
                start
            })
            .collect();
        // Fault machinery, pre-filtered so the fault-free loop tests one
        // `Option` discriminant per hook and allocates nothing extra: a
        // zero-delay scheduler and an all-zero adversary take exactly the
        // fingerprinted synchronous path.
        let adversary = config.adversary.filter(Adversary::is_active);
        let scheduler = config.scheduler.filter(|s| s.max_delay() > 0);
        let dup_on = adversary.is_some_and(|a| a.dup_prob > 0.0);
        let crash = adversary.filter(|a| a.crash_prob > 0.0);
        let restart_after = crash.and_then(|a| a.restart_after);
        // Topology churn: a link-state bitmap over undirected edge ids
        // (flips toggle bits; delivery consults it per message) and a
        // departed set for node leaves/joins. All allocated only when the
        // corresponding coin can fire, so the static path stays untouched.
        let churn = adversary.filter(Adversary::has_churn);
        let flips_on = churn.is_some_and(|a| a.edge_flip_prob > 0.0);
        let joins_on = churn.is_some_and(|a| a.node_join_prob > 0.0);
        let leaves_on = churn.is_some_and(|a| a.node_leave_prob > 0.0);
        let mut edge_down = flips_on.then(|| vec![0u64; graph.num_edges().div_ceil(64)]);
        let mut departed: Vec<bool> = if leaves_on {
            vec![false; n]
        } else {
            Vec::new()
        };
        let mut departed_count: usize = 0;
        // The send plane and the receive-plane ring: every buffer of the
        // round loop is allocated here, once; rounds only move messages
        // through them. Ring sizing: arrivals span `round + 1` through
        // `round + 1 + max_delay` (+1 more for duplicate copies, which
        // trail their originals by a round).
        let ring_len = scheduler.map_or(0, |s| s.max_delay()) + 1 + usize::from(dup_on);
        let plane_len = graph.row_offsets()[n] as usize;
        // Dense word storage: one allocation per plane, 8 payload bytes
        // per directed edge followed by the occupancy bitmap (see
        // [`plane_bytes_for`]), zeroed on allocation — no per-cell
        // `Option` initialization. A receive bitmap has one bit per
        // directed slot. Separate bitmap vectors are mid-sized heap
        // allocations whose placement depends on the graph's size; with
        // glibc malloc at n = 1M they raised peak RSS by up to 35 MB on
        // some seeds.
        let mut send = plane_buffer(plane_len + send_occ_len as usize);
        let mut recv: Vec<Vec<u64>> = (0..ring_len)
            .map(|_| plane_buffer(plane_len + plane_len.div_ceil(64)))
            .collect();
        let layout = Layout {
            graph,
            globals: self.globals,
            occ_start,
            send: PlanePtr::new(&mut send, plane_len),
            recv: recv
                .iter_mut()
                .map(|p| PlanePtr::new(p, plane_len))
                .collect(),
        };
        let reorder = adversary.filter(|a| a.reorder_prob > 0.0);
        let budget = config.bit_budget;
        let mut run = RunState {
            rows: self
                .nodes
                .into_iter()
                .enumerate()
                .map(|(v, proto)| NodeState {
                    proto,
                    rng: node_rng(seed, NodeId(v as u32)),
                    pending_halt: None,
                    needs_init: false,
                })
                .collect(),
            ids: (0..n as u32).collect(),
            live: LiveSet::full(n),
            senders: ShardIds::new(n, partition.shards()),
            halters: ShardIds::new(n, partition.shards()),
            outputs: vec![None; n],
            stats: RunStats::default(),
            crossed: 0,
            traces: Vec::new(),
            seed,
            factory: self.factory,
        };
        // Crashed nodes awaiting their restart round, in due-round order
        // (crashes are discovered in ascending rounds, so plain FIFO
        // pushes keep the queue monotone).
        let mut restart_queue: VecDeque<(usize, u32)> = VecDeque::new();

        // Round 0: init (no inboxes yet, halting is not possible).
        run.compute(0, &layout, partition, budget);
        run.delivery_phase(&config, &layout, edge_down.as_deref(), 0, partition);

        // Between rounds the active list holds exactly the live nodes.
        while (!run.ids.is_empty() || !restart_queue.is_empty() || (joins_on && departed_count > 0))
            && run.stats.rounds < config.max_rounds
        {
            run.stats.rounds += 1;
            let round = run.stats.rounds;
            // Self-stabilization: crashed nodes whose downtime has elapsed
            // rejoin *before* this round's crash coins, so the coins see
            // them as live.
            let due = restart_queue
                .iter()
                .take_while(|&&(at, _)| at <= round)
                .count();
            for (_, v) in restart_queue.drain(..due) {
                run.reboot(v as usize, &layout, RESTART_STREAM_SALT, round);
            }
            if due > 0 {
                run.stats.restarted_nodes += due as u64;
                run.relist();
            }
            // Crash adversary: decided before the compute phase, per node,
            // by a coin pure in (round, id) — so the schedule cannot
            // depend on processing order or parallel splits. A crashed
            // node is inert from this round on: it neither computes nor
            // sends, produces no output, and its cleared liveness bit
            // makes delivery drop everything addressed to it — until its
            // restart round, if the adversary grants one. Without restarts
            // its inbox is never read again, so it is left unwiped:
            // stragglers already delivered stay delivered. (Rounds ≥ 1
            // only: every node is guaranteed its first `init`.)
            if let Some(adv) = crash {
                for i in 0..run.ids.len() {
                    let v = run.ids[i] as usize;
                    if run.live.contains(v) && adv.crashes(round, NodeId(v as u32)) {
                        run.depart(v, &layout, restart_after.is_some());
                        run.stats.crashed_nodes += 1;
                        if let Some(k) = restart_after {
                            restart_queue.push_back((round + k, v as u32));
                        }
                    }
                }
            }
            // Topology churn, in the same sequential section as crashes,
            // by coins pure in (round, id): joins first (mirroring
            // restarts: a node can rejoin before this round's leave coins
            // fire), then leaves, then edge flips.
            if let Some(adv) = churn {
                if joins_on && departed_count > 0 {
                    for (v, gone) in departed.iter_mut().enumerate() {
                        if !*gone || !adv.rejoins(round, NodeId(v as u32)) {
                            continue;
                        }
                        *gone = false;
                        departed_count -= 1;
                        run.reboot(v, &layout, CHURN_STREAM_SALT, round);
                        run.stats.nodes_joined += 1;
                    }
                    // As cheap as the O(n) coin scan above.
                    run.relist();
                }
                if leaves_on {
                    for i in 0..run.ids.len() {
                        let v = run.ids[i] as usize;
                        if run.live.contains(v) && adv.leaves(round, NodeId(v as u32)) {
                            run.depart(v, &layout, true);
                            departed[v] = true;
                            departed_count += 1;
                            run.stats.nodes_left += 1;
                        }
                    }
                }
                if let Some(down) = edge_down.as_mut() {
                    // O(m) coin scan; each toggle moves the undirected
                    // edge between up and down, and both directed views
                    // share the bit.
                    for e in graph.edges() {
                        let (u, v) = graph.endpoints(e);
                        if adv.flips_edge(round, u, v) {
                            down[e.index() / 64] ^= 1 << (e.index() % 64);
                            run.stats.edges_flipped += 1;
                        }
                    }
                }
            }
            if let Some(adv) = reorder {
                Self::reorder_inboxes(&run.ids, &run.rows, &run.live, round, &layout, adv);
            }
            run.compute(round, &layout, partition, budget);
            run.delivery_phase(&config, &layout, edge_down.as_deref(), round, partition);
        }

        let outcome = RunOutcome {
            // Complete ⇔ every node halted with an output (in restart
            // mode a crashed node can rejoin and still halt).
            completed: run.outputs.iter().all(Option::is_some),
            outputs: run.outputs,
            stats: run.stats,
            traces: run.traces,
        };
        (outcome, run.crossed)
    }

    /// Compute phase for node `v`: run `init` (round 0) or `round` against
    /// the node's receive-plane row, writing sends into its send-plane row,
    /// and stash any halt decision in [`NodeState::pending_halt`]. Touches
    /// nothing outside `state` and the node's two plane rows, and only
    /// reads the receive row; the round loop clears the consumed receive
    /// bitmap before delivery. Its sends are charged to `meter`.
    fn step(
        state: &mut NodeState<P>,
        v: u32,
        round: usize,
        layout: &Layout<'g>,
        meter: &mut Meter,
    ) {
        let info = layout.globals.info(layout.graph, NodeId(v));
        let (start, degree) = layout.row(v as usize);
        let occ_start = layout.occ_start[v as usize] as usize;
        let occ_words = degree.div_ceil(64);
        // SAFETY: the active list holds each node id once, each id goes to
        // exactly one worker (shards own disjoint runs of the list), and
        // CSR rows of distinct nodes are disjoint (send occupancy rows are
        // word-aligned per node), so these are the only live references to
        // the rows; no delivery runs concurrently.
        let send_words = unsafe { layout.send.words_row(start, degree) };
        // SAFETY: same row disjointness, on the word-aligned occupancy row.
        let send_occ = unsafe { layout.send.occ_row(occ_start, occ_words) };
        let recv_plane = layout.recv_for(round);
        // SAFETY: same row-disjointness argument, on this round's receive
        // plane (ring position `round % len`; delivery never writes the
        // current round's plane while the compute phase runs).
        let recv_words = unsafe { recv_plane.words_row(start, degree) };
        // SAFETY: the compute phase never writes a receive bitmap (the
        // round loop clears it, and delivery sets bits, only outside this
        // phase), so shared views of words that neighbouring rows also
        // read are sound.
        let recv_occ = unsafe { recv_plane.occ_view(start, degree) };
        let mut ctx = Context {
            info: &info,
            rng: &mut state.rng,
            round,
            out_words: send_words,
            out_occ: send_occ,
            meter,
            _msg: std::marker::PhantomData,
        };
        if round == 0 || state.needs_init {
            // Round 0, or the node is rebooting after a crash or a churn
            // departure: boot with reset state. Stragglers were wiped when
            // it departed, so the inbox is empty either way.
            state.needs_init = false;
            state.proto.init(&mut ctx);
        } else {
            let inbox = Inbox::from_bit_range(recv_words, recv_occ, (start % 64) as u32);
            if let Status::Halt(out) = state.proto.round(&mut ctx, inbox) {
                state.pending_halt = Some(out);
            }
        }
    }

    /// The inbox-reordering adversary, applied before the compute phase
    /// of `round` to every node that will read its inbox: an in-place
    /// Fisher–Yates over the node's port-indexed receive row, keyed purely
    /// by (round, node, step), so messages surface out of port order,
    /// misattributed to the wrong neighbors — identically under any
    /// executor. Payload word and occupancy bit travel together, so a
    /// silent port stays silent wherever it lands. It runs in the round
    /// loop's sequential section because receive rows share occupancy
    /// words.
    fn reorder_inboxes(
        ids: &[u32],
        rows: &[NodeState<P>],
        live: &LiveSet,
        round: usize,
        layout: &Layout<'g>,
        adv: Adversary,
    ) {
        let plane = layout.recv_for(round);
        for &v in ids {
            let (id, state) = (NodeId(v), &rows[v as usize]);
            let (start, degree) = layout.row(v as usize);
            if !live.contains(v as usize)
                || state.needs_init
                || degree <= 1
                || !adv.reorders_inbox(round, id)
            {
                continue;
            }
            // SAFETY: sequential section of the round loop — no worker
            // holds any plane reference — and the row is this node's own.
            let words = unsafe { plane.words_row(start, degree) };
            // SAFETY: as above; no other reference to the bitmap is live.
            let occ = unsafe { plane.occ_all() };
            for i in (1..degree).rev() {
                let j = (adv.shuffle_coin(round, id, i) % (i as u64 + 1)) as usize;
                words.swap(i, j);
                let (bi, bj) = (start + i, start + j);
                if (occ[bi / 64] >> (bi % 64) ^ occ[bj / 64] >> (bj % 64)) & 1 == 1 {
                    occ[bi / 64] ^= 1 << (bi % 64);
                    occ[bj / 64] ^= 1 << (bj % 64);
                }
            }
        }
    }

    /// The delivery kernel, for sender `v` of shard `shard`: drain its
    /// send-plane row, deciding each message's fate and queueing
    /// survivors into `batch` at the mirror of their slot. Everything it
    /// reads about the sender comes from the graph by id.
    ///
    /// `HOOKED` says whether any per-message hook is live — the trace
    /// (`on_message`), churn link state, the adversary's delivery coins or
    /// the scheduler's delays — and is chosen once per phase. Without
    /// hooks a message costs the receiver lookup, its liveness, its shard
    /// compare, the mirror cell, the prefetch, the word write and the bit
    /// set. Sizes are not read here: the sender's [`Context`] metered each
    /// message when it was sent.
    #[inline]
    fn deliver_node<'p, const HOOKED: bool>(
        v: u32,
        shard: &Range<usize>,
        layout: &'p Layout<'g>,
        args: &DeliverArgs<'p>,
        batch: &mut Batch<'p, HOOKED>,
        tally: &mut Tally,
        on_message: &mut impl FnMut(NodeId, NodeId, u64),
    ) {
        let (graph, id) = (layout.graph, NodeId(v));
        let (start, degree) = layout.row(v as usize);
        let occ_start = layout.occ_start[v as usize] as usize;
        let occ_words = degree.div_ceil(64);
        let neighbor_ids = graph.neighbor_ids(id);
        let mirror = &graph.mirror()[start..start + degree];
        let (lo, len) = (shard.start as u32, shard.len() as u32);
        // SAFETY: row disjointness, as in `step` — each sender is drained
        // by exactly one worker, and delivery only *reads* other nodes'
        // payload rows through unique directed-edge cells.
        let send_words = unsafe { layout.send.words_row(start, degree) };
        // SAFETY: same row disjointness, on the word-aligned occupancy row.
        let send_occ = unsafe { layout.send.occ_row(occ_start, occ_words) };
        for (w, occ_word) in send_occ.iter_mut().enumerate() {
            let mut pending = *occ_word;
            // Draining the send row is one store per occupancy word; a
            // round where this node stayed silent scans `degree / 64`
            // zero words and touches no payload.
            *occ_word = 0;
            while pending != 0 {
                let port = w * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let mut word = send_words[port];
                let to = neighbor_ids[port];
                // One unsigned compare: ids below `lo` wrap past `len`.
                tally.crossed += u64::from(to.0.wrapping_sub(lo) >= len);
                if HOOKED {
                    on_message(id, to, word);
                    if let Some(down) = args.edge_down {
                        // Churn link state: a down edge eats the message
                        // before receiver liveness is even observable.
                        // The bit is keyed by undirected edge id, so both
                        // directions fail together.
                        let e = graph.neighbor_edges(id)[port].index();
                        if down[e / 64] >> (e % 64) & 1 == 1 {
                            tally.adversary_dropped_messages += 1;
                            continue;
                        }
                    }
                }
                if !args.live.contains(to.index()) {
                    tally.dropped_messages += 1;
                    continue;
                }
                let cell = mirror[port];
                if !HOOKED {
                    batch.push(args.next, cell, word, tally);
                    continue;
                }
                if let Some(adv) = args.adversary {
                    if adv.drops_message(args.round, id, to) {
                        // Lost in flight: the receiver is alive but never
                        // sees it. Every coin here is pure in (round,
                        // from, to), so the schedule is identical under
                        // any delivery order or split.
                        tally.adversary_dropped_messages += 1;
                        continue;
                    }
                    if adv.corrupts_message(args.round, id, to) {
                        tally.corrupted_messages += 1;
                        // The payload type decides whether corruption
                        // surfaces as a mutated value or as a checksum
                        // discard; the sender's meter already charged
                        // what it transmitted, before the garbling.
                        // Garbling happens on the *unpacked* message —
                        // bit-flip semantics are the type's, not the
                        // frame's — and the survivor is repacked for the
                        // wire.
                        let entropy = adv.corruption_entropy(args.round, id, to);
                        match <P::Msg as PackedMsg>::unpack(word).corrupted(entropy) {
                            Some(garbled) => word = garbled.pack(),
                            None => continue,
                        }
                    }
                }
                // Synchronous arrival is the next round; an async
                // scheduler adds a pure per-edge delay on top.
                let delay = match args.scheduler {
                    Some(sched) => {
                        let d = sched.delay(args.round, id, to);
                        if d > 0 {
                            tally.delayed_messages += 1;
                        }
                        d
                    }
                    None => 0,
                };
                if args
                    .adversary
                    .is_some_and(|adv| adv.duplicates_message(args.round, id, to))
                {
                    // The duplicate trails the original by exactly one
                    // round: a distinct ring plane (the ring is one plane
                    // longer when duplication is on), so each (plane,
                    // cell) pair is still written by at most one sender
                    // within this phase. Duplication is free on words —
                    // the same packed frame is scattered twice.
                    tally.duplicated_messages += 1;
                    batch.push(layout.recv_for(args.round + 2 + delay), cell, word, tally);
                }
                let plane = if delay == 0 {
                    args.next
                } else {
                    layout.recv_for(args.round + 1 + delay)
                };
                batch.push(plane, cell, word, tally);
            }
        }
    }
}

/// The mutable state of one run, updated by the round loop's sequential
/// section.
struct RunState<'g, P: Protocol> {
    rows: Vec<NodeState<P>>,
    /// Ids of the nodes that may still step, ascending: the delivery
    /// phase compacts it with a stable `retain`, and reboots merge their
    /// ids back in order.
    ids: Vec<u32>,
    /// Liveness per node id: the steps, the crash and leave coins, the
    /// inbox shuffle and delivery's drop decisions all read it.
    live: LiveSet,
    /// The ids whose step in the latest compute phase sent at least one
    /// message: all that delivery drains.
    senders: ShardIds,
    /// The ids that halted in the latest compute phase: all that the halt
    /// pass visits.
    halters: ShardIds,
    outputs: Vec<Option<P::Output>>,
    stats: RunStats,
    /// Messages that crossed a shard boundary so far.
    crossed: u64,
    traces: Vec<MessageTrace>,
    seed: u64,
    factory: Box<dyn FnMut(&NodeInfo<'g>) -> P + 'g>,
}

impl<'g, P: Protocol> RunState<'g, P> {
    /// Compute phase of `round`: on the calling thread, or one scoped
    /// thread per shard with active ids. Each shard's run of the active
    /// list steps against its own state rows and fills its own slots of
    /// the sender and halter lists, all taken with `split_at_mut`. The
    /// phase's send meter, one per worker merged, goes into the run's
    /// statistics.
    fn compute(
        &mut self,
        round: usize,
        layout: &Layout<'g>,
        partition: &ShardPartition,
        bit_budget: Option<usize>,
    ) {
        let (ids, live, mut rows) = (&self.ids[..], &self.live, &mut self.rows[..]);
        let shards = shard_runs(ids, partition)
            .zip(self.senders.shards_mut(partition))
            .zip(self.halters.shards_mut(partition))
            .map(|(((ids, shard), senders), halters)| ShardWork {
                ids,
                base: shard.start,
                rows: take_front(&mut rows, shard.len()),
                senders,
                halters,
            });
        let step_shard = move |work| {
            let mut meter = Meter::new(bit_budget);
            Engine::<P>::step_all(work, round, layout, live, &mut meter);
            meter
        };
        let meter = if runs_inline(ids.len(), partition.shards()) {
            shards
                .map(step_shard)
                .fold(Meter::new(bit_budget), Meter::merge)
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = shards
                    .filter(|work| !work.ids.is_empty())
                    .map(|work| scope.spawn(move || step_shard(work)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .fold(Meter::new(bit_budget), Meter::merge)
            })
        };
        meter.add_to(&mut self.stats);
    }

    /// Takes node `v` out of the run before a compute phase — a crash or a
    /// churn leave: it stops stepping, and delivery drops everything
    /// addressed to it. With `wipe`, its receive rows across the ring are
    /// cleared too and their messages counted as dropped, so a later
    /// [`reboot`](Self::reboot) starts from an empty inbox.
    fn depart(&mut self, v: usize, layout: &Layout<'g>, wipe: bool) {
        self.live.remove(v);
        if wipe {
            let (start, degree) = layout.row(v);
            self.stats.dropped_messages += layout.wipe(start, degree);
        }
    }

    /// Boots node `v` again — a restart after a crash, or a churn join —
    /// with factory-fresh protocol state and a fresh RNG stream, salted by
    /// `salt` and the round so a node rebooting twice gets two distinct
    /// streams. Its next step runs `init`. The caller merges the id back
    /// into the active list with [`relist`](Self::relist).
    fn reboot(&mut self, v: usize, layout: &Layout<'g>, salt: u64, round: usize) {
        let id = NodeId(v as u32);
        let state = &mut self.rows[v];
        state.proto = (self.factory)(&layout.globals.info(layout.graph, id));
        state.rng = node_rng(phase_seed(self.seed, salt.wrapping_add(round as u64)), id);
        state.pending_halt = None;
        state.needs_init = true;
        self.live.insert(v);
    }

    /// Rebuilds the active list from liveness, ascending: the merge after
    /// reboots. This also drops nodes that departed earlier in the round,
    /// which have nothing left to step or send.
    fn relist(&mut self) {
        self.ids.clear();
        self.ids.extend(self.live.ids());
    }

    /// Delivery phase: apply this round's halts, drain the send-plane row
    /// of every node that sent into the receive plane (split at
    /// `partition`'s shard boundaries, or on this thread when traced),
    /// then drop halted and departed ids from the active list with a
    /// stable `retain`. Runs after *all* nodes computed, so whether a
    /// message is dropped depends only on the set of halted nodes — never
    /// on node processing order.
    fn delivery_phase(
        &mut self,
        config: &SimConfig,
        layout: &Layout<'g>,
        edge_down: Option<&[u64]>,
        round: usize,
        partition: &ShardPartition,
    ) {
        let halters = self.halters.runs(partition).flat_map(|(run, _)| run);
        for &v in halters {
            let v = v as usize;
            debug_assert!(self.live.contains(v), "only live nodes step");
            self.outputs[v] = self.rows[v].pending_halt.take();
            self.live.remove(v);
        }
        // The receive plane this round's compute phase consumed is cleared
        // before anything is delivered: with the longest delay, delivery
        // writes arrivals of round `round + ring_len`, which land in it.
        // SAFETY: the compute phase is over and delivery has not started,
        // so no worker holds any plane reference.
        unsafe { layout.recv_for(round).occ_all() }.fill(0);
        let args = DeliverArgs {
            next: layout.recv_for(round + 1),
            live: &self.live,
            round,
            adversary: config.adversary.filter(Adversary::affects_delivery),
            scheduler: config.scheduler.filter(|s| s.max_delay() > 0),
            edge_down,
        };
        let hooked = args.adversary.is_some() || args.scheduler.is_some() || edge_down.is_some();
        let tally = if config.record_traces {
            // Tracing pins delivery to ascending node-id order — the
            // lists' own order — and stays sequential: the documented
            // small-graph path. A trace's size is the one the sender was
            // metered for, since `unpack(pack(m)) == m`.
            let (runs, traces) = (self.senders.runs(partition), &mut self.traces);
            let trace = |from, to, word| {
                let bits = <P::Msg as PackedMsg>::unpack(word).bit_size();
                traces.push(MessageTrace {
                    round,
                    from,
                    to,
                    bits,
                });
            };
            // SAFETY: this thread delivers the whole phase.
            unsafe { Engine::<P>::deliver_all::<true>(runs, layout, &args, BitSet::Plain, trace) }
        } else if hooked {
            Engine::<P>::deliver::<true>(&self.senders, layout, &args, partition)
        } else {
            Engine::<P>::deliver::<false>(&self.senders, layout, &args, partition)
        };
        self.crossed += tally.crossed;
        tally.add_to(&mut self.stats);
        let live = &self.live;
        self.ids.retain(|&v| live.contains(v as usize));
    }
}

/// Convenience wrapper: build and run in one call.
///
/// ```
/// use congest_graph::generators;
/// use congest_sim::{run_protocol, Context, Inbox, Protocol, SimConfig, Status};
///
/// struct Degree;
/// impl Protocol for Degree {
///     type Msg = ();
///     type Output = usize;
///     fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
///     fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>)
///         -> Status<usize>
///     {
///         Status::Halt(ctx.degree())
///     }
/// }
///
/// let g = generators::star(5);
/// let outcome = run_protocol(&g, SimConfig::local(), |_| Degree, 1);
/// assert_eq!(outcome.outputs[0], Some(4));
/// ```
pub fn run_protocol<'g, P: Protocol>(
    graph: &'g Graph,
    config: SimConfig,
    factory: impl FnMut(&NodeInfo<'g>) -> P + 'g,
    seed: u64,
) -> RunOutcome<P::Output> {
    Engine::build(graph, config, factory).run(seed)
}

/// One zeroed plane buffer of `len` words, advised onto huge pages before
/// the run touches it: a zeroed allocation of a plane's size normally
/// comes straight from the kernel as an untouched mapping, so the advice
/// precedes its first page fault.
fn plane_buffer(len: usize) -> Vec<u64> {
    let mut buf = vec![0u64; len];
    advise_huge_pages(&mut buf);
    buf
}

/// The base page size [`advise_huge_pages`] rounds to.
const PAGE_BYTES: usize = 4096;

/// The smallest buffer [`advise_huge_pages`] advises: one transparent huge
/// page.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// The whole pages inside the `bytes` bytes at `addr`, as (start, length):
/// what [`advise_huge_pages`] advises. `None` for a buffer under
/// [`HUGE_PAGE_BYTES`].
fn huge_page_span(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    if bytes < HUGE_PAGE_BYTES {
        return None;
    }
    let start = addr.next_multiple_of(PAGE_BYTES);
    let end = (addr + bytes) / PAGE_BYTES * PAGE_BYTES;
    Some((start, end - start))
}

/// Asks the kernel to back `buf` with transparent huge pages
/// (`madvise(MADV_HUGEPAGE)`), where the host leaves that to the
/// program. Delivery scatters at random over whole planes, and on 4 KiB
/// pages most of those writes miss the TLB as well as the caches. Only
/// the whole pages inside `buf` are advised. The advice is a hint: it
/// never changes the contents, a refusal is ignored, and it is a no-op
/// off Linux.
fn advise_huge_pages(buf: &mut [u64]) {
    #[cfg(target_os = "linux")]
    if let Some((start, len)) = huge_page_span(buf.as_mut_ptr() as usize, size_of_val(buf)) {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `start..start + len` lies inside `buf`, which this
        // function borrows exclusively, and `MADV_HUGEPAGE` only changes
        // how the kernel backs those pages, never their contents.
        let _ = unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = buf;
}

/// Bytes the engine's message planes occupy for a run over `graph`, with
/// a receive ring of `ring_len` planes (synchronous runs: 1; an
/// [`AsyncScheduler`] with max delay `d` plus the duplication adversary:
/// `d + 2`). This is what `bench_baseline` records per trajectory entry.
///
/// A receive plane is exactly 8 payload bytes plus 1 occupancy bit per
/// directed edge (the bitmap rounded up to whole words). The send plane
/// keeps `⌈degree / 64⌉` occupancy words per node, so that compute-phase
/// writes never share a word across nodes: at average degree 8 that is 1
/// amortized bitmap byte per directed edge. Message size does not appear:
/// the plane word is 64 bits no matter what the protocol packs into it,
/// which is the point of the packed representation.
pub fn plane_bytes_for(graph: &Graph, ring_len: usize) -> usize {
    let directed_edges = graph.row_offsets()[graph.num_nodes()] as usize;
    let send_occ_words: usize = graph.nodes().map(|v| graph.degree(v).div_ceil(64)).sum();
    let send = directed_edges + send_occ_words;
    let recv = directed_edges + directed_edges.div_ceil(64);
    (send + ring_len * recv) * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Each node halts immediately, outputting its degree.
    struct InstantHalt;
    impl Protocol for InstantHalt {
        type Msg = ();
        type Output = usize;
        fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<usize> {
            Status::Halt(ctx.degree())
        }
    }

    /// Echoes its id to all neighbors each round; halts after collecting
    /// all neighbor ids (which takes exactly one exchange).
    struct Census {
        heard: Vec<NodeId>,
    }
    impl Protocol for Census {
        type Msg = u32;
        type Output = Vec<NodeId>;
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            let id = ctx.id().0;
            ctx.broadcast(id);
        }
        fn round(
            &mut self,
            _ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<Vec<NodeId>> {
            for (_, id) in inbox {
                self.heard.push(NodeId(id));
            }
            self.heard.sort_unstable();
            Status::Halt(self.heard.clone())
        }
    }

    #[test]
    fn instant_halt_runs_one_round() {
        let g = generators::cycle(5);
        let outcome = run_protocol(&g, SimConfig::local(), |_| InstantHalt, 0);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.total_messages, 0);
        assert!(outcome.outputs.iter().all(|o| *o == Some(2)));
    }

    #[test]
    fn census_learns_neighbor_ids() {
        let g = generators::star(4);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| Census { heard: Vec::new() },
            7,
        );
        assert!(outcome.completed);
        let outputs = outcome.outputs;
        assert_eq!(
            outputs[0].as_ref().unwrap(),
            &vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        for leaf in outputs.iter().skip(1) {
            assert_eq!(leaf.as_ref().unwrap(), &vec![NodeId(0)]);
        }
    }

    /// Halts in round 1 with the weight it reads at each port.
    struct PortWeights;
    impl Protocol for PortWeights {
        type Msg = ();
        type Output = Vec<u64>;
        fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<Vec<u64>> {
            Status::Halt((0..ctx.degree()).map(|p| ctx.edge_weight(p)).collect())
        }
    }

    /// The weight a node reads at a port is the graph's weight of the edge
    /// behind it: after `randomize_edge_weights`, after `set_edge_weight`,
    /// and on an overlay folded after weighted inserts and removals, whose
    /// fold renumbers the edge ids.
    #[test]
    fn edge_weight_at_each_port_is_the_graphs() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut gnp = generators::gnp(200, 0.05, &mut rng);
        generators::randomize_edge_weights(&mut gnp, 1 << 20, &mut rng);
        let mut triangle = generators::complete(3);
        triangle.set_edge_weight(triangle.find_edge(NodeId(0), NodeId(2)).unwrap(), 99);
        let mut dg = congest_graph::DeltaGraph::new(gnp.clone());
        for v in (0..200).map(NodeId) {
            let u = NodeId((v.0 * 7 + 11) % 200);
            if v.0 % 3 == 0 && u != v && !dg.has_edge(u, v) {
                dg.insert_edge(u, v, 1000 + u64::from(v.0));
            }
            let first = gnp.neighbor_ids(v).first().copied();
            if let Some(w) = first.filter(|&w| v.0 % 4 == 0 && dg.has_edge(v, w)) {
                dg.remove_edge(v, w);
            }
        }
        dg.fold();
        for g in [&gnp, &triangle, dg.base()] {
            let outcome = run_protocol(g, SimConfig::local(), |_| PortWeights, 0);
            for v in g.nodes() {
                let expected: Vec<u64> = g
                    .neighbor_edges(v)
                    .iter()
                    .map(|&e| g.edge_weight(e))
                    .collect();
                assert_eq!(outcome.outputs[v.index()], Some(expected), "{v}");
            }
        }
    }

    #[test]
    fn message_stats_counted() {
        let g = generators::complete(4);
        let outcome = run_protocol(
            &g,
            SimConfig::congest_for(&g),
            |_| Census { heard: Vec::new() },
            7,
        );
        // Every node broadcasts once at init: 4 nodes × 3 ports.
        assert_eq!(outcome.stats.total_messages, 12);
        assert_eq!(outcome.stats.budget_violations, 0);
        assert!(outcome.stats.max_message_bits >= 1);
    }

    /// Multi-round randomized walk: every round each node adds a private
    /// coin to a running sum, broadcasts it, and halts once the sum
    /// crosses a threshold — so outputs depend on per-node RNG streams,
    /// inbox contents, *and* halt timing, exactly the surface where a
    /// misaligned executor would diverge.
    struct CoinWalk {
        sum: u64,
        heard: u64,
    }
    impl Protocol for CoinWalk {
        type Msg = u32;
        type Output = (usize, u64);
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn round(
            &mut self,
            ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<(usize, u64)> {
            for (_, x) in inbox {
                self.heard = self.heard.wrapping_mul(31).wrapping_add(u64::from(x));
            }
            self.sum += ctx.rng().random_range(0..7u64);
            if self.sum >= 12 {
                return Status::Halt((ctx.round(), self.heard));
            }
            ctx.broadcast((self.sum & 0xffff) as u32);
            Status::Active
        }
    }

    #[test]
    fn sharded_executor_is_bit_identical_to_sequential() {
        use congest_graph::ShardPartition;
        let mut rng = SmallRng::seed_from_u64(9);
        for trial in 0..3u64 {
            let g = generators::gnp(60, 0.08, &mut rng);
            let cfg = SimConfig::congest_for(&g).with_max_rounds(400);
            let base =
                Engine::build(&g, cfg.clone(), |_| CoinWalk { sum: 0, heard: 0 }).run(31 + trial);
            assert!(base.completed, "trial {trial}");
            for shards in [1usize, 2, 3, 7] {
                let p = ShardPartition::contiguous(g.num_nodes(), shards);
                let run = Engine::build(&g, cfg.clone(), |_| CoinWalk { sum: 0, heard: 0 })
                    .run_sharded(31 + trial, &p);
                assert_eq!(run.outcome.completed, base.completed, "trial {trial}");
                assert_eq!(run.outcome.outputs, base.outputs, "trial {trial}/{shards}");
                assert_eq!(run.outcome.stats, base.stats, "trial {trial}/{shards}");
                if shards == 1 {
                    assert_eq!(run.cross_shard_messages, 0);
                }
            }
        }
    }

    #[test]
    fn churn_saturation_departs_every_node_gracefully() {
        // node_leave_prob = 1.0: every node departs in round 1, leaving
        // zero live nodes. The loop must terminate immediately (no
        // empty-graph spin to the round cap) with the departure counted.
        let mut rng = SmallRng::seed_from_u64(44);
        let g = generators::gnp(30, 0.2, &mut rng);
        let adv = Adversary::default().with_seed(99).with_node_leave_prob(1.0);
        let cfg = SimConfig::congest_for(&g).with_adversary(adv);
        let outcome = Engine::build(&g, cfg, |_| Census { heard: Vec::new() }).run(5);
        assert!(!outcome.completed, "departed nodes never produce outputs");
        assert_eq!(outcome.stats.nodes_left as usize, g.num_nodes());
        assert!(
            outcome.stats.rounds <= 2,
            "saturated churn must terminate at once, ran {} rounds",
            outcome.stats.rounds
        );
    }

    #[test]
    fn zero_slot_graph_completes_vacuously_on_every_executor() {
        use congest_graph::ShardPartition;
        let g = congest_graph::GraphBuilder::new().build();
        let seq = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run(1);
        assert!(seq.completed);
        assert_eq!(seq.stats.rounds, 0);
        let par = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run_parallel(1);
        assert!(par.completed);
        let p = ShardPartition::contiguous(0, 3);
        let sh = Engine::build(&g, SimConfig::congest_for(&g), |_| InstantHalt).run_sharded(1, &p);
        assert!(sh.outcome.completed);
        assert_eq!(sh.cross_shard_messages, 0);
    }

    #[test]
    fn sharded_cross_meter_counts_boundary_traffic_exactly() {
        use congest_graph::ShardPartition;
        // path(6) in 2 shards of 3: only the edge 2–3 crosses. Census
        // broadcasts once per node at init, so exactly one message per
        // direction crosses the boundary.
        let g = generators::path(6);
        let p = ShardPartition::contiguous(6, 2);
        let run = Engine::build(&g, SimConfig::congest_for(&g), |_| Census {
            heard: Vec::new(),
        })
        .run_sharded(3, &p);
        assert!(run.outcome.completed);
        assert_eq!(run.cross_shard_messages, 2);
    }

    /// The meter counts exactly the traced messages between shards, on
    /// worker threads and inline alike: with 2,100 nodes on 2 shards,
    /// rounds 0 and 1 have more than 1024 active ids per shard and spawn
    /// workers (their delivery only when untraced), later rounds do not.
    #[test]
    fn cross_meter_counts_traced_crossings_threaded_and_inline() {
        use congest_graph::ShardPartition;
        let mut rng = SmallRng::seed_from_u64(12);
        let g = generators::gnp(2100, 0.002, &mut rng);
        let p = ShardPartition::contiguous(g.num_nodes(), 2);
        let traced = SimConfig::congest_for(&g).with_traces();
        let seq = Engine::build(&g, traced.clone(), |_| gossip()).run(4);
        let first = |v: NodeId| p.range(0).contains(&v.index());
        let crossings = seq.traces.iter().filter(|t| first(t.from) != first(t.to));
        let expected = crossings.count() as u64;
        assert!(expected > 0 && seq.stats.rounds > 2);
        for config in [traced, SimConfig::congest_for(&g)] {
            let run = Engine::build(&g, config, |_| gossip()).run_sharded(4, &p);
            assert_eq!(run.outcome.stats, seq.stats);
            assert_eq!(run.cross_shard_messages, expected);
        }
    }

    /// Broadcasts the sender id, then asserts every message arrived on the
    /// port whose neighbor is that sender — i.e. the plane scatter through
    /// the mirror table routes exactly as the old per-edge `position()`
    /// scan did.
    struct PortEcho;
    impl Protocol for PortEcho {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            let id = ctx.id().0;
            ctx.broadcast(id);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: Inbox<'_, u32>) -> Status<()> {
            assert_eq!(inbox.len(), ctx.degree());
            assert_eq!(inbox.num_ports(), ctx.degree());
            let mut last_port = None;
            for (port, id) in inbox {
                assert_eq!(ctx.neighbor(port), NodeId(id));
                assert_eq!(inbox.get(port), Some(id));
                // The CSR-backed inbox iterates in ascending port order by
                // construction.
                assert!(last_port.is_none_or(|p| p < port));
                last_port = Some(port);
            }
            Status::Halt(())
        }
    }

    /// Regression for the mirror table: `complete(512)` was the worst case
    /// of the old `O(Σ deg²)` port construction in `Engine::build`;
    /// the engine now borrows the graph's `O(n + m)` table and must route
    /// every one of the 512·511 messages to the same port as before.
    #[test]
    fn delivery_ports_match_position_scan_on_complete_512() {
        let g = generators::complete(512);
        let outcome = run_protocol(&g, SimConfig::local(), |_| PortEcho, 0);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 512 * 511);
    }

    /// Sends through all three send calls, on a gadget `a–b–c` plus an
    /// isolated `d` (ids `4i..4i + 4`). Init: a filter that selects no
    /// port, with a 64-bit message, then a 2-bit broadcast (the isolated
    /// node's writes no port). Round 1: `a` sends 10 bits to `b` and
    /// halts; `b` sends 3 bits to `a` and a filtered 9 bits to `c`; `c`
    /// broadcasts 3 bits to `b` and halts; `d` broadcasts a 21-bit and a
    /// 64-bit message to no one and halts. Round 2: `b` halts.
    struct MeterProbe;
    impl Protocol for MeterProbe {
        type Msg = u64;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast_filtered(u64::MAX, |_| false);
            ctx.broadcast(3);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: Inbox<'_, u64>) -> Status<()> {
            match (ctx.round(), ctx.id().0 % 4) {
                (1, 0) => ctx.send(0, 1 << 9),
                (1, 1) => {
                    ctx.send(0, 5);
                    ctx.broadcast_filtered(300, |p| p == 1);
                    return Status::Active;
                }
                (1, 2) => ctx.broadcast(7),
                (1, _) => {
                    ctx.broadcast(1 << 20);
                    ctx.broadcast_filtered(u64::MAX, |_| true);
                }
                _ => {}
            }
            Status::Halt(())
        }
    }

    /// The send-time meter is exact on every executor, traced or not, with
    /// 1,100 gadgets: rounds 0 and 1 have 4,400 active ids, enough for
    /// three workers to step and deliver them. Per gadget: 4 + 4 messages,
    /// the largest 10 bits, 2 over the 8-bit budget (one of them to a
    /// receiver halting in its sending round), and 2 dropped at receivers
    /// halting in the sending round. A filter that selects no port and a
    /// degree-0 broadcast charge nothing, not even their size.
    #[test]
    fn moved_meter_counts_exactly_on_every_executor() {
        use congest_graph::{GraphBuilder, ShardPartition};
        let k = 1100u32;
        let mut b = GraphBuilder::with_nodes(4 * k as usize);
        for i in 0..k {
            b.add_edge(NodeId(4 * i), NodeId(4 * i + 1));
            b.add_edge(NodeId(4 * i + 1), NodeId(4 * i + 2));
        }
        let g = b.build();
        let untraced = SimConfig {
            bit_budget: Some(8),
            ..SimConfig::local()
        };
        let k = u64::from(k);
        let p = ShardPartition::contiguous(g.num_nodes(), 3);
        for config in [untraced.clone(), untraced.with_traces()] {
            let runs = [
                Engine::build(&g, config.clone(), |_| MeterProbe).run(1),
                Engine::build(&g, config.clone(), |_| MeterProbe).run_parallel_with(1, 3),
                Engine::build(&g, config.clone(), |_| MeterProbe)
                    .run_sharded(1, &p)
                    .outcome,
            ];
            for out in runs {
                let s = &out.stats;
                assert!(out.completed);
                assert_eq!(s.rounds, 2);
                assert_eq!(s.total_messages, 8 * k);
                assert_eq!(s.max_message_bits, 10);
                assert_eq!(s.budget_violations, 2 * k);
                assert_eq!(s.dropped_messages, 2 * k);
                if !config.record_traces {
                    assert!(out.traces.is_empty());
                    continue;
                }
                assert_eq!(out.traces.len() as u64, s.total_messages);
                for t in &out.traces {
                    let sent: u64 = match (t.round, t.from.0 % 4, t.to.0 % 4) {
                        (0, ..) => 3,
                        (1, 0, 1) => 1 << 9,
                        (1, 1, 0) => 5,
                        (1, 1, 2) => 300,
                        (1, 2, 1) => 7,
                        other => panic!("unexpected message {other:?}"),
                    };
                    assert_eq!(t.bits, sent.bit_size(), "{t:?}");
                }
            }
        }
    }

    /// A protocol that never halts, to exercise the round cap.
    struct Forever;
    impl Protocol for Forever {
        type Msg = ();
        type Output = ();
        fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<()> {
            Status::Active
        }
    }

    #[test]
    fn round_cap_respected() {
        let g = generators::path(3);
        let outcome = run_protocol(&g, SimConfig::local().with_max_rounds(10), |_| Forever, 0);
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.rounds, 10);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn traces_record_messages() {
        let g = generators::path(2);
        let outcome = run_protocol(
            &g,
            SimConfig::local().with_traces(),
            |_| Census { heard: Vec::new() },
            3,
        );
        assert_eq!(outcome.traces.len(), 2);
        assert_eq!(outcome.traces[0].round, 0);
        assert_eq!(outcome.traces[0].from, NodeId(0));
        assert_eq!(outcome.traces[0].to, NodeId(1));
    }

    /// One designated node halts in round 1; the other keeps broadcasting
    /// through round 2. The broadcaster's round-1 message reaches a node
    /// that halted in round 1, so exactly that one message must be
    /// dropped — whichever of the two ids halts.
    struct HaltOne {
        halter: u32,
    }
    impl Protocol for HaltOne {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, _inbox: Inbox<'_, u32>) -> Status<()> {
            if ctx.id().0 == self.halter || ctx.round() >= 2 {
                Status::Halt(())
            } else {
                ctx.broadcast(1);
                Status::Active
            }
        }
    }

    #[test]
    fn messages_to_halted_nodes_are_dropped() {
        // Timeline on the path 0–1 (halter = node h, sender = the other
        // node s):
        //   init:    both broadcast; both messages delivered in round 1.
        //   round 1: h halts; s broadcasts and stays active. s's message
        //            is *sent* in h's halting round → dropped.
        //   round 2: s (empty inbox) halts.
        for halter in [0u32, 1] {
            let g = generators::path(2);
            let outcome = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter }, 0);
            assert!(outcome.completed);
            assert_eq!(outcome.stats.rounds, 2);
            assert_eq!(outcome.stats.total_messages, 3);
            assert_eq!(
                outcome.stats.dropped_messages, 1,
                "drop accounting must not depend on whether the halter's \
                 id is smaller (halter = {halter})"
            );
        }
    }

    #[test]
    fn drop_semantics_do_not_depend_on_node_order() {
        // Stronger variant on a star: the center halts in round 1 while
        // every leaf (ids both above and below the center's would-be
        // position) broadcasts in round 1. All leaf messages sent in
        // round 1 target the halted center and must be dropped; count is
        // the same no matter which node is the halter.
        let g = generators::star(5);
        let center = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter: 0 }, 0);
        assert_eq!(center.stats.dropped_messages, 4);
        let leaf = run_protocol(&g, SimConfig::local(), |_| HaltOne { halter: 3 }, 0);
        // Only the center neighbors the halting leaf, so exactly its
        // round-1 message to the leaf is dropped.
        assert_eq!(leaf.stats.dropped_messages, 1);
    }

    /// The CONGEST budget is `8·(id_bits + weight_bits)`; both summands
    /// are ceil-log terms, so the budget must never shrink as the graph
    /// grows in `n` or its weights grow toward `W`.
    #[test]
    fn congest_budget_is_monotone_in_n_and_w() {
        let mut prev = 0;
        for n in [1usize, 2, 3, 16, 17, 100, 1_000, 10_000] {
            let g = generators::path(n);
            let budget = SimConfig::congest_for(&g).bit_budget.unwrap();
            assert!(budget >= prev, "budget shrank going to n = {n}");
            prev = budget;
        }
        let mut prev = 0;
        for w in [1u64, 2, 3, 255, 256, 1 << 20, 1 << 40, u64::MAX] {
            let mut g = generators::path(50);
            g.set_node_weight(NodeId(0), w);
            let budget = SimConfig::congest_for(&g).bit_budget.unwrap();
            assert!(budget >= prev, "budget shrank going to W = {w}");
            prev = budget;
        }
        // Edge weights feed the same W term as node weights.
        let mut g = generators::path(50);
        let small = SimConfig::congest_for(&g).bit_budget.unwrap();
        g.set_edge_weight(congest_graph::EdgeId(0), u64::MAX);
        let large = SimConfig::congest_for(&g).bit_budget.unwrap();
        assert!(large > small);
    }

    #[test]
    fn determinism_across_runs() {
        struct Roll;
        impl Protocol for Roll {
            type Msg = ();
            type Output = u64;
            fn init(&mut self, _ctx: &mut Context<'_, ()>) {}
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<u64> {
                Status::Halt(ctx.rng().random())
            }
        }
        let g = generators::cycle(6);
        let a = run_protocol(&g, SimConfig::local(), |_| Roll, 99);
        let b = run_protocol(&g, SimConfig::local(), |_| Roll, 99);
        let c = run_protocol(&g, SimConfig::local(), |_| Roll, 100);
        let ax: Vec<_> = a.outputs.iter().map(|o| o.unwrap()).collect();
        let bx: Vec<_> = b.outputs.iter().map(|o| o.unwrap()).collect();
        let cx: Vec<_> = c.outputs.iter().map(|o| o.unwrap()).collect();
        assert_eq!(ax, bx);
        assert_ne!(ax, cx);
    }

    /// Message-heavy randomized protocol with staggered halts, used to
    /// pit the sequential and parallel executors against each other:
    /// every node draws a private deadline, then gossips random values,
    /// folding everything it hears into a running hash.
    struct RandomGossip {
        deadline: usize,
        acc: u64,
    }
    impl Protocol for RandomGossip {
        type Msg = u64;
        type Output = u64;
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            self.deadline = ctx.rng().random_range(1..=8);
            let roll: u64 = ctx.rng().random();
            self.acc = roll;
            ctx.broadcast(roll & 0xFFFF);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: Inbox<'_, u64>) -> Status<u64> {
            for (port, m) in inbox {
                self.acc = self
                    .acc
                    .rotate_left(7)
                    .wrapping_add(m)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ port as u64;
            }
            if ctx.round() >= self.deadline {
                Status::Halt(self.acc)
            } else {
                let roll: u64 = ctx.rng().random();
                ctx.broadcast(roll & 0xFFFF);
                Status::Active
            }
        }
    }

    fn gossip() -> RandomGossip {
        RandomGossip {
            deadline: 0,
            acc: 0,
        }
    }

    /// FNV-1a over every output, statistic, and trace of a run — a compact
    /// fingerprint of the engine's externally observable behavior.
    fn outcome_hash(out: &RunOutcome<u64>) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        for o in &out.outputs {
            mix(o.unwrap());
        }
        mix(out.stats.rounds as u64);
        mix(out.stats.total_messages);
        mix(out.stats.max_message_bits as u64);
        mix(out.stats.budget_violations);
        mix(out.stats.dropped_messages);
        for t in &out.traces {
            mix(t.round as u64);
            mix(t.from.0 as u64);
            mix(t.to.0 as u64);
            mix(t.bits as u64);
        }
        h
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run_on_gnp_1000() {
        let mut rng = SmallRng::seed_from_u64(2024);
        let g = generators::gnp(1000, 0.008, &mut rng);
        let config = SimConfig::congest_for(&g).with_traces();
        // Fingerprints recorded on the pre-CSR engine (PR 2's
        // `Vec<Vec<…>>` adjacency with per-`NodeInfo` clones) for seeds 1
        // and 77, and on the pre-flat-mailbox engine (PR 3's per-slot
        // `Vec` in/outboxes) for seeds 5 and 2024 — the two recordings
        // agree where they overlap, pinning the plane refactor to the
        // exact behavior of both ancestors: not a single output,
        // statistic, or trace may change.
        let recorded = [
            (1u64, 0x8a05ed62888b4b60u64),
            (77, 0x8c6e3fc93615c0c9),
            (5, 0x3a4363275fb53268),
            (2024, 0xfd55ba2d7db9f32e),
        ];
        for (seed, expected) in recorded {
            let seq = Engine::build(&g, config.clone(), |_| gossip()).run(seed);
            let par = Engine::build(&g, config.clone(), |_| gossip()).run_parallel(seed);
            assert!(seq.completed && par.completed);
            assert_eq!(seq.outputs, par.outputs);
            assert_eq!(seq.stats, par.stats);
            assert_eq!(seq.traces, par.traces);
            assert_eq!(
                outcome_hash(&seq),
                expected,
                "seed {seed}: outputs/stats/traces diverged from the \
                 pre-refactor engine"
            );
            // The staggered deadlines make some messages arrive at halted
            // nodes, so the run exercises the drop path it certifies.
            assert!(seq.stats.dropped_messages > 0);
            assert!(seq.stats.total_messages > 1000);
        }
    }

    /// The same bit-identity with tracing *off*: the untraced executors,
    /// which split the compacted active list between workers, must not
    /// change outputs or statistics relative to the traced path.
    #[test]
    fn compaction_preserves_outputs_and_stats() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(600, 0.01, &mut rng);
        let traced = SimConfig::congest_for(&g).with_traces();
        let plain = SimConfig::congest_for(&g);
        for seed in [3u64, 19] {
            let a = Engine::build(&g, traced.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let c = Engine::build(&g, plain.clone(), |_| gossip()).run_parallel(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(b.outputs, c.outputs);
            assert_eq!(b.stats, c.stats);
        }
    }

    #[test]
    fn full_message_drop_silences_every_link() {
        // Census halts after one exchange no matter what arrives, so under
        // a drop-everything adversary it completes with *empty* neighbor
        // lists and every sent message counted as adversary-dropped.
        let g = generators::complete(4);
        let config = SimConfig::congest_for(&g).with_adversary(Adversary::message_drops(1.0, 9));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 12);
        assert_eq!(outcome.stats.adversary_dropped_messages, 12);
        assert_eq!(outcome.stats.dropped_messages, 0);
        for out in outcome.outputs {
            assert_eq!(out.unwrap(), vec![]);
        }
    }

    #[test]
    fn full_crash_stops_the_run_without_outputs() {
        let g = generators::cycle(6);
        let config = SimConfig::local()
            .with_max_rounds(50)
            .with_adversary(Adversary::node_crashes(1.0, 3));
        let outcome = run_protocol(&g, config, |_| Forever, 0);
        // Every node crashes at the start of round 1: no outputs, the run
        // ends immediately (nothing left to step), and completion is
        // withheld because crashed nodes never halted.
        assert!(!outcome.completed);
        assert_eq!(outcome.stats.crashed_nodes, 6);
        assert_eq!(outcome.stats.rounds, 1);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    /// Broadcasts every round and never halts: under a crash adversary,
    /// the survivors' messages to freshly crashed neighbors must be
    /// counted as dropped (dead receiver), exactly like messages to
    /// halted nodes.
    struct Blaster;
    impl Protocol for Blaster {
        type Msg = u32;
        type Output = ();
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Context<'_, u32>, _inbox: Inbox<'_, u32>) -> Status<()> {
            ctx.broadcast(1);
            Status::Active
        }
    }

    #[test]
    fn crashed_nodes_absorb_messages_like_halted_ones() {
        let g = generators::complete(8);
        let config = SimConfig::local()
            .with_max_rounds(40)
            .with_adversary(Adversary::node_crashes(0.5, 11));
        let outcome = run_protocol(&g, config, |_| Blaster, 0);
        // With per-round crash probability ½ on 8 nodes, 40 rounds kill
        // everyone (probability of survival ≈ 8·2⁻⁴⁰) — and every message
        // a survivor sent to an already-crashed neighbor must be in
        // `dropped_messages`.
        assert_eq!(outcome.stats.crashed_nodes, 8);
        assert!(!outcome.completed);
        assert!(outcome.stats.total_messages > 0);
        assert!(
            outcome.stats.dropped_messages > 0,
            "messages to crashed receivers must be counted as dropped"
        );
        assert_eq!(outcome.stats.adversary_dropped_messages, 0);
        assert!(outcome.outputs.iter().all(Option::is_none));
    }

    #[test]
    fn zero_probability_adversary_is_bit_identical_to_none() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::gnp(200, 0.04, &mut rng);
        let plain = SimConfig::congest_for(&g).with_traces();
        let zeroed = plain
            .clone()
            .with_adversary(Adversary::default().with_seed(0xDEAD));
        for seed in [2u64, 40] {
            let a = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, zeroed.clone(), |_| gossip()).run(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.traces, b.traces);
        }
    }

    #[test]
    fn fault_schedules_replay_and_parallelize_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(400, 0.02, &mut rng);
        let adv = Adversary {
            drop_prob: 0.15,
            crash_prob: 0.01,
            seed: 77,
            ..Adversary::default()
        };
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(adv);
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config.clone(), |_| gossip()).run_parallel(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "faults must be chunking-independent");
        assert!(a.stats.adversary_dropped_messages > 0);
        // A different adversary seed yields a different schedule.
        let other = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary { seed: 78, ..adv });
        let c = Engine::build(&g, other, |_| gossip()).run(5);
        assert_ne!(
            (a.outputs, a.stats),
            (c.outputs, c.stats),
            "adversary seed must matter"
        );
    }

    #[test]
    fn run_parallel_matches_run_on_tiny_and_empty_graphs() {
        for g in [
            generators::path(1),
            generators::path(2),
            generators::complete(9),
        ] {
            let seq = Engine::build(&g, SimConfig::local(), |_| gossip()).run(5);
            let par = Engine::build(&g, SimConfig::local(), |_| gossip()).run_parallel(5);
            assert_eq!(seq.outputs, par.outputs);
            assert_eq!(seq.stats, par.stats);
            // The thread count is clamped to the slot count before the
            // partition is built, so an absurd one is one shard per node.
            let most = Engine::build(&g, SimConfig::local(), |_| gossip())
                .run_parallel_with(5, usize::MAX);
            assert_eq!(seq.outputs, most.outputs);
            assert_eq!(seq.stats, most.stats);
        }
    }

    #[test]
    fn zero_delay_scheduler_is_bit_identical_to_none() {
        // The synchronous special case: a scheduler that cannot delay must
        // leave outputs, stats, *and traces* untouched — the engine takes
        // the single-plane path and draws no delay coins.
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::gnp(200, 0.04, &mut rng);
        let plain = SimConfig::congest_for(&g).with_traces();
        let sched = plain
            .clone()
            .with_scheduler(AsyncScheduler::uniform(0, 0xBEEF));
        for seed in [2u64, 40] {
            let a = Engine::build(&g, plain.clone(), |_| gossip()).run(seed);
            let b = Engine::build(&g, sched.clone(), |_| gossip()).run(seed);
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.traces, b.traces);
            assert_eq!(b.stats.delayed_messages, 0);
        }
    }

    #[test]
    fn delays_change_behavior_deterministically_and_in_parallel() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(400, 0.02, &mut rng);
        for sched in [
            AsyncScheduler::uniform(3, 21),
            AsyncScheduler::geometric(0.5, 6, 22),
        ] {
            let config = SimConfig::congest_for(&g)
                .with_max_rounds(64)
                .with_scheduler(sched);
            let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
            let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
            let par = Engine::build(&g, config, |_| gossip()).run_parallel(5);
            assert!(a.stats.delayed_messages > 0, "delays must fire");
            assert_eq!(a.outputs, b.outputs, "delay schedules must replay");
            assert_eq!(a.stats, b.stats);
            assert_eq!(
                a.outputs, par.outputs,
                "delays must be chunking-independent"
            );
            assert_eq!(a.stats, par.stats);
            let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
            assert_ne!(a.outputs, clean.outputs, "delays must be observable");
        }
    }

    #[test]
    fn duplication_redelivers_a_round_late() {
        // Census halts after its first exchange, so on a path the only
        // effect of always-duplicate is the counter and the late copies
        // landing at halted receivers (counted dropped).
        let g = generators::path(3);
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_duplicates(1.0, 4));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.total_messages, 4);
        assert_eq!(outcome.stats.duplicated_messages, 4);
        // Every node still hears each neighbor exactly once before halting.
        assert_eq!(outcome.outputs[1].as_ref().unwrap().len(), 2);
    }

    /// Counts how many messages arrive per round, never halting — lets
    /// tests observe duplicates and delays as receiver-side arrivals.
    struct ArrivalCounter {
        arrivals: Vec<usize>,
    }
    impl Protocol for ArrivalCounter {
        type Msg = u32;
        type Output = Vec<usize>;
        fn init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(ctx.id().0);
        }
        fn round(
            &mut self,
            ctx: &mut Context<'_, u32>,
            inbox: Inbox<'_, u32>,
        ) -> Status<Vec<usize>> {
            self.arrivals.push(inbox.len());
            if ctx.round() >= 6 {
                Status::Halt(self.arrivals.clone())
            } else {
                Status::Active
            }
        }
    }

    #[test]
    fn duplicated_copies_arrive_exactly_one_round_after_originals() {
        let g = generators::path(2);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(10)
            .with_adversary(Adversary::message_duplicates(1.0, 4));
        let outcome = run_protocol(&g, config, |_| ArrivalCounter { arrivals: vec![] }, 0);
        assert!(outcome.completed);
        // Only init broadcasts: original in round 1, duplicate in round 2.
        for out in outcome.outputs {
            assert_eq!(out.unwrap(), vec![1, 1, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn corruption_discards_unmutatable_payloads_like_drops() {
        // Census carries u32 payloads, which mutate (bit flip) rather than
        // discard — neighbor lists change but everyone still hears degree
        // many values. `()` payloads (InstantHalt) never send, so use
        // Census for the mutation path and a bool echo for discards.
        let g = generators::complete(4);
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_corruption(1.0, 6));
        let outcome = run_protocol(&g, config, |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        assert_eq!(outcome.stats.corrupted_messages, 12);
        assert_eq!(outcome.stats.adversary_dropped_messages, 0);
        // Bit-flipped ids still arrive: every node hears all 3 neighbors.
        for out in outcome.outputs {
            assert_eq!(out.unwrap().len(), 3);
        }

        /// Echoes `true` once; bool's `corrupted` defaults to checksum
        /// discard, so under full corruption nobody hears anything.
        struct BoolEcho;
        impl Protocol for BoolEcho {
            type Msg = bool;
            type Output = usize;
            fn init(&mut self, ctx: &mut Context<'_, bool>) {
                ctx.broadcast(true);
            }
            fn round(
                &mut self,
                _ctx: &mut Context<'_, bool>,
                inbox: Inbox<'_, bool>,
            ) -> Status<usize> {
                Status::Halt(inbox.len())
            }
        }
        let config =
            SimConfig::congest_for(&g).with_adversary(Adversary::message_corruption(1.0, 6));
        let outcome = run_protocol(&g, config, |_| BoolEcho, 7);
        assert_eq!(outcome.stats.corrupted_messages, 12);
        assert!(outcome.outputs.into_iter().all(|o| o.unwrap() == 0));
    }

    #[test]
    fn reordering_permutes_inboxes_without_losing_messages() {
        let g = generators::complete(8);
        let config = SimConfig::congest_for(&g).with_adversary(Adversary::inbox_reorders(1.0, 13));
        let outcome = run_protocol(&g, config.clone(), |_| Census { heard: Vec::new() }, 7);
        assert!(outcome.completed);
        // Census sorts what it heard, so the permutation is invisible in
        // outputs — nothing may be lost or duplicated by a shuffle.
        for out in &outcome.outputs {
            assert_eq!(out.as_ref().unwrap().len(), 7);
        }
        // But gossip folds port indices into its hash, so a shuffled run
        // must diverge from the clean one — deterministically.
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnp(300, 0.03, &mut rng);
        let shuffled = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary::inbox_reorders(0.5, 13));
        let a = Engine::build(&g, shuffled.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, shuffled.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, shuffled, |_| gossip()).run_parallel(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats);
        let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
        assert_ne!(a.outputs, clean.outputs, "reordering must be observable");
    }

    #[test]
    fn restarted_nodes_rejoin_and_can_complete_the_run() {
        // Gossip halts once `round >= deadline ≤ 8`, so even a node that
        // restarts late halts promptly after rejoining: with moderate
        // crashes plus restart-after-2, the run must eventually complete
        // with every output present despite crashed_nodes > 0.
        let g = generators::cycle(20);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_crashes(0.05, 3).with_restart_after(2));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        assert!(
            a.stats.crashed_nodes > 0,
            "5% crashes over 20 nodes must fire"
        );
        assert_eq!(
            a.stats.crashed_nodes, a.stats.restarted_nodes,
            "with completion, every crash was followed by a restart"
        );
        assert!(a.completed, "restart mode must let the run complete");
        assert!(a.outputs.iter().all(Option::is_some));
        // Replay + parallel identity under restart.
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats);
        // Without restart, the same crash schedule leaves holes.
        let crash_only = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_crashes(0.05, 3));
        let c = Engine::build(&g, crash_only, |_| gossip()).run(9);
        assert!(!c.completed);
        assert_eq!(c.stats.restarted_nodes, 0);
    }

    #[test]
    fn every_knob_at_once_replays_and_parallelizes() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::gnp(300, 0.03, &mut rng);
        let adv = Adversary {
            drop_prob: 0.05,
            dup_prob: 0.1,
            reorder_prob: 0.2,
            corrupt_prob: 0.05,
            crash_prob: 0.01,
            restart_after: Some(3),
            edge_flip_prob: 0.02,
            node_join_prob: 0.3,
            node_leave_prob: 0.01,
            seed: 99,
        };
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(128)
            .with_scheduler(AsyncScheduler::uniform(2, 55))
            .with_adversary(adv);
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "all knobs must be chunking-independent");
        assert!(a.stats.delayed_messages > 0);
        assert!(a.stats.duplicated_messages > 0);
        assert!(a.stats.corrupted_messages > 0);
        assert!(a.stats.adversary_dropped_messages > 0);
        assert!(a.stats.edges_flipped > 0);
        assert!(a.stats.nodes_left > 0);
    }

    #[test]
    fn edge_flips_replay_and_parallelize_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnp(300, 0.03, &mut rng);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(64)
            .with_adversary(Adversary::edge_flips(0.02, 13));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(5);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(5);
        assert!(
            a.stats.edges_flipped > 0,
            "2% flips over 64 rounds must fire"
        );
        assert!(
            a.stats.adversary_dropped_messages > 0,
            "down edges must eat messages"
        );
        assert_eq!(a.outputs, b.outputs, "flip schedules must replay");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs, "flips must be chunking-independent");
        assert_eq!(a.stats, par.stats);
        let clean = Engine::build(&g, SimConfig::congest_for(&g), |_| gossip()).run(5);
        assert_ne!(a.outputs, clean.outputs, "flips must be observable");
        assert_eq!(clean.stats.edges_flipped, 0);
    }

    #[test]
    fn node_churn_replays_and_parallelizes_bit_identically() {
        let g = generators::cycle(24);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(5_000)
            .with_adversary(Adversary::node_churn(0.3, 0.03, 7));
        let a = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        assert!(a.stats.nodes_left > 0, "3% leaves over 24 nodes must fire");
        assert!(
            a.stats.nodes_joined > 0,
            "a 30% join coin must readmit leavers"
        );
        let b = Engine::build(&g, config.clone(), |_| gossip()).run(9);
        let par = Engine::build(&g, config, |_| gossip()).run_parallel(9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.stats, par.stats, "churn must be chunking-independent");
    }

    #[test]
    fn leaves_without_joins_leave_holes() {
        let g = generators::cycle(16);
        let config = SimConfig::congest_for(&g)
            .with_max_rounds(200)
            .with_adversary(Adversary::node_churn(0.0, 0.5, 3));
        let outcome = run_protocol(&g, config, |_| Forever, 0);
        assert!(!outcome.completed);
        assert!(outcome.stats.nodes_left > 0);
        assert_eq!(outcome.stats.nodes_joined, 0);
        assert_eq!(outcome.stats.crashed_nodes, 0, "leaves are not crashes");
    }

    /// The memory guard the 10M-node bench rows rely on: per directed
    /// edge, a plane costs 8 payload bytes plus at most 1 amortized
    /// occupancy byte at the bench matrix's average degree 8.
    #[test]
    fn plane_bytes_per_directed_edge_at_most_nine() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for n in [1_000usize, 10_000, 100_000] {
            let g = generators::gnp_skip(n, 8.0 / n as f64, &mut rng);
            let directed = g.row_offsets()[n] as usize;
            for ring_len in [1usize, 2, 4] {
                let per_plane = plane_bytes_for(&g, ring_len) / (1 + ring_len);
                assert!(
                    per_plane <= 9 * directed,
                    "n = {n}: {per_plane} bytes/plane exceeds 9 per directed edge"
                );
            }
        }
        // The exact figure on a cycle: 128 directed slots, so a send plane
        // of 128 payload plus 64 occupancy words (one per node) and a
        // receive plane of 128 payload plus 2 bitmap words.
        assert_eq!(
            plane_bytes_for(&generators::cycle(64), 1),
            (128 + 64 + 128 + 2) * 8
        );
    }

    /// The advice covers exactly the whole pages inside a buffer of at
    /// least 2 MiB, and whatever slice it gets, the contents stay.
    #[test]
    fn huge_page_advice_rounds_inward_and_keeps_contents() {
        const MB2: usize = HUGE_PAGE_BYTES;
        assert_eq!(huge_page_span(4096, MB2 - 8), None);
        assert_eq!(huge_page_span(16, MB2 - 1), None);
        assert_eq!(huge_page_span(4096, MB2), Some((4096, MB2)));
        // Unaligned at either end: both ends move inward.
        assert_eq!(huge_page_span(4096 + 16, MB2), Some((8192, MB2 - 4096)));
        assert_eq!(huge_page_span(16, MB2 + 8), Some((4096, MB2 - 4096)));
        assert_eq!(huge_page_span(0, 3 * MB2 + 5), Some((0, 3 * MB2)));
        let words = 3 * MB2 / 8;
        let mut buf: Vec<u64> = (0..words as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let copy = buf.clone();
        for (skip, len) in [
            (0, words),
            (1, words - 1),
            (3, MB2 / 8 + 5),
            (511, MB2 / 8 - 1),
            (7, 1001),
        ] {
            advise_huge_pages(&mut buf[skip..skip + len]);
            assert!(buf == copy, "advice at {skip}+{len} changed the buffer");
        }
    }

    #[test]
    #[should_panic(expected = "Adversary::crash_prob")]
    fn engine_build_rejects_mis_coined_struct_literals() {
        let g = generators::path(2);
        let config = SimConfig::local().with_max_rounds(4);
        let config = SimConfig {
            adversary: Some(Adversary {
                crash_prob: f64::NAN,
                ..Adversary::default()
            }),
            ..config
        };
        let _ = Engine::build(&g, config, |_| Forever);
    }
}
