//! Synchronous message-passing simulator for the CONGEST and LOCAL models.
//!
//! The classic CONGEST model ([Peleg, *Distributed Computing: A
//! Locality-Sensitive Approach*]) has the `n` nodes of a graph communicate
//! in synchronous rounds; per round, each node may send one `O(log n)`-bit
//! message along each incident edge. The LOCAL model is identical but with
//! unbounded message sizes.
//!
//! This crate simulates both models deterministically:
//!
//! * [`Protocol`] — the per-node algorithm: an `init` step and a `round`
//!   step that reads the inbox and sends messages through [`Context`].
//! * [`Engine`] — runs a protocol instance on every node of a
//!   [`Graph`](congest_graph::Graph), delivering messages with one-round
//!   latency, until all nodes halt (or a round cap is hit).
//! * [`Message`] — messages carry a *bit size* so the engine can meter the
//!   CONGEST `O(log n)` budget ([`RunStats::max_message_bits`],
//!   [`RunStats::budget_violations`]); [`PackedMsg`] additionally fixes
//!   each message type's ≤ 64-bit wire format, which is what the planes
//!   store.
//! * Reproducibility — every node derives its own RNG from the master seed
//!   via [`rng::node_rng`], so runs are bit-for-bit repeatable.
//! * Fault injection — an optional seeded [`Adversary`] drops, duplicates,
//!   reorders, and corrupts messages in flight and crash-stops nodes
//!   (optionally restarting them with reset state), with every decision a
//!   pure function of the adversary seed and the event's coordinates, so
//!   fault schedules replay bit-identically too (see the
//!   [`fault`](Adversary) docs). Off by default, with zero behavior change
//!   when disabled.
//! * Asynchrony — an optional seeded [`AsyncScheduler`] gives each
//!   delivered message a deterministic per-edge extra delay drawn from a
//!   configurable [`DelayDist`]; the synchronous engine is the zero-delay
//!   special case (see the [`sched`](AsyncScheduler) docs).
//!
//! Nodes address each other through *ports* (indices into their adjacency
//! list); they know their own id, weight, degree, neighbor ids and
//! per-port edge weights ([`NodeInfo::edge_weight`]), plus the standard
//! global parameters `n` and `Δ`. That static knowledge is handed out as
//! [`NodeInfo`], a zero-copy `Copy` struct of slices borrowed from the
//! graph's flat CSR adjacency — see its docs for the borrow contract.
//!
//! Messages move through flat *message planes* shaped like the same CSR
//! block — one packed 64-bit payload word per directed edge (see
//! [`PackedMsg`]) plus an occupancy bit: a node's sends fill its row of
//! the send plane, and delivery scatters each word, through the graph's
//! mirror-slot table, into the receiver's row of the receive plane, which
//! the receiver observes next round as a port-indexed [`Inbox`]. Planes
//! are preallocated once per run (≤ 9 bytes per directed edge at average
//! degree 8 — see [`plane_bytes_for`]), the steady-state round loop
//! allocates nothing, inboxes arrive port-ordered without sorting, and
//! silent stretches are skipped 64 ports at a time via the bitmap.
//!
//! # Example: flood a token from node 0
//!
//! ```
//! use congest_graph::generators;
//! use congest_sim::{Context, Engine, Inbox, Message, Protocol, SimConfig, Status};
//!
//! use congest_sim::PackedMsg;
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Message for Token {
//!     fn bit_size(&self) -> usize { 1 }
//! }
//! impl PackedMsg for Token {
//!     const BITS: u32 = 0; // the token's presence is the information
//!     fn pack(&self) -> u64 { 0 }
//!     fn unpack(_word: u64) -> Self { Token }
//! }
//!
//! struct Flood { seen: bool }
//! impl Protocol for Flood {
//!     type Msg = Token;
//!     type Output = bool;
//!     fn init(&mut self, ctx: &mut Context<'_, Token>) {
//!         if ctx.id().0 == 0 {
//!             self.seen = true;
//!             ctx.broadcast(Token);
//!         }
//!     }
//!     fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>)
//!         -> Status<bool>
//!     {
//!         if !self.seen && !inbox.is_empty() {
//!             self.seen = true;
//!             ctx.broadcast(Token);
//!         }
//!         if self.seen { Status::Halt(true) } else { Status::Active }
//!     }
//! }
//!
//! let g = generators::path(5);
//! let outcome = Engine::build(&g, SimConfig::congest_for(&g), |_| Flood { seen: false })
//!     .run(0xC0FFEE);
//! assert!(outcome.completed);
//! assert_eq!(outcome.stats.rounds, 4); // diameter of P_5
//! ```

mod context;
mod engine;
mod fault;
mod inbox;
mod message;
mod packed;
mod protocol;
mod sched;

pub mod rng;

pub use context::Context;
pub use engine::{
    plane_bytes_for, run_protocol, Engine, MessageTrace, RunOutcome, RunStats, ShardedRun,
    SimConfig,
};
pub use fault::Adversary;
pub use inbox::{Inbox, InboxIter};
pub use message::{bits_for_count, bits_for_value, Message};
pub use packed::PackedMsg;
pub use protocol::{NodeInfo, Port, Protocol, Status};
pub use sched::{AsyncScheduler, DelayDist, MAX_DELAY};
