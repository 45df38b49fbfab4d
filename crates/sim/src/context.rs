use std::marker::PhantomData;

use congest_graph::NodeId;
use rand::rngs::SmallRng;

use crate::{Message, NodeInfo, PackedMsg, Port, RunStats};

/// What one compute worker's sends cost in one phase: the message count,
/// the largest message and the count over the bit budget, which the
/// engine adds to [`RunStats`]. Sums and a max, so the meters of however
/// many workers merge into the sequential one.
#[derive(Clone, Copy, Default)]
pub(crate) struct Meter {
    /// [`SimConfig::bit_budget`](crate::SimConfig::bit_budget).
    pub(crate) budget: Option<usize>,
    pub(crate) messages: u64,
    pub(crate) max_bits: usize,
    pub(crate) over_budget: u64,
}

impl Meter {
    pub(crate) fn new(budget: Option<usize>) -> Self {
        Meter {
            budget,
            ..Meter::default()
        }
    }

    /// Charges `msg` once per port it was written to; a send that wrote
    /// no port costs nothing, not even its size.
    #[inline]
    fn charge(&mut self, msg: &impl Message, ports: u64) {
        if ports == 0 {
            return;
        }
        let bits = msg.bit_size();
        self.messages += ports;
        self.max_bits = self.max_bits.max(bits);
        if self.budget.is_some_and(|budget| bits > budget) {
            self.over_budget += ports;
        }
    }

    pub(crate) fn merge(self, other: Meter) -> Meter {
        Meter {
            budget: self.budget,
            messages: self.messages + other.messages,
            max_bits: self.max_bits.max(other.max_bits),
            over_budget: self.over_budget + other.over_budget,
        }
    }

    /// Adds one compute phase's meter to the run's statistics.
    pub(crate) fn add_to(self, stats: &mut RunStats) {
        stats.total_messages += self.messages;
        stats.max_message_bits = stats.max_message_bits.max(self.max_bits);
        stats.budget_violations += self.over_budget;
    }
}

/// Per-round execution context handed to a [`Protocol`](crate::Protocol).
///
/// Provides the node's static information, its private RNG, the current
/// round number, and the send operations. The engine enforces the CONGEST
/// discipline of *at most one message per port per round*.
///
/// Sends are packed eagerly: [`send`](Context::send) serializes the message
/// into its 64-bit wire word (see [`PackedMsg`]) and writes it straight
/// into the node's send-plane row, setting the port's occupancy bit. A
/// broadcast therefore packs **once** and fans the word out — no clones.
///
/// A message is metered when it is sent: each send call charges the
/// message's [`bit_size`](Message::bit_size) once, times the number of
/// ports it wrote, to [`RunStats::total_messages`],
/// [`max_message_bits`](RunStats::max_message_bits) and
/// [`budget_violations`](RunStats::budget_violations), whatever then
/// becomes of the message in flight.
pub struct Context<'a, M: PackedMsg> {
    pub(crate) info: &'a NodeInfo<'a>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) round: usize,
    /// This node's send-plane payload row (one word per port).
    pub(crate) out_words: &'a mut [u64],
    /// This node's send-plane occupancy words (bit `p % 64` of word
    /// `p / 64` ⇔ port `p` carries a message).
    pub(crate) out_occ: &'a mut [u64],
    /// The meter of the compute worker stepping this node.
    pub(crate) meter: &'a mut Meter,
    pub(crate) _msg: PhantomData<fn(M)>,
}

impl<'a, M: PackedMsg> Context<'a, M> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.info.id
    }

    /// This node's static information (a zero-copy view into the graph's
    /// CSR block — see the [`NodeInfo`] borrow contract).
    #[inline]
    pub fn info(&self) -> &NodeInfo<'a> {
        self.info
    }

    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.info.degree()
    }

    /// Current round number (0 during `init`, then 1, 2, …).
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// The node's private deterministic RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Id of the neighbor behind `port`.
    #[inline]
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.info.neighbor_ids[port]
    }

    /// Weight of the incident edge at `port`.
    #[inline]
    pub fn edge_weight(&self, port: Port) -> u64 {
        self.info.edge_weight(port)
    }

    /// Writes a pre-packed word through `port`, enforcing the
    /// one-message-per-port rule via the occupancy bit.
    #[inline]
    fn place_word(&mut self, port: Port, word: u64) {
        let mask = 1u64 << (port % 64);
        assert!(
            self.out_occ[port / 64] & mask == 0,
            "node {} sent two messages through port {} in round {}",
            self.info.id,
            port,
            self.round
        );
        self.out_occ[port / 64] |= mask;
        self.out_words[port] = word;
    }

    /// Sends `msg` through `port` this round.
    ///
    /// The message logically moves into the send plane — it is serialized
    /// to its packed word on the spot, so the by-value signature costs
    /// nothing and keeps every protocol call site borrow-free.
    ///
    /// # Panics
    /// Panics if a message was already sent through `port` this round
    /// (CONGEST permits one message per edge per round) or if `port` is out
    /// of range.
    #[allow(clippy::needless_pass_by_value)]
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(port < self.out_words.len(), "port {port} out of range");
        self.place_word(port, msg.pack());
        self.meter.charge(&msg, 1);
    }

    /// Sends `msg` through every port (a CONGEST-legal broadcast: each
    /// edge still carries exactly one message). The message is packed once
    /// and the resulting word fanned out to all ports — a degree-`d`
    /// broadcast costs `d` word writes, zero clones.
    ///
    /// # Panics
    /// Panics if any port already carries a message this round.
    #[allow(clippy::needless_pass_by_value)] // moves into the plane, as in `send`
    pub fn broadcast(&mut self, msg: M) {
        let ports = self.out_words.len();
        if ports == 0 {
            return;
        }
        let word = msg.pack();
        for port in 0..ports {
            self.place_word(port, word);
        }
        self.meter.charge(&msg, ports as u64);
    }

    /// Sends `msg` through every port for which `filter` returns true.
    /// `filter` is called once per port, in ascending port order; the
    /// message is packed once regardless of how many ports are selected.
    #[allow(clippy::needless_pass_by_value)] // moves into the plane, as in `send`
    pub fn broadcast_filtered(&mut self, msg: M, mut filter: impl FnMut(Port) -> bool) {
        let word = msg.pack();
        let mut sent = 0;
        for port in 0..self.out_words.len() {
            if filter(port) {
                self.place_word(port, word);
                sent += 1;
            }
        }
        self.meter.charge(&msg, sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::node_rng;
    use congest_graph::EdgeId;

    fn info() -> NodeInfo<'static> {
        NodeInfo {
            id: NodeId(3),
            weight: 9,
            neighbor_ids: &[NodeId(1), NodeId(7)],
            neighbor_edges: &[EdgeId(2), EdgeId(0)],
            edge_weights: &[5, 0, 4],
            n: 10,
            max_degree: 3,
            max_node_weight: 9,
            max_edge_weight: 5,
        }
    }

    #[test]
    fn send_and_broadcast() {
        let info = info();
        let mut rng = node_rng(1, NodeId(3));
        let mut words = [0u64; 2];
        let mut occ = [0u64; 1];
        let mut meter = Meter::new(Some(5));
        let mut ctx: Context<'_, u64> = Context {
            info: &info,
            rng: &mut rng,
            round: 1,
            out_words: &mut words,
            out_occ: &mut occ,
            meter: &mut meter,
            _msg: PhantomData,
        };
        assert_eq!(ctx.neighbor(1), NodeId(7));
        assert_eq!(ctx.edge_weight(0), 4);
        ctx.send(0, 42);
        assert_eq!(words, [42, 0]);
        assert_eq!(occ, [0b01]);
        // 42 takes 6 bits, over the budget of 5.
        assert_eq!(
            (meter.messages, meter.max_bits, meter.over_budget),
            (1, 6, 1)
        );
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn double_send_panics() {
        let info = info();
        let mut rng = node_rng(1, NodeId(3));
        let mut words = [0u64; 2];
        let mut occ = [0u64; 1];
        let mut meter = Meter::new(Some(5));
        let mut ctx: Context<'_, u64> = Context {
            info: &info,
            rng: &mut rng,
            round: 1,
            out_words: &mut words,
            out_occ: &mut occ,
            meter: &mut meter,
            _msg: PhantomData,
        };
        ctx.send(0, 1);
        ctx.send(0, 2);
    }

    #[test]
    fn broadcast_sets_all_bits_once() {
        let info = info();
        let mut rng = node_rng(1, NodeId(3));
        let mut words = [0u64; 2];
        let mut occ = [0u64; 1];
        let mut meter = Meter::new(Some(5));
        let mut ctx: Context<'_, u32> = Context {
            info: &info,
            rng: &mut rng,
            round: 2,
            out_words: &mut words,
            out_occ: &mut occ,
            meter: &mut meter,
            _msg: PhantomData,
        };
        ctx.broadcast(9);
        ctx.broadcast_filtered(u32::MAX, |_| false);
        assert_eq!(words, [9, 9]);
        assert_eq!(occ, [0b11]);
        // One 4-bit charge per port; the filter that selected no port
        // charges nothing.
        assert_eq!(
            (meter.messages, meter.max_bits, meter.over_budget),
            (2, 4, 0)
        );
    }
}
