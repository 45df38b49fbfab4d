use std::fmt::{self, Debug};

use congest_graph::{EdgeId, NodeId};

use crate::{Context, Inbox, PackedMsg};

/// A port: the local index of an incident edge at a node (`0..degree`).
///
/// Ports are how nodes address their neighbors — a node does not know the
/// global topology, only that "port 3 leads to some neighbor" (whose id and
/// edge weight it does learn, as is standard in CONGEST where ids fit in a
/// single message).
pub type Port = usize;

/// Immutable per-node information available to a protocol.
///
/// Everything here is knowledge a CONGEST node legitimately has after at
/// most one communication round: its own id/weight/degree, its neighbors'
/// ids and the weights of its incident edges (exchanged in one round), and
/// the global parameters `n`, `Δ` and `W` that the paper's algorithms
/// assume are common knowledge. Incident edge weights are read per port
/// through [`edge_weight`](Self::edge_weight).
///
/// # Zero-copy contract
///
/// The per-port data are *borrowed views* into the graph's flat CSR
/// adjacency block (see [`congest_graph::Graph`]): `neighbor_ids` and the
/// node's edge-id row, plus the graph's one edge-weight table, which stays
/// private so that a node reads only the weights of its own edges.
/// Building a `NodeInfo` copies three fat pointers, never the adjacency
/// itself, which is what lets the engine build one on the stack whenever
/// a node needs it instead of storing one per node, and lets parallel
/// rounds share one read-only adjacency image. The borrow lives as long
/// as the graph borrow `'g` the engine was built from: a protocol may
/// freely hold onto `neighbor_ids` (or a whole copied `NodeInfo`, which is
/// `Copy`) across rounds, but must copy anything it wants to own beyond
/// the run. The graph is immutable for the whole run, so the views never
/// dangle or change mid-run.
#[derive(Copy, Clone)]
pub struct NodeInfo<'g> {
    /// This node's globally unique id.
    pub id: NodeId,
    /// This node's weight.
    pub weight: u64,
    /// Neighbor id reachable through each port (sorted ascending).
    pub neighbor_ids: &'g [NodeId],
    /// Edge id behind each port, aligned with `neighbor_ids`.
    pub(crate) neighbor_edges: &'g [EdgeId],
    /// The graph's edge weights, indexed by edge id.
    pub(crate) edge_weights: &'g [u64],
    /// Total number of nodes `n`.
    pub n: usize,
    /// Maximum degree `Δ` of the graph.
    pub max_degree: usize,
    /// Maximum node weight `W` in the graph.
    pub max_node_weight: u64,
    /// Maximum edge weight in the graph.
    pub max_edge_weight: u64,
}

impl NodeInfo<'_> {
    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }

    /// Weight of the incident edge at `port`.
    #[inline]
    pub fn edge_weight(&self, port: Port) -> u64 {
        self.edge_weights[self.neighbor_edges[port].index()]
    }
}

/// Shows the incident weights per port, as the node sees them, not the
/// graph's whole weight table.
impl Debug for NodeInfo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let edge_weights: Vec<u64> = (0..self.degree()).map(|p| self.edge_weight(p)).collect();
        f.debug_struct("NodeInfo")
            .field("id", &self.id)
            .field("weight", &self.weight)
            .field("neighbor_ids", &self.neighbor_ids)
            .field("edge_weights", &edge_weights)
            .field("n", &self.n)
            .field("max_degree", &self.max_degree)
            .field("max_node_weight", &self.max_node_weight)
            .field("max_edge_weight", &self.max_edge_weight)
            .finish()
    }
}

/// Outcome of a protocol round at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status<O> {
    /// Keep participating in future rounds.
    Active,
    /// Stop; `O` is this node's final output. Messages sent in the halting
    /// round are still delivered to neighbors in the next round.
    Halt(O),
}

/// The per-node algorithm run by the [`Engine`](crate::Engine).
///
/// One instance of the implementing type is created per node (via the
/// factory closure passed to [`Engine::build`](crate::Engine::build)). The
/// engine calls [`init`](Protocol::init) once before any communication,
/// then [`round`](Protocol::round) every synchronous round with the
/// messages sent by neighbors in the previous round.
///
/// Instances and outputs are `Send`: every executor may step a node, and
/// take its output, on a worker thread.
pub trait Protocol: Send {
    /// Message type exchanged by this protocol. The [`PackedMsg`] bound is
    /// the CONGEST discipline made structural: every message must state a
    /// ≤ 64-bit wire format, because the engine's planes store exactly one
    /// packed word per directed edge.
    type Msg: PackedMsg;
    /// Per-node output on halting.
    type Output: Clone + Debug + Send;

    /// Round 0: inspect [`Context`], initialize state, optionally send.
    fn init(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// One synchronous round: `inbox` is a port-indexed view of the
    /// messages neighbors sent in the previous round (iteration is in
    /// ascending port order by construction — see [`Inbox`]). Return
    /// [`Status::Halt`] to stop participating.
    fn round(
        &mut self,
        ctx: &mut Context<'_, Self::Msg>,
        inbox: Inbox<'_, Self::Msg>,
    ) -> Status<Self::Output>;
}
