use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices `0..n`. The newtype keeps node indices from
/// being confused with [`EdgeId`]s — an easy mistake to make around line
/// graphs, where the edges of `G` become the nodes of `L(G)`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

/// Identifier of an undirected edge in a [`Graph`].
///
/// Edge ids are dense indices `0..m` in insertion order.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for EdgeId {
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}

/// An immutable, simple, undirected graph with `u64` node and edge weights,
/// stored in compressed-sparse-row (CSR) form.
///
/// Construct through [`GraphBuilder`](crate::GraphBuilder) or one of the
/// [`generators`](crate::generators). Adjacency is held in flat
/// structure-of-arrays CSR blocks — [`row_offsets`](Self::row_offsets)
/// delimits, for each node, a contiguous sorted run inside
/// [`neighbor_ids`](Self::neighbor_ids) / [`neighbor_edges`](Self::neighbor_edges)
/// — so a whole run of neighbors is one cache-friendly slice and the graph
/// is a handful of allocations regardless of `n`. Rows stay sorted by
/// neighbor id, keeping `O(log Δ)` adjacency queries.
///
/// One derived CSR-aligned table is precomputed in `O(n + m)` at
/// construction: [`mirror`](Self::mirror), for each directed slot (`v`'s
/// row holding neighbor `u`), the absolute slot of the reverse edge (`u`'s
/// row holding `v`), so `mirror[mirror[i]] == i`. Message-passing
/// simulators use it to deliver into port-indexed inboxes with one
/// sequential read per message instead of a scan or a lookup at the
/// receiver.
///
/// Each weight is stored once: node weights by node id, edge weights by
/// edge id. The weight behind port `p` of `v` is
/// `edge_weight(neighbor_edges(v)[p])`.
///
/// Weights default to `1`. Node weights drive the maximum-weight independent
/// set algorithms; edge weights drive the maximum-weight matching
/// algorithms.
///
/// Equality is structural: two graphs are equal when every table
/// matches, edge ids included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// Row `v` of the CSR arrays is `row_offsets[v] .. row_offsets[v+1]`.
    pub(crate) row_offsets: Vec<u32>,
    /// Flat neighbor ids, sorted within each row.
    pub(crate) neighbor_ids: Vec<NodeId>,
    /// Flat connecting-edge ids, aligned with `neighbor_ids`.
    pub(crate) neighbor_edges: Vec<EdgeId>,
    /// `mirror[i]` for slot `i` in `v`'s row holding neighbor `u` = the
    /// absolute slot of `v` inside `u`'s row.
    pub(crate) mirror: Vec<u32>,
    /// `edges[e]` = endpoints `(u, v)` with `u < v`.
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) node_weights: Vec<u64>,
    pub(crate) edge_weights: Vec<u64>,
}

impl Graph {
    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Index range of node `v`'s row in the flat CSR arrays.
    #[inline]
    fn row(&self, v: NodeId) -> std::ops::Range<usize> {
        self.row_offsets[v.index()] as usize..self.row_offsets[v.index() + 1] as usize
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).len()
    }

    /// Sorted neighbors of `v` as `(neighbor, connecting edge)` pairs.
    ///
    /// Port `p` of `v` is the `p`-th element of this iterator; see
    /// [`neighbor_ids`](Self::neighbor_ids) /
    /// [`neighbor_edges`](Self::neighbor_edges) for the underlying slices
    /// when only one of the two columns is needed.
    #[inline]
    pub fn neighbors(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + DoubleEndedIterator + '_ {
        let row = self.row(v);
        self.neighbor_ids[row.clone()]
            .iter()
            .copied()
            .zip(self.neighbor_edges[row].iter().copied())
    }

    /// Sorted neighbor ids of `v`, indexed by port.
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> &[NodeId] {
        &self.neighbor_ids[self.row(v)]
    }

    /// Connecting-edge ids of `v`, indexed by port (aligned with
    /// [`neighbor_ids`](Self::neighbor_ids)).
    #[inline]
    pub fn neighbor_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.neighbor_edges[self.row(v)]
    }

    /// The mirror-slot table (`2m` entries, indexed like the flat CSR
    /// arrays): for the slot `i = row_offsets()[v] + p` of `v`'s row
    /// holding neighbor `u`, `mirror()[i]` is the absolute slot of `v`
    /// inside `u`'s row — the slot through which `u` sends *back* to `v`.
    /// It is an involution (`mirror[mirror[i]] == i`) without fixed
    /// points. Precomputed in `O(n + m)` at construction.
    #[inline]
    pub fn mirror(&self) -> &[u32] {
        &self.mirror
    }

    /// CSR row-offset table (`n + 1` entries); row `v` of the flat arrays
    /// is `row_offsets()[v] .. row_offsets()[v + 1]`.
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else {
            assert_eq!(b, v, "{v} is not an endpoint of {e}");
            a
        }
    }

    /// Whether `e` is incident to node `v`.
    #[inline]
    pub fn is_incident(&self, e: EdgeId, v: NodeId) -> bool {
        let (a, b) = self.endpoints(e);
        a == v || b == v
    }

    /// Returns the edge connecting `u` and `v`, if any (`O(log Δ)`).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let ids = self.neighbor_ids(u);
        ids.binary_search(&v)
            .ok()
            .map(|i| self.neighbor_edges(u)[i])
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> u64 {
        self.node_weights[v.index()]
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> u64 {
        self.edge_weights[e.index()]
    }

    /// All node weights, indexed by node id.
    #[inline]
    pub fn node_weights(&self) -> &[u64] {
        &self.node_weights
    }

    /// All edge weights, indexed by edge id.
    #[inline]
    pub fn edge_weights(&self) -> &[u64] {
        &self.edge_weights
    }

    /// Sets the weight of node `v`.
    pub fn set_node_weight(&mut self, v: NodeId, w: u64) {
        self.node_weights[v.index()] = w;
    }

    /// Sets the weight of edge `e`.
    pub fn set_edge_weight(&mut self, e: EdgeId, w: u64) {
        self.edge_weights[e.index()] = w;
    }

    /// Maximum node degree `Δ` (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.row_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Maximum node weight `W` (0 if there are no nodes).
    pub fn max_node_weight(&self) -> u64 {
        self.node_weights.iter().copied().max().unwrap_or(0)
    }

    /// Maximum edge weight (0 if there are no edges).
    pub fn max_edge_weight(&self) -> u64 {
        self.edge_weights.iter().copied().max().unwrap_or(0)
    }

    /// Builds the line graph `L(G)`.
    ///
    /// Node `i` of `L(G)` corresponds to edge `i` of `G`; two `L(G)` nodes
    /// are adjacent iff the corresponding `G` edges share an endpoint. Node
    /// weights of `L(G)` are the edge weights of `G`, so a maximum-weight
    /// independent set in `L(G)` is a maximum-weight matching in `G`
    /// (Section 2.4 of the paper).
    ///
    /// Returns the line graph together with the mapping from `L(G)` node id
    /// to the original `G` edge id (which is the identity on indices, made
    /// explicit for type safety).
    pub fn line_graph(&self) -> (Graph, Vec<EdgeId>) {
        let m = self.num_edges();
        let mut builder = crate::GraphBuilder::with_nodes(m);
        for e in 0..m {
            builder.set_node_weight(NodeId(e as u32), self.edge_weights[e]);
        }
        // Edges of L(G): all pairs of G-edges sharing an endpoint. In a
        // simple graph two distinct edges share at most one endpoint, so no
        // pair is generated twice from different shared endpoints.
        for v in self.nodes() {
            let inc = self.neighbor_edges(v);
            for i in 0..inc.len() {
                for j in (i + 1)..inc.len() {
                    let (e1, e2) = (inc[i], inc[j]);
                    builder.add_edge(NodeId(e1.0), NodeId(e2.0));
                }
            }
        }
        let lg = builder.build();
        let mapping = (0..m as u32).map(EdgeId).collect();
        (lg, mapping)
    }

    /// Induced subgraph on `keep` (nodes with `keep[v] == true`).
    ///
    /// Returns the subgraph and the mapping from new node id to original
    /// node id. Weights are carried over.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.num_nodes(), "keep mask length mismatch");
        let mut old_of_new = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        let mut new_of_old = vec![u32::MAX; self.num_nodes()];
        for v in self.nodes() {
            if keep[v.index()] {
                new_of_old[v.index()] = old_of_new.len() as u32;
                old_of_new.push(v);
            }
        }
        let mut builder = crate::GraphBuilder::with_nodes(old_of_new.len());
        for (new, &old) in old_of_new.iter().enumerate() {
            builder.set_node_weight(NodeId(new as u32), self.node_weight(old));
        }
        for e in self.edges() {
            let (u, v) = self.endpoints(e);
            if keep[u.index()] && keep[v.index()] {
                let eid =
                    builder.add_edge(NodeId(new_of_old[u.index()]), NodeId(new_of_old[v.index()]));
                builder.set_edge_weight(eid, self.edge_weight(e));
            }
        }
        (builder.build(), old_of_new)
    }

    /// Subgraph with the same node set but only edges `keep[e] == true`.
    ///
    /// Returns the subgraph and the mapping from new edge id to original
    /// edge id.
    pub fn edge_subgraph(&self, keep: &[bool]) -> (Graph, Vec<EdgeId>) {
        assert_eq!(keep.len(), self.num_edges(), "keep mask length mismatch");
        let mut builder = crate::GraphBuilder::with_nodes(self.num_nodes());
        for v in self.nodes() {
            builder.set_node_weight(v, self.node_weight(v));
        }
        let mut old_of_new = Vec::new();
        for e in self.edges() {
            if keep[e.index()] {
                let (u, v) = self.endpoints(e);
                let eid = builder.add_edge(u, v);
                builder.set_edge_weight(eid, self.edge_weight(e));
                old_of_new.push(e);
            }
        }
        (builder.build(), old_of_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn endpoints_are_ordered() {
        let g = triangle();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(u < v);
            assert_eq!(g.other_endpoint(e, u), v);
            assert_eq!(g.other_endpoint(e, v), u);
        }
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        g.other_endpoint(e, NodeId(2));
    }

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = triangle();
        let (lg, map) = g.line_graph();
        assert_eq!(lg.num_nodes(), 3);
        assert_eq!(lg.num_edges(), 3);
        assert_eq!(map.len(), 3);
        for v in lg.nodes() {
            assert_eq!(lg.degree(v), 2);
        }
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        // K_{1,4}: line graph is K_4.
        let mut b = GraphBuilder::with_nodes(5);
        for leaf in 1..5u32 {
            b.add_edge(NodeId(0), NodeId(leaf));
        }
        let g = b.build();
        let (lg, _) = g.line_graph();
        assert_eq!(lg.num_nodes(), 4);
        assert_eq!(lg.num_edges(), 6);
    }

    #[test]
    fn line_graph_carries_edge_weights_to_node_weights() {
        let mut b = GraphBuilder::with_nodes(3);
        let e0 = b.add_edge(NodeId(0), NodeId(1));
        let e1 = b.add_edge(NodeId(1), NodeId(2));
        b.set_edge_weight(e0, 10);
        b.set_edge_weight(e1, 20);
        let g = b.build();
        let (lg, map) = g.line_graph();
        for v in lg.nodes() {
            assert_eq!(lg.node_weight(v), g.edge_weight(map[v.index()]));
        }
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[true, true, false]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(map, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn edge_subgraph_keeps_all_nodes() {
        let g = triangle();
        let (sub, map) = g.edge_subgraph(&[true, false, false]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(map, vec![EdgeId(0)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }

    /// The CSR invariants every constructed graph must satisfy: rows sorted
    /// by neighbor id, and columns aligned (`neighbor_edges[p]` connects `v`
    /// to `neighbor_ids[p]`).
    fn assert_csr_invariants(g: &Graph) {
        assert_eq!(g.row_offsets().len(), g.num_nodes() + 1);
        assert_eq!(*g.row_offsets().last().unwrap() as usize, 2 * g.num_edges());
        for v in g.nodes() {
            let ids = g.neighbor_ids(v);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
            assert_eq!(ids.len(), g.degree(v));
            for (p, (u, e)) in g.neighbors(v).enumerate() {
                assert_eq!(ids[p], u);
                assert_eq!(g.neighbor_edges(v)[p], e);
                assert_eq!(g.other_endpoint(e, v), u);
            }
        }
    }

    #[test]
    fn csr_invariants_hold_across_shapes() {
        use crate::generators;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let shapes = [
            GraphBuilder::new().build(),
            GraphBuilder::with_nodes(5).build(),
            triangle(),
            generators::star(17),
            generators::grid(4, 6),
            generators::gnp(80, 0.2, &mut rng),
        ];
        for g in &shapes {
            assert_csr_invariants(g);
        }
    }

    /// The mirror-table contract on one graph: an involution without fixed
    /// points, and slot `mirror[i]` lies in the receiver's row and names
    /// the sender.
    fn assert_mirror_contract(g: &Graph) {
        let mirror = g.mirror();
        assert_eq!(mirror.len(), 2 * g.num_edges());
        for v in g.nodes() {
            let start = g.row_offsets()[v.index()] as usize;
            for (p, &u) in g.neighbor_ids(v).iter().enumerate() {
                let i = start + p;
                let j = mirror[i] as usize;
                assert_ne!(i, j, "slot {i} mirrors itself");
                assert_eq!(mirror[j] as usize, i, "mirror is not an involution at {i}");
                let row = g.row(u);
                assert!(row.contains(&j), "slot {j} is outside {u}'s row");
                assert_eq!(
                    g.neighbor_ids(u)[j - row.start],
                    v,
                    "slot {j} must name {v}"
                );
                assert_eq!(g.neighbor_edges(u)[j - row.start], g.neighbor_edges(v)[p]);
            }
        }
    }

    /// `complete(512)` was the worst case of the old `O(Σ deg²)`
    /// position-scan construction; the `O(n + m)` table must agree with
    /// that scan at every slot.
    #[test]
    fn mirror_matches_position_scan_on_complete_512() {
        let g = crate::generators::complete(512);
        assert_mirror_contract(&g);
        for v in g.nodes() {
            let start = g.row_offsets()[v.index()] as usize;
            for (p, &u) in g.neighbor_ids(v).iter().enumerate() {
                let back = g
                    .neighbor_ids(u)
                    .iter()
                    .position(|&w| w == v)
                    .expect("adjacency is symmetric");
                let expected = g.row_offsets()[u.index()] as usize + back;
                assert_eq!(g.mirror()[start + p] as usize, expected, "{v} port {p}");
            }
        }
    }

    #[test]
    fn mirror_is_an_involution_naming_the_sender_across_families() {
        use crate::generators;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(7);
        for g in [
            GraphBuilder::new().build(),
            GraphBuilder::with_nodes(5).build(),
            generators::gnp(200, 0.05, &mut rng),
            generators::watts_strogatz(150, 6, 0.2, &mut rng),
            generators::power_law_cluster(150, 3, 0.3, &mut rng),
            generators::random_tree(150, &mut rng),
            generators::star(200),
            generators::complete(65),
        ] {
            assert_mirror_contract(&g);
        }
    }

    /// `DeltaGraph::compact` splices the delta into the CSR tables, so
    /// its output must carry a valid mirror table after every kind of
    /// mutation: insertions, removals, node joins, and node departures.
    #[test]
    fn mirror_contract_holds_on_compacted_overlays() {
        use crate::{generators, DeltaGraph};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(19);
        let mut dg = DeltaGraph::new(generators::gnp(120, 0.06, &mut rng));
        for step in 0..300u32 {
            let n = dg.num_slots() as u32;
            let u = NodeId(rng.random_range(0..n));
            let v = NodeId(rng.random_range(0..n));
            match step % 10 {
                0 => {
                    let w = dg.add_node(1);
                    if dg.is_alive(u) {
                        dg.insert_edge(u, w, 3);
                    }
                }
                1 if dg.is_alive(u) && dg.num_live_nodes() > 60 => dg.remove_node(u),
                2..=5 if u != v && dg.is_alive(u) && dg.is_alive(v) && !dg.has_edge(u, v) => {
                    dg.insert_edge(u, v, 1 + u64::from(step));
                }
                6..=9 if dg.has_edge(u, v) => dg.remove_edge(u, v),
                _ => {}
            }
            if step % 50 == 49 {
                assert_mirror_contract(&dg.compact());
            }
        }
    }

    /// Bytes of `g`'s tables, `len × size_of` each. The pattern names every
    /// field, so a new table does not compile until it is counted here.
    fn table_bytes(g: &Graph) -> usize {
        let Graph {
            row_offsets,
            neighbor_ids,
            neighbor_edges,
            mirror,
            edges,
            node_weights,
            edge_weights,
        } = g;
        std::mem::size_of_val(&row_offsets[..])
            + std::mem::size_of_val(&neighbor_ids[..])
            + std::mem::size_of_val(&neighbor_edges[..])
            + std::mem::size_of_val(&mirror[..])
            + std::mem::size_of_val(&edges[..])
            + std::mem::size_of_val(&node_weights[..])
            + std::mem::size_of_val(&edge_weights[..])
    }

    /// Per directed slot: neighbor id, edge id and mirror (4 B each), and
    /// half of its edge's endpoints and weight (8 B). Per node: weight and
    /// row offset. Each weight is stored once, so a per-slot copy of a
    /// table shows up here as 28 B per slot.
    #[test]
    fn tables_cost_twenty_bytes_per_directed_slot() {
        use crate::generators;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let n = 100_000;
        let mut rng = SmallRng::seed_from_u64(5);
        for g in [
            generators::gnp_skip(n, 8.0 / n as f64, &mut rng),
            generators::star(50),
        ] {
            let slots = 2 * g.num_edges();
            assert_eq!(table_bytes(&g), 20 * slots + 12 * g.num_nodes() + 4);
        }
    }
}
