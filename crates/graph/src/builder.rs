use std::collections::BTreeMap;

use crate::{EdgeId, Graph, NodeId};

/// Incremental builder for [`Graph`].
///
/// Enforces the *simple graph* invariant: self-loops panic and duplicate
/// edges are silently collapsed onto the first insertion (returning the
/// existing edge id), so generators may insert optimistically.
///
/// # Example
///
/// ```
/// use congest_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_node(5);
/// let v = b.add_node(3);
/// let e = b.add_edge(u, v);
/// b.set_edge_weight(e, 7);
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.edge_weight(e), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_weights: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
    edge_weights: Vec<u64>,
    seen: BTreeMap<(u32, u32), EdgeId>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` nodes of weight 1.
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            node_weights: vec![1; n],
            ..Self::default()
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with the given weight, returning its id.
    pub fn add_node(&mut self, weight: u64) -> NodeId {
        self.node_weights.push(weight);
        NodeId(self.node_weights.len() as u32 - 1)
    }

    /// Sets the weight of an existing node.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_node_weight(&mut self, v: NodeId, weight: u64) {
        self.node_weights[v.index()] = weight;
    }

    /// Adds an undirected edge `{u, v}` with weight 1 and returns its id.
    ///
    /// If the edge already exists, returns the existing id instead of
    /// inserting a duplicate.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            u.index() < self.node_weights.len() && v.index() < self.node_weights.len(),
            "edge endpoint out of range"
        );
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        // Collapse duplicates onto the first insertion.
        if let Some(&e) = self.seen.get(&key) {
            return e;
        }
        let e = EdgeId(self.edges.len() as u32);
        self.seen.insert(key, e);
        self.edges.push((NodeId(key.0), NodeId(key.1)));
        self.edge_weights.push(1);
        e
    }

    /// Adds an undirected edge `{u, v}` with weight 1 without consulting
    /// (or updating) the duplicate map — the million-node fast path for
    /// generators that already emit every edge exactly once, where the
    /// `BTreeMap` insert dominates construction time.
    ///
    /// The caller must guarantee simplicity: inserting a duplicate here
    /// corrupts the graph (both copies survive into the CSR), and later
    /// [`add_edge`](Self::add_edge)/[`has_edge`](Self::has_edge) calls
    /// will not see edges added through this path. Debug builds still
    /// check the self-loop and range invariants.
    pub fn add_edge_unchecked(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        debug_assert_ne!(u, v, "self-loops are not allowed");
        debug_assert!(
            u.index() < self.node_weights.len() && v.index() < self.node_weights.len(),
            "edge endpoint out of range"
        );
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        let e = EdgeId(self.edges.len() as u32);
        self.edges.push((NodeId(key.0), NodeId(key.1)));
        self.edge_weights.push(1);
        e
    }

    /// Adds an edge with the given weight (convenience for
    /// [`add_edge`](Self::add_edge) + [`set_edge_weight`](Self::set_edge_weight)).
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, weight: u64) -> EdgeId {
        let e = self.add_edge(u, v);
        self.set_edge_weight(e, weight);
        e
    }

    /// Whether edge `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        self.seen.contains_key(&key)
    }

    /// Sets the weight of an existing edge.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn set_edge_weight(&mut self, e: EdgeId, weight: u64) {
        self.edge_weights[e.index()] = weight;
    }

    /// Finalizes the graph, building the flat CSR adjacency (rows sorted by
    /// neighbor id) plus the derived mirror-slot table, in `O(n + m log Δ)`
    /// total (`O(n + m)` except the row sort).
    pub fn build(self) -> Graph {
        let n = self.node_weights.len();
        let m = self.edges.len();

        // Degree-count pass → prefix sums → row offsets.
        let mut row_offsets = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            row_offsets[u.index() + 1] += 1;
            row_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }

        // Scatter each edge into its two rows, then sort every row by
        // neighbor id (ids and edge ids move together, so scatter pairs
        // first and split into the two flat columns afterwards).
        let mut pairs: Vec<(NodeId, EdgeId)> = vec![(NodeId(0), EdgeId(0)); 2 * m];
        let mut cursor: Vec<u32> = row_offsets[..n].to_vec();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            pairs[cursor[u.index()] as usize] = (v, e);
            cursor[u.index()] += 1;
            pairs[cursor[v.index()] as usize] = (u, e);
            cursor[v.index()] += 1;
        }
        for w in row_offsets.windows(2) {
            pairs[w[0] as usize..w[1] as usize].sort_unstable_by_key(|&(x, _)| x);
        }
        let neighbor_ids: Vec<NodeId> = pairs.iter().map(|&(x, _)| x).collect();
        let neighbor_edges: Vec<EdgeId> = pairs.iter().map(|&(_, e)| e).collect();

        // Mirror slots in O(n + m): one pass over the CSR slots records
        // where each edge landed (first in its smaller endpoint's row —
        // rows are laid out in ascending node id and endpoints are stored
        // `u < v`), then one pass over edges links the two slots.
        let mut slot_at_u = vec![u32::MAX; m];
        let mut slot_at_v = vec![u32::MAX; m];
        for (i, e) in neighbor_edges.iter().enumerate() {
            let slot = &mut slot_at_u[e.index()];
            let slot = if *slot == u32::MAX {
                slot
            } else {
                &mut slot_at_v[e.index()]
            };
            *slot = i as u32;
        }
        let mut mirror = vec![0u32; 2 * m];
        for (&a, &b) in slot_at_u.iter().zip(&slot_at_v) {
            mirror[a as usize] = b;
            mirror[b as usize] = a;
        }

        Graph {
            row_offsets,
            neighbor_ids,
            neighbor_edges,
            mirror,
            edges: self.edges,
            node_weights: self.node_weights,
            edge_weights: self.edge_weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::with_nodes(2);
        let e1 = b.add_edge(NodeId(0), NodeId(1));
        let e2 = b.add_edge(NodeId(1), NodeId(0));
        assert_eq!(e1, e2);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::with_nodes(1);
        b.add_edge(NodeId(0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::with_nodes(1);
        b.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(3));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        let nbrs: Vec<_> = g.neighbor_ids(NodeId(0)).to_vec();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn default_weights_are_one() {
        let mut b = GraphBuilder::with_nodes(2);
        let e = b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.node_weight(NodeId(0)), 1);
        assert_eq!(g.edge_weight(e), 1);
    }

    #[test]
    fn weighted_edge_helper() {
        let mut b = GraphBuilder::with_nodes(2);
        let e = b.add_weighted_edge(NodeId(0), NodeId(1), 42);
        assert!(b.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(b.build().edge_weight(e), 42);
    }
}
