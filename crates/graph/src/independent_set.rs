use crate::{Graph, NodeId};

/// An independent set: a set of nodes no two of which are adjacent.
///
/// Backed by a membership bitmap for `O(1)` queries. Validity against a
/// particular graph is checked by [`is_independent`](Self::is_independent);
/// insertion itself does not check adjacency, because several of the
/// paper's algorithms build the set in a single pass where independence is
/// established by the protocol rather than per-insert scans.
///
/// # Example
///
/// ```
/// use congest_graph::{generators, IndependentSet};
///
/// let g = generators::cycle(5);
/// let mut is = IndependentSet::new(&g);
/// is.insert(0.into());
/// is.insert(2.into());
/// assert!(is.is_independent(&g));
/// is.insert(1.into());
/// assert!(!is.is_independent(&g));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndependentSet {
    member: Vec<bool>,
    size: usize,
}

impl IndependentSet {
    /// Creates an empty independent set for `g`.
    pub fn new(g: &Graph) -> Self {
        IndependentSet {
            member: vec![false; g.num_nodes()],
            size: 0,
        }
    }

    /// Builds a set from a membership iterator.
    pub fn from_members(g: &Graph, members: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::new(g);
        for v in members {
            s.insert(v);
        }
        s
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.member[v.index()]
    }

    /// Inserts `v` (idempotent).
    pub fn insert(&mut self, v: NodeId) {
        if !self.member[v.index()] {
            self.member[v.index()] = true;
            self.size += 1;
        }
    }

    /// Removes `v` (idempotent).
    pub fn remove(&mut self, v: NodeId) {
        if self.member[v.index()] {
            self.member[v.index()] = false;
            self.size -= 1;
        }
    }

    /// Iterator over members in ascending node-id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(NodeId(i as u32)))
    }

    /// Total node weight of the members.
    pub fn weight(&self, g: &Graph) -> u64 {
        self.members().map(|v| g.node_weight(v)).sum()
    }

    /// Whether no two members are adjacent in `g`.
    pub fn is_independent(&self, g: &Graph) -> bool {
        g.edges().all(|e| {
            let (u, v) = g.endpoints(e);
            !(self.contains(u) && self.contains(v))
        })
    }

    /// Whether the set is maximal: independent, and every non-member has a
    /// member neighbor.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        self.is_independent(g)
            && g.nodes()
                .all(|v| self.contains(v) || g.neighbor_ids(v).iter().any(|&u| self.contains(u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn insert_remove_idempotent() {
        let g = generators::path(3);
        let mut s = IndependentSet::new(&g);
        s.insert(NodeId(0));
        s.insert(NodeId(0));
        assert_eq!(s.len(), 1);
        s.remove(NodeId(0));
        s.remove(NodeId(0));
        assert!(s.is_empty());
    }

    #[test]
    fn maximality() {
        let g = generators::path(3); // 0-1-2
        let ends = IndependentSet::from_members(&g, [NodeId(0), NodeId(2)]);
        assert!(ends.is_maximal(&g));
        let middle = IndependentSet::from_members(&g, [NodeId(1)]);
        assert!(middle.is_maximal(&g));
        let only_end = IndependentSet::from_members(&g, [NodeId(0)]);
        assert!(only_end.is_independent(&g));
        assert!(!only_end.is_maximal(&g));
    }

    #[test]
    fn weight_and_members() {
        let mut g = generators::path(3);
        g.set_node_weight(NodeId(0), 4);
        g.set_node_weight(NodeId(2), 9);
        let s = IndependentSet::from_members(&g, [NodeId(0), NodeId(2)]);
        assert_eq!(s.weight(&g), 13);
        assert_eq!(s.members().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn empty_set_is_independent_but_not_maximal() {
        let g = generators::path(2);
        let s = IndependentSet::new(&g);
        assert!(s.is_independent(&g));
        assert!(!s.is_maximal(&g));
    }
}
