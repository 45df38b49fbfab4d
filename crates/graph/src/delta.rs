//! Delta-overlay mutation for the immutable CSR [`Graph`].
//!
//! Production graphs churn; the flat CSR core does not. [`DeltaGraph`]
//! bridges the two: it holds a **canonical** base [`Graph`] behind an
//! [`Arc`] — edge ids in lexicographic `(min, max)` endpoint order, the
//! one layout a graph's edge set and weights determine — and absorbs
//! `insert_edge` / `remove_edge` / `add_node` / `remove_node` into a
//! **sorted delta** (a `BTreeMap` keyed by directed endpoint pair, so a
//! node's inserted neighbors are one contiguous range), with removed
//! node slots parked on a free list and reused by later joins. Overlay
//! reads (`has_edge`, `neighbors`, `degree`, …) see base ∖ removals ∪
//! insertions. Slot ids are stable: a removed slot survives as an
//! isolated weight-0 node until a join reclaims it, so the simulator's
//! dense id space never fragments.
//!
//! [`fold`](DeltaGraph::fold) splices the pending delta into the base
//! in place and empties the delta: one sequential pass that moves each
//! surviving run of the CSR arrays by its shift (a `memmove`), shifts
//! the edge ids and mirror slots they hold, and writes the `k` new
//! entries — `O(n + m + k log k)` with no per-node allocation, and no
//! copy of the base unless a clone still shares it.
//! [`compact`](DeltaGraph::compact) is the same splice applied to a copy.
//! Because the base stays canonical, both produce exactly the graph a
//! from-scratch build of the view's edges in lexicographic order would.
//!
//! The **fingerprint contract** makes "overlay reads ≡ compacted reads"
//! checkable in one comparison: a fingerprint is a wrapping sum of
//! 64-bit mixes, one per slot `(v, weight)` and one per edge
//! `(u, v, weight)`, finished with the slot count. The overlay keeps
//! the sum current in `O(1)` per mutation, and [`Graph::fingerprint`]
//! computes it in one pass, so `dg.fingerprint() ==
//! dg.compact().fingerprint()` holds for every mutation history — and
//! is proptested across gnp / Watts–Strogatz / power-law-cluster
//! histories in `tests/tests/delta_overlay.rs`.
//!
//! Every mutation is also appended to a [`DeltaSet`] — the currency the
//! incremental repair variants (`congest_mis::luby_repair`,
//! `congest_approx::matching::grouped_mwm_repair`) consume to mark the
//! damaged region — drained by [`take_log`](DeltaGraph::take_log).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::{EdgeId, Graph, NodeId};

/// splitmix64's finalizer: a bijective 64-bit mix.
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain seeds keeping slot, edge and slot-count mixes apart.
const SLOT_SEED: u64 = mix(1);
const EDGE_SEED: u64 = mix(2);
const COUNT_SEED: u64 = mix(3);

/// Fingerprint term of slot `v` with weight `w`.
#[inline]
fn slot_term(v: u32, w: u64) -> u64 {
    mix(mix(SLOT_SEED ^ u64::from(v)) ^ w)
}

/// Fingerprint term of edge `{u, v}` (`u < v`) with weight `w`.
#[inline]
fn edge_term(u: u32, v: u32, w: u64) -> u64 {
    mix(mix(EDGE_SEED ^ (u64::from(u) << 32 | u64::from(v))) ^ w)
}

/// The fingerprint of a term sum over `slots` slots.
#[inline]
fn finish(sum: u64, slots: usize) -> u64 {
    mix(mix(COUNT_SEED ^ slots as u64) ^ sum)
}

/// A batch of topology mutations, in application order — the damage
/// description handed to the incremental repair variants.
///
/// Endpoint pairs are stored `(u, v)` with `u < v` (the undirected-edge
/// convention of [`Graph::endpoints`]). Edge ids are deliberately absent:
/// they are not stable across a [`DeltaGraph::fold`] (removals shift
/// every later id), so deltas speak in endpoints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSet {
    /// Edges inserted, as `(u, v)` with `u < v`.
    pub inserted: Vec<(NodeId, NodeId)>,
    /// Edges removed (including those removed implicitly by
    /// [`DeltaGraph::remove_node`]), as `(u, v)` with `u < v`.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Nodes that joined (fresh slots and reused ones alike).
    pub joined: Vec<NodeId>,
    /// Nodes that left.
    pub left: Vec<NodeId>,
}

impl DeltaSet {
    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len() + self.joined.len() + self.left.len()
    }

    /// The nodes directly touched by the batch: endpoints of flipped
    /// edges plus joined/left nodes, deduplicated and sorted.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        for &(u, v) in self.inserted.iter().chain(&self.removed) {
            touched.insert(u);
            touched.insert(v);
        }
        touched.extend(self.joined.iter().copied());
        touched.extend(self.left.iter().copied());
        touched.into_iter().collect()
    }
}

/// A mutable overlay over a canonical CSR [`Graph`] (see the module
/// docs for the design).
///
/// Slot space: ids `0..num_slots()` cover the base graph's nodes plus
/// any appended ones; [`is_alive`](Self::is_alive) distinguishes live
/// slots from removed ones awaiting reuse. All edge queries take
/// endpoint pairs — overlay edges have no stable [`EdgeId`] until the
/// next [`fold`](Self::fold). Cloning copies the pending delta and the
/// free list, not the graph: the base is shared until one side folds.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    /// Canonical as of the last fold (edge ids in `(min, max)` order).
    base: Arc<Graph>,
    /// Inserted edges, keyed by *directed* pair — both `(u, v)` and
    /// `(v, u)` are present, mapping to the edge weight, so the inserted
    /// neighbors of `v` are the contiguous range `(v, 0)..=(v, MAX)`.
    inserted: BTreeMap<(u32, u32), u64>,
    /// Removed base edges, same both-directions convention.
    removed: BTreeSet<(u32, u32)>,
    /// Node weights that differ from the base's, and those of appended
    /// slots (0 for removed slots).
    weights: BTreeMap<u32, u64>,
    /// Number of slots, live and removed.
    slots: usize,
    /// Removed slots, which keep their id until a join reuses the
    /// smallest.
    free_slots: BTreeSet<u32>,
    /// Live-edge count under the overlay view.
    live_edges: usize,
    /// Wrapping sum of the view's slot and edge terms.
    term_sum: u64,
    /// Mutations since the last [`take_log`](Self::take_log).
    log: DeltaSet,
}

impl DeltaGraph {
    /// Wraps `base` with an empty delta, first renumbering its edge ids
    /// into lexicographic order if they are not already (`O(n + m)`,
    /// once).
    pub fn new(mut base: Graph) -> Self {
        canonicalize(&mut base);
        DeltaGraph {
            inserted: BTreeMap::new(),
            removed: BTreeSet::new(),
            weights: BTreeMap::new(),
            slots: base.num_nodes(),
            free_slots: BTreeSet::new(),
            live_edges: base.num_edges(),
            term_sum: term_sum(&base),
            log: DeltaSet::default(),
            base: Arc::new(base),
        }
    }

    /// Number of node slots (live + removed-awaiting-reuse).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// Number of live nodes.
    pub fn num_live_nodes(&self) -> usize {
        self.num_slots() - self.free_slots.len()
    }

    /// Number of live edges under the overlay view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Whether slot `v` currently holds a live node.
    ///
    /// # Panics
    /// Panics if `v` is outside the slot space.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.check_slot("is_alive", v);
        !self.free_slots.contains(&v.0)
    }

    /// Weight of the node in slot `v` (0 for removed slots).
    pub fn node_weight(&self, v: NodeId) -> u64 {
        self.check_slot("node_weight", v);
        self.weight_of(v)
    }

    /// Sets the weight of the live node in slot `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range or removed.
    pub fn set_node_weight(&mut self, v: NodeId, w: u64) {
        self.check_live("set_node_weight", v);
        self.set_slot_weight(v, w);
    }

    /// Whether the overlay currently has edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if either endpoint is outside the slot space.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.check_slot("has_edge", u);
        self.check_slot("has_edge", v);
        self.inserted.contains_key(&(u.0, v.0))
            || (self.base_has(u, v) && !self.removed.contains(&(u.0, v.0)))
    }

    /// Weight of edge `{u, v}`, if the overlay currently has it.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.check_slot("edge_weight", u);
        self.check_slot("edge_weight", v);
        if let Some(&w) = self.inserted.get(&(u.0, v.0)) {
            return Some(w);
        }
        if self.removed.contains(&(u.0, v.0)) {
            return None;
        }
        self.base_find(u, v).map(|e| self.base.edge_weight(e))
    }

    /// Degree of slot `v` under the overlay view (0 for removed slots —
    /// removing a node removes its incident edges first).
    pub fn degree(&self, v: NodeId) -> usize {
        self.check_slot("degree", v);
        let surviving = self
            .base_row(v)
            .filter(|&(u, _)| !self.removed.contains(&(v.0, u.0)))
            .count();
        surviving + self.inserted_row(v).count()
    }

    /// Overlay neighbors of slot `v` as `(neighbor, edge weight)` pairs
    /// in ascending neighbor order — the same order a compacted CSR row
    /// would have.
    pub fn neighbors(&self, v: NodeId) -> Vec<(NodeId, u64)> {
        self.check_slot("neighbors", v);
        // Both sources are sorted by neighbor id and disjoint (an edge
        // present in the base and re-inserted must sit in `removed`, so
        // the base side filters it out): a linear merge keeps the row
        // sorted without a sort.
        let mut out = Vec::with_capacity(self.degree(v));
        let mut base = self
            .base_row(v)
            .filter(|&(u, _)| !self.removed.contains(&(v.0, u.0)))
            .map(|(u, e)| (u, self.base.edge_weight(e)))
            .peekable();
        let mut ins = self.inserted_row(v).peekable();
        loop {
            match (base.peek(), ins.peek()) {
                (Some(&(bu, _)), Some(&(iu, _))) => {
                    if bu < iu {
                        out.push(base.next().unwrap());
                    } else {
                        out.push(ins.next().unwrap());
                    }
                }
                (Some(_), None) => out.push(base.next().unwrap()),
                (None, Some(_)) => out.push(ins.next().unwrap()),
                (None, None) => break,
            }
        }
        out
    }

    /// Inserts edge `{u, v}` with weight `w` into the overlay.
    ///
    /// # Panics
    /// Panics, naming the offending argument, if `u == v`, either
    /// endpoint is out of range or removed, or the edge is already
    /// present.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, w: u64) {
        assert_ne!(u, v, "DeltaGraph::insert_edge: self-loop at {u}");
        self.check_live("insert_edge", u);
        self.check_live("insert_edge", v);
        assert!(
            !self.has_edge(u, v),
            "DeltaGraph::insert_edge: edge {u}–{v} already present"
        );
        self.inserted.insert((u.0, v.0), w);
        self.inserted.insert((v.0, u.0), w);
        self.live_edges += 1;
        let (a, b) = ordered(u, v);
        self.term_sum = self.term_sum.wrapping_add(edge_term(a.0, b.0, w));
        self.log.inserted.push((a, b));
    }

    /// Removes edge `{u, v}` from the overlay.
    ///
    /// # Panics
    /// Panics, naming the offending argument, if either endpoint is out
    /// of range or the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.check_slot("remove_edge", u);
        self.check_slot("remove_edge", v);
        assert!(
            self.has_edge(u, v),
            "DeltaGraph::remove_edge: edge {u}–{v} not present"
        );
        let w = self.edge_weight(u, v).expect("a present edge has a weight");
        if self.inserted.remove(&(u.0, v.0)).is_some() {
            self.inserted.remove(&(v.0, u.0));
        }
        // A base edge is masked out; a re-inserted base edge is already
        // masked (the mask is what let it be re-inserted), and the
        // idempotent insert keeps it so.
        if self.base_has(u, v) {
            self.removed.insert((u.0, v.0));
            self.removed.insert((v.0, u.0));
        }
        self.live_edges -= 1;
        let (a, b) = ordered(u, v);
        self.term_sum = self.term_sum.wrapping_sub(edge_term(a.0, b.0, w));
        self.log.removed.push((a, b));
    }

    /// Adds a node with weight `w`, reusing the smallest removed slot if
    /// one exists (else appending a fresh slot). Returns its id.
    pub fn add_node(&mut self, w: u64) -> NodeId {
        let v = match self.free_slots.pop_first() {
            Some(slot) => {
                let v = NodeId(slot);
                self.set_slot_weight(v, w);
                v
            }
            None => {
                let v = NodeId(self.slots as u32);
                self.slots += 1;
                self.weights.insert(v.0, w);
                self.term_sum = self.term_sum.wrapping_add(slot_term(v.0, w));
                v
            }
        };
        self.log.joined.push(v);
        v
    }

    /// Removes the node in slot `v`, removing its incident live edges
    /// first (each is logged as a removal) and parking the slot for
    /// reuse.
    ///
    /// # Panics
    /// Panics if `v` is out of range or already removed.
    pub fn remove_node(&mut self, v: NodeId) {
        self.check_live("remove_node", v);
        for (u, _) in self.neighbors(v) {
            self.remove_edge(v, u);
        }
        self.set_slot_weight(v, 0);
        self.free_slots.insert(v.0);
        self.log.left.push(v);
    }

    /// Drains and returns the mutations applied since the last call (or
    /// construction).
    pub fn take_log(&mut self) -> DeltaSet {
        std::mem::take(&mut self.log)
    }

    /// The base graph as of the last [`fold`](Self::fold) (or
    /// construction), in canonical form. Right after a fold it *is* the
    /// overlay view, equal to [`compact`](Self::compact).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Splices the pending delta, node weights and appended slots
    /// included, into the base in place and empties it (see the module
    /// docs). The base is copied first only if a clone of this overlay
    /// still shares it.
    pub fn fold(&mut self) {
        let base = Arc::make_mut(&mut self.base);
        splice(
            base,
            &self.inserted,
            &self.removed,
            &self.weights,
            self.slots,
        );
        debug_assert_eq!(base.num_edges(), self.live_edges);
        self.inserted.clear();
        self.removed.clear();
        self.weights.clear();
    }

    /// The overlay view as a canonical CSR [`Graph`]: a copy of the base
    /// with the pending delta spliced in, exactly as
    /// [`fold`](Self::fold) would leave it. Slot ids are preserved:
    /// removed slots become isolated weight-0 nodes, so node ids mean
    /// the same thing before and after compaction.
    pub fn compact(&self) -> Graph {
        let mut g = Graph::clone(&self.base);
        splice(
            &mut g,
            &self.inserted,
            &self.removed,
            &self.weights,
            self.slots,
        );
        debug_assert_eq!(g.num_edges(), self.live_edges);
        g
    }

    /// Fingerprint of the overlay view in `O(1)`: every mutation keeps
    /// the term sum current, and it is defined exactly as
    /// [`Graph::fingerprint`], which is the machine-checkable form of
    /// "overlay reads ≡ compacted reads": `dg.fingerprint() ==
    /// dg.compact().fingerprint()` for every mutation history.
    pub fn fingerprint(&self) -> u64 {
        finish(self.term_sum, self.num_slots())
    }

    /// Slot `v`'s current weight.
    fn weight_of(&self, v: NodeId) -> u64 {
        match self.weights.get(&v.0) {
            Some(&w) => w,
            None => self.base.node_weights[v.index()],
        }
    }

    /// Sets slot `v`'s weight, keeping the term sum current.
    fn set_slot_weight(&mut self, v: NodeId, w: u64) {
        let old = self.weight_of(v);
        self.weights.insert(v.0, w);
        self.term_sum = self
            .term_sum
            .wrapping_sub(slot_term(v.0, old))
            .wrapping_add(slot_term(v.0, w));
    }

    /// Panics if `v` is outside the slot space, naming `method`.
    fn check_slot(&self, method: &str, v: NodeId) {
        assert!(
            v.index() < self.num_slots(),
            "DeltaGraph::{method}: node {v} out of range (slots 0..{})",
            self.num_slots()
        );
    }

    /// Panics if `v` is out of range or removed, naming `method`.
    fn check_live(&self, method: &str, v: NodeId) {
        self.check_slot(method, v);
        assert!(
            !self.free_slots.contains(&v.0),
            "DeltaGraph::{method}: node {v} is removed"
        );
    }

    /// Whether the *base* graph has edge `{u, v}` (slots beyond the base
    /// node count have empty base rows).
    fn base_has(&self, u: NodeId, v: NodeId) -> bool {
        self.base_find(u, v).is_some()
    }

    fn base_find(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() < self.base.num_nodes() && v.index() < self.base.num_nodes() {
            self.base.find_edge(u, v)
        } else {
            None
        }
    }

    /// Base-graph adjacency row of `v` (empty for appended slots).
    fn base_row(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let within = v.index() < self.base.num_nodes();
        within.then(|| self.base.neighbors(v)).into_iter().flatten()
    }

    /// Inserted-edge row of `v`, sorted by neighbor id.
    fn inserted_row(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.inserted
            .range((v.0, 0)..=(v.0, u32::MAX))
            .map(|(&(_, u), &w)| (NodeId(u), w))
    }
}

impl Graph {
    /// Fingerprint of the structure and weights in one pass: the
    /// wrapping sum of one 64-bit mix per node `(v, weight)` and one per
    /// edge `(u, v, weight)`, finished with the node count. Edge ids and
    /// storage order do not enter it, and it is defined exactly as
    /// [`DeltaGraph::fingerprint`], which is what makes the overlay's
    /// read-equivalence contract one `u64` comparison.
    pub fn fingerprint(&self) -> u64 {
        finish(term_sum(self), self.num_nodes())
    }
}

/// Wrapping sum of `g`'s slot and edge terms.
fn term_sum(g: &Graph) -> u64 {
    let slots = (0..).zip(&g.node_weights).map(|(v, &w)| slot_term(v, w));
    let edges = g
        .edges
        .iter()
        .zip(&g.edge_weights)
        .map(|(&(u, v), &w)| edge_term(u.0, v.0, w));
    slots.chain(edges).fold(0, u64::wrapping_add)
}

/// Renumbers `g`'s edge ids into lexicographic `(min, max)` order, the
/// order a row-by-row walk of the upper neighbors visits them in. Rows
/// and mirror slots do not depend on edge ids, so only the edge tables
/// and `neighbor_edges` change.
fn canonicalize(g: &mut Graph) {
    if g.edges.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    let mut new_of_old = vec![0u32; g.num_edges()];
    let mut edges = Vec::with_capacity(g.num_edges());
    let mut edge_weights = Vec::with_capacity(g.num_edges());
    for v in 0..g.num_nodes() {
        let row = g.row_offsets[v] as usize..g.row_offsets[v + 1] as usize;
        for (&u, &e) in g.neighbor_ids[row.clone()]
            .iter()
            .zip(&g.neighbor_edges[row])
        {
            if u.index() > v {
                new_of_old[e.index()] = edges.len() as u32;
                edges.push((NodeId(v as u32), u));
                edge_weights.push(g.edge_weights[e.index()]);
            }
        }
    }
    for e in &mut g.neighbor_edges {
        *e = EdgeId(new_of_old[e.index()]);
    }
    g.edges = edges;
    g.edge_weights = edge_weights;
}

/// Up to this many runs, [`Splice::remap`] makes one vectorized pass per
/// shift step; beyond, its one table lookup per index is cheaper. On a
/// 20k-node graph the two break even at about 11 to 13 runs.
const PASS_STEPS: usize = 8;
/// Old indices per block of [`Splice`]'s shift table. Smaller blocks
/// leave fewer indices to the run search where edits split a block: on
/// 20k-node folds of 16, 32 and 128 edge ops, 64 took 16%, 30% and 50%
/// less time than 256.
const BLOCK: usize = 64;

/// Where a splice removes and inserts entries of one sorted array, as
/// the shift of each surviving run.
struct Splice {
    /// Surviving runs `(start, end, shift)` of the old array, in order:
    /// old index `i` in `start..end` moves to `i + shift`.
    runs: Vec<(usize, usize, isize)>,
    /// Beyond [`PASS_STEPS`] runs, the shift shared by every old index
    /// of each block of [`BLOCK`] indices, or `None` where an edit splits
    /// the block.
    block_shift: Vec<Option<isize>>,
    /// New index of each inserted entry, in edit order.
    inserted_at: Vec<usize>,
    new_len: usize,
}

impl Splice {
    /// Plans `edits` on an array of `len` entries: `(pos, true)` inserts
    /// an entry before old index `pos`, `(pos, false)` removes old index
    /// `pos`. Edits come sorted by position, inserts before the removal
    /// at the same position.
    fn plan(len: usize, edits: impl Iterator<Item = (usize, bool)>) -> Splice {
        let mut runs = Vec::new();
        let mut inserted_at = Vec::new();
        let (mut start, mut shift) = (0, 0isize);
        for (pos, insert) in edits {
            debug_assert!(start <= pos && pos <= len, "splice edits out of order");
            if start < pos {
                runs.push((start, pos, shift));
            }
            if insert {
                inserted_at.push(pos.wrapping_add_signed(shift));
                shift += 1;
                start = pos;
            } else {
                shift -= 1;
                start = pos + 1;
            }
        }
        if start < len {
            runs.push((start, len, shift));
        }
        let mut block_shift = Vec::new();
        if runs.len() > PASS_STEPS {
            let blocks = len.div_ceil(BLOCK);
            block_shift.resize(blocks, None);
            for &(s, e, d) in &runs {
                // The blocks the run covers whole; none if it is shorter.
                let whole = s.div_ceil(BLOCK)..if e == len { blocks } else { e / BLOCK };
                if let Some(whole) = block_shift.get_mut(whole) {
                    whole.fill(Some(d));
                }
            }
        }
        Splice {
            runs,
            block_shift,
            inserted_at,
            new_len: len.wrapping_add_signed(shift),
        }
    }

    /// Rewrites every old index `*index(v)` in `values` to its new
    /// position. Indices of removed entries come out meaningless; no
    /// surviving entry holds one.
    ///
    /// Up to [`PASS_STEPS`] runs, one compare-and-add pass per shift
    /// step, which vectorizes; beyond, one table lookup per index, and
    /// a search of the runs where an edit splits its block.
    fn remap<T>(&self, values: &mut [T], index: impl Fn(&mut T) -> &mut u32) {
        if self.runs.len() <= PASS_STEPS {
            // Run `r` starts a step of its shift minus run `r - 1`'s.
            // Highest step first: after the passes above run `r`, a
            // surviving index of run `r` or later still lies at or past
            // run `r`'s old start, since new positions keep the old
            // order, and an index below it has not moved.
            for (r, &(start, _, shift)) in self.runs.iter().enumerate().rev() {
                let below = r.checked_sub(1).map_or(0, |r| self.runs[r].2);
                if shift == below {
                    continue;
                }
                let (start, step) = (start as u32, shift.wrapping_sub(below) as u32);
                for v in values.iter_mut() {
                    let i = index(v);
                    *i = i.wrapping_add(if *i >= start { step } else { 0 });
                }
            }
            return;
        }
        for v in values {
            let i = index(v);
            let at = *i as usize;
            let shift = self
                .block_shift
                .get(at / BLOCK)
                .copied()
                .flatten()
                .unwrap_or_else(|| {
                    let r = self.runs.partition_point(|run| run.0 <= at);
                    r.checked_sub(1).map_or(0, |r| self.runs[r].2)
                });
            *i = at.wrapping_add_signed(shift) as u32;
        }
    }

    /// Applies the plan to `v`: moves each surviving run by its shift,
    /// then fills inserted entry `j` with `value(j)`. Runs that move
    /// left go first, in order, then runs that move right, in reverse
    /// order: targets are disjoint and ordered like their sources, so no
    /// run overwrites one that has yet to move.
    fn apply<T: Copy + Default>(&self, v: &mut Vec<T>, mut value: impl FnMut(usize) -> T) {
        v.resize(v.len().max(self.new_len), T::default());
        let left = self.runs.iter().filter(|r| r.2 < 0);
        let right = self.runs.iter().rev().filter(|r| r.2 > 0);
        for &(s, e, d) in left.chain(right) {
            v.copy_within(s..e, s.wrapping_add_signed(d));
        }
        v.truncate(self.new_len);
        for (j, &at) in self.inserted_at.iter().enumerate() {
            v[at] = value(j);
        }
    }
}

/// Splices a delta into canonical `g` in place, keeping it canonical:
/// `inserted`, `removed` and `weights` as [`DeltaGraph`] holds them
/// (both directions of each edge), and `slots` at least
/// `g.num_nodes()`, the extra slots appended as empty rows.
fn splice(
    g: &mut Graph,
    inserted: &BTreeMap<(u32, u32), u64>,
    removed: &BTreeSet<(u32, u32)>,
    weights: &BTreeMap<u32, u64>,
    slots: usize,
) {
    let slot_end = g.neighbor_ids.len();
    // Directed edits in (row, neighbor) order; re-inserting a removed
    // base edge inserts before the removal, at the same position.
    let mut edits: Vec<((u32, u32), Option<u64>)> = inserted
        .iter()
        .map(|(&k, &w)| (k, Some(w)))
        .chain(removed.iter().map(|&k| (k, None)))
        .collect();
    edits.sort_unstable_by_key(|&(k, w)| (k, w.is_none()));
    // Inserted directed pairs, then their upper halves (`u < v`): the
    // slot and edge inserts, each in the order its plan numbers them.
    let ins: Vec<((u32, u32), u64)> = edits.iter().filter_map(|&(k, w)| Some((k, w?))).collect();
    let upper: Vec<((u32, u32), u64)> = ins.iter().copied().filter(|((u, v), _)| u < v).collect();

    let slot_pos = |(v, u): (u32, u32)| match g.row_offsets.get(v as usize + 1) {
        Some(&end) => {
            let start = g.row_offsets[v as usize] as usize;
            start + g.neighbor_ids[start..end as usize].partition_point(|x| x.0 < u)
        }
        None => slot_end,
    };
    let slot_plan = Splice::plan(
        slot_end,
        edits.iter().map(|&(k, w)| (slot_pos(k), w.is_some())),
    );
    let edge_pos = |k: (u32, u32)| g.edges.partition_point(|&(a, b)| (a.0, b.0) < k);
    let edge_plan = Splice::plan(
        g.edges.len(),
        edits
            .iter()
            .filter(|((u, v), _)| u < v)
            .map(|&(k, w)| (edge_pos(k), w.is_some())),
    );

    let find = |list: &[((u32, u32), u64)], k: (u32, u32)| {
        list.binary_search_by_key(&k, |&(k, _)| k)
            .expect("both halves of an inserted edge are pending")
    };
    // Surviving entries name slots and edges by old index: shift them
    // before they move.
    slot_plan.remap(&mut g.mirror, |s| s);
    edge_plan.remap(&mut g.neighbor_edges, |e| &mut e.0);
    edge_plan.apply(&mut g.edge_weights, |j| upper[j].1);
    slot_plan.apply(&mut g.mirror, |j| {
        let (u, v) = ins[j].0;
        slot_plan.inserted_at[find(&ins, (v, u))] as u32
    });
    slot_plan.apply(&mut g.neighbor_edges, |j| {
        let (u, v) = ins[j].0;
        EdgeId(edge_plan.inserted_at[find(&upper, (u.min(v), u.max(v)))] as u32)
    });
    edge_plan.apply(&mut g.edges, |j| {
        (NodeId(upper[j].0 .0), NodeId(upper[j].0 .1))
    });
    slot_plan.apply(&mut g.neighbor_ids, |j| NodeId(ins[j].0 .1));

    // Row `v` starts later by the inserts, and earlier by the removals,
    // in the rows before it; appended rows start empty at the old end.
    g.row_offsets.resize(slots + 1, slot_end as u32);
    let mut shift = 0u32;
    let mut rows = edits.chunk_by(|a, b| a.0 .0 == b.0 .0).peekable();
    while let Some(row) = rows.next() {
        for &(_, w) in row {
            shift = shift.wrapping_add(if w.is_some() { 1 } else { u32::MAX });
        }
        let after = row[0].0 .0 as usize + 1;
        let until = rows.peek().map_or(slots, |next| next[0].0 .0 as usize);
        for start in &mut g.row_offsets[after..=until] {
            *start = start.wrapping_add(shift);
        }
    }

    g.node_weights.resize(slots, 0);
    for (&v, &w) in weights {
        g.node_weights[v as usize] = w;
    }
    debug_assert_eq!(g.neighbor_ids.len(), 2 * g.edges.len());
}

/// Normalizes an endpoint pair to the `(min, max)` convention of
/// [`Graph::endpoints`].
fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 3);
        b.add_weighted_edge(NodeId(1), NodeId(2), 5);
        b.add_weighted_edge(NodeId(2), NodeId(3), 7);
        b.build()
    }

    #[test]
    fn overlay_reads_match_base_before_any_mutation() {
        let g = path4();
        let base_fp = g.fingerprint();
        let dg = DeltaGraph::new(g);
        assert_eq!(dg.num_slots(), 4);
        assert_eq!(dg.num_edges(), 3);
        assert_eq!(dg.fingerprint(), base_fp);
        assert_eq!(dg.compact().fingerprint(), base_fp);
        assert!(dg.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(dg.edge_weight(NodeId(1), NodeId(2)), Some(5));
        assert_eq!(dg.degree(NodeId(1)), 2);
    }

    #[test]
    fn insert_and_remove_flow_through_reads_and_compaction() {
        let mut dg = DeltaGraph::new(path4());
        dg.insert_edge(NodeId(0), NodeId(3), 11);
        dg.remove_edge(NodeId(1), NodeId(2));
        assert!(dg.has_edge(NodeId(3), NodeId(0)));
        assert_eq!(dg.edge_weight(NodeId(0), NodeId(3)), Some(11));
        assert!(!dg.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(dg.num_edges(), 3);
        assert_eq!(
            dg.neighbors(NodeId(0)),
            vec![(NodeId(1), 3), (NodeId(3), 11)]
        );
        let g = dg.compact();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.fingerprint(), dg.fingerprint());
        assert_eq!(
            g.edge_weight(g.find_edge(NodeId(0), NodeId(3)).unwrap()),
            11
        );
        assert!(g.find_edge(NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn reinserting_a_removed_base_edge_takes_the_new_weight() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_edge(NodeId(1), NodeId(2));
        dg.insert_edge(NodeId(2), NodeId(1), 99);
        assert_eq!(dg.edge_weight(NodeId(1), NodeId(2)), Some(99));
        assert_eq!(dg.num_edges(), 3);
        // ... and removing it again works (the mask is already in place).
        dg.remove_edge(NodeId(1), NodeId(2));
        assert!(!dg.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(dg.compact().fingerprint(), dg.fingerprint());
    }

    #[test]
    fn remove_node_drops_incident_edges_and_frees_the_slot() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(1));
        assert!(!dg.is_alive(NodeId(1)));
        assert_eq!(dg.num_live_nodes(), 3);
        assert_eq!(dg.num_edges(), 1); // only {2,3} survives
        assert_eq!(dg.degree(NodeId(0)), 0);
        assert_eq!(dg.node_weight(NodeId(1)), 0);
        let g = dg.compact();
        assert_eq!(g.num_nodes(), 4); // slot survives as isolated node
        assert_eq!(g.degree(NodeId(1)), 0);
        assert_eq!(g.node_weight(NodeId(1)), 0);
        assert_eq!(g.fingerprint(), dg.fingerprint());
    }

    #[test]
    fn add_node_reuses_the_smallest_free_slot_first() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(2));
        dg.remove_node(NodeId(0));
        let a = dg.add_node(42);
        assert_eq!(a, NodeId(0), "smallest freed slot is reused first");
        assert_eq!(dg.node_weight(a), 42);
        let b = dg.add_node(43);
        assert_eq!(b, NodeId(2));
        let c = dg.add_node(44);
        assert_eq!(c, NodeId(4), "no free slot left: append");
        assert_eq!(dg.num_slots(), 5);
        assert_eq!(dg.compact().fingerprint(), dg.fingerprint());
    }

    #[test]
    fn rejoined_slots_can_take_edges() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(1));
        let v = dg.add_node(9);
        assert_eq!(v, NodeId(1));
        dg.insert_edge(v, NodeId(3), 2);
        assert_eq!(dg.neighbors(v), vec![(NodeId(3), 2)]);
        assert_eq!(dg.compact().fingerprint(), dg.fingerprint());
    }

    #[test]
    fn take_log_records_mutations_in_order_and_drains() {
        let mut dg = DeltaGraph::new(path4());
        dg.insert_edge(NodeId(3), NodeId(0), 1);
        dg.remove_node(NodeId(1));
        let v = dg.add_node(5);
        let log = dg.take_log();
        assert_eq!(log.inserted, vec![(NodeId(0), NodeId(3))]);
        // remove_node(1) removed its two incident path edges.
        assert_eq!(
            log.removed,
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
        assert_eq!(log.left, vec![NodeId(1)]);
        assert_eq!(log.joined, vec![v]);
        assert_eq!(log.len(), 5);
        assert!(dg.take_log().is_empty(), "take_log drains");
        let touched = log.touched_nodes();
        assert_eq!(touched, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn compacting_twice_round_trips_through_a_fresh_overlay() {
        let mut dg = DeltaGraph::new(path4());
        dg.insert_edge(NodeId(0), NodeId(2), 8);
        dg.remove_edge(NodeId(2), NodeId(3));
        let g1 = dg.compact();
        let dg2 = DeltaGraph::new(g1.clone());
        assert_eq!(dg2.fingerprint(), g1.fingerprint());
        assert_eq!(dg2.compact().fingerprint(), g1.fingerprint());
    }

    /// Every simple graph on 4 labelled slots with each edge absent or of
    /// weight 1 or 2 and each node of weight 0 or 1: 3^6 · 2^4 graphs,
    /// 11,664 distinct fingerprints.
    #[test]
    fn fingerprints_separate_every_small_weighted_graph() {
        let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut seen = BTreeSet::new();
        for edge_states in 0..3u32.pow(6) {
            for node_bits in 0..16u32 {
                let mut b = GraphBuilder::with_nodes(4);
                for v in 0..4 {
                    b.set_node_weight(NodeId(v), u64::from(node_bits >> v & 1));
                }
                let mut state = edge_states;
                for &(u, v) in &pairs {
                    if state % 3 > 0 {
                        b.add_weighted_edge(NodeId(u), NodeId(v), u64::from(state % 3));
                    }
                    state /= 3;
                }
                assert!(
                    seen.insert(b.build().fingerprint()),
                    "collision at edge states {edge_states}, node bits {node_bits}"
                );
            }
        }
        assert_eq!(seen.len(), 11_664);
    }

    #[test]
    fn swapped_edge_weights_and_an_extra_slot_change_the_fingerprint() {
        let fp = path4().fingerprint();
        let mut b = GraphBuilder::with_nodes(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 7);
        b.add_weighted_edge(NodeId(1), NodeId(2), 5);
        b.add_weighted_edge(NodeId(2), NodeId(3), 3);
        assert_ne!(b.build().fingerprint(), fp, "weights 3, 7 swapped");
        let mut dg = DeltaGraph::new(path4());
        dg.add_node(0);
        assert_ne!(dg.fingerprint(), fp, "an isolated weight-0 slot");
        assert_eq!(dg.fingerprint(), dg.compact().fingerprint());
    }

    /// The fold keeps the base canonical whatever order the original
    /// graph numbered its edges in, and the in-place fold leaves exactly
    /// what `compact` returns.
    #[test]
    fn fold_splices_in_place_and_matches_compact() {
        let mut b = GraphBuilder::with_nodes(5);
        b.add_weighted_edge(NodeId(3), NodeId(4), 1);
        b.add_weighted_edge(NodeId(0), NodeId(2), 2);
        b.add_weighted_edge(NodeId(1), NodeId(3), 3);
        let mut dg = DeltaGraph::new(b.build());
        let endpoints = |g: &Graph| g.edges().map(|e| g.endpoints(e)).collect::<Vec<_>>();
        assert_eq!(
            endpoints(dg.base()),
            [(0, 2), (1, 3), (3, 4)].map(|(u, v)| (NodeId(u), NodeId(v)))
        );
        dg.insert_edge(NodeId(2), NodeId(1), 9);
        dg.remove_edge(NodeId(3), NodeId(4));
        let v = dg.add_node(6);
        dg.insert_edge(v, NodeId(0), 8);
        let compacted = dg.compact();
        let shared = dg.clone();
        dg.fold();
        assert_eq!(dg.base(), &compacted);
        assert_eq!(
            endpoints(dg.base()),
            [(0, 2), (0, 5), (1, 2), (1, 3)].map(|(u, v)| (NodeId(u), NodeId(v)))
        );
        assert_eq!(shared.compact(), compacted, "a clone keeps its own base");
        assert_eq!(dg.fingerprint(), compacted.fingerprint());
    }

    // Rejection paths: every panic names the method and the offending
    // argument (the PR 6 `Adversary` convention).

    #[test]
    #[should_panic(expected = "DeltaGraph::insert_edge: self-loop at v1")]
    fn insert_self_loop_panics() {
        DeltaGraph::new(path4()).insert_edge(NodeId(1), NodeId(1), 1);
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::insert_edge: node v9 out of range")]
    fn insert_out_of_range_panics() {
        DeltaGraph::new(path4()).insert_edge(NodeId(0), NodeId(9), 1);
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::insert_edge: node v2 is removed")]
    fn insert_on_removed_endpoint_panics() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(2));
        dg.insert_edge(NodeId(0), NodeId(2), 1);
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::insert_edge: edge v0–v1 already present")]
    fn duplicate_insert_panics() {
        DeltaGraph::new(path4()).insert_edge(NodeId(0), NodeId(1), 1);
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::remove_edge: edge v0–v2 not present")]
    fn remove_missing_edge_panics() {
        DeltaGraph::new(path4()).remove_edge(NodeId(0), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::remove_edge: node v7 out of range")]
    fn remove_out_of_range_panics() {
        DeltaGraph::new(path4()).remove_edge(NodeId(7), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::remove_node: node v3 is removed")]
    fn double_remove_node_panics() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(3));
        dg.remove_node(NodeId(3));
    }

    #[test]
    #[should_panic(expected = "DeltaGraph::set_node_weight: node v0 is removed")]
    fn set_weight_on_removed_node_panics() {
        let mut dg = DeltaGraph::new(path4());
        dg.remove_node(NodeId(0));
        dg.set_node_weight(NodeId(0), 5);
    }
}
