//! Contiguous node-slot sharding: the partition every round-engine
//! executor runs over, and the shard map of the matching-as-a-service
//! façade.
//!
//! A [`ShardPartition`] splits the slot-id space `0..n` into `k`
//! contiguous ranges. Contiguity is what makes sharding free on the CSR
//! representation: a shard's message-plane rows (`row_offsets[start] ..
//! row_offsets[end]`) are one contiguous block, so per-shard worker
//! threads operate on disjoint plane slices without any index
//! translation, and cross-shard edges are exactly the CSR row entries
//! whose neighbor id falls outside the owner's range — one range check
//! each, for the engine's cross-shard message meter as for
//! [`ShardPartition::cross_shard_edges`].
//!
//! The partition is a pure function of `(n, shards)`, so every replica
//! that agrees on the graph agrees on the shard map — no coordination
//! state to reconcile and nothing to persist besides the two integers.

use crate::graph::Graph;

/// A partition of the node-slot space `0..n` into contiguous shards.
///
/// The round engine runs over one: its sequential executor is one shard,
/// its parallel executor one equal shard per worker, and its sharded
/// executor takes any partition of the graph's slots.
///
/// Shard `s` owns the half-open slot range [`range`](Self::range)`(s)`;
/// ranges are balanced to within one slot (the first `n % k` shards are
/// one slot larger). A partition over `n = 0` is legal — every shard
/// owns an empty range — so a fully-departed graph keeps a well-formed
/// shard map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPartition {
    /// `starts[s]` = first slot of shard `s`; `starts[k]` = `n`.
    starts: Vec<u32>,
}

impl ShardPartition {
    /// Balanced contiguous partition of `n` slots into `shards` ranges.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `n` exceeds `u32` slot space.
    pub fn contiguous(n: usize, shards: usize) -> Self {
        assert!(shards > 0, "ShardPartition: need at least one shard");
        assert!(
            n <= u32::MAX as usize,
            "ShardPartition: slot space overflow"
        );
        let base = n / shards;
        let extra = n % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            starts.push(at as u32);
        }
        ShardPartition { starts }
    }

    /// Number of shards `k`.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of slots covered (`n`).
    pub fn num_slots(&self) -> usize {
        self.starts[self.shards()] as usize
    }

    /// Slot range owned by shard `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> core::ops::Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }

    /// Number of undirected edges of `g` whose endpoints live in
    /// different shards — the coordinator↔worker communication surface
    /// a sharded run pays for.
    ///
    /// # Panics
    /// Panics if `g` has more slots than the partition covers.
    pub fn cross_shard_edges(&self, g: &Graph) -> usize {
        assert!(
            g.num_nodes() <= self.num_slots(),
            "ShardPartition::cross_shard_edges: graph has {} slots, partition covers {}",
            g.num_nodes(),
            self.num_slots()
        );
        let n = g.num_nodes();
        let crossings: usize = (0..self.shards())
            .map(|s| {
                let shard = self.range(s);
                let (lo, len) = (shard.start as u32, shard.len() as u32);
                // The shard's CSR rows are one block; a neighbour below
                // `lo` wraps past `len`, so one compare finds an outsider.
                let block = g.row_offsets[shard.start.min(n)] as usize
                    ..g.row_offsets[shard.end.min(n)] as usize;
                g.neighbor_ids[block]
                    .iter()
                    .filter(|u| u.0.wrapping_sub(lo) >= len)
                    .count()
            })
            .sum();
        // Each crossing edge is seen from both endpoints' rows.
        crossings / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn balanced_ranges_cover_the_slot_space() {
        for n in [0usize, 1, 7, 64, 1001] {
            for k in [1usize, 2, 3, 8] {
                let p = ShardPartition::contiguous(n, k);
                assert_eq!(p.shards(), k);
                assert_eq!(p.num_slots(), n);
                let mut covered = 0;
                for s in 0..k {
                    let r = p.range(s);
                    assert_eq!(r.start, covered, "ranges are contiguous");
                    covered = r.end;
                    // Balanced to within one slot.
                    assert!(r.len() >= n / k && r.len() <= n / k + 1);
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn one_shard_has_no_cross_edges() {
        let g = generators::complete(9);
        let p = ShardPartition::contiguous(9, 1);
        assert_eq!(p.cross_shard_edges(&g), 0);
    }

    #[test]
    fn cross_edges_counted_on_a_path() {
        // path(10) split into 2 shards of 5: exactly the edge 4–5 crosses.
        let g = generators::path(10);
        let p = ShardPartition::contiguous(10, 2);
        assert_eq!(p.cross_shard_edges(&g), 1);
    }

    #[test]
    fn cross_edges_match_an_endpoint_scan() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(8);
        for n in [1usize, 13, 200] {
            let g = generators::gnp(n, 0.1, &mut rng);
            for k in [1usize, 2, 3, 7, 250] {
                let p = ShardPartition::contiguous(n, k);
                let shard = |v: usize| (0..k).position(|s| p.range(s).contains(&v));
                let expected = g
                    .edges()
                    .filter(|&e| {
                        let (u, v) = g.endpoints(e);
                        shard(u.index()) != shard(v.index())
                    })
                    .count();
                assert_eq!(p.cross_shard_edges(&g), expected, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        ShardPartition::contiguous(4, 0);
    }

    #[test]
    fn more_shards_than_slots_leaves_empty_tails() {
        let p = ShardPartition::contiguous(2, 5);
        assert_eq!(p.range(0), 0..1);
        assert_eq!(p.range(1), 1..2);
        for s in 2..5 {
            assert!(p.range(s).is_empty());
        }
    }
}
