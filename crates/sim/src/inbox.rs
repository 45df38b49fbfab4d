use std::marker::PhantomData;

use crate::{PackedMsg, Port};

/// Port-indexed view of the messages one node received this round.
///
/// The engine keeps all in-flight messages in flat *message planes* shaped
/// exactly like the graph's CSR adjacency block (see
/// [`congest_graph::Graph::row_offsets`]): word `row_offsets[v] + p` of a
/// plane's payload array belongs to port `p` of node `v`, and bit
/// `row_offsets[v] + p` of the plane's occupancy bitmap says whether that
/// word holds a message. An `Inbox` is a zero-copy view of one node's
/// payload row plus the bit range of its occupancy — port `p` carries a
/// message iff its bit is set, in which case the payload word unpacks via
/// [`PackedMsg::unpack`]. A receive row may start anywhere inside an
/// occupancy word and share that word with its neighbors in the CSR
/// order; the view masks their bits off.
///
/// # Port ordering guarantee
///
/// [`iter`](Inbox::iter) yields `(port, msg)` pairs in strictly ascending
/// port order. This is structural (the row *is* indexed by port and the
/// scan walks occupancy bits low-bit-first via `trailing_zeros`), not the
/// result of a sort, so it costs nothing and can never be violated by a
/// delivery-order bug. Silent ports cost one skipped zero bit, not a cell
/// inspection: a mostly-empty inbox is scanned 64 ports at a time.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    /// Payload words, one per port (`len == degree`). Words of silent
    /// ports are stale garbage — the occupancy bit is the only truth.
    words: &'a [u64],
    /// Occupancy words covering the row: port `p` is bit `shift + p` of
    /// their concatenation (bit `i % 64` of `occ[i / 64]`). Bits outside
    /// the row may belong to other nodes and are never read as ports.
    occ: &'a [u64],
    /// Position of port 0's bit inside `occ[0]` (`0..64`).
    shift: u32,
    _msg: PhantomData<fn() -> M>,
}

// Manual impls: an `Inbox` is two shared slice references, copyable no
// matter what `M` is (a derive would demand `M: Copy`).
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// Wraps a port-indexed payload row and its occupancy words, the row
    /// starting at bit 0 (`occ.len() == words.len().div_ceil(64)`;
    /// occupancy bits at or above `words.len()` must be zero). Tests and
    /// custom harnesses may build one from any pair of slices satisfying
    /// the invariant.
    #[inline]
    pub fn new(words: &'a [u64], occ: &'a [u64]) -> Self {
        debug_assert_eq!(occ.len(), words.len().div_ceil(64));
        debug_assert!(
            words.len().is_multiple_of(64)
                || occ.last().is_none_or(|w| w >> (words.len() % 64) == 0),
            "occupancy bits beyond the port range must be zero"
        );
        Inbox {
            words,
            occ,
            shift: 0,
            _msg: PhantomData,
        }
    }

    /// The engine's receive-row view: ports `0..words.len()` are the bits
    /// starting at bit `shift` of `occ`, which must cover
    /// `shift + words.len()` bits. Bits outside that range may be set.
    #[inline]
    pub(crate) fn from_bit_range(words: &'a [u64], occ: &'a [u64], shift: u32) -> Self {
        debug_assert!(shift < 64, "the row starts inside occ[0]");
        debug_assert!(occ.len() * 64 >= shift as usize + words.len());
        Inbox {
            words,
            occ,
            shift,
            _msg: PhantomData,
        }
    }

    /// Number of ports of the receiving node (= its degree), whether or not
    /// a message arrived on them.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.words.len()
    }

    /// Number of 64-port groups of the row.
    #[inline]
    fn port_groups(&self) -> usize {
        self.words.len().div_ceil(64)
    }

    /// Occupancy of ports `64k .. 64k + 64` as one word aligned to port
    /// `64k`, with bits at or beyond [`num_ports`](Self::num_ports)
    /// cleared. `k` must be below [`port_groups`](Self::port_groups).
    #[inline]
    fn group(&self, k: usize) -> u64 {
        let mut bits = self.occ[k] >> self.shift;
        if self.shift != 0 {
            if let Some(next) = self.occ.get(k + 1) {
                bits |= next << (64 - self.shift);
            }
        }
        let left = self.words.len() - 64 * k;
        if left < 64 {
            bits &= (1u64 << left) - 1;
        }
        bits
    }

    /// Number of messages received this round: a popcount over the
    /// occupancy bits, `O(degree / 64)`.
    #[inline]
    pub fn received_count(&self) -> usize {
        (0..self.port_groups())
            .map(|k| self.group(k).count_ones() as usize)
            .sum()
    }

    /// Alias of [`received_count`](Self::received_count).
    #[inline]
    pub fn len(&self) -> usize {
        self.received_count()
    }

    /// Whether no message arrived this round (`O(degree / 64)` word
    /// tests).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..self.port_groups()).all(|k| self.group(k) == 0)
    }
}

impl<'a, M: PackedMsg> Inbox<'a, M> {
    /// The message received through `port` this round, if any — unpacked
    /// by value. Returns `None` both for silent ports and for
    /// out-of-range ports.
    #[inline]
    pub fn get(&self, port: Port) -> Option<M> {
        let bit = self.shift as usize + port;
        if port < self.words.len() && self.occ[bit / 64] & (1u64 << (bit % 64)) != 0 {
            Some(M::unpack(self.words[port]))
        } else {
            None
        }
    }

    /// Iterates over the received messages as `(port, msg)` pairs, in
    /// ascending port order (see the type-level ordering guarantee),
    /// unpacking each payload word on the fly. Empty stretches are skipped
    /// 64 ports at a time via `u64::trailing_zeros`.
    #[inline]
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: *self,
            group: 0,
            pending: if self.words.is_empty() {
                0
            } else {
                self.group(0)
            },
        }
    }
}

impl<'a, M: PackedMsg> IntoIterator for Inbox<'a, M> {
    type Item = (Port, M);
    type IntoIter = InboxIter<'a, M>;

    #[inline]
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M: PackedMsg> IntoIterator for &Inbox<'a, M> {
    type Item = (Port, M);
    type IntoIter = InboxIter<'a, M>;

    #[inline]
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding `(port, msg)` in ascending port
/// order via a `trailing_zeros` scan of the occupancy bits.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    /// Index of the 64-port group `pending` was loaded from.
    group: usize,
    /// Unvisited bits of port group `group`.
    pending: u64,
}

impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        InboxIter {
            inbox: self.inbox,
            group: self.group,
            pending: self.pending,
        }
    }
}

impl<'a, M: PackedMsg> Iterator for InboxIter<'a, M> {
    type Item = (Port, M);

    #[inline]
    fn next(&mut self) -> Option<(Port, M)> {
        while self.pending == 0 {
            self.group += 1;
            if self.group >= self.inbox.port_groups() {
                return None;
            }
            self.pending = self.inbox.group(self.group);
        }
        let bit = self.pending.trailing_zeros() as usize;
        // Clear the lowest set bit.
        self.pending &= self.pending - 1;
        let port = self.group * 64 + bit;
        Some((port, M::unpack(self.inbox.words[port])))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.pending.count_ones() as usize
            + (self.group + 1..self.inbox.port_groups())
                .map(|k| self.inbox.group(k).count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

impl<M: PackedMsg> ExactSizeIterator for InboxIter<'_, M> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the (words, occ) pair an engine row would hold for the given
    /// port-indexed `Option` view — the shape the old `Option<M>` plane
    /// stored directly.
    fn rows<M: PackedMsg>(cells: &[Option<M>]) -> (Vec<u64>, Vec<u64>) {
        let mut words = vec![0u64; cells.len()];
        let mut occ = vec![0u64; cells.len().div_ceil(64)];
        for (p, cell) in cells.iter().enumerate() {
            if let Some(m) = cell {
                words[p] = m.pack();
                occ[p / 64] |= 1 << (p % 64);
            }
        }
        (words, occ)
    }

    #[test]
    fn iterates_in_port_order_skipping_silent_ports() {
        let (words, occ) = rows(&[None, Some(10u64), None, Some(30), Some(40)]);
        let inbox: Inbox<'_, u64> = Inbox::new(&words, &occ);
        assert_eq!(inbox.num_ports(), 5);
        assert_eq!(inbox.len(), 3);
        assert_eq!(inbox.received_count(), 3);
        assert!(!inbox.is_empty());
        let got: Vec<(Port, u64)> = inbox.iter().collect();
        assert_eq!(got, vec![(1, 10), (3, 30), (4, 40)]);
        assert_eq!(inbox.iter().len(), 3);
    }

    #[test]
    fn get_is_total() {
        let (words, occ) = rows(&[Some(7u32), None]);
        let inbox: Inbox<'_, u32> = Inbox::new(&words, &occ);
        assert_eq!(inbox.get(0), Some(7));
        assert_eq!(inbox.get(1), None);
        assert_eq!(inbox.get(99), None);
    }

    #[test]
    fn empty_inbox() {
        let (words, occ) = rows(&[None::<u32>, None, None]);
        let inbox: Inbox<'_, u32> = Inbox::new(&words, &occ);
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
        assert_eq!(inbox.iter().count(), 0);
        // A degree-0 node has an empty row and no occupancy words.
        let inbox = Inbox::<u32>::new(&[], &[]);
        assert!(inbox.is_empty());
        assert_eq!(inbox.num_ports(), 0);
        assert_eq!(inbox.iter().count(), 0);
    }

    #[test]
    fn spans_multiple_occupancy_words() {
        // 130 ports: messages at 0, 63, 64, 129 exercise word boundaries.
        let mut cells: Vec<Option<u64>> = vec![None; 130];
        for p in [0usize, 63, 64, 129] {
            cells[p] = Some(p as u64 * 3);
        }
        let (words, occ) = rows(&cells);
        assert_eq!(occ.len(), 3);
        let inbox: Inbox<'_, u64> = Inbox::new(&words, &occ);
        assert_eq!(inbox.received_count(), 4);
        let got: Vec<(Port, u64)> = inbox.iter().collect();
        assert_eq!(got, vec![(0, 0), (63, 189), (64, 192), (129, 387)]);
        assert_eq!(inbox.get(63), Some(189));
        assert_eq!(inbox.get(65), None);
    }

    #[test]
    fn for_loop_over_value_and_reference() {
        let (words, occ) = rows(&[Some(1u32), Some(2)]);
        let inbox: Inbox<'_, u32> = Inbox::new(&words, &occ);
        let mut sum = 0;
        for (port, msg) in &inbox {
            sum += msg as usize + port;
        }
        for (port, msg) in inbox {
            sum += msg as usize + port;
        }
        assert_eq!(sum, 8);
    }

    /// A receive row that starts mid-word and straddles word boundaries,
    /// with foreign bits set on both sides of it, reads exactly its own
    /// ports — the engine's one-bit-per-slot receive bitmap.
    #[test]
    fn bit_range_rows_ignore_neighbouring_bits() {
        for (shift, len) in [
            (0u32, 5usize),
            (7, 57),
            (7, 58),
            (63, 1),
            (63, 65),
            (1, 130),
            (40, 64),
        ] {
            let ports: Vec<usize> = (0..len).filter(|p| p % 3 != 1).collect();
            let total = shift as usize + len;
            let mut occ = vec![u64::MAX; total.div_ceil(64) + 1];
            for p in 0..len {
                let bit = shift as usize + p;
                occ[bit / 64] &= !(1 << (bit % 64));
            }
            for &p in &ports {
                let bit = shift as usize + p;
                occ[bit / 64] |= 1 << (bit % 64);
            }
            let words: Vec<u64> = (0..len as u64).map(|p| p * 10).collect();
            let inbox: Inbox<'_, u64> = Inbox::from_bit_range(&words, &occ, shift);
            let got: Vec<(Port, u64)> = inbox.iter().collect();
            let want: Vec<(Port, u64)> = ports.iter().map(|&p| (p, p as u64 * 10)).collect();
            assert_eq!(got, want, "shift {shift}, len {len}");
            assert_eq!(inbox.received_count(), ports.len());
            assert_eq!(inbox.iter().len(), ports.len());
            assert!(!inbox.is_empty());
            for p in 0..len + 3 {
                assert_eq!(
                    inbox.get(p),
                    (p < len && p % 3 != 1).then_some(p as u64 * 10)
                );
            }
            // All of the row's own bits clear: empty, whatever surrounds it.
            for p in 0..len {
                let bit = shift as usize + p;
                occ[bit / 64] &= !(1 << (bit % 64));
            }
            let inbox: Inbox<'_, u64> = Inbox::from_bit_range(&words, &occ, shift);
            assert!(inbox.is_empty(), "shift {shift}, len {len}");
            assert_eq!(inbox.iter().count(), 0);
        }
    }

    #[test]
    fn zero_payload_with_set_bit_is_a_message() {
        // The whole point of the occupancy bitmap: a packed word of 0 is a
        // perfectly valid message (e.g. `0u64`), distinguishable from
        // silence only by its bit.
        let (words, occ) = rows(&[Some(0u64), None]);
        let inbox: Inbox<'_, u64> = Inbox::new(&words, &occ);
        assert_eq!(inbox.get(0), Some(0));
        assert_eq!(inbox.get(1), None);
        assert_eq!(inbox.received_count(), 1);
    }
}
