//! Bit-packed wire representation of protocol messages.
//!
//! The engine's message planes store one dense `u64` *word* per directed
//! edge (plus one occupancy bit — see the engine docs), so every message
//! type must state how it serializes into such a word. That is exactly the
//! CONGEST discipline made structural: the model allows `O(log n)` bits per
//! edge per round, a plane word offers 64, and a protocol whose messages
//! cannot be packed into 64 bits is *not* a CONGEST protocol for any
//! `n ≤ 2^64` worth simulating. [`PackedMsg::BITS`] is the compile-time
//! width bound; [`Message::bit_size`](crate::Message::bit_size) remains the
//! per-value information content the budget meter charges (usually far
//! below `BITS`, e.g. a small id in a 64-bit frame).

use crate::Message;

/// A message with a fixed-width packed wire format.
///
/// # Contract
///
/// * `unpack(pack(&m)) == m` for every value `m` the protocol can send
///   (round-trip identity — proptested per implementation).
/// * `pack` only uses the low [`BITS`](Self::BITS) bits: for every `m`,
///   `pack(&m) >> BITS == 0` (for `BITS == 64` the condition is vacuous).
///   "High bits zero" is what lets the engine treat the word as the whole
///   message: delivery and duplication move the word as it is, and only
///   the trace and the corruption coin unpack it. Corruption garbles the
///   *unpacked* message and repacks it (see the last point).
/// * `BITS ≤ 64`. The engine forces the check at compile (monomorphization)
///   time by evaluating [`BITS_OK`](Self::BITS_OK), so an over-wide
///   implementation cannot run.
/// * `unpack` must be total on every word `pack` can produce, but may
///   return an arbitrary (well-formed) message for other words: the
///   corruption adversary garbles *unpacked* messages via
///   [`Message::corrupted`] and repacks the result, so `unpack` never sees
///   wild bit patterns.
///
/// # The CONGEST-bits argument
///
/// The source paper's algorithms exchange a constant number of ids,
/// priorities, and weight layers per message — `O(log n)` bits. Packing
/// each `Msg` enum into one machine word is therefore lossless *by model
/// assumption*: a variant tag (2–3 bits), a weight-layer index (≤ 7 bits,
/// layers cap at 64), and a priority or id bounded by a fixed power of two
/// chosen so the total stays ≤ 64. Protocols whose payload domains could
/// exceed their field width (e.g. subtree weight sums) assert the domain
/// bound in `pack`, making the wire contract explicit instead of silently
/// truncating.
pub trait PackedMsg: Message {
    /// Number of low bits of the packed word this type may use (≤ 64).
    const BITS: u32;

    /// Evaluates to `()` iff `BITS ≤ 64`. The engine references this
    /// constant for every protocol message type it runs, turning an
    /// over-wide `BITS` into a compile-time error rather than a silent
    /// truncation.
    const BITS_OK: () = assert!(
        Self::BITS <= 64,
        "PackedMsg::BITS must fit the 64-bit plane word"
    );

    /// Serializes the message into the low [`BITS`](Self::BITS) bits of a
    /// word.
    fn pack(&self) -> u64;

    /// Deserializes a word produced by [`pack`](Self::pack).
    fn unpack(word: u64) -> Self;
}

impl PackedMsg for () {
    const BITS: u32 = 0;

    #[inline]
    fn pack(&self) -> u64 {
        0
    }

    #[inline]
    fn unpack(_word: u64) -> Self {}
}

impl PackedMsg for bool {
    const BITS: u32 = 1;

    #[inline]
    fn pack(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        word & 1 != 0
    }
}

impl PackedMsg for u32 {
    const BITS: u32 = 32;

    #[inline]
    fn pack(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        word as u32
    }
}

impl PackedMsg for u64 {
    const BITS: u32 = 64;

    #[inline]
    fn pack(&self) -> u64 {
        *self
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        word
    }
}

/// `Option<T>`: one presence bit in the lowest position, the payload above
/// it. Requires `T::BITS < 64` (checked at monomorphization via
/// [`PackedMsg::BITS_OK`]).
impl<T: PackedMsg> PackedMsg for Option<T> {
    const BITS: u32 = T::BITS + 1;

    #[inline]
    fn pack(&self) -> u64 {
        let () = Self::BITS_OK;
        match self {
            None => 0,
            Some(t) => 1 | (t.pack() << 1),
        }
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        if word & 1 == 0 {
            None
        } else {
            Some(T::unpack(word >> 1))
        }
    }
}

/// Pairs concatenate their fields, first component in the low bits.
impl<A: PackedMsg, B: PackedMsg> PackedMsg for (A, B) {
    const BITS: u32 = A::BITS + B::BITS;

    #[inline]
    fn pack(&self) -> u64 {
        let () = Self::BITS_OK;
        // `A::BITS == 64` forces `B::BITS == 0` here, so the shift below
        // cannot overflow once BITS_OK holds — except in the corner where
        // A alone fills the word; route that through a checked shift.
        self.0.pack() | self.1.pack().checked_shl(A::BITS).unwrap_or(0)
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        let a_mask = if A::BITS == 64 {
            u64::MAX
        } else {
            (1u64 << A::BITS) - 1
        };
        (
            A::unpack(word & a_mask),
            B::unpack(word.checked_shr(A::BITS).unwrap_or(0)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: PackedMsg + PartialEq>(m: &M) {
        let word = m.pack();
        if M::BITS < 64 {
            assert_eq!(word >> M::BITS, 0, "high bits must be zero");
        }
        assert_eq!(&M::unpack(word), m);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&());
        roundtrip(&true);
        roundtrip(&false);
        for x in [0u32, 1, 7, u32::MAX] {
            roundtrip(&x);
        }
        for x in [0u64, 1, 0xFFFF_FFFF_FFFF, u64::MAX] {
            roundtrip(&x);
        }
    }

    #[test]
    fn option_and_pair_roundtrip() {
        roundtrip(&None::<u32>);
        roundtrip(&Some(u32::MAX));
        roundtrip(&Some(true));
        roundtrip(&(true, 7u32));
        roundtrip(&(u32::MAX, u32::MAX));
        assert_eq!(<Option<u32>>::BITS, 33);
        assert_eq!(<(u32, bool)>::BITS, 33);
    }
}
