use std::fmt::Debug;

/// A message exchanged between neighboring nodes.
///
/// Besides being cloneable (the engine duplicates broadcasts), messages
/// report their size in bits so the engine can meter the CONGEST budget.
/// Sizes should reflect the *information content* an actual implementation
/// would transmit — e.g. a node weight in `[1, W]` costs
/// `⌈log₂(W+1)⌉` bits ([`bits_for_value`]), not the 64 bits of its `u64`
/// in-memory representation.
pub trait Message: Clone + Debug {
    /// Size of this message in bits, for CONGEST accounting.
    fn bit_size(&self) -> usize;

    /// How a corruption fault garbles this payload in flight.
    ///
    /// When the [`Adversary`](crate::Adversary)'s corruption coin fires,
    /// the engine calls this with a deterministic `entropy` word.
    /// Returning `Some(mutated)` delivers the garbled value to the
    /// receiver; returning `None` — the default — models a transport
    /// whose checksum catches the garbled frame and discards it (the
    /// corruption then behaves like a drop). Either way the event counts
    /// in [`RunStats::corrupted_messages`](crate::RunStats::corrupted_messages).
    ///
    /// Implementations must be pure in `(self, entropy)` so fault
    /// schedules replay identically in `run` and `run_parallel`.
    fn corrupted(&self, entropy: u64) -> Option<Self> {
        let _ = entropy;
        None
    }
}

/// Number of bits needed to write the value `x` in binary (`0 → 1`).
///
/// ```
/// use congest_sim::bits_for_value;
/// assert_eq!(bits_for_value(0), 1);
/// assert_eq!(bits_for_value(1), 1);
/// assert_eq!(bits_for_value(255), 8);
/// assert_eq!(bits_for_value(256), 9);
/// ```
pub fn bits_for_value(x: u64) -> usize {
    (64 - x.leading_zeros()).max(1) as usize
}

/// Number of bits needed to index into a domain of `count` values
/// (`⌈log₂ count⌉`, with a minimum of 1).
///
/// ```
/// use congest_sim::bits_for_count;
/// assert_eq!(bits_for_count(1), 1);
/// assert_eq!(bits_for_count(2), 1);
/// assert_eq!(bits_for_count(1024), 10);
/// assert_eq!(bits_for_count(1025), 11);
/// ```
pub fn bits_for_count(count: usize) -> usize {
    if count <= 2 {
        1
    } else {
        (usize::BITS - (count - 1).leading_zeros()) as usize
    }
}

impl Message for () {
    fn bit_size(&self) -> usize {
        0
    }
}

impl Message for bool {
    fn bit_size(&self) -> usize {
        1
    }
}

impl Message for u32 {
    fn bit_size(&self) -> usize {
        bits_for_value(u64::from(*self))
    }

    /// Raw integer payloads have no checksum to hide behind: corruption
    /// surfaces as a single flipped bit at an entropy-chosen position.
    fn corrupted(&self, entropy: u64) -> Option<Self> {
        Some(self ^ (1u32 << (entropy % 32)))
    }
}

impl Message for u64 {
    fn bit_size(&self) -> usize {
        bits_for_value(*self)
    }

    /// Raw integer payloads have no checksum to hide behind: corruption
    /// surfaces as a single flipped bit at an entropy-chosen position.
    fn corrupted(&self, entropy: u64) -> Option<Self> {
        Some(self ^ (1u64 << (entropy % 64)))
    }
}

impl<T: Message> Message for Option<T> {
    fn bit_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Message::bit_size)
    }
}

impl<A: Message, B: Message> Message for (A, B) {
    fn bit_size(&self) -> usize {
        self.0.bit_size() + self.1.bit_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bits() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(7), 3);
        assert_eq!(bits_for_value(8), 4);
        assert_eq!(bits_for_value(u64::MAX), 64);
    }

    #[test]
    fn count_bits() {
        assert_eq!(bits_for_count(1), 1);
        assert_eq!(bits_for_count(3), 2);
        assert_eq!(bits_for_count(4), 2);
        assert_eq!(bits_for_count(5), 3);
    }

    /// Boundary cases: the degenerate inputs 0 and 1 (both clamp to one
    /// bit) and exact powers of two, where off-by-one errors in the
    /// `count - 1` / `leading_zeros` arithmetic would show first.
    #[test]
    fn value_bits_boundaries() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(1), 1);
        for k in 1..63u32 {
            let pow = 1u64 << k;
            // 2^k needs k+1 bits; 2^k − 1 needs k bits.
            assert_eq!(bits_for_value(pow), k as usize + 1, "value 2^{k}");
            assert_eq!(bits_for_value(pow - 1), k as usize, "value 2^{k} - 1");
        }
        assert_eq!(bits_for_value(u64::MAX), 64);
    }

    #[test]
    fn count_bits_boundaries() {
        // Degenerate domains still need one bit to index.
        assert_eq!(bits_for_count(0), 1);
        assert_eq!(bits_for_count(1), 1);
        assert_eq!(bits_for_count(2), 1);
        for k in 1..32u32 {
            let pow = 1usize << k;
            // A domain of exactly 2^k values needs k bits; one more value
            // tips it to k+1.
            assert_eq!(bits_for_count(pow), k as usize, "count 2^{k}");
            assert_eq!(bits_for_count(pow + 1), k as usize + 1, "count 2^{k} + 1");
        }
    }

    #[test]
    fn bits_are_monotone() {
        let mut prev = 0;
        for x in 0..4096u64 {
            let b = bits_for_value(x);
            assert!(b >= prev);
            prev = b;
        }
        let mut prev = 0;
        for c in 0..4096usize {
            let b = bits_for_count(c);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn corruption_flips_one_bit_on_raw_integers_and_discards_elsewhere() {
        // Structured payloads default to checksum-discard…
        assert_eq!(true.corrupted(5), None);
        assert_eq!(Some(7u64).corrupted(5), None);
        assert_eq!(().corrupted(5), None);
        // …raw integers flip exactly one entropy-chosen bit, purely.
        let x = 0b1010_1100u64;
        let y = x.corrupted(3).unwrap();
        assert_eq!((x ^ y).count_ones(), 1);
        assert_eq!(x.corrupted(3), x.corrupted(3));
        assert_ne!(x.corrupted(0), x.corrupted(1));
        let z = 7u32.corrupted(40).unwrap();
        assert_eq!((7u32 ^ z).count_ones(), 1);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!(().bit_size(), 0);
        assert_eq!(true.bit_size(), 1);
        assert_eq!(5u64.bit_size(), 3);
        assert_eq!(Some(5u64).bit_size(), 4);
        assert_eq!(None::<u64>.bit_size(), 1);
        assert_eq!((true, 5u64).bit_size(), 4);
    }
}
