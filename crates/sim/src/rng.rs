//! Deterministic per-node randomness.
//!
//! Every node derives its private RNG stream from a single master seed and
//! its node id through a SplitMix64 mix, so (a) runs are reproducible from
//! one `u64`, and (b) nodes' streams are statistically independent — the
//! property the paper's randomized algorithms (Luby, Ghaffari-style marking)
//! assume of their private coins.

use congest_graph::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One step of the SplitMix64 sequence: a high-quality 64-bit mixer.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG for node `id` from the `master` seed.
pub fn node_rng(master: u64, id: NodeId) -> SmallRng {
    let seed = splitmix64(master ^ splitmix64(0x1000_0000_0000_0000 ^ u64::from(id.0)));
    SmallRng::seed_from_u64(seed)
}

/// Derives a sub-seed for a named phase of a larger protocol, so composed
/// protocols (e.g. "color, then run MaxIS") draw independent streams.
pub fn phase_seed(master: u64, phase: u64) -> u64 {
    splitmix64(master.wrapping_add(splitmix64(phase)))
}

/// Derives the sequential RNG stream for a named phase: the blessed
/// constructor for reference/sequential code that needs a full stream
/// rather than per-event [`mix4`]/[`coin`] coins. Keeping every RNG
/// construction in this module is what the `seeded-rng-only` lint rule
/// enforces.
pub fn phase_rng(master: u64, phase: u64) -> SmallRng {
    SmallRng::seed_from_u64(phase_seed(master, phase))
}

/// Chained SplitMix64 mix of four words — the *pure-coin* primitive
/// behind every fault and delay decision: the [`Adversary`](crate::Adversary)
/// and the [`AsyncScheduler`](crate::AsyncScheduler) hash an event's
/// coordinates (round, endpoints) through this instead of drawing from a
/// shared sequential RNG, so their schedules are independent of node
/// processing order, active-list compaction, and parallel splits.
#[inline]
pub fn mix4(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt).wrapping_add(a)).wrapping_add(b))
}

/// A uniform coin in `[0, 1)` derived from four words via [`mix4`]
/// (53 mantissa bits, like `rand`'s float conversion).
#[inline]
pub fn coin(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    (mix4(seed, salt, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn node_rngs_differ_and_are_deterministic() {
        let mut a1 = node_rng(42, NodeId(0));
        let mut a2 = node_rng(42, NodeId(0));
        let mut b = node_rng(42, NodeId(1));
        let x1: u64 = a1.random();
        let x2: u64 = a2.random();
        let y: u64 = b.random();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn phase_seeds_differ() {
        assert_ne!(phase_seed(7, 0), phase_seed(7, 1));
        assert_ne!(phase_seed(7, 0), 7);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
