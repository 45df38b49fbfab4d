//! Seeded asynchronous round scheduler.
//!
//! Synchronous CONGEST — the model the paper's bounds are stated in —
//! delivers every message exactly one round after it is sent. Real
//! message-passing deployments do not: links stall, queues back up, and a
//! message sent in round `r` may surface many ticks later. The
//! [`AsyncScheduler`] models that gap while keeping every run replayable:
//! each directed-edge delivery gets an extra delay drawn from a
//! [`DelayDist`] by hashing `(round, from, to)` through the same pure
//! SplitMix64 coins the [`Adversary`](crate::Adversary) uses
//! ([`rng::coin`](crate::rng::coin)). Because the delay is a pure function
//! of the event's coordinates — not of any shared RNG stream — schedules
//! are independent of node processing order, active-list compaction, and
//! parallel splits, so `run ≡ run_parallel` bit-for-bit under any delay
//! distribution.
//!
//! A scheduler whose distribution cannot exceed zero delay (e.g.
//! `Uniform { max: 0 }`) degenerates to the synchronous engine exactly:
//! the engine detects `max_delay() == 0` and takes the single-plane fast
//! path, pinned by the recorded gnp-1000 fingerprints.

use crate::rng::coin;
use congest_graph::NodeId;

/// Salt for per-edge delay coins (distinct from every `Adversary` salt).
const DELAY_SALT: u64 = 0xDE1A_75EE_D000_0008;

/// Largest per-message delay any distribution may be configured with.
/// The engine keeps `max_delay + 1` message planes alive (a ring buffer
/// over arrival rounds), so this bounds memory at `O(max_delay · m)`.
pub const MAX_DELAY: usize = 4096;

/// The distribution a scheduler draws per-message delays from. A delay of
/// `d` means a message sent in round `r` is readable in round `r + 1 + d`
/// — `d = 0` is the synchronous case.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayDist {
    /// Uniform over `0..=max` extra rounds.
    Uniform {
        /// Largest delay (inclusive); `0` means synchronous.
        max: usize,
    },
    /// Geometric: each pending message is delivered on a given tick with
    /// probability `p`, truncated at `max` extra rounds — the classic
    /// "asynchronous link that flips a delivery coin every step".
    Geometric {
        /// Per-tick delivery probability, in `(0, 1]`.
        p: f64,
        /// Truncation point so the plane ring stays bounded.
        max: usize,
    },
}

impl DelayDist {
    /// Largest delay this distribution can produce.
    #[must_use]
    pub fn max_delay(&self) -> usize {
        match *self {
            DelayDist::Uniform { max } | DelayDist::Geometric { max, .. } => max,
        }
    }

    /// Panics (naming the offending field) unless the parameters are
    /// sane: probabilities in range, truncation within [`MAX_DELAY`].
    pub fn validate(&self) {
        match *self {
            DelayDist::Uniform { max } => {
                assert!(
                    max <= MAX_DELAY,
                    "DelayDist::Uniform::max = {max} exceeds MAX_DELAY = {MAX_DELAY}"
                );
            }
            DelayDist::Geometric { p, max } => {
                assert!(
                    p.is_finite() && p > 0.0 && p <= 1.0,
                    "DelayDist::Geometric::p = {p} ∉ (0, 1]"
                );
                assert!(
                    max <= MAX_DELAY,
                    "DelayDist::Geometric::max = {max} exceeds MAX_DELAY = {MAX_DELAY}"
                );
            }
        }
    }

    /// Maps a uniform coin `u ∈ [0, 1)` to a delay via inverse CDF.
    fn sample(&self, u: f64) -> usize {
        match *self {
            DelayDist::Uniform { max } => {
                // Multiply-and-floor over max+1 buckets; the `.min` guards
                // the (unreachable at u < 1) top edge against FP rounding.
                ((u * (max as f64 + 1.0)) as usize).min(max)
            }
            DelayDist::Geometric { p, max } => {
                if p >= 1.0 {
                    return 0;
                }
                // Failures before the first success: ⌊ln(1-u)/ln(1-p)⌋.
                let d = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                if d.is_finite() && d >= 0.0 {
                    (d as usize).min(max)
                } else {
                    max
                }
            }
        }
    }
}

/// A deterministic asynchronous scheduler: assigns every directed-edge
/// delivery an extra delay drawn from `dist`, keyed by the send round and
/// the edge's endpoints under `seed`. Install via
/// [`SimConfig::with_scheduler`](crate::SimConfig::with_scheduler).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsyncScheduler {
    /// The per-message delay distribution.
    pub dist: DelayDist,
    /// Seed for the delay coins — independent of protocol RNG streams and
    /// of every `Adversary` seed (distinct salt).
    pub seed: u64,
}

impl AsyncScheduler {
    /// Uniform delays over `0..=max` extra rounds.
    #[must_use]
    pub fn uniform(max: usize, seed: u64) -> Self {
        let s = Self {
            dist: DelayDist::Uniform { max },
            seed,
        };
        s.validate();
        s
    }

    /// Geometric delays with per-tick delivery probability `p`, truncated
    /// at `max` extra rounds.
    #[must_use]
    pub fn geometric(p: f64, max: usize, seed: u64) -> Self {
        let s = Self {
            dist: DelayDist::Geometric { p, max },
            seed,
        };
        s.validate();
        s
    }

    /// Largest delay this scheduler can assign; `0` means the scheduler
    /// is synchronous and the engine takes the single-plane fast path.
    #[must_use]
    pub fn max_delay(&self) -> usize {
        self.dist.max_delay()
    }

    /// Panics (naming the field) on out-of-range parameters.
    pub fn validate(&self) {
        self.dist.validate();
    }

    /// The extra delay for the message sent from `from` to `to` in
    /// `round` — a pure function of its arguments and the seed.
    #[must_use]
    pub fn delay(&self, round: usize, from: NodeId, to: NodeId) -> usize {
        if self.max_delay() == 0 {
            return 0;
        }
        let coord = (u64::from(from.0) << 32) | u64::from(to.0);
        self.dist
            .sample(coin(self.seed, DELAY_SALT, round as u64, coord))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_delays_cover_range_and_replay() {
        let s = AsyncScheduler::uniform(3, 99);
        let mut seen = [false; 4];
        for r in 0..64 {
            for v in 0..8u32 {
                let d = s.delay(r, NodeId(v), NodeId(v + 1));
                assert!(d <= 3);
                seen[d] = true;
                assert_eq!(d, s.delay(r, NodeId(v), NodeId(v + 1)), "pure coin");
            }
        }
        assert!(seen.iter().all(|&b| b), "64×8 draws must hit all of 0..=3");
    }

    #[test]
    fn zero_max_is_synchronous() {
        let s = AsyncScheduler::uniform(0, 1);
        for r in 0..32 {
            assert_eq!(s.delay(r, NodeId(0), NodeId(1)), 0);
        }
    }

    #[test]
    fn geometric_is_biased_toward_small_delays() {
        let s = AsyncScheduler::geometric(0.6, 8, 5);
        let mut zeros = 0usize;
        let mut total = 0usize;
        for r in 0..256 {
            for v in 0..4u32 {
                let d = s.delay(r, NodeId(v), NodeId(v + 4));
                assert!(d <= 8);
                if d == 0 {
                    zeros += 1;
                }
                total += 1;
            }
        }
        // P(d = 0) = 0.6; with 1024 draws the count concentrates hard.
        assert!(
            zeros * 2 > total,
            "p=0.6 must deliver most messages on time"
        );
    }

    #[test]
    fn delay_is_seed_and_coordinate_sensitive() {
        let a = AsyncScheduler::uniform(7, 1);
        let b = AsyncScheduler::uniform(7, 2);
        let mut diff_seed = false;
        let mut diff_dir = false;
        for r in 0..64 {
            if a.delay(r, NodeId(3), NodeId(4)) != b.delay(r, NodeId(3), NodeId(4)) {
                diff_seed = true;
            }
            if a.delay(r, NodeId(3), NodeId(4)) != a.delay(r, NodeId(4), NodeId(3)) {
                diff_dir = true;
            }
        }
        assert!(diff_seed, "seeds must decorrelate schedules");
        assert!(
            diff_dir,
            "the two directions of an edge delay independently"
        );
    }

    #[test]
    #[should_panic(expected = "DelayDist::Geometric::p")]
    fn geometric_rejects_nan_probability() {
        let _ = AsyncScheduler::geometric(f64::NAN, 4, 0);
    }

    #[test]
    #[should_panic(expected = "DelayDist::Geometric::p")]
    fn geometric_rejects_zero_probability() {
        let _ = AsyncScheduler::geometric(0.0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "DelayDist::Uniform::max")]
    fn uniform_rejects_absurd_max() {
        let _ = AsyncScheduler::uniform(MAX_DELAY + 1, 0);
    }
}
