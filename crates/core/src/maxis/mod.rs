//! Δ-approximate maximum weight independent set via local ratio.
//!
//! * `seq_lr` (Algorithm 1 via [`sequential_local_ratio`]) — Algorithm 1: the sequential meta-algorithm whose
//!   correctness (Lemma 2.2 + Theorem 2.1, the local ratio theorem)
//!   underwrites both distributed variants.
//! * [`alg2`] — Algorithm 2: the layered distributed implementation with a
//!   pluggable MIS black box (`O(MIS(G) · log W)` rounds, CONGEST).
//! * [`alg3`] — Algorithm 3: the deterministic coloring-based variant
//!   (`O(Δ + log* n)` rounds given a `(Δ+1)`-coloring; our coloring
//!   substitute runs in `O(Δ log Δ + log* n)`, see DESIGN.md).
//! * `naive_parallel` (via [`naive_parallel_lr`]) — the *broken* all-nodes-reduce-at-once variant
//!   from the paper's introduction (star-graph failure), kept as an
//!   ablation.

mod alg2;
mod alg3;
mod naive_parallel;
mod seq_lr;
mod verify;

pub use alg2::{alg2, alg2_with, alg2_with_parallel, Alg2Config, Alg2Msg, MisBox};
pub use alg3::{alg3, Alg3Msg, Alg3Run};
pub use naive_parallel::naive_parallel_lr;
pub use seq_lr::{sequential_local_ratio, SelectionRule};
pub use verify::{approx_ratio, check_independent, delta_bound_satisfied};

use congest_graph::IndependentSet;
use congest_sim::RunStats;

/// Result of a distributed MaxIS run.
#[derive(Clone, Debug)]
pub struct MaxIsRun {
    /// The computed independent set.
    pub independent_set: IndependentSet,
    /// Total communication rounds.
    pub rounds: usize,
    /// Engine statistics (messages, bits, budget violations).
    pub stats: RunStats,
}
