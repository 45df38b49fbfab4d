//! Graph substrate for the `congest-approx` workspace.
//!
//! This crate provides the weighted-graph representation shared by every
//! other crate in the workspace:
//!
//! * [`Graph`] — an immutable simple undirected graph with `u64` node and
//!   edge weights, built through [`GraphBuilder`].
//! * [`DeltaGraph`] — a mutable delta overlay over a canonical [`Graph`]
//!   (insert/remove edges and nodes with slot reuse, an in-place
//!   [`fold`](DeltaGraph::fold) back into the CSR tables, an `O(1)`
//!   fingerprint under the contract that overlay reads ≡ compacted
//!   reads), the substrate for dynamic-graph churn and incremental
//!   repair.
//! * [`generators`] — deterministic and seeded random graph families used by
//!   the test suite and the benchmark harness (G(n,p), random regular,
//!   stars, grids, bipartite graphs, preferential attachment, trees, …).
//! * [`line_graph`](Graph::line_graph) — the line-graph construction `L(G)`
//!   central to the paper's matching-via-independent-set reductions.
//! * [`Matching`] and [`IndependentSet`] — solution containers with
//!   validity checking, used as the common output currency of the
//!   distributed algorithms and the exact baselines.
//!
//! # Example
//!
//! ```
//! use congest_graph::{generators, Matching};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = generators::gnp(64, 0.1, &mut rng);
//! let (lg, edge_of_lnode) = g.line_graph();
//! assert_eq!(lg.num_nodes(), g.num_edges());
//! assert_eq!(edge_of_lnode.len(), g.num_edges());
//! let m = Matching::new(&g);
//! assert!(m.is_empty());
//! ```

mod builder;
mod delta;
mod graph;
mod independent_set;
mod matching;
mod props;
mod shard;

pub mod generators;

pub use builder::GraphBuilder;
pub use delta::{DeltaGraph, DeltaSet};
pub use graph::{EdgeId, Graph, NodeId};
pub use independent_set::IndependentSet;
pub use matching::Matching;
pub use props::Bipartition;
pub use shard::ShardPartition;
