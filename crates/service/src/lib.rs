//! Matching-as-a-service: a long-running façade over the workspace's
//! CONGEST matching and MIS machinery.
//!
//! The algorithm crates answer one-shot questions — run Algorithm 2 on
//! this graph, repair that matching after these deltas. This crate
//! turns them into a *service*: a process that owns a graph for hours,
//! absorbs mutations, and answers a stream of requests like *match
//! these users*, *is this set independent*, and *apply these deltas
//! and repair*, with a bounded queue, admission control, and result
//! caching in front.
//!
//! The pieces:
//!
//! * [`wire`] — a tiny length-prefixed binary protocol (`std` only, no
//!   serde): [`Request`], [`Response`], and frame I/O helpers. Decoding
//!   is panic-free and strict.
//! * [`MatchingService`] — the core: graph state as one
//!   [`DeltaGraph`](congest_graph::DeltaGraph) overlay, folded into its
//!   CSR base after every batch, canonical answers via the engine's
//!   sharded executor (bit-identical for every shard count), incremental
//!   repair of the live matching/MIS on every mutation, and a bounded
//!   per-seed memo of answers for the current graph, emptied when a
//!   batch changes the one-`u64` graph fingerprint.
//! * [`ServiceServer`]/[`ServiceClient`] — the in-process frontend: one
//!   worker serving a bounded `std::sync::mpsc` queue, with admission
//!   control.
//! * [`TcpFacade`]/[`TcpClient`] — the `std::net` TCP adapter speaking
//!   the wire frames.
//!
//! Everything here follows the workspace determinism discipline: no
//! wall clocks, no ambient RNG, `BTreeMap` instead of hashed maps, and
//! every wire response a pure function of the admitted request trace
//! (shard counts and connection multiplexing can change timing and the
//! cross-shard traffic meter, never a response).

mod server;
mod service;
pub mod wire;

pub use server::{ServiceClient, ServiceServer, TcpClient, TcpFacade};
pub use service::{MatchingService, ServiceConfig, ServiceStats};
pub use wire::{DeltaOp, Request, Response, WireError};
