//! Load generator for the matching service (`crates/service`).
//!
//! Drives hundreds of thousands of simulated requests through the
//! in-process queue frontend once per shard count and *appends* one
//! record per run — throughput plus p50/p95/p99 request latency,
//! response-kind counts, and cache behaviour — to
//! `SERVICE_engine.json`, the checked-in JSON-array ledger successive
//! PRs extend (same storage convention as `BENCH_engine.json`; see
//! [`congest_bench::ledger`]).
//!
//! ```text
//! cargo run --release -p congest-bench --bin load_gen \
//!     [-- PATH] [--requests N] [--nodes N] [--clients C] \
//!     [--shards a,b] [--mutate-every K]
//! ```
//!
//! The workload is a read-mostly mix: independence and mate lookups
//! dominate, matching/MIS queries draw from a small seed pool so the
//! service's seed memo carries most of them, and one designated mutator
//! client periodically applies a small delta batch (invalidating the
//! caches and exercising incremental repair). All mutations go through
//! that single client's mirror of the graph, so every submitted op is
//! valid and an `Error` response is a real service bug — the run
//! asserts there are none.
//!
//! `--requests` is the total per run, split across `--clients` client
//! threads (default 4 × 50k = 200k per run, 2 runs — well into the
//! "hundreds of thousands" the service tier is sized for; CI uses a
//! tiny count, same schema).

// Wall-clock measurement and CLI parsing are this binary's entire job;
// the workspace-wide ban (clippy.toml / congest-lint
// no-ambient-nondeterminism) targets protocol code, not the bench tier.
#![allow(clippy::disallowed_methods)]

use congest_graph::{generators, DeltaGraph, Graph, NodeId};
use congest_service::{
    DeltaOp, MatchingService, Request, Response, ServiceClient, ServiceConfig, ServiceServer,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Default total requests per shard count.
const DEFAULT_REQUESTS: usize = 200_000;

/// Default service graph size (average degree 8).
const DEFAULT_NODES: usize = 2_000;

/// Default client threads the per-run request budget is split across.
const DEFAULT_CLIENTS: usize = 4;

/// Default shard counts, one run each.
const DEFAULT_SHARDS: [usize; 2] = [1, 4];

/// The mutator client applies one delta batch every this many of its
/// own requests.
const DEFAULT_MUTATE_EVERY: usize = 2_048;

/// Per-response-kind counters a client accumulates locally.
#[derive(Clone, Copy, Default)]
struct Counts {
    matching: u64,
    mis: u64,
    independent: u64,
    mate: u64,
    applied: u64,
    fingerprint: u64,
    stats: u64,
    overloaded: u64,
    error: u64,
}

impl Counts {
    fn absorb(&mut self, resp: &Response) {
        match resp {
            Response::Matching { .. } => self.matching += 1,
            Response::Mis { .. } => self.mis += 1,
            Response::Independent(_) => self.independent += 1,
            Response::Mate { .. } => self.mate += 1,
            Response::Applied { .. } => self.applied += 1,
            Response::FingerprintIs(_) => self.fingerprint += 1,
            Response::StatsSnapshot { .. } => self.stats += 1,
            Response::Overloaded => self.overloaded += 1,
            Response::Error(_) => self.error += 1,
        }
    }

    fn merge(&mut self, other: &Counts) {
        self.matching += other.matching;
        self.mis += other.mis;
        self.independent += other.independent;
        self.mate += other.mate;
        self.applied += other.applied;
        self.fingerprint += other.fingerprint;
        self.stats += other.stats;
        self.overloaded += other.overloaded;
        self.error += other.error;
    }
}

/// Draws a read-only request against slot space `0..n`. Seeds for the
/// matching/MIS queries come from a pool of 4 so the cache serves the
/// bulk of them between mutations.
fn draw_read(rng: &mut SmallRng, n: u32) -> Request {
    match rng.random_range(0..100u32) {
        0..=39 => {
            let k = rng.random_range(2..=4usize);
            Request::IsIndependent {
                nodes: (0..k).map(|_| rng.random_range(0..n)).collect(),
            }
        }
        40..=69 => Request::IsMatched {
            node: rng.random_range(0..n),
        },
        70..=79 => Request::Fingerprint,
        80..=89 => Request::MatchUsers {
            seed: rng.random_range(0..4u64),
        },
        90..=97 => Request::MisQuery {
            seed: rng.random_range(0..4u64),
        },
        _ => Request::Stats,
    }
}

/// Draws a small, always-valid delta batch against the mutator's
/// mirror, applying it to the mirror as a side effect.
fn draw_mutation(rng: &mut SmallRng, mirror: &mut DeltaGraph) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.random_range(1..=3usize) {
        let alive: Vec<u32> = (0..mirror.num_slots() as u32)
            .filter(|&v| mirror.is_alive(NodeId(v)))
            .collect();
        match rng.random_range(0..4u32) {
            0 if alive.len() >= 2 => {
                let u = alive[rng.random_range(0..alive.len())];
                let v = alive[rng.random_range(0..alive.len())];
                if u != v && !mirror.has_edge(NodeId(u), NodeId(v)) {
                    let w = rng.random_range(1..=32u64);
                    mirror.insert_edge(NodeId(u), NodeId(v), w);
                    ops.push(DeltaOp::InsertEdge(u, v, w));
                }
            }
            1 => {
                // Remove a live edge of a random live node, if any.
                let v = alive[rng.random_range(0..alive.len())];
                if let Some((u, _)) = mirror.neighbors(NodeId(v)).first() {
                    let u = u.0;
                    mirror.remove_edge(NodeId(v), NodeId(u));
                    ops.push(DeltaOp::RemoveEdge(v, u));
                }
            }
            2 => {
                let w = rng.random_range(1..=8u64);
                mirror.add_node(w);
                ops.push(DeltaOp::AddNode(w));
            }
            _ if alive.len() > 2 => {
                let v = alive[rng.random_range(0..alive.len())];
                mirror.remove_node(NodeId(v));
                ops.push(DeltaOp::RemoveNode(v));
            }
            _ => {}
        }
    }
    // The mirror log is not consumed here; drain it so it can't grow
    // without bound across the run.
    let _ = mirror.take_log();
    ops
}

/// Sorted-percentile in nanoseconds (`q` in 0..=100).
fn percentile_ns(sorted: &[u128], q: usize) -> u128 {
    let idx = (sorted.len().saturating_sub(1)) * q / 100;
    sorted[idx]
}

struct CellResult {
    counts: Counts,
    latencies_ns: Vec<u128>,
    wall_ns: u128,
    cache_hits: u64,
    cache_misses: u64,
    fingerprint: u64,
}

/// Runs one shard count: spawns the service and `clients` threads
/// splitting `requests` between them, client 0 doubling as the sole
/// mutator.
fn run_cell(
    g: &Graph,
    shards: usize,
    requests: usize,
    clients: usize,
    mutate_every: usize,
) -> CellResult {
    let service = MatchingService::new(
        g.clone(),
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    );
    let server = ServiceServer::spawn(service);
    let n0 = g.num_nodes() as u32;
    let start = Instant::now();
    let mut worker_results: Vec<(Counts, Vec<u128>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client: ServiceClient = server.client();
                let quota = requests / clients + usize::from(c < requests % clients);
                let mirror = (c == 0).then(|| DeltaGraph::new(g.clone()));
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x10AD + c as u64);
                    let mut mirror = mirror;
                    let mut counts = Counts::default();
                    let mut latencies = Vec::with_capacity(quota);
                    for i in 0..quota {
                        let req = match &mut mirror {
                            Some(m) if i > 0 && i % mutate_every == 0 => {
                                let ops = draw_mutation(&mut rng, m);
                                if ops.is_empty() {
                                    draw_read(&mut rng, n0)
                                } else {
                                    Request::ApplyDeltas { ops }
                                }
                            }
                            _ => draw_read(&mut rng, n0),
                        };
                        let t = Instant::now();
                        let resp = client.request(req);
                        latencies.push(t.elapsed().as_nanos());
                        counts.absorb(&resp);
                        if let Response::Error(msg) = &resp {
                            panic!("client {c} request {i} failed: {msg}");
                        }
                    }
                    (counts, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ns = start.elapsed().as_nanos();
    let service = server.shutdown();

    let mut counts = Counts::default();
    let mut latencies_ns = Vec::with_capacity(requests);
    for (c, lat) in worker_results.drain(..) {
        counts.merge(&c);
        latencies_ns.extend(lat);
    }
    latencies_ns.sort_unstable();
    CellResult {
        counts,
        latencies_ns,
        wall_ns,
        cache_hits: service.stats().cache_hits,
        cache_misses: service.stats().cache_misses,
        fingerprint: service.fingerprint(),
    }
}

fn record_for(g: &Graph, n: usize, shards: usize, r: &CellResult) -> String {
    let p = 8.0 / n as f64;
    let total = r.latencies_ns.len();
    let throughput_rps = total as f64 * 1e9 / r.wall_ns as f64;
    let c = &r.counts;
    format!(
        "  {{\n    \"suite\": \"service\",\n    \"bench\": \"load_gen\",\n    \"graph\": {{ \"family\": \"gnp\", \"n\": {n}, \"p\": {p}, \"seed\": {n}, \"edges\": {m} }},\n    \"shards\": {shards},\n    \"requests\": {total},\n    \"responses\": {{ \"matching\": {matching}, \"mis\": {mis}, \"independent\": {independent}, \"mate\": {mate}, \"applied\": {applied}, \"fingerprint\": {fingerprint}, \"stats\": {stats}, \"overloaded\": {overloaded}, \"error\": {error} }},\n    \"cache\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n    \"final_fingerprint\": {fp},\n    \"throughput_rps\": {throughput_rps:.1},\n    \"latency_ns\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99} }}\n  }}",
        m = g.num_edges(),
        matching = c.matching,
        mis = c.mis,
        independent = c.independent,
        mate = c.mate,
        applied = c.applied,
        fingerprint = c.fingerprint,
        stats = c.stats,
        overloaded = c.overloaded,
        error = c.error,
        hits = r.cache_hits,
        misses = r.cache_misses,
        fp = r.fingerprint,
        p50 = percentile_ns(&r.latencies_ns, 50),
        p95 = percentile_ns(&r.latencies_ns, 95),
        p99 = percentile_ns(&r.latencies_ns, 99),
    )
}

/// Parses a comma-separated list of positive integers.
fn parse_list(flag: &str, v: &str) -> Vec<usize> {
    let xs: Vec<usize> = v
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("{flag} entries must be integers, got {s:?}"))
        })
        .collect();
    assert!(!xs.is_empty(), "{flag} needs at least one value");
    assert!(xs.iter().all(|&x| x > 0), "{flag} entries must be positive");
    xs
}

fn main() {
    let mut out_path = "SERVICE_engine.json".to_string();
    let mut requests = DEFAULT_REQUESTS;
    let mut nodes = DEFAULT_NODES;
    let mut clients = DEFAULT_CLIENTS;
    let mut shards: Vec<usize> = DEFAULT_SHARDS.to_vec();
    let mut mutate_every = DEFAULT_MUTATE_EVERY;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Option<String> {
            if arg == name {
                Some(
                    args.next()
                        .unwrap_or_else(|| panic!("{name} needs a value")),
                )
            } else {
                arg.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = take("--requests") {
            requests = v.parse().expect("--requests value must be an integer");
            assert!(requests > 0, "--requests must be positive");
        } else if let Some(v) = take("--nodes") {
            nodes = v.parse().expect("--nodes value must be an integer");
            assert!(nodes > 0, "--nodes must be positive");
        } else if let Some(v) = take("--clients") {
            clients = v.parse().expect("--clients value must be an integer");
            assert!(clients > 0, "--clients must be positive");
        } else if let Some(v) = take("--shards") {
            shards = parse_list("--shards", &v);
        } else if let Some(v) = take("--mutate-every") {
            mutate_every = v.parse().expect("--mutate-every value must be an integer");
            assert!(mutate_every > 0, "--mutate-every must be positive");
        } else if arg.starts_with('-') {
            // Don't let a flag typo silently become the output path.
            panic!(
                "unknown flag {arg}; usage: load_gen [PATH] [--requests N] [--nodes N] \
                 [--clients C] [--shards a,b] [--mutate-every K]"
            );
        } else {
            out_path = arg;
        }
    }

    let mut rng = SmallRng::seed_from_u64(nodes as u64);
    let mut g = generators::gnp(nodes, 8.0 / nodes as f64, &mut rng);
    generators::randomize_edge_weights(&mut g, 32, &mut rng);

    let mut records = Vec::new();
    for &s in &shards {
        eprintln!(
            "load_gen: n = {nodes}, shards = {s}, {requests} requests over {clients} clients..."
        );
        let cell = run_cell(&g, s, requests, clients, mutate_every);
        eprintln!(
            "load_gen: shards = {s}: {rps:.0} req/s, p50 {p50} ns, \
             {hits} cache hits / {misses} misses",
            rps = cell.latencies_ns.len() as f64 * 1e9 / cell.wall_ns as f64,
            p50 = percentile_ns(&cell.latencies_ns, 50),
            hits = cell.cache_hits,
            misses = cell.cache_misses,
        );
        records.push(record_for(&g, nodes, s, &cell));
    }
    let json = congest_bench::ledger::append_to_file(&out_path, &records);
    println!("wrote {out_path}:\n{json}");
}
