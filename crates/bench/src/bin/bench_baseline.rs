//! Machine-readable engine performance baseline.
//!
//! Times the three phases of the canonical gnp Luby-MIS workload —
//! `Engine::build`, `Engine::run`, and `Engine::run_parallel_with` — over
//! a size × worker-count matrix (average degree 8 throughout) and
//! *appends* one record per cell to `BENCH_engine.json`, a JSON array
//! checked into the repository so successive PRs leave a perf trajectory;
//! a diff of it shows the trend without re-deriving numbers from timing
//! logs. A pre-existing single-object file (the PR 3 schema) is wrapped
//! in place as the array's first entry, so the trajectory keeps its
//! oldest point.
//!
//! ```text
//! cargo run --release -p congest-bench --bin bench_baseline \
//!     [-- PATH] [--samples N] [--sizes a,b,c] [--threads t1,t2] [--churn]
//! ```
//!
//! `--sizes` picks the graph sizes (default 1000,10000,100000); sizes of
//! a million and beyond switch the generator to the `O(n + m)`
//! Batagelj–Brandes `gnp_skip` — the quadratic coin-flip `gnp` cannot
//! produce them in reasonable time. `--threads` picks the worker counts
//! handed to `run_parallel_with` (default: what the host offers). Each
//! record carries both the *requested* `threads` and the `host_threads`
//! actually available, because parallel medians on an oversubscribed
//! host measure context-switching, not the executor: the ledger schema gates
//! speedup assertions on `threads <= host_threads`. Records also carry
//! `plane_bytes`, the exact packed message-plane footprint for the
//! graph, pinning the ≤ 9 bytes/directed-edge/plane memory story.
//!
//! Sizes 10⁴ and 10⁵ additionally
//! record end-to-end medians for three non-Luby protocols — the grouped
//! local-ratio matching, randomized (Δ+1)-coloring, and the Algorithm 2
//! MaxIS — so engine-level wins are visible beyond a single workload.
//!
//! `--samples N` overrides the per-phase sample count (default 21; CI
//! uses a tiny count to keep the job cheap — the medians it records are
//! noisy but the schema is identical).
//!
//! `--churn` switches to the dynamic-graph mode: for n ∈ {10⁴, 10⁵} and
//! k ∈ {16, 256} seeded edge flips it times [`luby_repair`] and
//! [`grouped_mwm_repair`] against full recomputation on the post-flip
//! graph, appending rows whose `median_ns` keys are `repair` and
//! `recompute` (the ledger schema requires strictly fewer repair rounds).

// Wall-clock measurement and CLI parsing are this binary's entire job;
// the workspace-wide ban (clippy.toml / congest-lint
// no-ambient-nondeterminism) targets protocol code, not the bench tier.
#![allow(clippy::disallowed_methods)]

use congest_approx::matching::{grouped_mwm_repair, mwm_grouped};
use congest_approx::maxis::{alg2, Alg2Config};
use congest_coloring::RandomizedColoring;
use congest_graph::{generators, DeltaGraph, DeltaSet, Graph, NodeId};
use congest_mis::{luby_repair, LubyMis, MisResult};
use congest_sim::{plane_bytes_for, run_protocol, Engine, SimConfig};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Default timed samples per phase; the median is robust to scheduler
/// noise.
const DEFAULT_SAMPLES: usize = 21;

/// Default graph sizes of the baseline matrix (average degree 8 at every
/// size).
const DEFAULT_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Sizes at which the non-Luby ride-along protocols are also measured.
const RIDE_ALONG_SIZES: [usize; 2] = [10_000, 100_000];

/// Above this size the quadratic `gnp` is replaced by the `O(n + m)`
/// skip-sampling generator.
const GNP_SKIP_THRESHOLD: usize = 1_000_000;

/// Sizes of the `--churn` repair-vs-recompute matrix.
const CHURN_SIZES: [usize; 2] = [10_000, 100_000];

/// Edge-flip batch sizes of the `--churn` matrix.
const CHURN_KS: [usize; 2] = [16, 256];

/// Median of a sample set in nanoseconds.
fn median_ns(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Collects `samples` timings from `f` (which returns the ns of just the
/// phase it measures, so setup like `Engine::build` stays outside the
/// timed window) and returns the median.
fn measure(samples: usize, mut f: impl FnMut() -> u128) -> u128 {
    // One warm-up pass so first-touch page faults don't land in sample 0.
    f();
    let samples = (0..samples).map(|_| f()).collect();
    median_ns(samples)
}

/// Generates the degree-8 gnp instance for size `n`, switching to skip
/// sampling at million-node scale. Returns the graph and the generator's
/// family name for the record.
fn graph_for(n: usize) -> (Graph, &'static str) {
    let p = 8.0 / n as f64;
    let mut rng = SmallRng::seed_from_u64(n as u64);
    if n >= GNP_SKIP_THRESHOLD {
        (generators::gnp_skip(n, p, &mut rng), "gnp_skip")
    } else {
        (generators::gnp(n, p, &mut rng), "gnp")
    }
}

/// One Luby benchmark record for graph `g` at `threads` workers.
fn record_for(g: &Graph, family: &str, n: usize, threads: usize, samples: usize) -> String {
    let p = 8.0 / n as f64;
    let config = SimConfig::congest_for(g);
    // Fault-free runs keep a single receive plane (ring length 1).
    let plane_bytes = plane_bytes_for(g, 1);

    let build_ns = measure(samples, || {
        let start = Instant::now();
        black_box(Engine::build(g, config.clone(), |_| LubyMis::new()));
        start.elapsed().as_nanos()
    });
    // `run` and `run_parallel` samples are interleaved (same seed per
    // pair) so slow drift — thermal state, page cache, a noisy neighbor
    // on shared hardware — biases both executors equally instead of
    // whichever phase happens to be measured second.
    let mut run_samples = Vec::with_capacity(samples);
    let mut run_parallel_samples = Vec::with_capacity(samples);
    for seed in 0..=samples as u64 {
        let engine = Engine::build(g, config.clone(), |_| LubyMis::new());
        let start = Instant::now();
        black_box(engine.run(seed));
        let seq_ns = start.elapsed().as_nanos();
        let engine = Engine::build(g, config.clone(), |_| LubyMis::new());
        let start = Instant::now();
        black_box(engine.run_parallel_with(seed, threads));
        let par_ns = start.elapsed().as_nanos();
        // Seed 0 is the warm-up pair.
        if seed > 0 {
            run_samples.push(seq_ns);
            run_parallel_samples.push(par_ns);
        }
    }
    let run_ns = median_ns(run_samples);
    let run_parallel_ns = median_ns(run_parallel_samples);

    format!(
        "  {{\n    \"bench\": \"engine_gnp_luby\",\n    \"graph\": {{ \"family\": \"{family}\", \"n\": {n}, \"p\": {p}, \"seed\": {n}, \"edges\": {m} }},\n    \"protocol\": \"LubyMis\",\n    \"samples\": {samples},\n    \"threads\": {threads},\n    \"host_threads\": {host},\n    \"plane_bytes\": {plane_bytes},\n    \"median_ns\": {{\n      \"build\": {build_ns},\n      \"run\": {run_ns},\n      \"run_parallel\": {run_parallel_ns}\n    }}\n  }}",
        m = g.num_edges(),
        host = rayon::current_num_threads(),
    )
}

/// One end-to-end ride-along record (driver latency, sequential
/// executor) for a named protocol on `g`.
fn ride_along_record(
    g: &Graph,
    family: &str,
    n: usize,
    samples: usize,
    protocol: &str,
    mut total: impl FnMut(u64),
) -> String {
    let p = 8.0 / n as f64;
    let total_ns = {
        let mut seed = 0u64;
        measure(samples, || {
            seed += 1;
            let start = Instant::now();
            total(seed);
            start.elapsed().as_nanos()
        })
    };
    format!(
        "  {{\n    \"bench\": \"protocol_gnp_{name}\",\n    \"graph\": {{ \"family\": \"{family}\", \"n\": {n}, \"p\": {p}, \"seed\": {n}, \"edges\": {m} }},\n    \"protocol\": \"{protocol}\",\n    \"samples\": {samples},\n    \"threads\": 1,\n    \"host_threads\": {host},\n    \"median_ns\": {{\n      \"total\": {total_ns}\n    }}\n  }}",
        name = protocol.to_lowercase(),
        m = g.num_edges(),
        host = rayon::current_num_threads(),
    )
}

/// Applies `k` seeded edge flips (remove if present, insert otherwise)
/// to a [`DeltaGraph`] over `g` and returns the delta log plus the
/// compacted post-flip graph.
fn flip_edges(g: &Graph, k: usize, seed: u64) -> (DeltaSet, Graph) {
    let n = g.num_nodes() as u32;
    let mut dg = DeltaGraph::new(g.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut applied = 0;
    while applied < k {
        let u = NodeId(rng.random_range(0..n));
        let v = NodeId(rng.random_range(0..n));
        if u == v {
            continue;
        }
        if dg.has_edge(u, v) {
            dg.remove_edge(u, v);
        } else {
            dg.insert_edge(u, v, rng.random_range(1..=8u64));
        }
        applied += 1;
    }
    let deltas = dg.take_log();
    (deltas, dg.compact())
}

/// One `--churn` record: medians of incrementally repairing a prior
/// solution after `k` edge flips vs recomputing it from scratch on the
/// post-flip graph. `repair` and `recompute` take the sample seed so
/// both sides pay their full protocol cost per sample.
fn churn_record(
    g2: &Graph,
    k: usize,
    samples: usize,
    bench: &str,
    protocol: &str,
    mut repair: impl FnMut(u64) -> usize,
    mut recompute: impl FnMut(u64) -> usize,
) -> String {
    let n = g2.num_nodes();
    let p = 8.0 / n as f64;
    let mut repair_rounds = 0;
    let mut recompute_rounds = 0;
    let repair_ns = {
        let mut seed = 0u64;
        measure(samples, || {
            seed += 1;
            let start = Instant::now();
            repair_rounds = black_box(repair(seed));
            start.elapsed().as_nanos()
        })
    };
    let recompute_ns = {
        let mut seed = 0u64;
        measure(samples, || {
            seed += 1;
            let start = Instant::now();
            recompute_rounds = black_box(recompute(seed));
            start.elapsed().as_nanos()
        })
    };
    format!(
        "  {{\n    \"bench\": \"{bench}\",\n    \"graph\": {{ \"family\": \"gnp\", \"n\": {n}, \"p\": {p}, \"seed\": {n}, \"edges\": {m} }},\n    \"protocol\": \"{protocol}\",\n    \"k_flips\": {k},\n    \"samples\": {samples},\n    \"threads\": 1,\n    \"host_threads\": {host},\n    \"rounds\": {{\n      \"repair\": {repair_rounds},\n      \"recompute\": {recompute_rounds}\n    }},\n    \"median_ns\": {{\n      \"repair\": {repair_ns},\n      \"recompute\": {recompute_ns}\n    }}\n  }}",
        m = g2.num_edges(),
        host = rayon::current_num_threads(),
    )
}

/// The `--churn` matrix: for n ∈ {10k, 100k} and k ∈ {16, 256} edge
/// flips, times Luby-MIS and grouped-matching repair against full
/// recomputation on the post-flip graph.
fn churn_records(samples: usize) -> Vec<String> {
    let mut records = Vec::new();
    for &n in &CHURN_SIZES {
        eprintln!("churn: generating n = {n}...");
        let (mut g, _) = graph_for(n);
        let mut rng = SmallRng::seed_from_u64(n as u64 ^ 0xC0FFEE);
        generators::randomize_edge_weights(&mut g, 32, &mut rng);
        let config = SimConfig::congest_for(&g);
        let prior_mis: Vec<MisResult> =
            run_protocol(&g, config.clone(), |_| LubyMis::new(), 7).into_outputs();
        let prior_pairs: Vec<(NodeId, NodeId)> = {
            let run = mwm_grouped(&g, 7);
            run.matching.edges(&g).map(|e| g.endpoints(e)).collect()
        };
        for &k in &CHURN_KS {
            eprintln!("churn: measuring n = {n}, k = {k} ({samples} samples/phase)...");
            let (deltas, g2) = flip_edges(&g, k, 0xD0 + k as u64);
            let config2 = SimConfig::congest_for(&g2);
            records.push(churn_record(
                &g2,
                k,
                samples,
                "churn_repair_luby",
                "LubyMis",
                |seed| luby_repair(&g2, &prior_mis, &deltas, seed, false).rounds,
                |seed| {
                    let outcome = run_protocol(&g2, config2.clone(), |_| LubyMis::new(), seed);
                    black_box(outcome.stats.rounds)
                },
            ));
            records.push(churn_record(
                &g2,
                k,
                samples,
                "churn_repair_grouped",
                "GroupedLrMatching",
                |seed| grouped_mwm_repair(&g2, &prior_pairs, &deltas, seed, false).rounds,
                |seed| black_box(mwm_grouped(&g2, seed)).stats.rounds,
            ));
        }
    }
    records
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
    let mut out_path = "BENCH_engine.json".to_string();
    let mut samples = DEFAULT_SAMPLES;
    let mut sizes: Vec<usize> = DEFAULT_SIZES.to_vec();
    let mut threads: Vec<usize> = vec![rayon::current_num_threads()];
    let mut churn = false;
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
        if let Some(v) = take("--samples") {
            samples = v.parse().expect("--samples value must be an integer");
            assert!(samples > 0, "--samples must be positive");
        } else if let Some(v) = take("--sizes") {
            sizes = parse_list("--sizes", &v);
        } else if let Some(v) = take("--threads") {
            threads = parse_list("--threads", &v);
        } else if arg == "--churn" {
            churn = true;
        } else if arg.starts_with('-') {
            // Don't let a flag typo silently become the output path.
            panic!(
                "unknown flag {arg}; usage: bench_baseline [PATH] [--samples N] \
                 [--sizes a,b,c] [--threads t1,t2] [--churn]"
            );
        } else {
            out_path = arg;
        }
    }

    // `--churn` is its own mode: it times incremental repair against
    // recomputation on post-flip graphs and appends those rows only.
    if churn {
        let records = churn_records(samples);
        let json = congest_bench::ledger::append_to_file(&out_path, &records);
        println!("wrote {out_path}:\n{json}");
        return;
    }

    let mut records: Vec<String> = Vec::new();
    for &n in &sizes {
        eprintln!("generating n = {n}...");
        let (g, family) = graph_for(n);
        for &t in &threads {
            eprintln!("measuring n = {n}, threads = {t} ({samples} samples/phase)...");
            records.push(record_for(&g, family, n, t, samples));
        }
        if RIDE_ALONG_SIZES.contains(&n) {
            eprintln!("measuring ride-along protocols at n = {n}...");
            records.push(ride_along_record(
                &g,
                family,
                n,
                samples,
                "GroupedLrMatching",
                |seed| {
                    black_box(mwm_grouped(&g, seed));
                },
            ));
            records.push(ride_along_record(
                &g,
                family,
                n,
                samples,
                "RandomizedColoring",
                |seed| {
                    black_box(run_protocol(
                        &g,
                        SimConfig::congest_for(&g),
                        |_| RandomizedColoring::new(),
                        seed,
                    ));
                },
            ));
            records.push(ride_along_record(&g, family, n, samples, "Alg2", |seed| {
                black_box(alg2(&g, &Alg2Config::default(), seed));
            }));
        }
    }
    // The append semantics (array creation, legacy single-object
    // wrapping, corrupt-file refusal) live in the shared ledger module so
    // the perf baseline and the conformance harness cannot drift apart.
    let json = congest_bench::ledger::append_to_file(&out_path, &records);
    println!("wrote {out_path}:\n{json}");
}
