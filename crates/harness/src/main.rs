//! Conformance-harness entry point.
//!
//! ```text
//! cargo run --release -p harness [-- PATH] [--degradation PATH]
//!                                [--churn PATH] [--service PATH] [--check]
//! ```
//!
//! Runs the full scenario matrix (see `congest_harness`), panicking on
//! any violated guarantee, then *appends* one record per cell to the
//! JSON-array ledger at `PATH` (default `QUALITY_engine.json`) — the
//! same append-only convention as `BENCH_engine.json`, via the shared
//! [`congest_bench::ledger`] module — and prints a summary table.
//! The degradation grid (protocol × fault axis × intensity; see
//! `congest_harness::degradation`) is appended to its own ledger at
//! the `--degradation` path (default `DEGRADATION_engine.json`), and
//! the churn grid plus its gnp-10k repair acceptance rows (see
//! `congest_harness::churn`) to the `--churn` path (default
//! `CHURN_engine.json`). The service oracle grid (request surface ×
//! topology × weighting × shard count; see `congest_harness::service`)
//! is appended to the `--service` path (default `SERVICE_engine.json`,
//! shared with the `load_gen` throughput records).
//!
//! `--check` appends nothing: it regenerates every suite in memory and
//! exits non-zero unless each ledger's newest grid — its last records,
//! as many as the suite produces — equals the fresh records, so a change
//! that moves any checked-in record without re-running the grid fails.

use congest_bench::Table;
use congest_harness::{newest_grid_matches, Suites, LEDGERS};

fn main() {
    // One path per ledger, in `LEDGERS` order: QUALITY (positional),
    // degradation, churn, service.
    let mut paths = LEDGERS.map(String::from);
    let mut check = false;
    // CLI flag parsing is this binary's job; the workspace-wide ban
    // (clippy.toml) targets protocol code, not the harness entry point.
    #[allow(clippy::disallowed_methods)]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--degradation" {
            paths[1] = args.next().expect("--degradation needs a path");
        } else if let Some(v) = arg.strip_prefix("--degradation=") {
            paths[1] = v.to_string();
        } else if arg == "--churn" {
            paths[2] = args.next().expect("--churn needs a path");
        } else if let Some(v) = arg.strip_prefix("--churn=") {
            paths[2] = v.to_string();
        } else if arg == "--service" {
            paths[3] = args.next().expect("--service needs a path");
        } else if let Some(v) = arg.strip_prefix("--service=") {
            paths[3] = v.to_string();
        } else if arg == "--check" {
            check = true;
        } else if arg.starts_with('-') {
            // Don't let a flag typo silently become the output path.
            panic!(
                "unknown flag {arg}; usage: harness [PATH] [--degradation PATH] [--churn PATH] [--service PATH] [--check]"
            );
        } else {
            paths[0] = arg;
        }
    }

    eprintln!("running the conformance, fault, degradation, churn and service suites...");
    let suites = Suites::run();

    let mut table = Table::new(&[
        "protocol", "graph", "weights", "valid", "rounds", "budget", "ratio", "bound", "oracle",
    ]);
    for r in &suites.conformance {
        table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            r.weighting.to_string(),
            r.all_valid.to_string(),
            r.rounds_max.to_string(),
            r.round_budget.to_string(),
            format!("{:.3}", r.ratio_min),
            format!("{:.3}", r.ratio_bound),
            r.oracle.to_string(),
        ]);
    }
    table.print();

    let mut fault_table = Table::new(&[
        "protocol",
        "graph",
        "drop",
        "crash",
        "completed",
        "decided",
        "safe",
        "adv_dropped",
        "crashed",
    ]);
    for r in &suites.faults {
        fault_table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            format!("{}", r.adversary.drop_prob),
            format!("{}", r.adversary.crash_prob),
            r.completed.to_string(),
            format!("{:.2}", r.decided_fraction),
            r.safety_ok.to_string(),
            r.adversary_dropped.to_string(),
            r.crashed_nodes.to_string(),
        ]);
    }
    fault_table.print();

    let mut degradation_table = Table::new(&[
        "protocol",
        "graph",
        "axis",
        "dose",
        "completed",
        "decided",
        "safe",
        "ratio",
        "bound_ok",
        "rounds",
    ]);
    for r in &suites.degradation {
        degradation_table.row(vec![
            r.protocol.to_string(),
            r.topology.family.to_string(),
            r.axis.name().to_string(),
            format!("{}", r.dose),
            r.completed.to_string(),
            format!("{:.2}", r.decided_fraction),
            r.safety_ok.to_string(),
            format!("{:.3}", r.ratio),
            r.bound_ok.to_string(),
            r.rounds.to_string(),
        ]);
    }
    degradation_table.print();

    let mut churn_table = Table::new(&[
        "protocol",
        "graph",
        "axis",
        "dose",
        "completed",
        "safe",
        "deltas",
        "repair",
        "recompute",
        "cheaper",
    ]);
    for r in &suites.churn {
        churn_table.row(vec![
            r.protocol.to_string(),
            r.family.clone(),
            r.axis.to_string(),
            format!("{}", r.dose),
            r.completed.to_string(),
            r.safety_ok.to_string(),
            r.deltas.to_string(),
            r.repair_rounds.to_string(),
            r.recompute_rounds.to_string(),
            r.repair_cheaper.to_string(),
        ]);
    }
    churn_table.print();

    let mut service_table = Table::new(&[
        "graph", "weights", "shards", "matching", "ratio", "oracle", "mis", "queries", "repair",
        "cache",
    ]);
    for r in &suites.service {
        service_table.row(vec![
            r.topology.family.to_string(),
            r.weighting.to_string(),
            r.shards.to_string(),
            r.matching_ok.to_string(),
            format!("{:.3}", r.ratio_min),
            r.oracle.to_string(),
            r.mis_ok.to_string(),
            r.queries_consistent.to_string(),
            r.post_repair_ok.to_string(),
            r.cache_roundtrip_ok.to_string(),
        ]);
    }
    service_table.print();

    let grids = suites.grids();
    if check {
        let stale = paths
            .iter()
            .zip(&grids)
            .filter(|(path, fresh)| !newest_grid_matches(path, fresh))
            .count();
        if stale > 0 {
            eprintln!("{stale} ledger(s) are stale: re-run the harness and append a fresh grid");
            std::process::exit(1);
        }
        return;
    }
    for (path, records) in paths.iter().zip(&grids) {
        congest_bench::ledger::append_to_file(path, records);
        println!("wrote {path}: {} records", records.len());
    }
}
