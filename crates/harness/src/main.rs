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
use congest_harness::{
    churn_acceptance, churn_suite, conformance_suite, degradation_suite, fault_suite,
    service_suite, SEEDS,
};

fn main() {
    let mut out_path = "QUALITY_engine.json".to_string();
    let mut degradation_path = "DEGRADATION_engine.json".to_string();
    let mut churn_path = "CHURN_engine.json".to_string();
    let mut service_path = "SERVICE_engine.json".to_string();
    let mut check = false;
    // CLI flag parsing is this binary's job; the workspace-wide ban
    // (clippy.toml) targets protocol code, not the harness entry point.
    #[allow(clippy::disallowed_methods)]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--degradation" {
            degradation_path = args.next().expect("--degradation needs a path");
        } else if let Some(v) = arg.strip_prefix("--degradation=") {
            degradation_path = v.to_string();
        } else if arg == "--churn" {
            churn_path = args.next().expect("--churn needs a path");
        } else if let Some(v) = arg.strip_prefix("--churn=") {
            churn_path = v.to_string();
        } else if arg == "--service" {
            service_path = args.next().expect("--service needs a path");
        } else if let Some(v) = arg.strip_prefix("--service=") {
            service_path = v.to_string();
        } else if arg == "--check" {
            check = true;
        } else if arg.starts_with('-') {
            // Don't let a flag typo silently become the output path.
            panic!(
                "unknown flag {arg}; usage: harness [PATH] [--degradation PATH] [--churn PATH] [--service PATH] [--check]"
            );
        } else {
            out_path = arg;
        }
    }

    eprintln!(
        "running conformance matrix ({} engine seed(s) per cell)...",
        SEEDS.len()
    );
    let conformance = conformance_suite();
    eprintln!("running fault-injection suite...");
    let faults = fault_suite();
    eprintln!("running degradation grid...");
    let degradation = degradation_suite();
    eprintln!("running churn grid...");
    let mut churn = churn_suite();
    eprintln!("running churn repair acceptance rows (gnp-10k)...");
    churn.extend(churn_acceptance());
    eprintln!("running service oracle grid...");
    let service = service_suite();

    let mut table = Table::new(&[
        "protocol", "graph", "weights", "valid", "rounds", "budget", "ratio", "bound", "oracle",
    ]);
    for r in &conformance {
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
    for r in &faults {
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
    for r in &degradation {
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
    for r in &churn {
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
    for r in &service {
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

    let quality: Vec<String> = conformance
        .iter()
        .map(|r| r.to_json())
        .chain(faults.iter().map(|r| r.to_json()))
        .collect();
    let ledgers = [
        (out_path, quality, "conformance + fault"),
        (
            degradation_path,
            degradation.iter().map(|r| r.to_json()).collect(),
            "degradation",
        ),
        (
            churn_path,
            churn.iter().map(|r| r.to_json()).collect(),
            "churn",
        ),
        (
            service_path,
            service.iter().map(|r| r.to_json()).collect(),
            "service oracle",
        ),
    ];
    if check {
        let stale = ledgers
            .iter()
            .filter(|(path, fresh, _)| !newest_grid_matches(path, fresh))
            .count();
        if stale > 0 {
            eprintln!("{stale} ledger(s) are stale: re-run the harness and append a fresh grid");
            std::process::exit(1);
        }
        return;
    }
    for (path, records, what) in &ledgers {
        congest_bench::ledger::append_to_file(path, records);
        println!("wrote {path}: {} {what} records", records.len());
    }
}

/// Whether the last `fresh.len()` records of the ledger at `path` equal
/// `fresh`, printing the verdict.
fn newest_grid_matches(path: &str, fresh: &[String]) -> bool {
    let contents = std::fs::read_to_string(path).unwrap_or_default();
    let ledger = congest_bench::ledger::records(&contents, path);
    let newest = &ledger[ledger.len().saturating_sub(fresh.len())..];
    let differ = if newest.len() < fresh.len() {
        fresh.len()
    } else {
        fresh
            .iter()
            .zip(newest)
            .filter(|(f, l)| f.trim() != **l)
            .count()
    };
    if differ == 0 {
        println!("{path}: the newest {} records match", fresh.len());
    } else {
        println!(
            "{path}: {differ} of the newest {} records differ from a fresh run",
            fresh.len()
        );
    }
    differ == 0
}
