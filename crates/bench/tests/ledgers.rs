//! The checked-in ledgers against the one schema table in
//! `congest_bench::ledger`: every record and every ledger's coverage
//! pass, and a mutated copy of a real record fails for each class of
//! rule the table enforces.

use congest_bench::ledger::{append_to_file, check_ledger, check_record, records};
use std::path::Path;

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} must be checked in: {e}"))
}

#[test]
fn checked_in_ledgers_hold_the_schema() {
    for ledger in ["BENCH", "QUALITY", "DEGRADATION", "CHURN", "SERVICE"] {
        let name = format!("{ledger}_engine.json");
        check_ledger(&name, &read(&name)).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// One mutation per line: the ledger; text that picks its first record
/// holding it; `from => to` edits, `;`-separated, each replacing the
/// first `from`; and what the error must say.
const MUTATIONS: &str = r#"
QUALITY | "conformance" | "within_bound": true => "within_bound": false | within_bound
CHURN | "acceptance" | "repair_cheaper": true => "repair_cheaper": false | repair_cheaper
CHURN | "grid" | "fingerprint_ok": true => "fingerprint_ok": false | fingerprint_ok
CHURN | "acceptance" | "repair_rounds": 0, => "repair_rounds": 10, | repair_rounds < recompute
DEGRADATION | "drop" | "rounds": => "rounds_run": | lacks key rounds
DEGRADATION | "drop" | "delayed": => "note": 0, "delayed": | unlisted key counters.note
DEGRADATION | "drop" | "degradation" => "degradations" | matches no shape
SERVICE | "load_gen" | "p50": 8589 => "p50": 99999 | p50 ≤ p95
BENCH | "host_threads": 1, | "run_parallel": 665189 => "run_parallel": 999999 | 1.25 × run
BENCH | "n": 1000000, | "threads": 1 => "threads": 2; "host_threads": 1 => "host_threads": 2; 2799317787 => 2999317787 | n ≥ 1M on 1 < threads ≤ host_threads
"#;

#[test]
fn every_mutation_of_a_real_record_is_rejected() {
    for line in MUTATIONS.trim().lines() {
        let [ledger, marker, edits, why] = line.split(" | ").collect::<Vec<_>>()[..] else {
            panic!("malformed mutation {line}");
        };
        let name = format!("{ledger}_engine.json");
        let contents = read(&name);
        let all = records(&contents, &name);
        let mut record = all.iter().find(|r| r.contains(marker)).unwrap().to_string();
        assert!(check_record(&record).is_ok(), "{line}");
        for (from, to) in edits.split("; ").filter_map(|edit| edit.split_once(" => ")) {
            assert!(record.contains(from), "{line}");
            record = record.replacen(from, to, 1);
        }
        let err = check_record(&record).expect_err(line);
        assert!(err.contains(why), "{line}: got {err}");
    }
}

#[test]
fn a_ledger_that_lost_its_star_family_is_rejected() {
    let contents = read("QUALITY_engine.json");
    let mut kept = records(&contents, "QUALITY_engine.json");
    kept.retain(|r| !r.contains("\"family\": \"star\""));
    let ledger = format!("[\n{}\n]\n", kept.join(",\n"));
    let err = check_ledger("QUALITY_engine.json", &ledger).unwrap_err();
    assert!(err.contains("never have graph.family = star"), "{err}");
}

#[test]
fn producers_cannot_append_a_rejected_record() {
    let path = &format!("{}/refused_ledger.json", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(path);
    let bad = read("SERVICE_engine.json").replace("\"error\": 0", "\"error\": 1");
    let bad = records(&bad, "SERVICE_engine.json")[0].to_string();
    assert!(std::panic::catch_unwind(|| append_to_file(path, &[bad])).is_err());
    assert!(!Path::new(path).exists(), "written before the check");
}
