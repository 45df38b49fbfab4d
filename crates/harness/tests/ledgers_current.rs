//! Tier-1 twin of the CI `harness --check` step: `cargo test -q` fails
//! when the newest grid of a checked-in ledger differs from a fresh run
//! of its suites, so a change that moves a record must append a fresh
//! grid (`cargo run --release -p harness`).

use congest_harness::{newest_grid_matches, Suites, LEDGERS};
use std::path::Path;

#[test]
fn every_ledgers_newest_grid_equals_a_fresh_run() {
    // crates/harness -> workspace root, where the ledgers live.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let grids = Suites::run().grids();
    let stale: Vec<&str> = LEDGERS
        .iter()
        .zip(&grids)
        .filter(|(file, fresh)| !newest_grid_matches(&root.join(file).to_string_lossy(), fresh))
        .map(|(file, _)| *file)
        .collect();
    assert!(
        stale.is_empty(),
        "stale ledgers {stale:?}: run `cargo run --release -p harness` to append a fresh grid"
    );
}
