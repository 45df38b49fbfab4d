//! Luby's MIS allocates nothing per round: its per-node state (the
//! `active` port mask) is set once, in `init`, and every broadcast
//! borrows it. A Luby run therefore makes the same number of heap
//! allocations whether it is capped after one phase or runs on for
//! several — the engine's own round loop is allocation-free (see
//! `crates/sim/tests/alloc_free_rounds.rs`), so any difference is the
//! protocol's. Nor does it allocate per node: below 65 ports the mask is
//! one inline word, so build + run makes as many allocations on a small
//! graph as on a large one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{generators, Graph};
use congest_mis::LubyMis;
use congest_sim::{Engine, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// System allocator wrapper that counts every allocation (alloc and
/// realloc; deallocations are free).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus an atomic counter; layout
// handling is exactly the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one build + sequential run capped at `rounds`, and the
/// rounds it ran. The minimum over a few attempts filters out allocations
/// of unrelated runtime threads, which can only inflate a sample.
fn allocations(g: &Graph, rounds: usize) -> (u64, usize) {
    (0..5)
        .map(|_| {
            let config = SimConfig::congest_for(g).with_max_rounds(rounds);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let outcome = Engine::build(g, config, |_| LubyMis::new()).run(7);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            (after - before, outcome.stats.rounds)
        })
        .min()
        .expect("five attempts")
}

// One #[test] only: the counter is process-wide, and a second test on a
// concurrent harness thread could allocate inside a measurement window.
#[test]
fn luby_rounds_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = generators::gnp(2_000, 0.005, &mut rng);
    let (short, short_rounds) = allocations(&g, 3);
    let (long, long_rounds) = allocations(&g, 12);
    assert_eq!(short_rounds, 3, "one full announce/decide/cover phase");
    assert!(
        long_rounds >= 6,
        "the long run must cover at least one more phase, ran {long_rounds} rounds"
    );
    assert_eq!(
        short, long,
        "Luby allocated per round: {short} allocations in {short_rounds} rounds, \
         {long} in {long_rounds}"
    );
    let small = generators::gnp(500, 0.01, &mut rng);
    assert!(g.max_degree() <= 64 && small.max_degree() <= 64);
    let (few, _) = allocations(&small, 12);
    assert_eq!(
        few, long,
        "Luby allocated per node: {few} allocations at n = 500, {long} at n = 2000"
    );
}
