//! The grouped matching, Ghaffari's nearly-maximal IS and Algorithm 2
//! allocate nothing per round: each node's state is one block set up in
//! `init`, and the engine's own round loop is allocation-free (see
//! `crates/sim/tests/alloc_free_rounds.rs`). So a run makes as many heap
//! allocations when capped early as when capped later, and the grouped
//! matching's count grows with the graph by exactly one slot block per
//! non-isolated node. Every cap here stops short of completion, so the
//! grouped runs never reach the augmentation pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_approx::matching::mwm_grouped_with;
use congest_approx::maxis::{alg2_with, Alg2Config};
use congest_graph::{generators, Graph};
use congest_mis::{NearlyMaximalIs, NmisParams};
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

/// Allocations of `run`, which returns the rounds it ran and whether it
/// completed. The minimum over a few attempts filters out allocations of
/// unrelated runtime threads, which can only inflate a sample.
fn allocations(run: impl Fn() -> (usize, bool)) -> (u64, usize) {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let (rounds, completed) = run();
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(!completed, "every cap must stop short of completion");
            (after - before, rounds)
        })
        .min()
        .expect("five attempts")
}

fn grouped(g: &Graph, rounds: usize) -> (u64, usize) {
    allocations(|| {
        let config = SimConfig::congest_for(g).with_max_rounds(rounds);
        let (run, completed) = mwm_grouped_with(g, config, 7);
        (run.stats.rounds, completed)
    })
}

fn ghaffari(g: &Graph, rounds: usize) -> (u64, usize) {
    let params = NmisParams {
        k: 2.0,
        iterations: None,
    };
    allocations(|| {
        let config = SimConfig::congest_for(g).with_max_rounds(rounds);
        let outcome = Engine::build(g, config, |_| NearlyMaximalIs::new(params)).run(7);
        (outcome.stats.rounds, outcome.completed)
    })
}

fn alg2(g: &Graph, rounds: usize) -> (u64, usize) {
    allocations(|| {
        let config = SimConfig::congest_for(g).with_max_rounds(rounds);
        let (run, completed) = alg2_with(g, &Alg2Config::default(), config, 7);
        (run.rounds, completed)
    })
}

fn non_isolated(g: &Graph) -> u64 {
    g.nodes().filter(|&v| g.degree(v) > 0).count() as u64
}

// One #[test] only: the counter is process-wide, and a second test on a
// concurrent harness thread could allocate inside a measurement window.
#[test]
fn protocol_rounds_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut g = generators::gnp(2_000, 0.005, &mut rng);
    generators::randomize_edge_weights(&mut g, 64, &mut rng);
    generators::randomize_node_weights(&mut g, 64, &mut rng);
    let mut small = generators::gnp(500, 0.01, &mut rng);
    generators::randomize_edge_weights(&mut small, 64, &mut rng);

    // Grouped matching: two and six 4-round cycles.
    let (short, short_rounds) = grouped(&g, 8);
    let (long, long_rounds) = grouped(&g, 24);
    assert_eq!((short_rounds, long_rounds), (8, 24));
    assert_eq!(
        short, long,
        "the grouped matching allocated per round: {short} allocations in 8 rounds, \
         {long} in 24"
    );
    let (few, _) = grouped(&small, 8);
    assert_eq!(
        short - few,
        non_isolated(&g) - non_isolated(&small),
        "the grouped matching must allocate one slot block per non-isolated node: \
         {few} allocations at n = 500, {short} at n = 2000"
    );

    // Ghaffari's nearly-maximal IS: two and five 4-round iterations.
    let (short, _) = ghaffari(&g, 8);
    let (long, _) = ghaffari(&g, 20);
    assert_eq!(
        short, long,
        "Ghaffari allocated per round: {short} vs {long}"
    );

    // Algorithm 2, which completes in 14 rounds on this graph.
    let (short, short_rounds) = alg2(&g, 4);
    let (long, long_rounds) = alg2(&g, 12);
    assert_eq!((short_rounds, long_rounds), (4, 12));
    assert_eq!(
        short, long,
        "Algorithm 2 allocated per round: {short} vs {long}"
    );
}
