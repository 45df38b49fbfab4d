//! Verifies the tentpole memory discipline: the steady-state round loop
//! performs **zero engine-side heap allocations**. The message planes,
//! node-state rows, active-id list, outputs, and liveness buffers are all
//! allocated in `Engine::build` / the `run` prologue, so the total
//! allocation count of a run must not depend on how many rounds it
//! executes.
//!
//! The test protocol is itself allocation-free (plain `u64` broadcasts,
//! no per-round state growth), so every counted allocation is the
//! engine's. Only the sequential executor is pinned here: on multi-core
//! hosts the parallel executors spawn scoped worker threads per phase and
//! allocate O(threads) per round for their handles and pieces (a
//! persistent pool would not).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::generators;
use congest_sim::{Context, Engine, Inbox, Protocol, SimConfig, Status};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// System allocator wrapper that counts every allocation (alloc and
/// realloc; deallocations are free).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed-enough atomic
// counter; layout handling is exactly the system allocator's.
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

/// Broadcasts a constant every round and never halts (the run ends at the
/// round cap), keeping every edge of the graph busy without allocating.
struct Chatter;

impl Protocol for Chatter {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0xDEAD);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: Inbox<'_, u64>) -> Status<()> {
        let mut acc = 0u64;
        for (port, msg) in inbox {
            acc = acc.wrapping_add(msg ^ port as u64);
        }
        ctx.broadcast(acc);
        Status::Active
    }
}

/// Allocation count of one full build + run at the given round cap.
fn allocations_once(g: &congest_graph::Graph, rounds: usize) -> u64 {
    let config = SimConfig::local().with_max_rounds(rounds);
    let engine = Engine::build(g, config, |_| Chatter);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = engine.run(42);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(outcome.stats.rounds, rounds);
    assert!(!outcome.completed);
    after - before
}

/// Minimum allocation count over a few identical runs. The counter is
/// process-wide, so an unrelated runtime thread (signal handling, stdio,
/// the test harness's own bookkeeping) occasionally allocates *inside* a
/// measurement window; that noise can only inflate a sample, never
/// deflate it, so the minimum over independent attempts converges to the
/// engine's true count.
fn allocations_for(g: &congest_graph::Graph, rounds: usize) -> u64 {
    (0..5).map(|_| allocations_once(g, rounds)).min().unwrap()
}

// Both checks live in ONE #[test]: the counter is process-wide, and a
// second test running on a concurrent harness thread (or its output
// capture) could allocate inside a measurement window and flake the
// delta comparison. A single test means a single thread touching the
// counter.
#[test]
fn steady_state_rounds_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(99);
    let g = generators::gnp(300, 0.03, &mut rng);
    assert!(g.num_edges() > 500, "graph must be message-heavy");
    let short = allocations_for(&g, 8);
    let long = allocations_for(&g, 64);
    // The prologue (slots, planes, outputs, liveness) allocates; the 56
    // extra rounds must not add a single allocation.
    assert!(short > 0, "prologue allocations should be visible");
    assert_eq!(
        short, long,
        "round loop allocated: {short} allocations over 8 rounds vs {long} over 64"
    );

    // On a single-threaded host `run_parallel` takes the inline fallback
    // and must share the zero-allocation property; on multi-core hosts
    // the scoped worker threads allocate per round for their handles, so
    // the check only applies where the fallback is active.
    if rayon::current_num_threads() == 1 {
        let run_par_once = |rounds: usize| {
            let config = SimConfig::local().with_max_rounds(rounds);
            let engine = Engine::build(&g, config, |_| Chatter);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let _ = engine.run_parallel(42);
            ALLOCATIONS.load(Ordering::SeqCst) - before
        };
        // Minimum over attempts, for the same ambient-noise reason as
        // `allocations_for`.
        let run_par = |rounds: usize| (0..5).map(|_| run_par_once(rounds)).min().unwrap();
        assert_eq!(
            run_par(8),
            run_par(64),
            "run_parallel's single-thread fallback allocated per round"
        );
    }
}
