//! Verifies the tentpole memory discipline: the steady-state round loop
//! performs **zero engine-side heap allocations**. The message planes,
//! node-state rows, active-id list, outputs, and liveness buffers are all
//! allocated in `Engine::build` / the `run` prologue, so the total
//! allocation count of a run must not depend on how many rounds it
//! executes.
//!
//! The test protocol is itself allocation-free (plain `u64` broadcasts,
//! no per-round state growth), so every counted allocation is the
//! engine's. Every executor is pinned: all of them are one round loop
//! over a shard partition, and on the test graph every round has fewer
//! active ids per shard than the threading cutoff, so `run_parallel`,
//! `run_parallel_with` and `run_sharded` run each phase on the calling
//! thread on any host. Rounds that do spawn scoped workers allocate
//! O(shards) for their handles (a persistent pool would not).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{generators, ShardPartition};
use congest_sim::{Context, Engine, Inbox, Protocol, RunOutcome, SimConfig, Status};
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

/// An executor under test: runs a built engine to its round cap.
type Executor<'a> = &'a dyn Fn(Engine<'_, Chatter>) -> RunOutcome<()>;

/// Allocation count of one full build + run at the given round cap.
fn allocations_once(g: &congest_graph::Graph, rounds: usize, run: Executor<'_>) -> u64 {
    let config = SimConfig::local().with_max_rounds(rounds);
    let engine = Engine::build(g, config, |_| Chatter);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = run(engine);
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
fn allocations_for(g: &congest_graph::Graph, rounds: usize, run: Executor<'_>) -> u64 {
    (0..5)
        .map(|_| allocations_once(g, rounds, run))
        .min()
        .unwrap()
}

// All checks live in ONE #[test]: the counter is process-wide, and a
// second test running on a concurrent harness thread (or its output
// capture) could allocate inside a measurement window and flake the
// delta comparison. A single test means a single thread touching the
// counter.
#[test]
fn steady_state_rounds_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(99);
    let g = generators::gnp(300, 0.03, &mut rng);
    assert!(g.num_edges() > 500, "graph must be message-heavy");
    let short = allocations_for(&g, 8, &|e| e.run(42));
    let long = allocations_for(&g, 64, &|e| e.run(42));
    // The prologue (slots, planes, outputs, liveness) allocates; the 56
    // extra rounds must not add a single allocation.
    assert!(short > 0, "prologue allocations should be visible");
    assert_eq!(
        short, long,
        "round loop allocated: {short} allocations over 8 rounds vs {long} over 64"
    );

    // 300 active ids are below the cutoff for any shard count, so every
    // other executor runs its rounds inline too, and must share the
    // zero-allocation property on any host. A sharded run's crossings
    // are metered on those inline rounds as well.
    let halves = ShardPartition::contiguous(g.num_nodes(), 2);
    let thirds = ShardPartition::contiguous(g.num_nodes(), 3);
    let executors: [(&str, Executor<'_>); 4] = [
        ("run_parallel", &|e| e.run_parallel(42)),
        ("run_parallel_with(2)", &|e| e.run_parallel_with(42, 2)),
        ("run_sharded on 2 shards", &|e| {
            e.run_sharded(42, &halves).outcome
        }),
        ("run_sharded on 3 shards", &|e| {
            e.run_sharded(42, &thirds).outcome
        }),
    ];
    for (name, run) in executors {
        let (short, long) = (allocations_for(&g, 8, run), allocations_for(&g, 64, run));
        assert_eq!(
            short, long,
            "{name} allocated per round: {short} allocations over 8 rounds vs {long} over 64"
        );
    }
}
