//! Pins the engine's per-node memory: besides the message planes, a run
//! keeps per node only a state row (protocol, RNG, halt latch, two flags),
//! a send-occupancy offset, an active-list entry, and its liveness and
//! output slots — no copied `NodeInfo`, no CSR slices. A counting
//! allocator tallies the bytes `Engine::build` plus a run capped at round 0
//! allocate for a zero-sized, allocation-free protocol, so every counted
//! byte is the engine's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::generators;
use congest_sim::{plane_bytes_for, Context, Engine, Inbox, Protocol, SimConfig, Status};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// System allocator wrapper that tallies allocated bytes (a realloc counts
/// its whole new size; deallocations are free).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus an atomic counter; layout
// handling is exactly the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Zero-sized and silent: its state costs nothing, so the engine's rows
/// are all that is left to measure.
struct Idle;

impl Protocol for Idle {
    type Msg = ();
    type Output = ();

    fn init(&mut self, _ctx: &mut Context<'_, ()>) {}

    fn round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: Inbox<'_, ()>) -> Status<()> {
        Status::Active
    }
}

/// Per node, at most this many bytes beyond the planes.
const MAX_BYTES_PER_NODE: u64 = 96;

// One #[test] only: the counter is process-wide, and a second test on a
// concurrent harness thread could allocate inside the measurement window.
#[test]
fn engine_bytes_per_node_beyond_the_planes_are_bounded() {
    let n = 100_000;
    let mut rng = SmallRng::seed_from_u64(5);
    let g = generators::gnp_skip(n, 8.0 / n as f64, &mut rng);
    // The minimum over a few attempts filters out allocations of unrelated
    // runtime threads, which can only inflate a sample.
    let bytes = (0..3)
        .map(|_| {
            let before = BYTES.load(Ordering::SeqCst);
            let engine = Engine::build(&g, SimConfig::local().with_max_rounds(0), |_| Idle);
            let outcome = engine.run(1);
            assert_eq!(outcome.stats.rounds, 0);
            BYTES.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three attempts");
    let planes = plane_bytes_for(&g, 1) as u64;
    let per_node = bytes.saturating_sub(planes) as f64 / n as f64;
    assert!(
        bytes <= planes + MAX_BYTES_PER_NODE * n as u64,
        "engine allocated {bytes} B: planes {planes} B plus {per_node:.1} B per node \
         (allowed {MAX_BYTES_PER_NODE})"
    );
}
