//! An `ApplyDeltas` batch costs allocations in proportion to the batch,
//! not to the graph: the overlay clone that validates it copies no
//! per-node state, the fold splices the overlay into the CSR graph in
//! place, and the fingerprint is kept in `O(1)`. So the same batch
//! allocates as often on a 20k-node service as on a 2k-node one, both
//! when it only appends slots and when it edits rows inside the CSR
//! arrays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{generators, EdgeId, NodeId};
use congest_service::{DeltaOp, MatchingService, Request, Response, ServiceConfig};
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

/// `AddNode`, `AddNode`, then an edge between the two new slots.
fn local_batch(svc: &MatchingService) -> Request {
    let a = svc.graph().num_nodes() as u32;
    Request::ApplyDeltas {
        ops: vec![
            DeltaOp::AddNode(3),
            DeltaOp::AddNode(4),
            DeltaOp::InsertEdge(a, a + 1, 9),
        ],
    }
}

/// `RemoveEdge` of the lexicographically first edge, whose rows lead
/// the CSR arrays, and `InsertEdge` between a node in the middle and the
/// next node above it that is not yet a neighbor. The fold moves nearly
/// every run, remaps mirror slots and edge ids, and shifts row offsets.
fn interior_batch(svc: &MatchingService) -> Request {
    let g = svc.graph();
    let (u, v) = g.endpoints(EdgeId(0));
    let a = NodeId(g.num_nodes() as u32 / 2);
    let b = (a.0 + 1..)
        .map(NodeId)
        .find(|&b| g.find_edge(a, b).is_none())
        .expect("a node in the middle has a non-neighbor above it");
    Request::ApplyDeltas {
        ops: vec![
            DeltaOp::RemoveEdge(u.0, v.0),
            DeltaOp::InsertEdge(a.0, b.0, 9),
        ],
    }
}

/// Allocations of `batch` on a weighted gnp service of `n` nodes, after
/// one warm-up batch. The minimum over a few batches filters out
/// allocations of unrelated runtime threads, which can only inflate a
/// sample.
fn batch_allocations(n: usize, batch: fn(&MatchingService) -> Request) -> u64 {
    let mut rng = SmallRng::seed_from_u64(17);
    let mut g = generators::gnp_skip(n, 8.0 / (n - 1) as f64, &mut rng);
    generators::randomize_edge_weights(&mut g, 64, &mut rng);
    let mut svc = MatchingService::new(g, ServiceConfig::default());
    let warm_up = batch(&svc);
    assert!(matches!(svc.handle(&warm_up), Response::Applied { .. }));
    (0..3)
        .map(|_| {
            let req = batch(&svc);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let resp = svc.handle(&req);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(matches!(resp, Response::Applied { .. }), "got {resp:?}");
            after - before
        })
        .min()
        .expect("three batches")
}

// One #[test] only: the counter is process-wide, and a second test on a
// concurrent harness thread could allocate inside a measurement window.
#[test]
fn a_batch_allocates_the_same_at_2k_and_20k_nodes() {
    for (name, batch) in [
        ("local", local_batch as fn(&MatchingService) -> Request),
        ("interior", interior_batch),
    ] {
        let small = batch_allocations(2_000, batch);
        let large = batch_allocations(20_000, batch);
        assert_eq!(
            small, large,
            "the {name} ApplyDeltas batch allocated per node: \
             {small} allocations at n = 2000, {large} at n = 20000"
        );
    }
}
