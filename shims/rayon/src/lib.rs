//! Offline stand-in for the subset of the `rayon` API this workspace uses.
//!
//! The build environment has no access to crates.io, so this shim provides
//! source-compatible replacements for the data-parallel primitives the
//! simulation engine needs: [`join`], [`current_num_threads`], and
//! [`slice::ParallelSliceMut::par_chunks_mut`] + `for_each`. Parallelism
//! is real — chunks run on `std::thread::scope` threads — but there is no
//! persistent work-stealing pool, so callers should hand over
//! coarse-grained chunks (one per hardware thread). Swapping in the real
//! `rayon` crate requires only a `Cargo.toml` change.

pub mod prelude {
    //! One-stop import mirroring `rayon::prelude::*`.
    pub use crate::slice::ParallelSliceMut;
}

pub mod slice;

/// Number of threads used for parallel operations (the machine's available
/// parallelism; the real rayon reports its pool size here).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon::join closure panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn par_chunks_mut_visits_every_element_once() {
        let mut v = vec![0u64; 1000];
        v.par_chunks_mut(64).for_each(|chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn fine_grained_chunks_do_not_exhaust_threads() {
        // 100k single-element chunks must be batched onto a bounded
        // number of workers, not one thread per chunk.
        let mut v = vec![0u32; 100_000];
        v.par_chunks_mut(1).for_each(|chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn scoped_worker_batches_cover_every_chunk_exactly_once() {
        // Force the multi-worker scoped path regardless of the host's
        // core count, across batch/chunk shapes that don't divide evenly.
        for (len, chunk, workers) in [(1000, 64, 4), (1000, 7, 3), (10, 1, 8), (5, 5, 2)] {
            let mut v = vec![0u64; len];
            v.par_chunks_mut(chunk).for_each_with_workers(workers, |c| {
                assert!(c.len() <= chunk, "chunk straddled a worker batch");
                for x in c {
                    *x += 1;
                }
            });
            assert!(v.iter().all(|&x| x == 1), "shape ({len},{chunk},{workers})");
        }
    }
}
