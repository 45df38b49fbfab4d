//! Parallel operations over slices.

/// Mirror of `rayon::slice::ParallelSliceMut` restricted to
/// [`par_chunks_mut`](ParallelSliceMut::par_chunks_mut).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of at most `chunk_size` elements that
    /// parallel operations run over.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks of a slice (see
/// [`ParallelSliceMut::par_chunks_mut`]).
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Runs `f` on every chunk, on at most
    /// [`current_num_threads`](crate::current_num_threads) scoped threads
    /// (each worker processes a contiguous batch of chunks), so
    /// fine-grained splits cannot exhaust OS threads.
    ///
    /// Single-chunk or single-worker splits run inline on the calling
    /// thread, so the sequential case pays no thread-spawn cost. Worker
    /// batches are carved with `split_at_mut` instead of collecting a
    /// chunk list, so the only per-call heap traffic is the scoped
    /// spawns themselves.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.for_each_with_workers(crate::current_num_threads(), f);
    }

    /// [`for_each`](Self::for_each) with an explicit worker-count cap.
    ///
    /// Public so callers can pin a worker count independent of the host,
    /// and tests drive the scoped-thread path on single-core hosts. (The
    /// real rayon expresses
    /// this via a sized `ThreadPool::install`; swapping it in would move
    /// this cap into pool construction.)
    pub fn for_each_with_workers<F>(self, max_workers: usize, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        let n_chunks = self.slice.len().div_ceil(self.chunk_size).max(1);
        let workers = max_workers.clamp(1, n_chunks);
        if workers <= 1 {
            for chunk in self.slice.chunks_mut(self.chunk_size) {
                f(chunk);
            }
            return;
        }
        // Contiguous batch per worker, aligned to chunk boundaries so no
        // chunk straddles two workers.
        let per_worker = n_chunks.div_ceil(workers).saturating_mul(self.chunk_size);
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = self.slice;
            while !rest.is_empty() {
                let take = per_worker.min(rest.len());
                let (batch, tail) = rest.split_at_mut(take);
                rest = tail;
                let chunk_size = self.chunk_size;
                s.spawn(move || {
                    for chunk in batch.chunks_mut(chunk_size) {
                        f(chunk);
                    }
                });
            }
        });
    }
}
