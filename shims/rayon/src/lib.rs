//! Offline stand-in for the subset of the `rayon` API this workspace uses.
//!
//! The build environment has no access to crates.io, so this shim provides
//! a source-compatible replacement for the one function the workspace
//! calls, [`current_num_threads`]. Swapping in the real `rayon` crate
//! requires only a `Cargo.toml` change.

/// Number of threads used for parallel operations (the machine's available
/// parallelism; the real rayon reports its pool size here).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
