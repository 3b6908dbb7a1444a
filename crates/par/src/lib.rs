//! Data parallelism for the experiment engine.
//!
//! The engine's warm-up (23 independent compile+simulate pipelines and
//! their extra datasets) and the rendering of the 19 experiments are
//! embarrassingly parallel. Both run on one primitive, an **ordered**
//! parallel map ([`par_map_jobs`]). Each call runs on its own
//! [`std::thread::scope`] (the build environment has no crates.io
//! access, so `rayon` is not an option): the calling thread works, a few
//! scoped threads work beside it, and all of them are joined before the
//! call returns. A thread that waits only ever waits for its own
//! scope's threads, never runs someone else's task, so a caller holding
//! a lock cannot be handed work that needs the same lock.
//!
//! # Determinism
//!
//! Results are **identical to the serial loop at any thread count**:
//! [`par_map_jobs`] writes each output into its input's slot, so the
//! output order is the input order whatever the schedule. Each item's
//! own work is serial.
//!
//! # Job-count resolution
//!
//! [`jobs`] is the process-wide count set by [`set_jobs`] (the CLI's
//! `--jobs N` flag), else [`available_parallelism`]. [`clamp_workers`]
//! caps the threads a call starts at what the machine can run, so
//! `--jobs 64` on a 4-core box runs 4 threads.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `0` means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (`0` clears the override).
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The effective worker count: the [`set_jobs`] override, else the
/// machine's available parallelism (at least 1).
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        explicit => explicit,
    }
}

/// [`std::thread::available_parallelism`] with the `Err` case collapsed
/// to 1 — the machine-side bound every thread-count decision shares.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one rule for turning a *requested* job count into a *thread*
/// count: at least one, at most the machine's available parallelism.
/// Anything that occupies an OS thread goes through here.
pub fn clamp_workers(n_jobs: usize) -> usize {
    n_jobs.max(1).min(available_parallelism())
}

/// Maps `f` over `items` on up to `n_jobs` threads, preserving input
/// order in the output; a plain serial map for one thread or one item.
///
/// The calling thread and `clamp_workers(n_jobs) - 1` scoped threads
/// claim indices from a shared atomic cursor, so a slow item never
/// holds up the rest of a fixed share. Outputs land in input order
/// whatever the schedule.
///
/// # Panics
///
/// If `f` panics on an item, the other threads finish every item still
/// unclaimed, and then the first panic's own payload is re-raised on
/// the caller.
pub fn par_map_jobs<T, R, F>(n_jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = clamp_workers(n_jobs).min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, f(&items[i])));
        }
    };
    let parts = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let mut parts = vec![catch_unwind(AssertUnwindSafe(claim))];
        parts.extend(helpers.into_iter().map(|h| h.join()));
        parts
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for part in parts {
        for (i, v) in part.unwrap_or_else(|payload| resume_unwind(payload)) {
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 7, 64] {
            assert_eq!(par_map_jobs(jobs, &items, |x| x * x), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_jobs(8, &[] as &[u64], |x| *x), Vec::<u64>::new());
        assert_eq!(par_map_jobs(8, &[5u64], |x| x + 1), vec![6]);
    }

    #[test]
    fn jobs_respects_override() {
        // The only test mutating the process-wide override (tests run
        // concurrently; others must not touch it).
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn clamp_workers_bounds_both_sides() {
        assert_eq!(clamp_workers(0), 1);
        assert!(clamp_workers(1_000_000) <= available_parallelism());
        assert!(clamp_workers(1) >= 1);
    }
}
