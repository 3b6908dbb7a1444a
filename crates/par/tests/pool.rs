//! Guarantees of the two parallel primitives: a panicking task
//! re-raises its own payload on the caller once its siblings finish,
//! through nested calls too; `par_map_jobs`/`par_fold_chunks` are
//! element-identical to the serial loop at random job counts and
//! nesting depths; and a nesting stress test shaped like the real
//! workload (a segmented replay inside a range fold inside an
//! experiment map) keeps only a few threads alive at once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use bpfree_par::{
    available_parallelism, clamp_workers, par_fold_chunks, par_map_jobs, split_ranges,
};
use proptest::prelude::*;

/// The message a caught panic carried.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn panic_in_task_propagates_without_deadlocking_scope() {
    let items: Vec<usize> = (0..8).collect();
    for jobs in [2, 8] {
        for round in 0..16 {
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_jobs(jobs, &items, |&i| {
                    if i == round % 8 {
                        panic!("boom {i}");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let payload = result.expect_err("the panic reaches the caller");
            assert_eq!(
                message(payload),
                format!("boom {}", round % 8),
                "jobs {jobs}"
            );
            // The siblings finished before the panic resumed: all seven
            // non-panicking items ran.
            assert_eq!(ran.load(Ordering::Relaxed), 7, "jobs {jobs} round {round}");
        }
    }
    // Nothing is left behind: the next call runs normally.
    assert_eq!(
        par_map_jobs(2, &items, |&i| i + 1),
        (1..9).collect::<Vec<_>>()
    );
}

#[test]
fn panic_inside_nested_scope_unwinds_through_both_scopes() {
    let outer: Vec<u32> = (0..4).collect();
    let inner: Vec<u32> = (0..4).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map_jobs(2, &outer, |&o| {
            par_map_jobs(2, &inner, |&i| {
                if o == 2 && i == 3 {
                    panic!("inner boom");
                }
                o * 10 + i
            })
        })
    }));
    let payload = result.expect_err("inner panic re-raised through the outer map");
    assert_eq!(message(payload), "inner boom");
}

/// The serial reference for the fold in the proptest below.
fn serial_weighted_sum(total: u64, chunk_jobs: usize) -> u128 {
    split_ranges(total, chunk_jobs)
        .into_iter()
        .map(|r| r.map(|i| u128::from(i) * 3 + 1).sum::<u128>())
        .reduce(|a, b| a ^ b.rotate_left(7))
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `par_map_jobs` is element-identical to the serial map at any
    /// requested job count, including counts far beyond the machine.
    #[test]
    fn par_map_equals_serial(len in 0usize..200, jobs in 1usize..40) {
        let items: Vec<u64> = (0..len as u64).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 17 + 3).collect();
        let got = par_map_jobs(jobs, &items, |x| x * 17 + 3);
        prop_assert_eq!(got, expect);
    }

    /// `par_fold_chunks` arithmetic is a pure function of the
    /// requested split: a non-commutative merge (XOR of rotated chunk
    /// sums) still matches the serial in-order reduction.
    #[test]
    fn par_fold_equals_serial_in_order_reduction(total in 1u64..5_000, jobs in 1usize..24) {
        bpfree_par::set_jobs(jobs);
        let got = par_fold_chunks(
            total,
            || 0u128,
            |range, acc| acc + range.map(|i| u128::from(i) * 3 + 1).sum::<u128>(),
            |a, b| a ^ b.rotate_left(7),
        );
        bpfree_par::set_jobs(0);
        prop_assert_eq!(got, Some(serial_weighted_sum(total, jobs)));
    }

    /// Nested maps (a map inside every element of a map) stay
    /// element-identical to the doubly-serial loop at random widths and
    /// job counts.
    #[test]
    fn nested_par_map_equals_serial(
        outer in 1usize..12,
        inner in 1usize..12,
        outer_jobs in 1usize..9,
        inner_jobs in 1usize..9,
    ) {
        let rows: Vec<u64> = (0..outer as u64).collect();
        let expect: Vec<Vec<u64>> = rows
            .iter()
            .map(|r| (0..inner as u64).map(|c| r * 1000 + c * c).collect())
            .collect();
        let got = par_map_jobs(outer_jobs, &rows, |r| {
            let cols: Vec<u64> = (0..inner as u64).collect();
            par_map_jobs(inner_jobs, &cols, |c| r * 1000 + c * c)
        });
        prop_assert_eq!(got, expect);
    }
}

/// Three layers of nesting shaped like the real batch: an
/// experiment-style `par_map_jobs` whose elements run a replay-style
/// `par_fold_chunks`, whose ranges each run a segment-style
/// `par_map_jobs`. Every call joins its own threads before it returns,
/// so at most (outer × fold × inner) widths of tasks run at once — a
/// gauge checks that bound — and the result equals the serial
/// computation exactly.
#[test]
fn three_layer_nesting_stress() {
    const ITEMS: u64 = 400;
    let value = |e: u64, i: u64| (e * ITEMS + i) % 97;
    let experiments: Vec<u64> = (0..6).collect();
    let expected: Vec<u64> = experiments
        .iter()
        .map(|&e| (0..ITEMS).map(|i| value(e, i)).sum())
        .collect();
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let got = par_map_jobs(2, &experiments, |&e| {
        par_fold_chunks(
            ITEMS,
            || 0u64,
            |range, acc| {
                let items: Vec<u64> = range.collect();
                let values = par_map_jobs(2, &items, |&i| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let v = value(e, i);
                    live.fetch_sub(1, Ordering::SeqCst);
                    v
                });
                acc + values.iter().sum::<u64>()
            },
            |a, b| a + b,
        )
        .unwrap_or(0)
    });
    assert_eq!(got, expected);
    // The fold's width follows jobs(), which other tests in this binary
    // change; every width is clamped to the machine.
    let bound = clamp_workers(2) * available_parallelism() * clamp_workers(2);
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= bound, "{peak} tasks ran at once (bound {bound})");
}
