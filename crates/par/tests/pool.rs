//! Guarantees of `par_map_jobs`, the one parallel primitive: a
//! panicking task re-raises its own payload on the caller once its
//! siblings finish, through nested calls too; the map is
//! element-identical to the serial loop at random job counts and
//! nesting depths; and nested maps keep only a few threads alive at
//! once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use bpfree_par::{clamp_workers, par_map_jobs};
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

/// Three layers of nested maps: every element of a map runs a map whose
/// elements each run a map. The batch itself nests no parallel calls
/// (each experiment renders serially inside the one render map), but a
/// library caller may, so this pins the bound: every call joins its own
/// threads before it returns, so at most `clamp_workers(2)` cubed tasks
/// of the innermost layer are live at once (a gauge checks it), and the
/// result equals the serial computation exactly.
#[test]
fn three_layer_nesting_stress() {
    const ITEMS: u64 = 40;
    let value = |e: u64, m: u64, i: u64| (e * ITEMS * ITEMS + m * ITEMS + i) % 97;
    let experiments: Vec<u64> = (0..6).collect();
    let items: Vec<u64> = (0..ITEMS).collect();
    let expected: Vec<u64> = experiments
        .iter()
        .map(|&e| {
            let row = |m| items.iter().map(|&i| value(e, m, i)).sum::<u64>();
            items.iter().map(|&m| row(m)).sum()
        })
        .collect();
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let got = par_map_jobs(2, &experiments, |&e| {
        par_map_jobs(2, &items, |&m| {
            par_map_jobs(2, &items, |&i| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let v = value(e, m, i);
                live.fetch_sub(1, Ordering::SeqCst);
                v
            })
            .iter()
            .sum::<u64>()
        })
        .iter()
        .sum::<u64>()
    });
    assert_eq!(got, expected);
    let bound = clamp_workers(2).pow(3);
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= bound, "{peak} tasks ran at once (bound {bound})");
}
