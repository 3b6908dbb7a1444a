//! Property tests for evaluation and ordering invariants.

use bpfree_core::ordering::{all_orders, BenchOrderData};
use bpfree_core::{
    evaluate, perfect_predictions, random_predictions, BranchClassifier, CombinedPredictor,
    Direction, HeuristicKind, HeuristicTable, Predictions,
};
use bpfree_ir::BranchRef;
use bpfree_sim::EdgeProfile;
use proptest::prelude::*;

const SRC: &str = "global int acc[8];
fn work(ptr p, int x) -> int {
    int v;
    if (p == null) { return -1; }
    v = p[0];
    if (v < 0) { acc[0] = acc[0] + 1; return 0; }
    if (x % 3 == 0) { acc[1] = acc[1] + v; }
    while (v > 100) { v = v - 100; }
    return v;
}
fn main() -> int {
    ptr q; int i; int s;
    q = alloc(2);
    for (i = 0; i < 50; i = i + 1) {
        q[0] = i * 7 % 311;
        s = s + work(q, i);
    }
    return s;
}";

fn setup() -> (bpfree_ir::Program, BranchClassifier) {
    let p = bpfree_lang::compile(SRC).unwrap();
    let c = BranchClassifier::analyze(&p);
    (p, c)
}

/// A random profile over the program's branch sites.
fn arb_profile(branches: Vec<BranchRef>) -> impl Strategy<Value = EdgeProfile> {
    proptest::collection::vec((0u64..500, 0u64..500), branches.len()).prop_map(move |counts| {
        let mut prof = EdgeProfile::new();
        for (b, (t, f)) in branches.iter().zip(counts) {
            for _ in 0..t.min(40) {
                prof.record(*b, true);
            }
            for _ in 0..f.min(40) {
                prof.record(*b, false);
            }
        }
        prof
    })
}

/// A random complete prediction set.
fn arb_predictions(branches: Vec<BranchRef>) -> impl Strategy<Value = Predictions> {
    proptest::collection::vec(any::<bool>(), branches.len()).prop_map(move |bits| {
        branches
            .iter()
            .zip(bits)
            .map(|(b, t)| {
                (
                    *b,
                    if t {
                        Direction::Taken
                    } else {
                        Direction::FallThru
                    },
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The perfect static predictor is optimal: no prediction set has
    /// fewer misses against a profile.
    #[test]
    fn perfect_is_optimal(
        (profile, preds) in {
            let (p, _) = setup();
            let branches = p.branches();
            (arb_profile(branches.clone()), arb_predictions(branches))
        }
    ) {
        let (p, c) = setup();
        let perfect = perfect_predictions(&p, &profile);
        let r_perfect = evaluate(&perfect, &profile, &c);
        let r_other = evaluate(&preds, &profile, &c);
        prop_assert!(r_perfect.all.misses <= r_other.all.misses);
        // And the perfect predictor's misses equal the reported
        // perfect_misses for every evaluation.
        prop_assert_eq!(r_perfect.all.misses, r_other.all.perfect_misses);
    }

    /// Evaluation accounting: misses never exceed dynamic counts, class
    /// stats partition the total, and flipping every prediction flips
    /// misses to hits.
    #[test]
    fn evaluation_accounting(
        (profile, preds) in {
            let (p, _) = setup();
            let branches = p.branches();
            (arb_profile(branches.clone()), arb_predictions(branches))
        }
    ) {
        let (_p, c) = setup();
        let r = evaluate(&preds, &profile, &c);
        prop_assert!(r.all.misses <= r.all.dynamic);
        prop_assert_eq!(r.all.dynamic, profile.total_branches());
        prop_assert_eq!(r.all.dynamic, r.loop_branches.dynamic + r.nonloop.dynamic);
        prop_assert_eq!(r.all.misses, r.loop_branches.misses + r.nonloop.misses);

        let flipped: Predictions =
            preds.iter().map(|(b, d)| (b, d.flip())).collect();
        let r2 = evaluate(&flipped, &profile, &c);
        prop_assert_eq!(r.all.misses + r2.all.misses, r.all.dynamic);
    }

    /// Every ordering yields a miss rate in [perfect-bound, 1], and the
    /// order-evaluation machinery agrees with a direct evaluation of the
    /// corresponding combined predictor.
    #[test]
    fn order_machinery_matches_direct_evaluation(
        profile in {
            let (p, _) = setup();
            arb_profile(p.branches())
        },
        order_idx in 0usize..5040,
    ) {
        let (p, c) = setup();
        let table = HeuristicTable::build(&p, &c);
        let data = BenchOrderData::build("t", &table, &profile, &c, 1234);
        let order = all_orders()[order_idx];
        let fast = data.miss_rate(&order);

        let cp = CombinedPredictor::from_table(&p, &c, &table, &order, 1234);
        let r = evaluate(&cp.predictions(), &profile, &c);
        let direct = if r.nonloop.dynamic == 0 {
            0.0
        } else {
            r.nonloop.misses as f64 / r.nonloop.dynamic as f64
        };
        prop_assert!((fast - direct).abs() < 1e-12, "fast {fast} direct {direct}");
    }

    /// Random predictions are deterministic in the seed.
    #[test]
    fn random_predictions_deterministic(seed in any::<u64>()) {
        let (p, _) = setup();
        prop_assert_eq!(
            random_predictions(&p, seed),
            random_predictions(&p, seed)
        );
    }

    /// The combined predictor covers every branch for every order.
    #[test]
    fn combined_total_for_every_order(order_idx in 0usize..5040) {
        let (p, c) = setup();
        let order = all_orders()[order_idx];
        let cp = CombinedPredictor::new(&p, &c, order);
        prop_assert_eq!(cp.predictions().len(), p.branches().len());
    }

    /// The analytic model is a CDF in s and monotone in m.
    #[test]
    fn model_is_a_cdf(m in 0.0f64..1.0, s in 0u64..500) {
        use bpfree_core::model::cumulative_fraction;
        let f = cumulative_fraction(m, s);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(cumulative_fraction(m, s + 1) >= f);
        if m < 0.99 {
            prop_assert!(cumulative_fraction((m + 0.01).min(1.0), s) >= f - 1e-12);
        }
    }
}

/// HeuristicKind::paper_order must never change silently — the published
/// tables depend on it.
#[test]
fn paper_order_is_fixed() {
    let labels: Vec<&str> = HeuristicKind::paper_order()
        .iter()
        .map(|k| k.label())
        .collect();
    assert_eq!(
        labels,
        vec!["Point", "Call", "Opcode", "Return", "Store", "Loop", "Guard"]
    );
}
