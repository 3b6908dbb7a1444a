//! Property tests pinning the ordering-study kernels to naive loops.
//!
//! Four claims must hold *bit-exactly* (not just approximately) for the
//! experiment stdout to stay byte-identical:
//!
//! * the subset-sweep kernel ([`PrefixSums`]) picks, for every subset,
//!   the candidate the naive per-candidate gather loop picks: both when
//!   the lexicographic walk ([`KSubsets`]) hands it the first changed
//!   slot and when drawn samples start from slot 0;
//! * sweeping only the [`creditable_orders`] credits every sample to the
//!   full scan's winner, and the pruned set is exactly the naive O(n²)
//!   definition's;
//! * per-order [`FirstHit`] tables resolve every applies mask to the
//!   same heuristic the 7-way first-hit scan finds, across all 5040
//!   orders;
//! * on real suite data, the study's 5040-order rate matrix equals the
//!   per-order 7-way scan ([`BenchOrderData::miss_rate`]) bit for bit,
//!   and its sum-pruned Pareto front equals the full O(n²) domination
//!   scan.
//!
//! The real rate matrix is full of ties (many orders resolve every
//! branch group identically), so the matrices here draw rates from a few
//! quantized values and duplicate rows: the first-strict-minimum tie
//! rule is what the kernel must get right.

use bpfree_core::ordering::{
    all_orders, creditable_orders, BenchOrderData, FirstHit, KSubsets, OrderingStudy, PrefixSums,
};
use bpfree_core::{BranchClassifier, HeuristicKind, HeuristicTable, DEFAULT_SEED};
use proptest::prelude::*;

/// The naive scan: per candidate, a scalar gather over the subset in
/// slot order (`sum = 0.0; sum += rates[b]; …`), first strict minimum
/// wins. The rate matrix is candidate-major (`rates[ci][b]`).
fn naive_winner(rates: &[Vec<f64>], subset: &[usize]) -> usize {
    let mut best = 0usize;
    let mut best_rate = f64::INFINITY;
    for (ci, cand) in rates.iter().enumerate() {
        let mut sum = 0.0;
        for &b in subset {
            sum += cand[b];
        }
        if sum < best_rate {
            best_rate = sum;
            best = ci;
        }
    }
    best
}

/// `rates` (candidate-major) transposed into the benchmark-major
/// columns [`PrefixSums`] reads.
fn columns(rates: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..rates[0].len())
        .map(|b| rates.iter().map(|cand| cand[b]).collect())
        .collect()
}

/// The few values a tie-heavy matrix draws its rates from. Besides
/// exact ties they include sums that round differently by association
/// (`(0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)`), so a kernel that adds in
/// another order picks another winner.
const RATE_VALUES: [f64; 8] = [0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0];

/// A tie-heavy `c × n` rate matrix: every rate is one of
/// [`RATE_VALUES`], and about one row in eight repeats an earlier row.
fn tie_heavy_matrix(c: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let rate = (0..RATE_VALUES.len()).prop_map(|i| RATE_VALUES[i]);
    let row = proptest::collection::vec(rate, n);
    proptest::collection::vec((0..4 * c, row), c).prop_map(|drawn| {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(drawn.len());
        for (copy, row) in drawn {
            let row = rows.get(copy).cloned().unwrap_or(row);
            rows.push(row);
        }
        rows
    })
}

/// A tie-heavy rate matrix, `c` candidates × `n` benchmarks, plus a
/// subset size `1..=n`.
fn matrix_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (1usize..=10, 1usize..=16).prop_flat_map(|(n, c)| (tie_heavy_matrix(c, n), 1..=n))
}

/// A sampled-sweep case: a tie-heavy matrix of `c` orders (1..=40, or
/// the study's 5040) × `n ≤ 22` benchmarks, a sample size `k ≤ n`, and
/// up to 24 samples of `k` indices below `n`.
fn sampled_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, Vec<usize>)> {
    (prop_oneof![3 => 1usize..=40, 1 => Just(5040)], 1usize..=22)
        .prop_flat_map(|(c, n)| (tie_heavy_matrix(c, n), 1..=n, 1usize..=24))
        .prop_flat_map(|(rates, k, samples)| {
            let n = rates[0].len();
            (
                Just(rates),
                Just(k),
                proptest::collection::vec(0..n, samples * k),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact sweep's mode: walking every k-subset lexicographically
    /// and passing the first changed slot, the kernel picks the naive
    /// gather's winner on every subset, for any tie-heavy matrix and
    /// any k ≤ n.
    #[test]
    fn prefix_kernel_is_bit_identical_to_naive_sweep((rates, k) in matrix_strategy()) {
        let n = rates[0].len();
        let mut walk = Vec::new();
        KSubsets::new(n, k).for_each_subset_from(|subset, from| walk.push((subset.to_vec(), from)));
        prop_assert_eq!(walk.len() as u64, KSubsets::count(n, k));

        let cols = columns(&rates);
        let mut sums = PrefixSums::new(rates.len());
        for (subset, from) in &walk {
            prop_assert_eq!(
                sums.winner(&cols, subset, *from),
                naive_winner(&rates, subset),
                "subset {:?} from slot {}", subset, from
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampled sweep's mode: fed one drawn sample after another,
    /// each from slot 0, the kernel picks the naive scan's winner for
    /// every sample, on tie-heavy matrices of any order count.
    #[test]
    fn kernel_matches_naive_scan_on_drawn_samples((rates, k, subsets) in sampled_strategy()) {
        let cols = columns(&rates);
        let mut sums = PrefixSums::new(rates.len());
        for subset in subsets.chunks_exact(k) {
            prop_assert_eq!(
                sums.winner(&cols, subset, 0),
                naive_winner(&rates, subset),
                "sample {:?}", subset
            );
        }
    }
}

/// The definition of [`creditable_orders`], checked against every
/// lower index: order `i` stays unless some `j < i` is no worse on every
/// benchmark.
fn naive_creditable(rates: &[Vec<f64>]) -> Vec<usize> {
    (0..rates.len())
        .filter(|&i| !(0..i).any(|j| rates[j].iter().zip(&rates[i]).all(|(rj, ri)| rj <= ri)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampled study's prune: the sum-pruned scan keeps exactly the
    /// naive definition's orders, and the kernel over only those rows,
    /// with its winner mapped back to an order index, credits every
    /// sample to the naive full scan's winner.
    #[test]
    fn creditable_prune_keeps_every_sampled_winner((rates, k, subsets) in sampled_strategy()) {
        let kept = creditable_orders(&rates);
        prop_assert_eq!(&kept, &naive_creditable(&rates));
        prop_assert_eq!(kept.first(), Some(&0));
        let rows: Vec<Vec<f64>> = kept.iter().map(|&o| rates[o].clone()).collect();
        let cols = columns(&rows);
        let mut sums = PrefixSums::new(kept.len());
        for subset in subsets.chunks_exact(k) {
            prop_assert_eq!(
                kept[sums.winner(&cols, subset, 0)],
                naive_winner(&rates, subset),
                "sample {:?}", subset
            );
        }
    }
}

/// Exhaustive (not sampled) first-hit check: every one of the 5040
/// orders, every 7-bit applies mask, table load == 7-way scan.
#[test]
fn first_hit_tables_match_the_scan_for_all_orders_and_masks() {
    for order in all_orders() {
        let fh = FirstHit::new(&order);
        for mask in 0u8..128 {
            let scanned = order
                .iter()
                .map(|kind| 1u8 << kind.index())
                .find(|bit| mask & bit != 0)
                .unwrap_or(0);
            assert_eq!(fh.hit(mask), scanned, "order {order:?} mask {mask:#09b}");
        }
    }
}

/// The first-hit table only depends on the 7 low mask bits; the scan
/// and table agree that a full `HeuristicKind::ALL` order hits the
/// lowest set bit of any mask.
#[test]
fn first_hit_of_index_order_is_lowest_set_bit() {
    let fh = FirstHit::new(&HeuristicKind::ALL);
    for mask in 1u8..128 {
        assert_eq!(fh.hit(mask), mask & mask.wrapping_neg());
    }
    assert_eq!(fh.hit(0), 0);
}

/// The seed-path rate matrix: one row per order, each benchmark scored
/// by the 7-way first-hit scan of [`BenchOrderData::miss_rate`].
fn naive_rate_matrix(benches: &[BenchOrderData]) -> Vec<Vec<f64>> {
    all_orders()
        .iter()
        .map(|o| benches.iter().map(|b| b.miss_rate(o)).collect())
        .collect()
}

/// The seed-path Pareto prune: every order checked against **all**
/// others (no sum-sorted early exit). `j` dominates `i` when it is no
/// worse on every benchmark and either better somewhere or, on an
/// identical row, earlier — so of a run of tied rows only the first
/// survives.
fn naive_pareto(rates: &[Vec<f64>]) -> Vec<usize> {
    (0..rates.len())
        .filter(|&i| {
            !rates.iter().enumerate().any(|(j, row)| {
                j != i
                    && row.iter().zip(&rates[i]).all(|(rj, ri)| rj <= ri)
                    && (row != &rates[i] || j < i)
            })
        })
        .collect()
}

/// Condensed ordering data for a few suite benchmarks on their
/// reference datasets. Three benchmarks leave many of the 5040 orders
/// scoring identically, which is what the tie rules must handle.
fn suite_order_data(names: &[&str]) -> Vec<BenchOrderData> {
    names
        .iter()
        .map(|name| {
            let bench = bpfree_suite::by_name(name).expect("suite benchmark");
            let program = bench.compile().expect("suite programs compile");
            let classifier = BranchClassifier::analyze(&program);
            let table = HeuristicTable::build(&program, &classifier);
            let (profile, _) = bench.profile(&program, 0).expect("dataset 0 runs");
            BenchOrderData::build(*name, &table, &profile, &classifier, DEFAULT_SEED)
        })
        .collect()
}

/// The study's first-hit rate matrix and sum-pruned Pareto front equal
/// the naive loops on real, tie-heavy suite data, and the front is a
/// subset of the sampled study's creditable orders.
#[test]
fn rate_matrix_and_pareto_front_match_naive_loops_on_suite_data() {
    let data = suite_order_data(&["xlisp", "compress", "espresso"]);
    let naive = naive_rate_matrix(&data);
    let study = OrderingStudy::new_serial(data);

    assert_eq!(study.rates().len(), naive.len());
    for (o, (fast, slow)) in study.rates().iter().zip(&naive).enumerate() {
        let fast: Vec<u64> = fast.iter().map(|r| r.to_bits()).collect();
        let slow: Vec<u64> = slow.iter().map(|r| r.to_bits()).collect();
        assert_eq!(fast, slow, "rate row of order {o}");
    }

    let distinct: std::collections::BTreeSet<Vec<u64>> = naive
        .iter()
        .map(|row| row.iter().map(|r| r.to_bits()).collect())
        .collect();
    assert!(
        distinct.len() < naive.len() / 10,
        "expected many tied rows, got {} distinct of {}",
        distinct.len(),
        naive.len()
    );

    assert_eq!(study.pareto_front(), naive_pareto(&naive).as_slice());
    let kept = creditable_orders(study.rates());
    assert_eq!(kept, naive_creditable(&naive));
    assert!(
        study.pareto_front().iter().all(|o| kept.contains(o)),
        "front {:?} is not within the creditable orders {kept:?}",
        study.pareto_front()
    );
}
