//! Property tests pinning the ordering-study kernels to naive loops.
//!
//! Four claims must hold *bit-exactly* (not just approximately) for the
//! experiment stdout to stay byte-identical:
//!
//! * the exact sweep ([`subset_tally`]), which scores only the subsets
//!   of the informative benchmarks and credits certified winners in
//!   bulk, tallies every candidate exactly as the naive per-candidate
//!   gather over all k-subsets does, and the scoring rule
//!   ([`subset_winner`]) picks the naive gather's winner on every drawn
//!   sample;
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
//! rule is what the kernels must get right.

use bpfree_core::ordering::{
    all_orders, creditable_orders, subset_tally, subset_winner, BenchOrderData, FirstHit, KSubsets,
    OrderingStudy,
};
use bpfree_core::{BranchClassifier, HeuristicKind, HeuristicTable, DEFAULT_SEED};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
/// columns the kernels read.
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

/// [`RATE_VALUES`] and their near neighbours: one ulp up or down, and
/// `0.1 + ε`. A neighbour sums to within rounding of its value, so a
/// certificate with too small a margin credits the wrong candidate.
fn near_tie_values() -> Vec<f64> {
    let mut values = RATE_VALUES.to_vec();
    for v in [0.1f64, 0.2, 0.3, 1.0 / 3.0, 0.5] {
        values.push(f64::from_bits(v.to_bits() + 1));
        values.push(f64::from_bits(v.to_bits() - 1));
    }
    values.push(0.1 + f64::EPSILON);
    values
}

/// An exact-sweep case: a `c × n` matrix (`c` ≤ 12 candidates, `n` ≤ 12
/// benchmarks) over [`near_tie_values`], about one row in eight a copy
/// of an earlier one and about one benchmark in three forced constant
/// (one value for every candidate), plus a subset size `1..=n`.
fn exact_sweep_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    let values = near_tie_values();
    (1usize..=12, 1usize..=12)
        .prop_flat_map(move |(c, n)| {
            let rate = (0..values.len()).prop_map({
                let values = values.clone();
                move |i| values[i]
            });
            let rows = proptest::collection::vec(
                (0..4 * c, proptest::collection::vec(rate.clone(), n)),
                c,
            );
            let constant = proptest::collection::vec((0..3usize, rate), n);
            (rows, constant, 1..=n)
        })
        .prop_map(|(drawn, constant, k)| {
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(drawn.len());
            for (copy, row) in drawn {
                let row = rows.get(copy).cloned().unwrap_or(row);
                rows.push(row);
            }
            for (b, &(pick, value)) in constant.iter().enumerate() {
                if pick == 0 {
                    rows.iter_mut().for_each(|row| row[b] = value);
                }
            }
            (rows, k)
        })
}

/// The naive exact sweep: every k-subset in lexicographic order, scored
/// by [`naive_winner`], tallied per candidate.
fn naive_tally(rates: &[Vec<f64>], k: usize) -> Vec<u64> {
    let mut wins = vec![0u64; rates.len()];
    KSubsets::new(rates[0].len(), k)
        .for_each_subset(|subset| wins[naive_winner(rates, subset)] += 1);
    wins
}

/// The exact sweep's tallies equal the naive sweep's over all k-subsets
/// on 1,500 near-tie matrices with constant columns, any k ≤ n. Across
/// the cases both paths run: subsets credited in bulk by a certificate
/// and subsets whose completions fall back to scoring one by one.
#[test]
fn certified_sweep_matches_naive_tallies() {
    let strategy = exact_sweep_strategy();
    let mut rng = TestRng::for_test("ordering_props::certified_sweep_matches_naive_tallies");
    let (mut certified, mut fallbacks) = (0, 0);
    for _ in 0..1_500 {
        let (rates, k) = strategy.generate(&mut rng);
        let tally = subset_tally(&columns(&rates), k);
        assert_eq!(tally.wins, naive_tally(&rates, k), "k {k}, rates {rates:?}");
        certified += tally.scored - tally.fallbacks;
        fallbacks += tally.fallbacks;
    }
    assert!(certified > 0, "no subset was credited in bulk");
    assert!(fallbacks > 0, "no subset fell back");
}

/// A matrix of `c` candidates × `n` benchmarks: every rate a full
/// 53-bit draw from `[0, 1)`, so sums of different columns never come
/// within rounding of each other, except where `shape(b)` gives
/// benchmark `b` a fixed column.
fn drawn_matrix(c: usize, n: usize, shape: impl Fn(usize) -> Option<Vec<f64>>) -> Vec<Vec<f64>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let cols: Vec<Vec<f64>> = (0..n)
        .map(|b| shape(b).unwrap_or_else(|| (0..c).map(|_| rng.gen()).collect()))
        .collect();
    (0..c)
        .map(|ci| cols.iter().map(|col| col[ci]).collect())
        .collect()
}

/// The roster's shape: 22 benchmarks, 6 of them constant, 12
/// candidates, two of which share every rate. The sweep scores the
/// Σ_{m=5}^{11} C(16, m) = 60,502 subsets of the 16 informative
/// benchmarks, certifies every one (the only exact ties are the twin
/// candidates, whose columns agree), and its tallies are the naive
/// sweep's over all C(22,11) = 705,432 subsets.
#[test]
fn certified_sweep_scores_only_informative_subsets_on_the_roster_shape() {
    let mut rates = drawn_matrix(12, 22, |b| (b % 4 == 1).then(|| vec![b as f64 / 32.0; 12]));
    rates[9] = rates[4].clone();
    let tally = subset_tally(&columns(&rates), 11);
    assert_eq!(tally.scored, 60_502);
    assert_eq!(tally.fallbacks, 0);
    assert_eq!(tally.wins, naive_tally(&rates, 11));
    assert_eq!(tally.wins.iter().sum::<u64>(), 705_432);
    assert_eq!(tally.wins[9], 0, "the twin's ties go to the lower index");
}

/// More benchmarks than a 64-bit subset mask holds, with constant and
/// exactly tied columns among them: k = 1 and k = 2 still match the
/// naive sweep.
#[test]
fn certified_sweep_handles_rosters_past_64_benchmarks() {
    let rates = drawn_matrix(5, 70, |b| match b % 5 {
        0 => Some(vec![0.25; 5]),
        1 => Some(vec![0.1, 0.2, 0.1, 0.3, 0.2]),
        _ => None,
    });
    for k in [1, 2] {
        let tally = subset_tally(&columns(&rates), k);
        assert_eq!(tally.wins, naive_tally(&rates, k), "k = {k}");
        assert_eq!(tally.wins.iter().sum::<u64>(), KSubsets::count(70, k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampled sweep's scoring: fed one drawn sample after another
    /// on one reused row of accumulators, [`subset_winner`] picks the
    /// naive scan's winner for every sample, in drawn order, on
    /// tie-heavy matrices of any order count.
    #[test]
    fn kernel_matches_naive_scan_on_drawn_samples((rates, k, subsets) in sampled_strategy()) {
        let cols = columns(&rates);
        let mut sums = vec![0.0; rates.len()];
        for subset in subsets.chunks_exact(k) {
            prop_assert_eq!(
                subset_winner(&cols, subset, &mut sums),
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
        let mut sums = vec![0.0; kept.len()];
        for subset in subsets.chunks_exact(k) {
            prop_assert_eq!(
                kept[subset_winner(&cols, subset, &mut sums)],
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
