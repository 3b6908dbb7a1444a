//! Property tests pinning the ordering-study fast kernels to the naive
//! seed-path loops they replaced.
//!
//! Five claims must hold *bit-exactly* (not just approximately) for the
//! experiment stdout to stay byte-identical:
//!
//! * the prefix-reuse subset sweep ([`subset_sweep_wins`]) produces the
//!   same per-subset f64 sums — same bits, same argmin, same tallies —
//!   as the naive per-candidate gather loop, on any rate matrix and at
//!   any contiguous range split;
//! * the tiled sampled sweep ([`sampled_sweep_wins`]) picks the same
//!   winner for every sample as the naive per-sample scan over all
//!   orders, and so the same tallies at any chunk split — also when it
//!   scans only the [`creditable_orders`] and maps the wins back, and
//!   the pruned set is exactly the naive O(n²) definition's;
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
    all_orders, creditable_orders, sampled_sweep_wins, subset_sweep_wins, BenchOrderData, FirstHit,
    KSubsets, OrderingStudy,
};
use bpfree_core::{BranchClassifier, HeuristicKind, HeuristicTable, DEFAULT_SEED};
use proptest::prelude::*;

/// The seed-path sweep: per subset, a scalar gather per candidate
/// (`sum = 0.0; sum += rates[b]; …`), first strict minimum wins. The
/// rate matrix here is candidate-major (`rates[ci][b]`), exactly as the
/// pre-kernel code scanned it.
fn naive_sweep(
    rates: &[Vec<f64>],
    n: usize,
    k: usize,
    start: u64,
    len: u64,
    wins: &mut [u64],
    sums: &mut Vec<Vec<f64>>,
) {
    KSubsets::range(n, k, start, len).for_each_subset(|subset| {
        let mut best = 0usize;
        let mut best_rate = f64::INFINITY;
        let mut row = Vec::with_capacity(rates.len());
        for (ci, cand) in rates.iter().enumerate() {
            let mut sum = 0.0;
            for &b in subset {
                sum += cand[b];
            }
            row.push(sum);
            if sum < best_rate {
                best_rate = sum;
                best = ci;
            }
        }
        sums.push(row);
        wins[best] += 1;
    });
}

/// The fast sweep, additionally recording every subset's final sum
/// vector so the test can compare raw bits, not just winners.
fn fast_sweep_with_sums(
    cols: &[Vec<f64>],
    n: usize,
    k: usize,
    start: u64,
    len: u64,
    wins: &mut [u64],
) -> Vec<Vec<f64>> {
    // `subset_sweep_wins` only exposes tallies; re-derive the sums with
    // the same per-slot prefix stack to check them bit-for-bit.
    let c = wins.len();
    let mut partial = vec![0.0f64; k * c];
    let mut sums = Vec::new();
    KSubsets::range(n, k, start, len).for_each_subset_from(|subset, from| {
        for slot in from..k {
            let col = &cols[subset[slot]][..c];
            if slot == 0 {
                for (dst, &r) in partial[..c].iter_mut().zip(col) {
                    *dst = 0.0 + r;
                }
            } else {
                let (prev, cur) = partial.split_at_mut(slot * c);
                let prev = &prev[(slot - 1) * c..];
                for (ci, dst) in cur[..c].iter_mut().enumerate() {
                    *dst = prev[ci] + col[ci];
                }
            }
        }
        sums.push(partial[(k - 1) * c..].to_vec());
    });
    subset_sweep_wins(cols, n, k, start, len, wins);
    sums
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

/// A tie-heavy rate matrix: `c` candidates × `n` benchmarks, plus a
/// subset size `1..=n` and a worker-split count.
fn matrix_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, usize)> {
    (1usize..=10, 1usize..=16).prop_flat_map(|(n, c)| (tie_heavy_matrix(c, n), 1..=n, 1usize..=5))
}

/// A sampled-sweep case: a tie-heavy matrix of `c` orders (1..=40, or
/// the study's 5040) × `n ≤ 22` benchmarks, a sample size `k ≤ n`, up to
/// 24 samples of `k` indices below `n`, and a chunk count.
fn sampled_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, Vec<u8>, usize)> {
    (prop_oneof![3 => 1usize..=40, 1 => Just(5040)], 1usize..=22)
        .prop_flat_map(|(c, n)| (tie_heavy_matrix(c, n), 1..=n, 1usize..=24))
        .prop_flat_map(|(rates, k, samples)| {
            let n = rates[0].len() as u8;
            (
                Just(rates),
                Just(k),
                proptest::collection::vec(0..n, samples * k),
                1usize..=6,
            )
        })
}

/// The per-sample scan the sampled study ran before it was tiled: the
/// first order whose `iter().sum()` over the sample's rates is a strict
/// minimum.
fn naive_sampled_winner(rates: &[Vec<f64>], subset: &[u8]) -> usize {
    let mut best = 0usize;
    let mut best_rate = f64::INFINITY;
    for (o, row) in rates.iter().enumerate() {
        let sum: f64 = subset.iter().map(|&b| row[usize::from(b)]).sum();
        if sum < best_rate {
            best_rate = sum;
            best = o;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole bit-identity: winner tallies AND per-subset f64 sums of
    /// the prefix-reuse kernel equal the naive gather loop's, for any
    /// random rate matrix, any k ≤ n, and any contiguous range split.
    #[test]
    fn prefix_kernel_is_bit_identical_to_naive_sweep(
        (rates, k, parts) in matrix_strategy()
    ) {
        let c = rates.len();
        let n = rates[0].len();
        // Benchmark-major transposition for the kernel.
        let cols: Vec<Vec<f64>> = (0..n)
            .map(|b| rates.iter().map(|cand| cand[b]).collect())
            .collect();
        let total = KSubsets::count(n, k);

        let mut naive_wins = vec![0u64; c];
        let mut naive_sums = Vec::new();
        naive_sweep(&rates, n, k, 0, total, &mut naive_wins, &mut naive_sums);

        // Whole-range fast sweep: sums bit-identical, tallies equal.
        let mut fast_wins = vec![0u64; c];
        let fast_sums = fast_sweep_with_sums(&cols, n, k, 0, total, &mut fast_wins);
        prop_assert_eq!(&fast_wins, &naive_wins);
        prop_assert_eq!(fast_sums.len(), naive_sums.len());
        for (f, s) in fast_sums.iter().zip(&naive_sums) {
            for (a, b) in f.iter().zip(s) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Split into contiguous worker ranges (what par_fold_chunks
        // does): merged tallies must not depend on the split.
        let mut split_wins = vec![0u64; c];
        for r in bpfree_par::split_ranges(total, parts) {
            subset_sweep_wins(&cols, n, k, r.start, r.end - r.start, &mut split_wins);
        }
        prop_assert_eq!(&split_wins, &naive_wins);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tiled sampled sweep picks the naive scan's winner for every
    /// sample — across tile and lane boundaries, on tie-heavy matrices
    /// of any order count — and its tallies do not depend on how the
    /// samples are split into chunks.
    #[test]
    fn sampled_kernel_matches_naive_scan(
        (rates, k, subsets, parts) in sampled_strategy()
    ) {
        let c = rates.len();
        let mut naive_wins = vec![0u64; c];
        for subset in subsets.chunks_exact(k) {
            let want = naive_sampled_winner(&rates, subset);
            let mut one = vec![0u64; c];
            sampled_sweep_wins(&rates, k, subset, &mut one);
            let mut expect = vec![0u64; c];
            expect[want] = 1;
            prop_assert_eq!(one, expect, "sample {:?}", subset);
            naive_wins[want] += 1;
        }

        let mut whole = vec![0u64; c];
        sampled_sweep_wins(&rates, k, &subsets, &mut whole);
        prop_assert_eq!(&whole, &naive_wins);

        let samples = (subsets.len() / k) as u64;
        let mut split = vec![0u64; c];
        for r in bpfree_par::split_ranges(samples, parts) {
            let chunk = &subsets[r.start as usize * k..r.end as usize * k];
            sampled_sweep_wins(&rates, k, chunk, &mut split);
        }
        prop_assert_eq!(&split, &naive_wins);
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
    /// naive definition's orders, and sweeping only those rows, with the
    /// wins mapped back to order indices, credits every sample to the
    /// naive full scan's winner, at any chunk split.
    #[test]
    fn creditable_prune_keeps_every_sampled_winner(
        (rates, k, subsets, parts) in sampled_strategy()
    ) {
        let kept = creditable_orders(&rates);
        prop_assert_eq!(&kept, &naive_creditable(&rates));
        prop_assert_eq!(kept.first(), Some(&0));
        let rows: Vec<Vec<f64>> = kept.iter().map(|&o| rates[o].clone()).collect();
        let mapped_back = |wins: &[u64]| {
            let mut full = vec![0u64; rates.len()];
            for (&o, &w) in kept.iter().zip(wins) {
                full[o] = w;
            }
            full
        };

        let mut naive_wins = vec![0u64; rates.len()];
        for subset in subsets.chunks_exact(k) {
            let want = naive_sampled_winner(&rates, subset);
            let mut one = vec![0u64; rows.len()];
            sampled_sweep_wins(&rows, k, subset, &mut one);
            let mut expect = vec![0u64; rates.len()];
            expect[want] = 1;
            prop_assert_eq!(mapped_back(&one), expect, "sample {:?}", subset);
            naive_wins[want] += 1;
        }

        let samples = (subsets.len() / k) as u64;
        let mut split = vec![0u64; rows.len()];
        for r in bpfree_par::split_ranges(samples, parts) {
            let chunk = &subsets[r.start as usize * k..r.end as usize * k];
            sampled_sweep_wins(&rows, k, chunk, &mut split);
        }
        prop_assert_eq!(mapped_back(&split), naive_wins);
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
