//! Regression tests pinning the paper's qualitative claims on a fast
//! subset of the benchmark suite. Absolute numbers differ from the paper
//! (different programs, different compiler), but each *shape* asserted
//! here is one the paper reports, and EXPERIMENTS.md records the full
//! comparison.

use bpfree::core::ipbc::IpbcAnalyzer;
use bpfree::core::ordering::{creditable_orders, BenchOrderData, OrderingStudy};
use bpfree::core::{
    evaluate, loop_rand_predictions, perfect_predictions, random_predictions, BranchClass,
    BranchClassifier, CombinedPredictor, HeuristicKind, HeuristicTable, DEFAULT_SEED,
};
use bpfree::sim::EdgeProfile;
use bpfree::suite::by_name;

struct Loaded {
    program: bpfree::ir::Program,
    classifier: BranchClassifier,
    profile: EdgeProfile,
    bench: bpfree::suite::Benchmark,
}

fn load(name: &str) -> Loaded {
    let bench = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let program = bench.compile().expect("suite programs compile");
    let classifier = BranchClassifier::analyze(&program);
    let (profile, _) = bench.profile(&program, 0).expect("dataset 0 runs");
    Loaded {
        program,
        classifier,
        profile,
        bench,
    }
}

fn heuristic_report(l: &Loaded) -> bpfree::core::Report {
    let cp = CombinedPredictor::new(&l.program, &l.classifier, HeuristicKind::paper_order());
    evaluate(&cp.predictions(), &l.profile, &l.classifier)
}

/// Section 3: "for many programs, non-loop branches dominate the loop
/// branches" — true for the interpreter/compiler benchmarks.
#[test]
fn nonloop_branches_dominate_pointer_codes() {
    for name in ["gcc", "xlisp", "eqntott"] {
        let l = load(name);
        let r = heuristic_report(&l);
        assert!(
            r.nonloop_fraction() > 0.5,
            "{name}: non-loop fraction {:.2}",
            r.nonloop_fraction()
        );
    }
}

/// Section 3: matrix300 is the opposite extreme — almost all loop
/// branches (the paper measured 96% loop).
#[test]
fn matrix300_is_loop_dominated() {
    let l = load("matrix300");
    let r = heuristic_report(&l);
    assert!(
        r.nonloop_fraction() < 0.10,
        "matrix300 non-loop fraction {:.2}",
        r.nonloop_fraction()
    );
}

/// Section 3: the loop predictor's mean miss rate is low (paper: 12%).
#[test]
fn loop_predictor_is_accurate_on_loop_heavy_codes() {
    for name in ["matrix300", "tomcatv", "dcg", "sgefat"] {
        let l = load(name);
        let lr = loop_rand_predictions(&l.program, &l.classifier, DEFAULT_SEED);
        let r = evaluate(&lr, &l.profile, &l.classifier);
        assert!(
            r.loop_branches.miss_rate() < 0.15,
            "{name}: loop miss {:.2}",
            r.loop_branches.miss_rate()
        );
    }
}

/// Section 2: the perfect static predictor misses ~10%, i.e. most
/// branches strongly favour one direction.
#[test]
fn most_branches_are_strongly_biased() {
    for name in ["xlisp", "compress", "tomcatv", "grep"] {
        let l = load(name);
        let r = heuristic_report(&l);
        assert!(
            r.all.perfect_rate() < 0.35,
            "{name}: perfect miss {:.2}",
            r.all.perfect_rate()
        );
    }
}

/// The headline (Tables 6/7): the combined heuristic lands between the
/// perfect predictor and random prediction, and beats Loop+Rand on
/// average.
#[test]
fn combined_heuristic_sits_between_perfect_and_random() {
    let names = [
        "gcc", "xlisp", "compress", "espresso", "doduc", "tomcatv", "grep",
    ];
    let mut h_sum = 0.0;
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    let mut lr_sum = 0.0;
    for name in names {
        let l = load(name);
        let r_h = heuristic_report(&l);
        let r_p = evaluate(
            &perfect_predictions(&l.program, &l.profile),
            &l.profile,
            &l.classifier,
        );
        let r_r = evaluate(
            &random_predictions(&l.program, DEFAULT_SEED),
            &l.profile,
            &l.classifier,
        );
        let r_lr = evaluate(
            &loop_rand_predictions(&l.program, &l.classifier, DEFAULT_SEED),
            &l.profile,
            &l.classifier,
        );
        h_sum += r_h.all.miss_rate();
        p_sum += r_p.all.miss_rate();
        r_sum += r_r.all.miss_rate();
        lr_sum += r_lr.all.miss_rate();
    }
    let n = names.len() as f64;
    let (h, p, r, lr) = (h_sum / n, p_sum / n, r_sum / n, lr_sum / n);
    assert!(p < h, "perfect {p:.3} must beat heuristic {h:.3}");
    assert!(h < r, "heuristic {h:.3} must beat random {r:.3}");
    assert!(h < lr, "heuristic {h:.3} must beat loop+rand {lr:.3}");
    // Rough factors: heuristic within ~3.5x of perfect, random ~2x
    // heuristic (the paper's factor-of-two framing).
    assert!(h < 3.5 * p, "heuristic {h:.3} vs perfect {p:.3}");
    assert!(r > 1.5 * h, "random {r:.3} vs heuristic {h:.3}");
}

/// Section 4 (tomcatv story): the guard heuristic mispredicts the
/// max-update branches; the store heuristic predicts them almost
/// perfectly.
#[test]
fn tomcatv_guard_fails_store_wins() {
    let l = load("tomcatv");
    let table = HeuristicTable::build(&l.program, &l.classifier);

    let guard_preds: bpfree::core::Predictions = table
        .branches()
        .filter_map(|b| table.prediction(b, HeuristicKind::Guard).map(|d| (b, d)))
        .collect();
    let store_preds: bpfree::core::Predictions = table
        .branches()
        .filter_map(|b| table.prediction(b, HeuristicKind::Store).map(|d| (b, d)))
        .collect();

    let guard = bpfree::core::evaluate_coverage(&guard_preds, &l.profile, &l.classifier);
    let store = bpfree::core::evaluate_coverage(&store_preds, &l.profile, &l.classifier);
    assert!(
        guard.coverage() > 0.5,
        "guard covers {:.2}",
        guard.coverage()
    );
    assert!(
        store.coverage() > 0.3,
        "store covers {:.2}",
        store.coverage()
    );
    assert!(
        guard.miss_rate() > 0.5,
        "guard should mispredict the max updates, got {:.2}",
        guard.miss_rate()
    );
    assert!(
        store.miss_rate() < 0.15,
        "store should nail the max updates, got {:.2}",
        store.miss_rate()
    );
}

/// Section 4: on a pointer-chasing benchmark, the pointer heuristic
/// applies and does not do worse than chance.
#[test]
fn pointer_heuristic_applies_to_pointer_codes() {
    let l = load("xlisp");
    let table = HeuristicTable::build(&l.program, &l.classifier);
    let preds: bpfree::core::Predictions = table
        .branches()
        .filter_map(|b| table.prediction(b, HeuristicKind::Pointer).map(|d| (b, d)))
        .collect();
    let cov = bpfree::core::evaluate_coverage(&preds, &l.profile, &l.classifier);
    assert!(
        cov.coverage() > 0.05,
        "pointer coverage {:.3}",
        cov.coverage()
    );
    assert!(cov.miss_rate() < 0.5, "pointer miss {:.3}", cov.miss_rate());
}

/// Section 6: the IPBC ordering Perfect <= Heuristic in breaks, and the
/// dividing length exceeds what the IPBC average suggests for skewed
/// distributions (spice2g6's Graph 4/5 point).
#[test]
fn ipbc_invariants_on_spice() {
    let l = load("spice2g6");
    let cp = CombinedPredictor::new(&l.program, &l.classifier, HeuristicKind::paper_order());
    let mut analyzer = IpbcAnalyzer::new(&l.program);
    analyzer.add_predictor("Heuristic", &cp.predictions());
    analyzer.add_predictor("Perfect", &perfect_predictions(&l.program, &l.profile));
    let datasets = l.bench.datasets();
    l.bench
        .run_with(&l.program, &datasets[0], &mut analyzer)
        .unwrap();
    let dists = analyzer.finish();
    let heuristic = &dists[0];
    let perfect = &dists[1];

    assert!(perfect.breaks <= heuristic.breaks);
    assert!(perfect.ipbc_average() >= heuristic.ipbc_average());
    assert_eq!(perfect.total_instructions, heuristic.total_instructions);
    // The skew: short sequences are a much larger share of breaks than of
    // instructions, so the dividing length exceeds the IPBC average.
    assert!(
        perfect.dividing_length() as f64 > perfect.ipbc_average(),
        "dividing {} vs ipbc {:.0}",
        perfect.dividing_length(),
        perfect.ipbc_average()
    );
}

/// Section 7: the heuristic predictor is stable across datasets (same
/// predictions; miss rates move together with the perfect predictor's).
#[test]
fn predictions_are_dataset_independent() {
    let l = load("compress");
    let cp = CombinedPredictor::new(&l.program, &l.classifier, HeuristicKind::paper_order());
    let preds = cp.predictions();
    for (i, _) in l.bench.datasets().iter().enumerate() {
        let (profile, _) = l.bench.profile(&l.program, i).unwrap();
        let r = evaluate(&preds, &profile, &l.classifier);
        assert!(
            r.all.miss_rate() < 0.6,
            "dataset {i}: miss {:.2}",
            r.all.miss_rate()
        );
    }
}

/// The ordering data of a small, tie-rich Section 5 study: three
/// benchmarks make many of the 5040 orders score identically.
fn small_study_benches() -> Vec<BenchOrderData> {
    ["xlisp", "compress", "espresso"]
        .iter()
        .map(|name| {
            let l = load(name);
            let table = HeuristicTable::build(&l.program, &l.classifier);
            BenchOrderData::build(*name, &table, &l.profile, &l.classifier, DEFAULT_SEED)
        })
        .collect()
}

/// Section 5: the paper's published order is competitive — within a few
/// points of the best of all 5040 orders on a subset of benchmarks.
#[test]
fn paper_order_is_competitive() {
    let benches = small_study_benches();
    let paper: Vec<f64> = benches
        .iter()
        .map(|b| b.miss_rate(&HeuristicKind::paper_order()))
        .collect();
    let paper_avg = paper.iter().sum::<f64>() / paper.len() as f64;
    let study = OrderingStudy::new_serial(benches);
    let (_, best) = study.best_order();
    assert!(
        paper_avg <= best + 0.12,
        "paper order {paper_avg:.3} vs best {best:.3}"
    );
}

/// The naive seeded loop `OrderingStudy::subset_experiment_sampled`
/// must match: per sample, shuffle the benchmark indices and take the
/// first `k`, then scan all 5040 orders for the first strict minimum of
/// `iter().sum()`. Returns (order index, trials)
/// sorted by trials descending, stable over ascending index.
fn serial_sampled_winners(
    rates: &[Vec<f64>],
    k: usize,
    n_samples: u64,
    seed: u64,
) -> Vec<(usize, u64)> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..rates[0].len()).collect();
    let mut wins = vec![0u64; rates.len()];
    for _ in 0..n_samples {
        indices.shuffle(&mut rng);
        let mut best = 0usize;
        let mut best_rate = f64::INFINITY;
        for (o, row) in rates.iter().enumerate() {
            let sum: f64 = indices[..k].iter().map(|&b| row[b]).sum();
            if sum < best_rate {
                best_rate = sum;
                best = o;
            }
        }
        wins[best] += 1;
    }
    let mut out: Vec<(usize, u64)> = wins
        .into_iter()
        .enumerate()
        .filter(|&(_, w)| w > 0)
        .collect();
    out.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    out
}

/// Table 4's sampling check: the sampled sweep over the creditable
/// orders only returns row for row what the serial seeded
/// loop over all 5040 rows returns on a real matrix, and equal-trial
/// winners list in ascending order index (two one-benchmark samples win
/// one trial each). The matrix prunes to a few orders, so the oracle
/// checks a real prune, not a full scan.
#[test]
fn sampled_subset_study_matches_the_serial_loop() {
    let study = OrderingStudy::new_serial(small_study_benches());
    let kept = creditable_orders(study.rates()).len();
    assert!(kept < study.orders().len(), "{kept} orders kept: no prune");
    let index_of = |order: &[String]| {
        study
            .orders()
            .iter()
            .position(|o| {
                o.iter()
                    .map(|h| h.label())
                    .eq(order.iter().map(String::as_str))
            })
            .expect("a winner is one of the 5040 orders")
    };
    let mut tied_pairs = 0;
    for (k, n_samples, seed) in [(2, 500, 7), (1, 2, 7)] {
        let want = serial_sampled_winners(study.rates(), k, n_samples, seed);
        let got = study.subset_experiment_sampled(k, n_samples, seed);
        assert_eq!(got.len(), want.len(), "k={k} samples={n_samples}");
        for (row, &(o, w)) in got.iter().zip(&want) {
            assert_eq!(index_of(&row.order), o, "k={k} samples={n_samples}");
            assert_eq!(row.trials, w);
            assert_eq!(
                row.trial_fraction.to_bits(),
                (w as f64 / n_samples as f64).to_bits()
            );
        }
        for pair in got.windows(2).filter(|p| p[0].trials == p[1].trials) {
            assert!(index_of(&pair[0].order) < index_of(&pair[1].order));
            tied_pairs += 1;
        }
    }
    assert!(tied_pairs > 0, "no equal-trial rows were checked");
}

/// All branches of every classified program are scored: evaluate() sees
/// no branch it cannot classify.
#[test]
fn classification_is_total_on_executed_branches() {
    for name in ["rn", "poly", "costScale"] {
        let l = load(name);
        for (branch, _) in l.profile.iter() {
            // class() panics on unknown branches; reaching here means OK.
            let _ = l.classifier.class(branch);
        }
        let loops = l
            .profile
            .iter()
            .filter(|(b, _)| l.classifier.class(*b) == BranchClass::Loop)
            .count();
        assert!(loops > 0, "{name} has no executed loop branches");
    }
}

/// Section 6 (Graph 11): fpppp's huge straight-line FP blocks give it by
/// far the longest instructions-per-branch of the traced benchmarks —
/// the reason its IPBC distribution stretches into the hundreds.
#[test]
fn fpppp_has_the_largest_basic_blocks() {
    let mut per_branch: Vec<(String, f64)> = Vec::new();
    for name in ["fpppp", "gcc", "xlisp", "qpt"] {
        let bench = by_name(name).unwrap();
        let program = bench.compile().unwrap();
        let (profile, run) = bench.profile(&program, 0).unwrap();
        per_branch.push((
            name.to_string(),
            run.instructions as f64 / profile.total_branches().max(1) as f64,
        ));
    }
    let fpppp = per_branch[0].1;
    for (name, v) in &per_branch[1..] {
        assert!(
            fpppp > 2.0 * v,
            "fpppp {fpppp:.1} instrs/branch vs {name} {v:.1}"
        );
    }
}

/// eqntott's non-loop branches concentrate in a handful of "big" sites
/// (each >5% of the dynamic non-loop count — the paper's Table 2 "Big"
/// column reported 2 sites covering 92% for eqntott).
#[test]
fn eqntott_concentrates_in_big_branches() {
    let l = load("eqntott");
    let nl: Vec<u64> = l
        .profile
        .iter()
        .filter(|(b, _)| l.classifier.class(*b) == BranchClass::NonLoop)
        .map(|(_, c)| c.total())
        .collect();
    let total: u64 = nl.iter().sum();
    let big: Vec<u64> = nl.iter().copied().filter(|&c| c * 20 > total).collect();
    let big_sum: u64 = big.iter().sum();
    assert!(big.len() <= 8, "{} big sites", big.len());
    assert!(
        big_sum * 10 >= total * 8,
        "big sites cover {big_sum}/{total}"
    );
}
