//! Extension experiment: program-based *profile estimation* (the
//! direction of Wall's cited study and the later Wu–Larus work).
//!
//! Converts the Ball–Larus predictions into branch probabilities,
//! propagates them to block frequencies, and measures the Spearman rank
//! correlation between estimated and actual branch-block execution
//! counts — "does the static estimator order hot blocks the way the real
//! profile does?" Wall reported his estimators did poorly; heuristic
//! probabilities do considerably better.

use std::io::{self, Write};

use bpfree_core::freq::{estimate_branch_block_frequencies, spearman, Confidence};
use bpfree_core::CombinedPredictor;
use bpfree_engine::Engine;

use crate::load_suite_on;
use crate::registry::Experiment;

pub struct FreqEstimate;

impl Experiment for FreqEstimate {
    fn name(&self) -> &'static str {
        "freq_estimate"
    }

    fn description(&self) -> &'static str {
        "program-based profile estimation vs. real block frequencies"
    }

    fn paper_ref(&self) -> &'static str {
        "§5 (Wall / Wu-Larus direction)"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let suite = load_suite_on(engine);
        // Calibrate confidences once, over the whole suite (leave-in
        // calibration: the point is realistic magnitudes, not generalisation;
        // Wu & Larus likewise reused corpus-measured hit rates).
        let predictors: Vec<CombinedPredictor> =
            suite.iter().map(|d| d.combined_predictor()).collect();
        let calibrated = Confidence::calibrate(
            suite
                .iter()
                .zip(&predictors)
                .map(|(d, cp)| (cp, &*d.profile, &*d.classifier)),
        );
        writeln!(
            w,
            "calibrated confidences: loop {:.2}, heuristic {:.2}",
            calibrated.loop_branch, calibrated.heuristic
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "{:<11} {:>8} {:>10} {:>10} {:>10}",
            "Program", "sites", "rho(pred)", "rho(cal)", "rho(50/50)"
        )?;
        writeln!(w, "{:-<53}", "")?;
        let mut rhos = Vec::new();
        for (d, cp) in suite.iter().zip(&predictors) {
            let est = estimate_branch_block_frequencies(&d.program, cp, Confidence::default());
            let cal = estimate_branch_block_frequencies(&d.program, cp, calibrated);
            // Strawman: all branches 50/50 (structure-only estimation).
            let flat = estimate_branch_block_frequencies(
                &d.program,
                cp,
                Confidence {
                    loop_branch: 0.5,
                    heuristic: 0.5,
                    default: 0.5,
                },
            );
            let mut xs = Vec::new();
            let mut cs = Vec::new();
            let mut ys = Vec::new();
            let mut zs = Vec::new();
            for (b, freq) in est.iter() {
                let counts = d.profile.counts(b);
                if counts.total() == 0 {
                    continue;
                }
                xs.push(freq);
                // All three estimates cover every branch of the program.
                cs.push(cal.get(b).expect("an estimated branch"));
                zs.push(flat.get(b).expect("an estimated branch"));
                ys.push(counts.total() as f64);
            }
            let rho = spearman(&xs, &ys);
            let rho_cal = spearman(&cs, &ys);
            let rho_flat = spearman(&zs, &ys);
            writeln!(
                w,
                "{:<11} {:>8} {:>10.2} {:>10.2} {:>10.2}",
                d.bench.name,
                xs.len(),
                rho,
                rho_cal,
                rho_flat
            )?;
            rhos.push((rho, rho_cal, rho_flat));
        }
        let n = rhos.len() as f64;
        let mean: f64 = rhos.iter().map(|r| r.0).sum::<f64>() / n;
        let mean_cal: f64 = rhos.iter().map(|r| r.1).sum::<f64>() / n;
        let mean_flat: f64 = rhos.iter().map(|r| r.2).sum::<f64>() / n;
        writeln!(w, "{:-<53}", "")?;
        writeln!(
            w,
            "{:<11} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            "MEAN", "", mean, mean_cal, mean_flat
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "rho(pred) uses the paper-derived confidences (loop 0.88 / heuristic"
        )?;
        writeln!(
            w,
            "0.74); rho(cal) recalibrates them on the suite; rho(50/50) is the"
        )?;
        writeln!(
            w,
            "structure-only strawman. Wall (PLDI 1991) reported estimated profiles"
        )?;
        writeln!(
            w,
            "comparing poorly to real ones; heuristic probabilities close much of"
        )?;
        writeln!(w, "that gap.")?;
        Ok(())
    }
}
