//! The Fisher & Freudenberger premise (ASPLOS 1992), which the paper
//! builds on: *"most branches take one direction with high probability
//! and the highly probable direction is the same across different program
//! executions."*
//!
//! For every benchmark with ≥2 datasets: train the perfect static
//! predictor on dataset A, test it on dataset B, and report (a) the
//! fraction of dynamic branches in B whose site kept the same majority
//! direction as in A (weighted agreement), and (b) the cross-trained
//! predictor's miss rate vs B's own perfect bound.

use std::io::{self, Write};

use bpfree_core::{evaluate, perfect_predictions, Direction};
use bpfree_engine::Engine;
use bpfree_lang::Options;

use crate::registry::{Experiment, Needs};
use crate::{load_suite_on, mean_std, pct};

pub struct FfStability;

impl Experiment for FfStability {
    fn name(&self) -> &'static str {
        "ff_stability"
    }

    fn description(&self) -> &'static str {
        "cross-dataset stability of the preferred branch direction"
    }

    fn paper_ref(&self) -> &'static str {
        "§1 (Fisher & Freudenberger premise)"
    }

    fn needs(&self) -> Needs {
        Needs {
            runs: vec![(Options::default(), 2)],
            ordering: false,
        }
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:>10} {:>12} {:>10}",
            "Program", "agree%", "crossmiss%", "perfect%"
        )?;
        writeln!(w, "{:-<46}", "")?;
        let mut agrees = Vec::new();
        let mut cross = Vec::new();
        let mut perf = Vec::new();
        for d in load_suite_on(engine) {
            if d.datasets(engine).len() < 2 {
                continue;
            }
            let (profile_b, _) = d.profile_dataset(engine, 1);
            let trained_on_a = perfect_predictions(&d.program, &d.profile);
            let perfect_on_b = perfect_predictions(&d.program, &profile_b);

            // Weighted agreement: dynamic branches in B whose site's majority
            // direction matched A's majority.
            let mut agree_dyn = 0u64;
            let mut total_dyn = 0u64;
            for (b, counts) in profile_b.iter() {
                total_dyn += counts.total();
                let dir_a = trained_on_a.get(b).unwrap_or(Direction::Taken);
                let dir_b = if counts.taken_majority() {
                    Direction::Taken
                } else {
                    Direction::FallThru
                };
                if dir_a == dir_b {
                    agree_dyn += counts.total();
                }
            }
            let agreement = agree_dyn as f64 / total_dyn.max(1) as f64;

            let r_cross = evaluate(&trained_on_a, &profile_b, &d.classifier);
            let r_perf = evaluate(&perfect_on_b, &profile_b, &d.classifier);
            writeln!(
                w,
                "{:<11} {:>10} {:>12} {:>10}",
                d.bench.name,
                pct(agreement),
                pct(r_cross.all.miss_rate()),
                pct(r_perf.all.miss_rate()),
            )?;
            agrees.push(agreement);
            cross.push(r_cross.all.miss_rate());
            perf.push(r_perf.all.miss_rate());
        }
        let (am, _) = mean_std(&agrees);
        let (cm, _) = mean_std(&cross);
        let (pm, _) = mean_std(&perf);
        writeln!(w, "{:-<46}", "")?;
        writeln!(
            w,
            "{:<11} {:>10} {:>12} {:>10}",
            "MEAN",
            pct(am),
            pct(cm),
            pct(pm)
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "Fisher & Freudenberger found profiles transfer well between runs; the"
        )?;
        writeln!(
            w,
            "agreement column is the fraction of dynamic branches whose preferred"
        )?;
        writeln!(
            w,
            "direction is stable across datasets (they reported ~high-90s%)."
        )?;
        Ok(())
    }
}
