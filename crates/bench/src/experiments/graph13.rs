//! Regenerates **Graph 13**: miss rates across datasets.
//!
//! The heuristic predictor makes the SAME predictions regardless of
//! dataset; the perfect predictor re-derives its predictions per dataset.
//! For every benchmark and every dataset, print both miss rates (all
//! branches) — the paper's check that program-based prediction is stable
//! across inputs.

use std::io::{self, Write};

use bpfree_core::{evaluate, perfect_predictions};
use bpfree_engine::Engine;
use bpfree_lang::Options;

use crate::registry::{Experiment, Needs};
use crate::{load_suite_on, pct};

pub struct Graph13;

impl Experiment for Graph13 {
    fn name(&self) -> &'static str {
        "graph13"
    }

    fn description(&self) -> &'static str {
        "miss rates across datasets: heuristic vs. re-derived perfect"
    }

    fn paper_ref(&self) -> &'static str {
        "Graph 13"
    }

    fn needs(&self) -> Needs {
        Needs {
            runs: vec![(Options::default(), usize::MAX)],
            ordering: false,
        }
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:<6} {:>10} {:>9}",
            "Program", "data", "Heuristic", "Perfect"
        )?;
        writeln!(w, "{:-<40}", "")?;
        let mut max_spread: f64 = 0.0;
        let mut spread_bench = String::new();
        for d in load_suite_on(engine) {
            let cp = d.combined_predictor();
            let heuristic = cp.predictions();
            let mut rates = Vec::new();
            for (i, ds) in d.datasets(engine).iter().enumerate() {
                let (profile, _) = if i == 0 {
                    (d.profile.clone(), d.run)
                } else {
                    d.profile_dataset(engine, i)
                };
                let perfect = perfect_predictions(&d.program, &profile);
                let rh = evaluate(&heuristic, &profile, &d.classifier);
                let rp = evaluate(&perfect, &profile, &d.classifier);
                writeln!(
                    w,
                    "{:<11} {:<6} {:>10} {:>9}",
                    if i == 0 { d.bench.name } else { "" },
                    ds.name,
                    pct(rh.all.miss_rate()),
                    pct(rp.all.miss_rate())
                )?;
                rates.push(rh.all.miss_rate());
            }
            let spread = rates.iter().cloned().fold(0.0f64, f64::max)
                - rates.iter().cloned().fold(1.0f64, f64::min);
            if spread > max_spread {
                max_spread = spread;
                spread_bench = d.bench.name.to_string();
            }
        }
        writeln!(w)?;
        writeln!(
            w,
            "largest heuristic spread across datasets: {:.1} points ({})",
            100.0 * max_spread,
            spread_bench
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Graph 13): for most benchmarks the heuristic's miss rate varies"
        )?;
        writeln!(
            w,
            "little across datasets, and where it moves, the perfect predictor's"
        )?;
        writeln!(w, "rate usually moves with it.")?;
        Ok(())
    }
}
