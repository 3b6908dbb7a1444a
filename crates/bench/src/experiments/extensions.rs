//! The paper's open question (Section 4.4): how do multi-block
//! generalisations of the heuristics affect coverage and performance?
//!
//! For each generalisable heuristic, compare the base (one-block)
//! version against the deep version at several depth bounds, on the
//! whole suite: dynamic non-loop coverage and miss rate on the covered
//! subset.

use std::io::{self, Write};

use bpfree_core::heuristics::BranchContext;
use bpfree_core::{evaluate_coverage, BranchClass, ExtKind, HeuristicKind, Predictions};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, pct};

pub struct Extensions;

impl Experiment for Extensions {
    fn name(&self) -> &'static str {
        "extensions"
    }

    fn description(&self) -> &'static str {
        "multi-block generalisations of the heuristics"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.4"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let suite = load_suite_on(engine);
        let pairs = [
            (HeuristicKind::Guard, ExtKind::GuardDeep),
            (HeuristicKind::Call, ExtKind::CallDeep),
            (HeuristicKind::Return, ExtKind::ReturnDeep),
            (HeuristicKind::Store, ExtKind::StoreDeep),
        ];
        let depths = [1usize, 4, 16];

        writeln!(
            w,
            "{:<9} {:>16} {:>16} {:>16} {:>16}",
            "", "base", "deep(1)", "deep(4)", "deep(16)"
        )?;
        writeln!(
            w,
            "{:<9} {:>16} {:>16} {:>16} {:>16}",
            "", "cov% miss%", "cov% miss%", "cov% miss%", "cov% miss%"
        )?;
        writeln!(w, "{:-<80}", "")?;

        for (base, deep) in pairs {
            // Aggregate over the whole suite, dynamic-weighted.
            let mut cells: Vec<(u64, u64, u64)> = vec![(0, 0, 0); depths.len() + 1];
            for d in &suite {
                // Base heuristic.
                let preds: Predictions = d
                    .table
                    .branches()
                    .filter_map(|b| d.table.prediction(b, base).map(|dir| (b, dir)))
                    .collect();
                let cov = evaluate_coverage(&preds, &d.profile, &d.classifier);
                cells[0].0 += cov.covered;
                cells[0].1 += cov.misses;
                cells[0].2 += cov.total_nonloop;
                // Deep versions.
                for (i, &depth) in depths.iter().enumerate() {
                    let preds: Predictions = d
                        .program
                        .branches()
                        .into_iter()
                        .filter(|b| d.classifier.class(*b) == BranchClass::NonLoop)
                        .filter_map(|b| {
                            let ctx = BranchContext::new(
                                &d.program,
                                d.classifier.analysis(&d.program, b.func),
                                b,
                            );
                            deep.predict(&ctx, depth).map(|dir| (b, dir))
                        })
                        .collect();
                    let cov = evaluate_coverage(&preds, &d.profile, &d.classifier);
                    cells[i + 1].0 += cov.covered;
                    cells[i + 1].1 += cov.misses;
                    cells[i + 1].2 += cov.total_nonloop;
                }
            }
            write!(w, "{:<9}", deep.label())?;
            for (covered, misses, total) in cells {
                let covp = if total == 0 {
                    0.0
                } else {
                    covered as f64 / total as f64
                };
                let missp = if covered == 0 {
                    0.0
                } else {
                    misses as f64 / covered as f64
                };
                write!(w, " {:>7} {:>8}", pct(covp), pct(missp))?;
            }
            writeln!(w)?;
        }
        writeln!(w)?;
        writeln!(
            w,
            "Reading: deeper regions buy coverage; whether the extra branches are"
        )?;
        writeln!(
            w,
            "predicted as well as the local ones answers the paper's question."
        )?;
        Ok(())
    }
}
