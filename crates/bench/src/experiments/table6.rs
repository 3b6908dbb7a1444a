//! Regenerates **Table 6**: the final results.
//!
//! Per benchmark: coverage and miss rates of the heuristics (excluding
//! Default) on non-loop branches, `+Default` adding random predictions
//! for uncovered branches, `All` adding loop branches under the loop
//! predictor, and `Loop+Rand` (loop prediction + random non-loop) for
//! comparison.

use std::io::{self, Write};

use bpfree_core::{evaluate, evaluate_with_attribution, loop_rand_predictions, DEFAULT_SEED};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, pct};

pub struct Table6;

impl Experiment for Table6 {
    fn name(&self) -> &'static str {
        "table6"
    }

    fn description(&self) -> &'static str {
        "the final results: combined predictor vs. baselines"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 6"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:>16} {:>9} {:>9} {:>10}",
            "Program", "Heuristics", "+Default", "All", "Loop+Rand"
        )?;
        writeln!(w, "{:-<60}", "")?;

        for d in load_suite_on(engine) {
            let cp = d.combined_predictor();
            let att = evaluate_with_attribution(&cp, &d.profile, &d.classifier);

            // Heuristics-only stats (the non-Default sources), aggregated
            // by the attribution report itself.
            let h = &att.heuristics;

            let lr = loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED);
            let r_lr = evaluate(&lr, &d.profile, &d.classifier);

            writeln!(
                w,
                "{:<11} {:>4} {:>11} {:>9} {:>9} {:>10}",
                d.bench.name,
                pct(h.coverage()),
                format!("{}/{}", pct(h.miss_rate()), pct(h.perfect_rate())),
                format!(
                    "{}/{}",
                    pct(att.report.nonloop.miss_rate()),
                    pct(att.report.nonloop.perfect_rate())
                ),
                format!(
                    "{}/{}",
                    pct(att.report.all.miss_rate()),
                    pct(att.report.all.perfect_rate())
                ),
                format!(
                    "{}/{}",
                    pct(r_lr.all.miss_rate()),
                    pct(r_lr.all.perfect_rate())
                ),
            )?;
        }
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Table 6): heuristics cover most non-loop branches; the combined"
        )?;
        writeln!(
            w,
            "predictor averages ~26% misses on non-loop branches and ~20% on all"
        )?;
        writeln!(w, "branches, vs ~10% for the perfect static predictor.")?;
        Ok(())
    }
}
