//! Ablation: "backward taken, forward not taken" (BTFNT) vs. the paper's
//! natural-loop predictor.
//!
//! The paper motivates natural-loop analysis by noting that many loop
//! branches are *not* backwards branches (40% of dynamic loop branches in
//! xlisp, 45% in doduc). BTFNT is what the hardware-assisted schemes of
//! the era assumed; this experiment shows how much the loop analysis buys
//! on loop branches, benchmark by benchmark.

use std::io::{self, Write};

use bpfree_core::{btfnt_predictions, evaluate, loop_rand_predictions, DEFAULT_SEED};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, mean_std, pct};

pub struct Btfnt;

impl Experiment for Btfnt {
    fn name(&self) -> &'static str {
        "btfnt"
    }

    fn description(&self) -> &'static str {
        "backward-taken/forward-not-taken vs. the natural-loop predictor"
    }

    fn paper_ref(&self) -> &'static str {
        "§2 (loop prediction)"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:>10} {:>10} {:>9}",
            "Program", "BTFNT", "LoopPred", "Perfect"
        )?;
        writeln!(w, "{:-<45}", "")?;
        let mut bt = Vec::new();
        let mut lp = Vec::new();
        for d in load_suite_on(engine) {
            let r_bt = evaluate(&btfnt_predictions(&d.program), &d.profile, &d.classifier);
            let r_lp = evaluate(
                &loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED),
                &d.profile,
                &d.classifier,
            );
            writeln!(
                w,
                "{:<11} {:>10} {:>10} {:>9}",
                d.bench.name,
                pct(r_bt.loop_branches.miss_rate()),
                pct(r_lp.loop_branches.miss_rate()),
                pct(r_lp.loop_branches.perfect_rate()),
            )?;
            bt.push(r_bt.loop_branches.miss_rate());
            lp.push(r_lp.loop_branches.miss_rate());
        }
        let (bm, _) = mean_std(&bt);
        let (lm, _) = mean_std(&lp);
        writeln!(w, "{:-<45}", "")?;
        writeln!(w, "{:<11} {:>10} {:>10}", "MEAN", pct(bm), pct(lm))?;
        writeln!(w)?;
        writeln!(
            w,
            "Natural-loop prediction handles the loop branches that are not"
        )?;
        writeln!(
            w,
            "backwards branches (loop exits and forward continues); BTFNT cannot."
        )?;
        Ok(())
    }
}
