//! Ablation: how much do the compiler's `-O` passes matter to the
//! heuristics?
//!
//! The paper analysed `-O`-compiled binaries, and DESIGN.md claims the
//! optimisation idioms (leaf inlining, block straightening, copy
//! propagation) are load-bearing for the heuristics — e.g. the pointer
//! heuristic needs the load and the null test in one block. This
//! experiment compiles every benchmark at three levels and reports the
//! combined predictor's miss rates.

use std::io::{self, Write};

use bpfree_core::{evaluate, CombinedPredictor, HeuristicKind, DEFAULT_SEED};
use bpfree_engine::Engine;
use bpfree_lang::Options;

use crate::registry::{Experiment, Needs};
use crate::{mean_std, pct};

fn run_at(engine: &Engine, bench: &bpfree_suite::Benchmark, options: Options) -> (f64, f64) {
    // Each optimisation level is a distinct engine artifact — the cache
    // keys include the options fingerprint, so -O0 entries can never
    // collide with the -O artifacts the other experiments share.
    let compiled = engine.compiled(bench, options);
    let run = engine.run(bench, options, 0);
    let cp = CombinedPredictor::from_table(
        &compiled.program,
        &compiled.classifier,
        &compiled.table,
        &HeuristicKind::paper_order(),
        DEFAULT_SEED,
    );
    let r = evaluate(&cp.predictions(), &run.profile, &compiled.classifier);
    (r.all.miss_rate(), r.nonloop.miss_rate())
}

pub struct OptAblate;

impl Experiment for OptAblate {
    fn name(&self) -> &'static str {
        "opt_ablate"
    }

    fn description(&self) -> &'static str {
        "heuristic miss rates at -O, no-inline, and -O0"
    }

    fn paper_ref(&self) -> &'static str {
        "§3 (optimised binaries)"
    }

    fn needs(&self) -> Needs {
        Needs {
            runs: vec![
                (Options::default(), 1),
                (Options::no_inline(), 1),
                (Options::o0(), 1),
            ],
            ordering: false,
        }
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:>9} {:>11} {:>7}   (all-branch miss%)",
            "Program", "-O (dflt)", "no-inline", "-O0"
        )?;
        writeln!(w, "{:-<48}", "")?;
        let mut opt = Vec::new();
        let mut noinline = Vec::new();
        let mut o0 = Vec::new();
        for b in bpfree_suite::all() {
            let (a, _) = run_at(engine, &b, Options::default());
            let (ni, _) = run_at(engine, &b, Options::no_inline());
            let (raw, _) = run_at(engine, &b, Options::o0());
            writeln!(
                w,
                "{:<11} {:>9} {:>11} {:>7}",
                b.name,
                pct(a),
                pct(ni),
                pct(raw)
            )?;
            opt.push(a);
            noinline.push(ni);
            o0.push(raw);
        }
        let (om, _) = mean_std(&opt);
        let (nm, _) = mean_std(&noinline);
        let (zm, _) = mean_std(&o0);
        writeln!(w, "{:-<48}", "")?;
        writeln!(
            w,
            "{:<11} {:>9} {:>11} {:>7}",
            "MEAN",
            pct(om),
            pct(nm),
            pct(zm)
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "The heuristics were designed for optimised code: -O0's split blocks"
        )?;
        writeln!(
            w,
            "and helper calls hide the load-feeds-branch and store/call patterns."
        )?;
        Ok(())
    }
}
