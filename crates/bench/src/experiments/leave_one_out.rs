//! Ablation: which heuristic carries the combined predictor?
//!
//! For each heuristic, remove it from the paper's priority order (its
//! branches fall through to later heuristics or the Default) and measure
//! the suite-mean non-loop miss rate delta. Also reports each heuristic
//! alone (plus Default) for the other direction of the question.

use std::io::{self, Write};
use std::sync::Arc;

use bpfree_core::ordering::BenchOrderData;
use bpfree_core::HeuristicKind;
use bpfree_engine::Engine;
use bpfree_lang::Options;

use crate::registry::Experiment;
use crate::{mean_std, pct};

/// Suite-mean non-loop miss rate of a (possibly partial) priority
/// order, scored against the engine's condensed [`BenchOrderData`]
/// groups. The grouped `u64` miss sums are exactly the per-branch sums
/// a [`bpfree_core::CombinedPredictor`] evaluation adds up — same
/// numerator, same denominator, same division — so every rate (and the
/// printed table) is bit-identical to the old rebuild-the-predictor
/// path while touching a few dozen groups instead of every branch.
fn mean_nonloop_rate(suite: &[Arc<BenchOrderData>], order: &[HeuristicKind]) -> f64 {
    let rates: Vec<f64> = suite.iter().map(|d| d.miss_rate(order)).collect();
    mean_std(&rates).0
}

pub struct LeaveOneOut;

impl Experiment for LeaveOneOut {
    fn name(&self) -> &'static str {
        "leave_one_out"
    }

    fn description(&self) -> &'static str {
        "leave-one-out / alone ablation of the seven heuristics"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.2 (heuristic contributions)"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let opt = Options::default();
        let suite: Vec<Arc<BenchOrderData>> = bpfree_suite::all()
            .iter()
            .map(|b| engine.order_data(b, opt))
            .collect();
        let full = HeuristicKind::paper_order();
        let baseline = mean_nonloop_rate(&suite, &full);
        writeln!(
            w,
            "paper order, all seven heuristics: {}% mean non-loop miss",
            pct(baseline)
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "{:<9} {:>12} {:>8} {:>12}",
            "heuristic", "without", "delta", "alone"
        )?;
        writeln!(w, "{:-<44}", "")?;
        for k in HeuristicKind::ALL {
            let without: Vec<HeuristicKind> = full.iter().copied().filter(|x| *x != k).collect();
            let r_without = mean_nonloop_rate(&suite, &without);
            let r_alone = mean_nonloop_rate(&suite, &[k]);
            writeln!(
                w,
                "{:<9} {:>11}% {:>+7.1} {:>11}%",
                k.label(),
                pct(r_without),
                100.0 * (r_without - baseline),
                pct(r_alone),
            )?;
        }
        writeln!(w)?;
        writeln!(
            w,
            "`without` = paper order minus that heuristic (positive delta: removing"
        )?;
        writeln!(
            w,
            "it hurts); `alone` = that heuristic plus random Default only."
        )?;
        Ok(())
    }
}
