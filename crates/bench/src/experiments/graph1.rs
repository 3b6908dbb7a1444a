//! Regenerates **Graph 1**: the average non-loop miss rate of every one
//! of the 7! = 5040 heuristic orderings, sorted ascending — showing how
//! much (and how little) the priority order matters. The paper excludes
//! matrix300; so do we.

use std::io::{self, Write};

use bpfree_engine::Engine;
use bpfree_lang::Options;
use bpfree_suite::Benchmark;

use crate::registry::{Experiment, Needs};
use crate::{ordering_roster, pct};

pub struct Graph1;

impl Experiment for Graph1 {
    fn name(&self) -> &'static str {
        "graph1"
    }

    fn description(&self) -> &'static str {
        "average non-loop miss rate of all 5040 heuristic orderings"
    }

    fn paper_ref(&self) -> &'static str {
        "Graph 1"
    }

    fn needs(&self) -> Needs {
        Needs {
            ordering: true,
            ..Needs::NONE
        }
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let roster = ordering_roster();
        let refs: Vec<&Benchmark> = roster.iter().collect();
        eprintln!("evaluating 5040 orders over {} benchmarks...", refs.len());
        let study = engine.ordering_study(&refs, Options::default());
        let rates = study.sorted_average_rates();

        writeln!(w, "# Graph 1: order rank vs average non-loop miss rate (%)")?;
        writeln!(w, "# rank miss%")?;
        for (i, r) in rates.iter().enumerate() {
            if i % 50 == 0 || i == rates.len() - 1 {
                writeln!(w, "{:>5} {:>6}", i, pct(*r))?;
            }
        }
        let (best_order, best_rate) = study.best_order();
        writeln!(w)?;
        writeln!(
            w,
            "best order: {:?} at {}%",
            best_order.iter().map(|k| k.label()).collect::<Vec<_>>(),
            pct(best_rate)
        )?;
        writeln!(
            w,
            "worst rate: {}%",
            pct(*rates.last().expect("5040 orders"))
        )?;
        writeln!(
            w,
            "spread: {:.1} points",
            100.0 * (rates.last().unwrap() - rates[0])
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Graph 1): rates from ~25.5% to ~29%, a broad flat region in the"
        )?;
        writeln!(
            w,
            "middle — ordering matters, but many orders are near-optimal."
        )?;
        Ok(())
    }
}
