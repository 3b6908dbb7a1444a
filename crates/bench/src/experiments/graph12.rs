//! Regenerates **Graph 12**: the analytic model `f(m, s) = 1 - (1-m)^s`
//! for miss rates m = 0.025 .. 0.30 in steps of 0.025 — the cumulative
//! fraction of executed instructions in sequences of length ≤ s under
//! unit-length blocks and independent branches.

use std::io::{self, Write};

use bpfree_core::model::{dividing_length, graph12_curves};
use bpfree_engine::Engine;

use crate::registry::{Experiment, Needs};

pub struct Graph12;

impl Experiment for Graph12 {
    fn name(&self) -> &'static str {
        "graph12"
    }

    fn description(&self) -> &'static str {
        "the analytic model f(m, s) = 1 - (1-m)^s"
    }

    fn paper_ref(&self) -> &'static str {
        "Graph 12"
    }

    fn needs(&self) -> Needs {
        Needs::NONE
    }

    fn run(&self, _engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let curves = graph12_curves(200, 10);
        write!(w, "{:>6}", "len")?;
        for c in &curves {
            write!(w, " {:>6.3}", c.miss_rate)?;
        }
        writeln!(w)?;
        let n_points = curves[0].points.len();
        for i in 0..n_points {
            write!(w, "{:>6}", curves[0].points[i].0)?;
            for c in &curves {
                write!(w, " {:>6.1}", 100.0 * c.points[i].1)?;
            }
            writeln!(w)?;
        }
        writeln!(w)?;
        writeln!(w, "model dividing lengths (50% of instructions):")?;
        for c in &curves {
            writeln!(
                w,
                "  m = {:>5.3}  ->  {}",
                c.miss_rate,
                dividing_length(c.miss_rate)
            )?;
        }
        writeln!(w)?;
        writeln!(
            w,
            "Paper's reading: the payoff in sequence length comes from pushing the"
        )?;
        writeln!(w, "miss rate below ~15%, not from 30% -> 15%.")?;
        Ok(())
    }
}
