//! Regenerates **Graphs 4–11**: trace-based sequence-length analysis.
//!
//! For the trace benchmarks (the paper used gcc, lcc, qpt, xlisp, doduc,
//! fpppp, spice2g6) and three predictors — Perfect, Heuristic, and
//! Loop+Rand — this prints each predictor's overall miss rate, its
//! profile-based IPBC average, its dividing length (the sequence length
//! covering 50% of executed instructions), and the cumulative
//! distribution of sequence lengths weighted by instructions. For the
//! spice2g6 analogue it also prints the break-weighted distribution
//! (Graph 5), whose skew explains why the IPBC average misleads.

use std::io::{self, Write};

use bpfree_core::ipbc::IpbcAnalyzer;
use bpfree_core::{loop_rand_predictions, perfect_predictions, DEFAULT_SEED};
use bpfree_engine::Engine;
use bpfree_sim::TraceKernel;

use crate::registry::{Experiment, Needs};
use crate::{pct, BenchData};

/// The trace benchmarks, which [`Graphs4To11`] declares as its
/// [`Experiment::traced`] set.
pub const TRACED: [&str; 7] = ["spice2g6", "gcc", "lcc", "qpt", "xlisp", "doduc", "fpppp"];

pub struct Graphs4To11;

impl Experiment for Graphs4To11 {
    fn name(&self) -> &'static str {
        "graphs4_11"
    }

    fn description(&self) -> &'static str {
        "trace-based sequence-length analysis for the trace benchmarks"
    }

    fn paper_ref(&self) -> &'static str {
        "Graphs 4-11"
    }

    fn needs(&self) -> Needs {
        Needs::NONE
    }

    fn traced(&self) -> &'static [&'static str] {
        &TRACED
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        for name in TRACED {
            let bench = bpfree_suite::by_name(name).expect("trace benchmark is in the suite");
            let d = BenchData::load(engine, bench);
            let perfect = perfect_predictions(&d.program, &d.profile);
            let cp = d.combined_predictor();
            let heuristic = cp.predictions();
            let loop_rand = loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED);

            let trace = d.trace(engine);
            let mut analyzer = IpbcAnalyzer::new(&d.program);
            analyzer.add_predictor("Loop+Rand", &loop_rand);
            analyzer.add_predictor("Heuristic", &heuristic);
            analyzer.add_predictor("Perfect", &perfect);
            // The perfect predictor above trained on this run's own edge
            // profile, so the sequence analysis cannot share the live pass.
            // The fused kernel scores the recorded branch trace instead,
            // bit-identical to replaying it and at no interpreter pass.
            analyzer.replay_trace(&trace);
            let dists = analyzer.finish();

            writeln!(w, "== {} ==", d.bench.name)?;
            writeln!(
                w,
                "{:<10} {:>6} {:>8} {:>9}",
                "predictor", "miss%", "ipbc", "dividing"
            )?;
            for dist in &dists {
                writeln!(
                    w,
                    "{:<10} {:>6} {:>8.0} {:>9}",
                    dist.name,
                    pct(dist.miss_rate()),
                    dist.ipbc_average(),
                    dist.dividing_length()
                )?;
            }
            // Instruction-weighted CDF at a few lengths (the graph's y axis).
            write!(w, "{:<10}", "len")?;
            let xs = [10u64, 30, 50, 100, 200, 400, 800, 1600, 3200];
            for x in xs {
                write!(w, " {:>6}", x)?;
            }
            writeln!(w)?;
            for dist in &dists {
                write!(w, "{:<10}", dist.name)?;
                for x in xs {
                    write!(w, " {:>6}", pct(dist.cumulative_instructions_below(x)))?;
                }
                writeln!(w)?;
            }
            if d.bench.name == "spice2g6" {
                writeln!(w, "-- Graph 5 (breaks-weighted CDF for spice2g6) --")?;
                for dist in &dists {
                    write!(w, "{:<10}", dist.name)?;
                    for x in xs {
                        write!(w, " {:>6}", pct(dist.cumulative_breaks_below(x)))?;
                    }
                    writeln!(w)?;
                }
            }
            writeln!(w)?;
        }
        writeln!(
            w,
            "Paper: Perfect < Heuristic < Loop+Rand in miss rate; the heuristic's"
        )?;
        writeln!(
            w,
            "sequence distribution sits between Loop+Rand and Perfect (often closer"
        )?;
        writeln!(
            w,
            "to Loop+Rand: long sequences demand very low miss rates); IPBC averages"
        )?;
        writeln!(
            w,
            "underestimate available sequence lengths because short sequences"
        )?;
        writeln!(w, "dominate the break count.")?;
        Ok(())
    }
}
