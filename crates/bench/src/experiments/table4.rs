//! Regenerates **Table 4** and **Graphs 2–3**: the C(22,11) subset
//! experiment.
//!
//! For every 11-benchmark subset of the 22 benchmarks (matrix300
//! excluded), find the heuristic order minimising the subset's average
//! non-loop miss rate; report the most common winners, the share of
//! trials each accounts for (Table 4 / Graph 2), and each winner's
//! overall mean miss rate (Graph 3).

use std::io::{self, Write};

use bpfree_engine::Engine;
use bpfree_lang::Options;
use bpfree_suite::Benchmark;

use crate::registry::{Experiment, Needs};
use crate::{ordering_roster, pct};

pub struct Table4;

impl Experiment for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn description(&self) -> &'static str {
        "the C(22,11) subset experiment: most common winning orders"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 4, Graphs 2-3"
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
        let n = refs.len();
        let k = n / 2;
        eprintln!("building 5040 x {n} rate matrix...");
        let study = engine.ordering_study(&refs, Options::default());
        eprintln!(
            "pareto front: {} of 5040 orders; enumerating C({n},{k}) subsets...",
            study.pareto_front().len()
        );
        let (winners, _) = study.paper_subset_experiment();
        let total_trials: u64 = winners.iter().map(|w| w.trials).sum();

        writeln!(
            w,
            "# Table 4: the most common winning orders over {total_trials} trials"
        )?;
        writeln!(w, "{:>7} {:>6} {:<60}", "%Trials", "Miss%", "Order")?;
        for win in winners.iter().take(10) {
            writeln!(
                w,
                "{:>7} {:>6} {:<60}",
                format!("{:.2}", 100.0 * win.trial_fraction),
                pct(win.mean_miss_rate),
                win.order.join(" ")
            )?;
        }

        writeln!(w)?;
        writeln!(
            w,
            "# Graph 2: cumulative trial share of the most common orders"
        )?;
        let mut cum = 0.0;
        for (i, win) in winners.iter().enumerate().take(101) {
            cum += win.trial_fraction;
            if i % 5 == 0 || i == winners.len() - 1 {
                writeln!(w, "{:>4} {:>7.1}", i + 1, 100.0 * cum)?;
            }
        }

        writeln!(w)?;
        writeln!(
            w,
            "# Graph 3: overall mean miss rate of the most common orders"
        )?;
        for (i, win) in winners.iter().enumerate().take(101) {
            if i % 5 == 0 {
                writeln!(w, "{:>4} {:>6}", i + 1, pct(win.mean_miss_rate))?;
            }
        }
        writeln!(w)?;
        writeln!(w, "distinct winning orders: {}", winners.len())?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper: 622 of 5040 orders appeared; the top 40 covered ~90% of trials;"
        )?;
        writeln!(
            w,
            "most common orders averaged under 27% misses; the third most frequent"
        )?;
        writeln!(w, "order was also the global optimum.")?;
        Ok(())
    }
}
