//! Regenerates **Table 3**: each heuristic applied in isolation to the
//! non-loop branches.
//!
//! Per benchmark and heuristic: coverage (% of dynamic non-loop branches
//! the heuristic applies to, the paper's bold number) and the miss/perfect
//! pair on the covered subset. Entries under 1% coverage print blank and
//! are excluded from the means, exactly like the paper.

use std::io::{self, Write};

use bpfree_core::{evaluate_coverage, HeuristicKind, Predictions};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, mean_std, pct};

pub struct Table3;

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn description(&self) -> &'static str {
        "each heuristic applied in isolation to the non-loop branches"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 3"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let suite = load_suite_on(engine);
        write!(w, "{:<11} {:>4}", "Program", "NL")?;
        for k in HeuristicKind::ALL {
            write!(w, " {:>14}", k.label())?;
        }
        writeln!(w)?;
        writeln!(w, "{:-<125}", "")?;

        let mut per_heuristic: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); 7];

        for d in &suite {
            let total: u64 = d.profile.iter().map(|(_, c)| c.total()).sum();
            let nl: u64 = d
                .profile
                .iter()
                .filter(|(b, _)| d.classifier.class(*b) == bpfree_core::BranchClass::NonLoop)
                .map(|(_, c)| c.total())
                .sum();
            write!(
                w,
                "{:<11} {:>4}",
                d.bench.name,
                if total == 0 {
                    "0".into()
                } else {
                    pct(nl as f64 / total as f64)
                }
            )?;
            for k in HeuristicKind::ALL {
                // Isolate the heuristic: prediction set = its predictions only.
                let preds: Predictions = d
                    .table
                    .branches()
                    .filter_map(|b| d.table.prediction(b, k).map(|dir| (b, dir)))
                    .collect();
                let cov = evaluate_coverage(&preds, &d.profile, &d.classifier);
                if cov.coverage() < 0.01 {
                    write!(w, " {:>14}", "")?;
                    continue;
                }
                write!(
                    w,
                    " {:>4} {:>9}",
                    pct(cov.coverage()),
                    format!("{}/{}", pct(cov.miss_rate()), pct(cov.perfect_rate()))
                )?;
                per_heuristic[k.index()].push((
                    cov.coverage(),
                    cov.miss_rate(),
                    cov.perfect_rate(),
                ));
            }
            writeln!(w)?;
        }

        writeln!(w, "{:-<125}", "")?;
        write!(w, "{:<16}", "MEAN")?;
        for k in HeuristicKind::ALL {
            let rows = &per_heuristic[k.index()];
            let (miss_m, _) = mean_std(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
            let (perf_m, _) = mean_std(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
            write!(w, " {:>14}", format!("{}/{}", pct(miss_m), pct(perf_m)))?;
        }
        writeln!(w)?;
        write!(w, "{:<16}", "Std.Dev")?;
        for k in HeuristicKind::ALL {
            let rows = &per_heuristic[k.index()];
            let (_, miss_s) = mean_std(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
            write!(w, " {:>14}", pct(miss_s))?;
        }
        writeln!(w)?;
        write!(w, "{:<16}", "Mean cover")?;
        for k in HeuristicKind::ALL {
            let rows = &per_heuristic[k.index()];
            let (cov_m, _) = mean_std(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
            write!(w, " {:>14}", pct(cov_m))?;
        }
        writeln!(w)?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Table 3) means: Opcode 16/4, Loop 25/4, Call 22/6, Return 28/4,"
        )?;
        writeln!(w, "Guard 38/8, Store 45/8, Point 41/10.")?;
        Ok(())
    }
}
