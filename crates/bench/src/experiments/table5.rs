//! Regenerates **Table 5**: the heuristics applied in the paper's
//! priority order (Pointer, Call, Opcode, Return, Store, Loop, Guard),
//! with per-heuristic attribution — for each benchmark, what share of
//! dynamic non-loop branches each heuristic ended up predicting (bold in
//! the paper) and its miss/perfect rates on that share. `Default` covers
//! branches no heuristic reached.

use std::io::{self, Write};

use bpfree_core::{evaluate_with_attribution, HeuristicKind};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, mean_std, pct};

pub struct Table5;

impl Experiment for Table5 {
    fn name(&self) -> &'static str {
        "table5"
    }

    fn description(&self) -> &'static str {
        "heuristics in the paper's priority order, with attribution"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 5"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let order = HeuristicKind::paper_order();
        let mut columns: Vec<String> = order.iter().map(|k| k.label().to_string()).collect();
        columns.push("Default".to_string());

        write!(w, "{:<11}", "Program")?;
        for c in &columns {
            write!(w, " {:>14}", c)?;
        }
        writeln!(w)?;
        writeln!(w, "{:-<131}", "")?;

        let mut sums: Vec<Vec<(f64, f64)>> = vec![Vec::new(); columns.len()];

        for d in load_suite_on(engine) {
            let cp = d.combined_predictor();
            let att = evaluate_with_attribution(&cp, &d.profile, &d.classifier);
            write!(w, "{:<11}", d.bench.name)?;
            for (ci, c) in columns.iter().enumerate() {
                match att.by_source.get(c) {
                    Some(s) if s.coverage() >= 0.01 => {
                        write!(
                            w,
                            " {:>4} {:>9}",
                            pct(s.coverage()),
                            format!("{}/{}", pct(s.miss_rate()), pct(s.perfect_rate()))
                        )?;
                        sums[ci].push((s.miss_rate(), s.perfect_rate()));
                    }
                    _ => write!(w, " {:>14}", "")?,
                }
            }
            writeln!(w)?;
        }

        writeln!(w, "{:-<131}", "")?;
        write!(w, "{:<11}", "MEAN")?;
        for col in &sums {
            let (mm, _) = mean_std(&col.iter().map(|x| x.0).collect::<Vec<_>>());
            let (pm, _) = mean_std(&col.iter().map(|x| x.1).collect::<Vec<_>>());
            write!(w, " {:>14}", format!("{}/{}", pct(mm), pct(pm)))?;
        }
        writeln!(w)?;
        write!(w, "{:<11}", "Std.Dev")?;
        for col in &sums {
            let (_, ms) = mean_std(&col.iter().map(|x| x.0).collect::<Vec<_>>());
            write!(w, " {:>14}", pct(ms))?;
        }
        writeln!(w)?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Table 5) means: Point 41/10, Call 21/5, Opcode 20/5, Return 28/6,"
        )?;
        writeln!(w, "Store 36/7, Loop 35/5, Guard 33/12, Default 45/11.")?;
        Ok(())
    }
}
