//! Regenerates **Table 7**: means and standard deviations of the final
//! results (Table 6), for all benchmarks and for "most" — excluding the
//! four programs whose non-loop behaviour a handful of branches dominate
//! (the paper excluded eqntott, grep, tomcatv, matrix300). Target and
//! random non-loop prediction appear for comparison.

use std::io::{self, Write};

use bpfree_core::{
    evaluate, loop_rand_predictions, random_predictions, taken_predictions, DEFAULT_SEED,
};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, mean_std, pct};

const EXCLUDED: [&str; 4] = ["eqntott", "grep", "tomcatv", "matrix300"];

pub struct Table7;

impl Experiment for Table7 {
    fn name(&self) -> &'static str {
        "table7"
    }

    fn description(&self) -> &'static str {
        "means and standard deviations of the final results"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 7"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        struct Row {
            name: String,
            heuristic_nl: f64,
            heuristic_all: f64,
            loop_rand_all: f64,
            tgt_nl: f64,
            rnd_nl: f64,
            perfect_nl: f64,
            perfect_all: f64,
        }

        let mut rows = Vec::new();
        for d in load_suite_on(engine) {
            let cp = d.combined_predictor();
            let r = evaluate(cp.as_predictions(), &d.profile, &d.classifier);
            let lr = evaluate(
                &loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED),
                &d.profile,
                &d.classifier,
            );
            let tgt = evaluate(&taken_predictions(&d.program), &d.profile, &d.classifier);
            let rnd = evaluate(
                &random_predictions(&d.program, DEFAULT_SEED),
                &d.profile,
                &d.classifier,
            );
            rows.push(Row {
                name: d.bench.name.to_string(),
                heuristic_nl: r.nonloop.miss_rate(),
                heuristic_all: r.all.miss_rate(),
                loop_rand_all: lr.all.miss_rate(),
                tgt_nl: tgt.nonloop.miss_rate(),
                rnd_nl: rnd.nonloop.miss_rate(),
                perfect_nl: r.nonloop.perfect_rate(),
                perfect_all: r.all.perfect_rate(),
            });
        }

        for (label, filter) in [
            ("(all)", false),
            ("(most: excl. eqntott/grep/tomcatv/matrix300)", true),
        ] {
            let sel: Vec<&Row> = rows
                .iter()
                .filter(|r| !filter || !EXCLUDED.contains(&r.name.as_str()))
                .collect();
            let stat = |f: fn(&Row) -> f64| mean_std(&sel.iter().map(|r| f(r)).collect::<Vec<_>>());
            let (h_nl, h_nl_s) = stat(|r| r.heuristic_nl);
            let (h_all, h_all_s) = stat(|r| r.heuristic_all);
            let (lr_all, lr_all_s) = stat(|r| r.loop_rand_all);
            let (t_nl, t_nl_s) = stat(|r| r.tgt_nl);
            let (r_nl, r_nl_s) = stat(|r| r.rnd_nl);
            let (p_nl, _) = stat(|r| r.perfect_nl);
            let (p_all, _) = stat(|r| r.perfect_all);

            writeln!(w, "Table 7 {label}: {} benchmarks", sel.len())?;
            writeln!(
                w,
                "  Heuristic non-loop   : {}±{}  (perfect {})",
                pct(h_nl),
                pct(h_nl_s),
                pct(p_nl)
            )?;
            writeln!(
                w,
                "  Heuristic all        : {}±{}  (perfect {})",
                pct(h_all),
                pct(h_all_s),
                pct(p_all)
            )?;
            writeln!(
                w,
                "  Loop+Rand all        : {}±{}",
                pct(lr_all),
                pct(lr_all_s)
            )?;
            writeln!(w, "  Tgt non-loop         : {}±{}", pct(t_nl), pct(t_nl_s))?;
            writeln!(w, "  Rnd non-loop         : {}±{}", pct(r_nl), pct(r_nl_s))?;
            writeln!(w)?;
        }
        writeln!(
            w,
            "Paper (Table 7, all): heuristic non-loop 26%, all 20%; Tgt 51%, Rnd 49%;"
        )?;
        writeln!(w, "perfect non-loop 10%, all 8%.")?;
        Ok(())
    }
}
