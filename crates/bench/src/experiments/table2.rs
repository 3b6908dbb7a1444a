//! Regenerates **Table 2**: dynamic breakdown of loop vs. non-loop
//! branches.
//!
//! Per benchmark: the loop predictor's miss rate vs. perfect on loop
//! branches (`Prd/Prf`), the fraction of dynamic branches that are
//! non-loop (`%All`), always-taken and random prediction vs. perfect on
//! non-loop branches (`Tgt/Prf`, `Rnd/Prf`), and the "Big" columns — how
//! many non-loop branch sites each contribute >5% of dynamic non-loop
//! executions, and what share those sites cover.

use std::io::{self, Write};

use bpfree_core::{
    evaluate, loop_rand_predictions, random_predictions, taken_predictions, BranchClass,
    DEFAULT_SEED,
};
use bpfree_engine::Engine;

use crate::registry::Experiment;
use crate::{load_suite_on, mean_std, pct};

pub struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "dynamic breakdown of loop vs. non-loop branches"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "{:<11} {:>8} {:>6} {:>8} {:>8} {:>5} {:>6}",
            "Program", "Loop", "%All", "Tgt", "Rnd", "Big", "Big%"
        )?;
        writeln!(
            w,
            "{:<11} {:>8} {:>6} {:>8} {:>8} {:>5} {:>6}",
            "", "Prd/Prf", "", "/Prf", "/Prf", "", ""
        )?;

        let mut loop_rates = Vec::new();
        let mut loop_perf = Vec::new();
        let mut nl_fracs = Vec::new();
        let mut tgt_rates = Vec::new();
        let mut rnd_rates = Vec::new();
        let mut nl_perf = Vec::new();

        for d in load_suite_on(engine) {
            let lr = loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED);
            let tgt = taken_predictions(&d.program);
            let rnd = random_predictions(&d.program, DEFAULT_SEED);

            let r_loop = evaluate(&lr, &d.profile, &d.classifier);
            let r_tgt = evaluate(&tgt, &d.profile, &d.classifier);
            let r_rnd = evaluate(&rnd, &d.profile, &d.classifier);

            // "Big" non-loop branch sites: each >5% of dynamic non-loop count.
            let total_nl: u64 = d
                .profile
                .iter()
                .filter(|(b, _)| d.classifier.class(*b) == BranchClass::NonLoop)
                .map(|(_, c)| c.total())
                .sum();
            let mut big_sites = 0u64;
            let mut big_dyn = 0u64;
            for (b, c) in d.profile.iter() {
                if d.classifier.class(b) == BranchClass::NonLoop && c.total() * 20 > total_nl {
                    big_sites += 1;
                    big_dyn += c.total();
                }
            }

            writeln!(
                w,
                "{:<11} {:>8} {:>6} {:>8} {:>8} {:>5} {:>6}",
                d.bench.name,
                format!(
                    "{}/{}",
                    pct(r_loop.loop_branches.miss_rate()),
                    pct(r_loop.loop_branches.perfect_rate())
                ),
                pct(r_loop.nonloop_fraction()),
                format!(
                    "{}/{}",
                    pct(r_tgt.nonloop.miss_rate()),
                    pct(r_tgt.nonloop.perfect_rate())
                ),
                format!(
                    "{}/{}",
                    pct(r_rnd.nonloop.miss_rate()),
                    pct(r_rnd.nonloop.perfect_rate())
                ),
                big_sites,
                if total_nl == 0 {
                    "0".to_string()
                } else {
                    pct(big_dyn as f64 / total_nl as f64)
                },
            )?;

            loop_rates.push(r_loop.loop_branches.miss_rate());
            loop_perf.push(r_loop.loop_branches.perfect_rate());
            nl_fracs.push(r_loop.nonloop_fraction());
            tgt_rates.push(r_tgt.nonloop.miss_rate());
            rnd_rates.push(r_rnd.nonloop.miss_rate());
            nl_perf.push(r_tgt.nonloop.perfect_rate());
        }

        let (lm, ls) = mean_std(&loop_rates);
        let (lpm, _) = mean_std(&loop_perf);
        let (nm, _) = mean_std(&nl_fracs);
        let (tm, ts) = mean_std(&tgt_rates);
        let (rm, rs) = mean_std(&rnd_rates);
        let (pm, _) = mean_std(&nl_perf);
        writeln!(w, "{:-<60}", "")?;
        writeln!(
            w,
            "{:<11} {:>8} {:>6} {:>8} {:>8}",
            "MEAN",
            format!("{}/{}", pct(lm), pct(lpm)),
            pct(nm),
            format!("{}/{}", pct(tm), pct(pm)),
            format!("{}/{}", pct(rm), pct(pm)),
        )?;
        writeln!(
            w,
            "{:<11} {:>8} {:>6} {:>8} {:>8}",
            "Std.Dev",
            pct(ls),
            "",
            pct(ts),
            pct(rs),
        )?;
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Table 2): loop predictor 12/8 mean, %NL mean 43, Tgt 51/10, Rnd 49/10."
        )?;
        Ok(())
    }
}
