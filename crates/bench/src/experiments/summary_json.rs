//! Emits the reproduction's key metrics as JSON on stdout — the
//! machine-readable companion to EXPERIMENTS.md (captured into
//! `results/summary_json.txt`).

use std::io::{self, Write};

use bpfree_core::{
    evaluate, loop_rand_predictions, perfect_predictions, random_predictions, taken_predictions,
    ClassStats, Report, DEFAULT_SEED,
};
use bpfree_engine::Engine;

use crate::json::Json;
use crate::load_suite_on;
use crate::registry::Experiment;

fn class_stats(s: &ClassStats) -> Json {
    Json::obj()
        .field("dynamic", s.dynamic)
        .field("misses", s.misses)
        .field("perfect_misses", s.perfect_misses)
        .build()
}

fn report(r: &Report) -> Json {
    Json::obj()
        .field("loop_branches", class_stats(&r.loop_branches))
        .field("nonloop", class_stats(&r.nonloop))
        .field("all", class_stats(&r.all))
        .build()
}

pub struct SummaryJson;

impl Experiment for SummaryJson {
    fn name(&self) -> &'static str {
        "summary_json"
    }

    fn description(&self) -> &'static str {
        "key reproduction metrics as machine-readable JSON"
    }

    fn paper_ref(&self) -> &'static str {
        "summary"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let mut benchmarks = Vec::new();
        let mut sum_heuristic = 0.0;
        let mut sum_perfect = 0.0;
        let mut sum_random_nonloop = 0.0;
        let suite = load_suite_on(engine);
        let n = suite.len() as f64;
        for d in suite {
            let cp = d.combined_predictor();
            let heuristic = evaluate(cp.as_predictions(), &d.profile, &d.classifier);
            let perfect = evaluate(
                &perfect_predictions(&d.program, &d.profile),
                &d.profile,
                &d.classifier,
            );
            let taken = evaluate(&taken_predictions(&d.program), &d.profile, &d.classifier);
            let random = evaluate(
                &random_predictions(&d.program, DEFAULT_SEED),
                &d.profile,
                &d.classifier,
            );
            let loop_rand = evaluate(
                &loop_rand_predictions(&d.program, &d.classifier, DEFAULT_SEED),
                &d.profile,
                &d.classifier,
            );
            sum_heuristic += heuristic.all.miss_rate();
            sum_perfect += perfect.all.miss_rate();
            sum_random_nonloop += random.nonloop.miss_rate();
            benchmarks.push(
                Json::obj()
                    .field("name", d.bench.name)
                    .field("lang", d.bench.lang.to_string())
                    .field("spec", d.bench.spec)
                    .field("static_instructions", d.program.static_size())
                    .field("dynamic_instructions", d.run.instructions)
                    .field("dynamic_branches", d.profile.total_branches())
                    .field("nonloop_fraction", heuristic.nonloop_fraction())
                    .field("heuristic", report(&heuristic))
                    .field("perfect", report(&perfect))
                    .field("taken", report(&taken))
                    .field("random", report(&random))
                    .field("loop_rand", report(&loop_rand))
                    .build(),
            );
        }
        let summary = Json::obj()
            .field(
                "paper",
                "Ball & Larus, Branch Prediction for Free, PLDI 1993",
            )
            .field("benchmarks", benchmarks)
            .field("mean_heuristic_all_miss", sum_heuristic / n)
            .field("mean_perfect_all_miss", sum_perfect / n)
            .field("mean_random_nonloop_miss", sum_random_nonloop / n)
            .build();
        writeln!(w, "{}", summary.pretty())?;
        Ok(())
    }
}
