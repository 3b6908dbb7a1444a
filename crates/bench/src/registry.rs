//! The experiment registry: every paper table and figure as a named,
//! runnable value.
//!
//! Each experiment is an [`Experiment`] implementation that declares
//! what it reads and writes its report to a [`Write`]r;
//! [`run_experiments`] executes any subset in ONE process against a
//! shared [`Engine`], so every `(benchmark, Options, dataset)` triple is
//! compiled/simulated/traced at most once for all tables and graphs
//! combined. `bpfree exp run` and `bpfree exp all` are its command-line
//! front end.

use std::io::{self, Write};
use std::time::Instant;

use bpfree_engine::{Engine, Need};
use bpfree_lang::Options;

use crate::experiments;

/// One registered experiment — a table or figure of the paper (or one
/// of our extension studies), reproducible on demand.
///
/// Implementations hold no state; everything they need comes from the
/// [`Engine`] they are handed, and everything they produce goes to the
/// writer. What they read from the engine is declared by
/// [`Experiment::needs`] and [`Experiment::traced`], and the batch
/// runner computes it before [`Experiment::run`] starts. The bytes
/// written are the experiment's contract: they must not depend on
/// `--jobs`, the cache, a mounted image or the interpreter tier.
/// Progress and diagnostics go to stderr, never the writer.
pub trait Experiment: Sync {
    /// The registry name (what `bpfree exp run` takes).
    fn name(&self) -> &'static str;

    /// One-line summary for `bpfree exp list`.
    fn description(&self) -> &'static str;

    /// The paper table/figure this reproduces.
    fn paper_ref(&self) -> &'static str;

    /// The suite runs and the ordering study this experiment reads; by
    /// default, the whole suite at default options on dataset 0.
    fn needs(&self) -> Needs {
        Needs::suite()
    }

    /// Benchmarks whose replayable branch trace (default options,
    /// dataset 0) this experiment reads — the trace half of its
    /// declaration, kept apart from [`Experiment::needs`] because a
    /// trace costs memory and image space a plain run does not. The
    /// trace and the run come from the same interpreter pass.
    fn traced(&self) -> &'static [&'static str] {
        &[]
    }

    /// Regenerates the experiment, writing its report to `w`.
    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()>;
}

/// What an experiment reads from the engine, besides the traces named by
/// [`Experiment::traced`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Needs {
    /// Suite runs as `(options, datasets)`: every benchmark compiled and
    /// analyzed under `options`, and run on its leading `datasets`
    /// datasets (`usize::MAX` for all of them).
    pub runs: Vec<(Options, usize)>,
    /// Whether it reads the study of [`crate::ordering_roster`] at
    /// default options (which reads the roster's dataset-0 runs).
    pub ordering: bool,
}

impl Needs {
    /// Nothing from the engine.
    pub const NONE: Needs = Needs {
        runs: Vec::new(),
        ordering: false,
    };

    /// The whole suite at default options on dataset 0.
    pub fn suite() -> Needs {
        Needs {
            runs: vec![(Options::default(), 1)],
            ordering: false,
        }
    }
}

/// Every registered experiment, in the paper's presentation order
/// (tables, then graphs, then the extension studies).
pub fn all() -> &'static [&'static dyn Experiment] {
    experiments::REGISTRY
}

/// Looks up an experiment by its registry name.
pub fn by_name(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

/// The registered name closest to `name` (case-insensitive Levenshtein
/// distance ≤ 3) — what `bpfree exp run` suggests on a typo.
pub fn suggest(name: &str) -> Option<&'static str> {
    all()
        .iter()
        .map(|e| (edit_distance(name, e.name()), e.name()))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 3)
        .map(|(_, n)| n)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_ascii_lowercase().chars().collect();
    let b: Vec<char> = b.to_ascii_lowercase().chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The engine needs of `exps` together — each one's
/// [`Experiment::needs`] over the suite in registry order, its
/// [`Experiment::traced`] benchmarks, and the ordering roster's study if
/// any reads it — for [`Engine::warm`], which merges them per
/// `(benchmark, Options)`.
pub fn needs(exps: &[&'static dyn Experiment]) -> Vec<Need> {
    let default = Options::default();
    let mut out = Vec::new();
    for exp in exps {
        let Needs { runs, ordering } = exp.needs();
        for bench in bpfree_suite::all() {
            for &(opt, datasets) in &runs {
                out.push(Need::Runs {
                    bench: bench.name,
                    opt,
                    datasets,
                    traced: false,
                });
            }
        }
        for &bench in exp.traced() {
            out.push(Need::Runs {
                bench,
                opt: default,
                datasets: 1,
                traced: true,
            });
        }
        if ordering {
            let roster = crate::ordering_roster().iter().map(|b| b.name).collect();
            out.push(Need::Ordering {
                roster,
                opt: default,
            });
        }
    }
    out
}

/// One experiment's rendered report.
#[derive(Debug)]
pub struct Report {
    /// The bytes [`Experiment::run`] wrote.
    pub bytes: Vec<u8>,
    /// Rendering wall-clock, in milliseconds.
    pub millis: u64,
}

/// Runs `exps` against one shared engine and returns their reports in
/// the order of `exps`. With `progress`, a one-line banner per
/// experiment goes to stderr.
///
/// First [`Engine::warm`] computes the union of their [`needs`] — every
/// interpreter pass, trace and ordering study — so no experiment
/// renders before its inputs exist, and rendering reads only memo hits.
/// Then one [`bpfree_par::par_map_jobs`] renders every experiment into
/// its own buffer. At `--jobs 1` both run serially, in order.
///
/// Determinism: the reports come back in the order of `exps` whatever
/// the schedule, so the output is byte-identical at any `--jobs`. The
/// first failing experiment's error, in that order, is the result.
pub fn run_experiments(
    exps: &[&'static dyn Experiment],
    engine: &Engine,
    progress: bool,
) -> io::Result<Vec<Report>> {
    engine.warm(&needs(exps));
    bpfree_par::par_map_jobs(bpfree_par::jobs(), exps, |exp| {
        if progress {
            eprintln!("[bpfree] running {} ({})", exp.name(), exp.paper_ref());
        }
        let start = Instant::now();
        let mut bytes = Vec::new();
        exp.run(engine, &mut bytes)?;
        Ok(Report {
            bytes,
            millis: start.elapsed().as_millis() as u64,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 19, "one experiment per paper table or figure");
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are unique");
        for n in ["table1", "table7", "graph1", "graphs4_11", "summary_json"] {
            assert!(by_name(n).is_some(), "{n} registered");
        }
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn suggestions_catch_typos() {
        assert_eq!(suggest("tabel1"), Some("table1"));
        assert_eq!(suggest("graph_13"), Some("graph13"));
        assert_eq!(suggest("sumary-json"), Some("summary_json"));
        assert_eq!(suggest("zzzzzzzzzzzz"), None);
    }

    #[test]
    fn metadata_is_filled_in() {
        for e in all() {
            assert!(!e.description().is_empty(), "{}", e.name());
            assert!(!e.paper_ref().is_empty(), "{}", e.name());
        }
    }
}
