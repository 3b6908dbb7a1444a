//! The `programs` workload: `bpfree predict`'s pipeline — compile,
//! analyze and predict, decode, interpret under an edge profiler,
//! evaluate — over every (benchmark, dataset) pair of the suite, in
//! seed order, on one thread. It never touches the engine, the cache,
//! the pool, the ordering study or rendering.
//!
//! Each rep is this binary run again as a child (`benchmark
//! programs-rep SEED`), so its peak RSS is its own: a process started
//! by `cargo run` inherits cargo's high-water mark. The child times its
//! own dataset generation — the workload's set-up — and prints it first.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

use bpfree::core::{evaluate, BranchClassifier, CombinedPredictor, HeuristicKind};
use bpfree::lang::{compile_with, Options};
use bpfree::sim::{BytecodeProgram, EdgeProfiler};
use bpfree::suite::{Benchmark, Dataset};

use crate::calib;
use crate::proc::{run_measured, Exit};
use crate::pure::shuffle;
use crate::tracer::Tracer;
use crate::{ratio, Ctx, Layers, Outcome, Rep, Traced, REP_TIMEOUT};

/// The first argument that makes the benchmark binary run one rep.
pub const CHILD: &str = "programs-rep";

/// What one pair's pipeline produced.
struct Row {
    instructions: u64,
    exit: i64,
    misses: u64,
    ir_instrs: u64,
    branch_sites: u64,
}

/// Rows by (benchmark, dataset) index.
type Rows = BTreeMap<(usize, usize), Row>;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = ctx.tmp.join("stdout.txt");
    // (rep, seconds) of every set-up the reps' children timed.
    let mut setups = Vec::new();
    let reps = ctx.timed_loop(|i| {
        let stdout = File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let mut cmd = Command::new(&exe);
        cmd.arg(CHILD)
            .arg(ctx.seed.to_string())
            .stdin(Stdio::null())
            .stdout(stdout);
        let m = run_measured(&mut cmd, REP_TIMEOUT)
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let printed = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let label = format!("programs-rep{i}");
        let parsed = printed.iter().position(|&b| b == b'\n').and_then(|nl| {
            let setup = std::str::from_utf8(&printed[..nl])
                .ok()?
                .parse::<f64>()
                .ok()?;
            Some((setup, &printed[nl + 1..]))
        });
        let ok = match parsed {
            Some((setup, listing)) if m.exit == Exit::Code(0) => {
                setups.push((i, setup));
                ctx.check("programs", listing, &label)
            }
            _ => {
                eprintln!("benchmark: {label} ended {:?}", m.exit);
                false
            }
        };
        Ok(Rep {
            wall_s: m.wall_s,
            cpu_s: m.cpu_s,
            max_rss_kb: m.max_rss_kb,
            ok,
            kernel_s: 0.0,
        })
    })?;
    let setups = setups
        .into_iter()
        .map(|(i, s)| calib::scaled(s, reps[i].kernel_s))
        .collect();
    let traced = ctx.trace.then(|| traced(ctx));
    Ok(Outcome {
        setups,
        reps,
        traced,
    })
}

/// One rep, run in a child: generates the datasets (the set-up, timed),
/// runs the pass, and prints the set-up seconds and then the listing.
pub fn child(seed: u64) -> Result<(), String> {
    let suite = bpfree::suite::all();
    let start = Instant::now();
    let datasets: Vec<Vec<Dataset>> = suite.iter().map(Benchmark::datasets).collect();
    let setup_s = start.elapsed().as_secs_f64();
    let rows = pass(
        &suite,
        &datasets,
        &pairs(seed, &datasets),
        &mut Tracer::off(),
    )?;
    print!("{setup_s}\n{}", listing(&suite, &datasets, &rows));
    Ok(())
}

/// Every (benchmark, dataset) index pair, in the order `seed` gives.
fn pairs(seed: u64, datasets: &[Vec<Dataset>]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = datasets
        .iter()
        .enumerate()
        .flat_map(|(b, ds)| (0..ds.len()).map(move |d| (b, d)))
        .collect();
    shuffle(seed, &mut pairs);
    pairs
}

/// The pass's results as text, one pair per line in suite order
/// whatever order the pairs ran in: what the golden digest covers.
fn listing(suite: &[Benchmark], datasets: &[Vec<Dataset>], rows: &Rows) -> String {
    let mut out = String::new();
    for (&(b, d), r) in rows {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            suite[b].name, datasets[b][d].name, r.instructions, r.exit, r.misses
        );
    }
    out
}

/// One pass over `pairs`, each pair in its own span.
fn pass(
    suite: &[Benchmark],
    datasets: &[Vec<Dataset>],
    pairs: &[(usize, usize)],
    t: &mut Tracer,
) -> Result<Rows, String> {
    pairs
        .iter()
        .map(|&(b, d)| {
            let (bench, dataset) = (&suite[b], &datasets[b][d]);
            let key = format!("{}/{}", bench.name, dataset.name);
            let row = t.span("pair", &key, |t| predict(bench, dataset, &key, t))?;
            Ok(((b, d), row))
        })
        .collect()
}

/// `bpfree predict` on one (benchmark, dataset) pair.
fn predict(bench: &Benchmark, dataset: &Dataset, key: &str, t: &mut Tracer) -> Result<Row, String> {
    let program = t
        .span("lang.compile", key, |_| {
            compile_with(bench.source, Options::default())
        })
        .map_err(|e| format!("{key}: {e}"))?;
    let (classifier, predictions) = t.span("core.analyze", key, |_| {
        let classifier = BranchClassifier::analyze(&program);
        let predictions =
            CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order())
                .predictions();
        (classifier, predictions)
    });
    let decoded = t.span("sim.decode", key, |_| BytecodeProgram::compile(&program));
    let mut profiler = EdgeProfiler::new();
    let result = t
        .span("sim.interpret", key, |_| {
            bench.run_decoded(&program, &decoded, dataset, &mut profiler)
        })
        .map_err(|e| format!("{key}: {e}"))?;
    let profile = profiler.into_profile();
    let report = t.span("core.evaluate", key, |_| {
        evaluate(&predictions, &profile, &classifier)
    });
    Ok(Row {
        instructions: result.instructions,
        exit: result.exit,
        misses: report.all.misses,
        ir_instrs: program.static_size(),
        branch_sites: program.branches().len() as u64,
    })
}

/// The traced pass: dataset generation, then every pair, each layer
/// call in a span.
fn traced(ctx: &Ctx) -> Traced {
    let suite = bpfree::suite::all();
    let mut t = Tracer::new(None);
    let datasets: Vec<Vec<Dataset>> = suite
        .iter()
        .map(|b| t.span("suite.datasets", b.name, |_| b.datasets()))
        .collect();
    let rows = pass(&suite, &datasets, &pairs(ctx.seed, &datasets), &mut t);
    t.end_pipeline();

    let mut layers = Layers::new();
    let ok = match &rows {
        Ok(rows) => ctx.check(
            "programs",
            listing(&suite, &datasets, rows).as_bytes(),
            "programs-traced",
        ),
        Err(e) => {
            eprintln!("benchmark: programs-traced: {e}");
            false
        }
    };
    if let Ok(rows) = &rows {
        // Static sizes count each program once: its first dataset.
        let firsts = || rows.iter().filter(|((_, d), _)| *d == 0).map(|(_, r)| r);
        let instrs: u64 = rows.values().map(|r| r.instructions).sum();
        layers.insert("sim.instrs".into(), instrs as f64);
        layers.insert(
            "sim.instrs_per_s".into(),
            ratio(instrs as f64, t.total("sim.interpret")),
        );
        layers.insert(
            "lang.ir_instrs".into(),
            firsts().map(|r| r.ir_instrs).sum::<u64>() as f64,
        );
        layers.insert(
            "core.branch_sites".into(),
            firsts().map(|r| r.branch_sites).sum::<u64>() as f64,
        );
    }
    for (metric, span) in [
        ("suite.datasets_s", "suite.datasets"),
        ("lang.compile_s", "lang.compile"),
        ("core.analyze_s", "core.analyze"),
        ("sim.decode_s", "sim.decode"),
        ("sim.interpret_s", "sim.interpret"),
        ("core.evaluate_s", "core.evaluate"),
    ] {
        layers.insert(metric.into(), t.total(span));
    }
    layers.insert("trace.wall_s".into(), t.wall());
    layers.insert("trace.coverage".into(), t.coverage());
    Traced {
        layers,
        ok,
        spans: t.to_json(),
    }
}
