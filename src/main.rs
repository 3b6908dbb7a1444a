//! `bpfree` — command-line driver for the Ball–Larus reproduction.
//!
//! ```text
//! bpfree compile FILE [--o0]        print the compiled IR
//! bpfree run FILE [--fuel N]        execute a Cmm program
//! bpfree predict FILE               per-branch predictions + accuracy
//! bpfree cfg FILE [--func NAME]     emit an annotated CFG as Graphviz dot
//! bpfree bench NAME [--dataset N]   run a suite benchmark and report
//! bpfree list                       list the benchmark suite
//! bpfree exp list                   list the registered experiments
//! bpfree exp run NAME...            regenerate paper tables/figures
//! bpfree exp all [--image PATH]     the whole reproduction, one process
//! bpfree image build PATH           pack every suite artifact into one image
//! bpfree image verify PATH          integrity + live-suite revalidation
//! bpfree image ls PATH              list an image's directory
//! bpfree cache stat                 inventory the cache image
//! ```
//!
//! Only `bench`, `exp run`, `exp all` and `image build` use the cache:
//! they start from the cache image (`<cache dir>/suite.img`, unless
//! `--no-cache`) and, if they computed anything, rewrite it once at the
//! end. `cache stat` lists it; every other command leaves it alone.
//!
//! Exit codes: 0 success, 1 runtime failure (bad input file, simulator
//! error), 2 usage error (unknown command/experiment/benchmark/function,
//! a flag the command does not take, a missing flag value). Only usage
//! errors print the usage text.
//!
//! Wall-clock and per-layer timings of the whole reproduction come from
//! the repository benchmark, not from this binary:
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload W [--trace 1]`.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bpfree::bench::config;
use bpfree::bench::registry::{self, Experiment};
use bpfree::bench::sink::{CaptureSink, StdoutSink};
use bpfree::core::{
    evaluate, perfect_predictions, Attribution, BranchClass, BranchClassifier, CombinedPredictor,
    Direction, HeuristicKind,
};
use bpfree::lang::{compile_with, Options};
use bpfree::sim::{EdgeProfiler, NullObserver, SimConfig, Simulator};

/// A failed command: usage errors (exit 2) get the usage text appended,
/// runtime errors (exit 1) just the message.
enum Failure {
    Usage(String),
    Runtime(String),
}

fn usage_err(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn runtime_err(msg: impl Into<String>) -> Failure {
    Failure::Runtime(msg.into())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| {
        // The standard experiment flags (--jobs/--no-cache/--cache-dir)
        // may appear anywhere; whatever remains belongs to the command.
        let (cfg, rest) = config::extract(raw).map_err(Failure::Usage)?;
        match rest.first().map(String::as_str) {
            Some("compile") => cmd_compile(&rest[1..]),
            Some("run") => {
                config::apply(cfg);
                cmd_run(&rest[1..])
            }
            Some("predict") => {
                config::apply(cfg);
                cmd_predict(&rest[1..])
            }
            Some("cfg") => cmd_cfg(&rest[1..]),
            Some("bench") => {
                config::apply(cfg);
                cmd_bench(&rest[1..])
            }
            Some("exp") => {
                config::apply(cfg);
                cmd_exp(&rest[1..])
            }
            Some("image") => {
                config::apply(cfg);
                cmd_image(&rest[1..])
            }
            Some("cache") => {
                config::apply(cfg);
                cmd_cache(&rest[1..])
            }
            Some("list") => cmd_list(&rest[1..]),
            Some("--version" | "-V") => {
                println!("bpfree {}", env!("CARGO_PKG_VERSION"));
                Ok(())
            }
            Some("--help" | "-h") | None => {
                print_usage();
                Ok(())
            }
            Some(other) if other.starts_with('-') => {
                Err(usage_err(format!("unrecognized flag `{other}`")))
            }
            Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("bpfree: {msg}");
            print_usage();
            ExitCode::from(2)
        }
        Err(Failure::Runtime(msg)) => {
            eprintln!("bpfree: {msg}");
            ExitCode::from(1)
        }
    }
}

fn print_usage() {
    eprintln!("usage:");
    eprintln!("  bpfree compile FILE [--o0]        print the compiled IR");
    eprintln!("  bpfree run FILE [--fuel N]        execute a Cmm program");
    eprintln!("  bpfree predict FILE               per-branch predictions + accuracy");
    eprintln!("  bpfree cfg FILE [--func NAME]     emit an annotated CFG as Graphviz dot");
    eprintln!("  bpfree bench NAME [--dataset N]   run a suite benchmark and report");
    eprintln!("  bpfree list                       list the benchmark suite");
    eprintln!("  bpfree exp list                   list the registered experiments");
    eprintln!("  bpfree exp run NAME...            regenerate paper tables/figures");
    eprintln!("  bpfree exp all [--skip NAME]      the whole reproduction, one process");
    eprintln!("  bpfree image build PATH           pack every suite artifact into one");
    eprintln!("                                    zero-copy warm-start image");
    eprintln!("  bpfree image verify PATH          check an image's integrity and");
    eprintln!("                                    revalidate it against the live suite");
    eprintln!("  bpfree image ls PATH              list an image's directory");
    eprintln!("  bpfree cache stat                 inventory the cache image (DIR/suite.img)");
    eprintln!("  bpfree --version                  print the version");
    eprintln!();
    eprintln!("common flags (run/bench/predict/exp): --jobs N, --no-cache, --cache-dir DIR,");
    eprintln!("                                      --timings[=PATH]");
    eprintln!("exp run/all also accept: --out-dir DIR (capture files + manifest.json)");
    eprintln!("                         --image PATH (mount a warm-start suite image)");
}

fn load_program(path: &str, options: Options) -> Result<bpfree::ir::Program, Failure> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read `{path}`: {e}")))?;
    compile_with(&source, options).map_err(|e| runtime_err(format!("{path}:{}", e.render(&source))))
}

/// One subcommand's arguments, checked against what it takes: up to
/// `max_positional` positionals in order, plus the flags it declares —
/// `switches` stand alone, `valued` flags take the next argument. Any
/// other flag, a missing value or a surplus positional is a usage error,
/// so a typo never silently runs with the default.
struct CmdArgs {
    positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl CmdArgs {
    fn parse(
        cmd: &str,
        args: &[String],
        max_positional: usize,
        switches: &[&'static str],
        valued: &[&'static str],
    ) -> Result<CmdArgs, Failure> {
        let mut parsed = CmdArgs {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&name) = switches.iter().find(|&&s| s == arg) {
                parsed.flags.push((name, None));
            } else if let Some(&name) = valued.iter().find(|&&s| s == arg) {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err(format!("{name} needs a value")))?;
                parsed.flags.push((name, Some(v.clone())));
            } else if arg.len() > 1 && arg.starts_with('-') {
                return Err(usage_err(format!("unrecognized flag `{arg}`")));
            } else if parsed.positional.len() < max_positional {
                parsed.positional.push(arg.clone());
            } else {
                return Err(usage_err(format!("{cmd}: unexpected argument `{arg}`")));
            }
        }
        Ok(parsed)
    }

    /// The first positional, or a usage error saying what is missing.
    fn first(&self, missing: &str) -> Result<&str, Failure> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| usage_err(missing))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last `name` flag given.
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, Failure> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| usage_err(format!("bad value for {name}: {e}")))
            })
            .transpose()
    }
}

fn cmd_compile(args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("compile", args, 1, &["--o0"], &[])?;
    let path = args.first("compile needs a file")?;
    let options = if args.has("--o0") {
        Options::o0()
    } else {
        Options::default()
    };
    let program = load_program(path, options)?;
    print!("{program}");
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("run", args, 1, &[], &["--fuel"])?;
    let path = args.first("run needs a file")?;
    let fuel = args.number("--fuel")?.unwrap_or(SimConfig::default().fuel);
    let program = load_program(path, Options::default())?;
    let config = SimConfig {
        fuel,
        ..SimConfig::default()
    };
    let result = Simulator::with_config(&program, config)
        .run(&mut NullObserver)
        .map_err(|e| runtime_err(e.to_string()))?;
    println!("exit: {}", result.exit);
    println!("instructions: {}", result.instructions);
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("predict", args, 1, &[], &[])?;
    let path = args.first("predict needs a file")?;
    let program = load_program(path, Options::default())?;
    let classifier = BranchClassifier::analyze(&program);
    let predictor = CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
    let predictions = predictor.predictions();

    let mut profiler = EdgeProfiler::new();
    Simulator::new(&program)
        .run(&mut profiler)
        .map_err(|e| runtime_err(e.to_string()))?;
    let profile = profiler.into_profile();

    println!(
        "{:<20} {:<8} {:<10} {:<9} {:>9} {:>9} {:>6}",
        "branch", "class", "rule", "predicts", "taken", "fallthru", "miss%"
    );
    let mut branches = program.branches();
    branches.sort();
    for b in branches {
        let c = profile.counts(b);
        let miss = match predictions.get(b) {
            Some(Direction::Taken) => c.fallthru,
            Some(Direction::FallThru) => c.taken,
            None => c.total(),
        };
        println!(
            "{:<20} {:<8} {:<10} {:<9} {:>9} {:>9} {:>6}",
            format!("{}:{}", program.func(b.func).name(), b.block),
            match classifier.class(b) {
                BranchClass::Loop => "loop",
                BranchClass::NonLoop => "nonloop",
            },
            match predictor.attribution(b) {
                Attribution::LoopBranch => "loop-pred".to_string(),
                Attribution::Heuristic(k) => k.label().to_lowercase(),
                Attribution::Default => "default".to_string(),
            },
            match predictions.get(b) {
                Some(Direction::Taken) => "taken",
                Some(Direction::FallThru) => "fall",
                None => "-",
            },
            c.taken,
            c.fallthru,
            if c.total() == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", 100.0 * miss as f64 / c.total() as f64)
            }
        );
    }
    let report = evaluate(&predictions, &profile, &classifier);
    let perfect = evaluate(
        &perfect_predictions(&program, &profile),
        &profile,
        &classifier,
    );
    println!();
    println!(
        "overall: {:.1}% miss ({:.1}% perfect bound) over {} dynamic branches",
        100.0 * report.all.miss_rate(),
        100.0 * perfect.all.miss_rate(),
        report.all.dynamic
    );
    Ok(())
}

/// Emits each requested function's CFG as Graphviz dot, with loop heads
/// shaded, backedges dashed, and predicted edges bold.
fn cmd_cfg(args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("cfg", args, 1, &[], &["--func"])?;
    let path = args.first("cfg needs a file")?;
    let program = load_program(path, Options::default())?;
    let only = args.value("--func");
    if let Some(name) = only {
        if !program.funcs().iter().any(|f| f.name() == name) {
            return Err(usage_err(format!("no function `{name}` in `{path}`")));
        }
    }
    let classifier = BranchClassifier::analyze(&program);
    let predictor = CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
    let predictions = predictor.predictions();

    println!("digraph bpfree {{");
    println!("  node [shape=box, fontname=monospace];");
    for fid in program.func_ids() {
        let func = program.func(fid);
        if only.is_some_and(|name| func.name() != name) {
            continue;
        }
        let analysis = classifier.analysis(&program, fid);
        println!("  subgraph cluster_{} {{", fid.index());
        println!("    label=\"{}\";", func.name());
        for bid in func.block_ids() {
            let style = if analysis.loops.is_head(bid) {
                ", style=filled, fillcolor=lightgrey"
            } else {
                ""
            };
            println!(
                "    n{}_{} [label=\"{} ({} instrs)\"{}];",
                fid.index(),
                bid.index(),
                bid,
                func.block(bid).instrs.len(),
                style
            );
        }
        for bid in func.block_ids() {
            use bpfree::ir::Terminator;
            let mk = |dst: bpfree::ir::BlockId, attrs: &str| {
                println!(
                    "    n{}_{} -> n{}_{} [{}];",
                    fid.index(),
                    bid.index(),
                    fid.index(),
                    dst.index(),
                    attrs
                );
            };
            match &func.block(bid).term {
                Terminator::Jump(t) => mk(*t, ""),
                Terminator::Branch {
                    taken, fallthru, ..
                } => {
                    let site = bpfree::ir::BranchRef {
                        func: fid,
                        block: bid,
                    };
                    let predicted = predictions.get(site);
                    let dash = |d| {
                        if analysis.loops.is_backedge(bid, d) {
                            "style=dashed, "
                        } else {
                            ""
                        }
                    };
                    let bold = |dir: Direction| {
                        if predicted == Some(dir) {
                            "penwidth=2.4, color=blue, "
                        } else {
                            ""
                        }
                    };
                    mk(
                        *taken,
                        &format!("{}{}label=T", dash(*taken), bold(Direction::Taken)),
                    );
                    mk(
                        *fallthru,
                        &format!("{}{}label=F", dash(*fallthru), bold(Direction::FallThru)),
                    );
                }
                Terminator::Ret { .. } => {}
            }
        }
        println!("  }}");
    }
    println!("}}");
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("bench", args, 1, &[], &["--dataset"])?;
    let name = args.first("bench needs a benchmark name")?;
    let bench = bpfree::suite::by_name(name)
        .ok_or_else(|| usage_err(format!("no benchmark `{name}` (try `bpfree list`)")))?;
    let dataset = args.number("--dataset")?.unwrap_or(0) as usize;
    // The artifact engine memoizes and (subject to --no-cache /
    // --cache-dir and their environment twins) persists everything this
    // command computes.
    let engine = config::engine();
    let compiled = engine.compiled(&bench, Options::default());
    let bundle = engine
        .try_run(&bench, Options::default(), dataset)
        .map_err(|e| runtime_err(e.to_string()))?;
    persist(engine);
    let (program, classifier) = (&compiled.program, &compiled.classifier);
    let (profile, result) = (&bundle.profile, bundle.result);

    let predictor = CombinedPredictor::new(program, classifier, HeuristicKind::paper_order());
    let report = evaluate(&predictor.predictions(), profile, classifier);
    let perfect = evaluate(&perfect_predictions(program, profile), profile, classifier);

    println!("benchmark: {} — {}", bench.name, bench.description);
    println!("dataset: {} of {}", dataset, engine.datasets(&bench).len());
    println!("instructions: {}", result.instructions);
    println!("dynamic branches: {}", profile.total_branches());
    println!("non-loop share: {:.0}%", 100.0 * report.nonloop_fraction());
    println!(
        "heuristic miss: loop {:.1}%, non-loop {:.1}%, all {:.1}%",
        100.0 * report.loop_branches.miss_rate(),
        100.0 * report.nonloop.miss_rate(),
        100.0 * report.all.miss_rate()
    );
    println!("perfect bound: all {:.1}%", 100.0 * perfect.all.miss_rate());
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), Failure> {
    CmdArgs::parse("list", args, 0, &[], &[])?;
    println!("{:<11} {:<4} {:<5} description", "name", "lang", "spec");
    for b in bpfree::suite::all() {
        println!(
            "{:<11} {:<4} {:<5} {}",
            b.name,
            b.lang.to_string(),
            if b.spec { "*" } else { "" },
            b.description
        );
    }
    Ok(())
}

/// `bpfree exp list|run|all` — the registered experiments.
fn cmd_exp(args: &[String]) -> Result<(), Failure> {
    match args.first().map(String::as_str) {
        Some("list") => {
            CmdArgs::parse("exp list", &args[1..], 0, &[], &[])?;
            println!("{:<16} {:<26} description", "name", "paper");
            for e in registry::all() {
                println!("{:<16} {:<26} {}", e.name(), e.paper_ref(), e.description());
            }
            Ok(())
        }
        Some("run") => {
            let opts = ExpOpts::parse(&args[1..], false)?;
            if opts.names.is_empty() {
                return Err(usage_err(
                    "exp run needs at least one experiment name (see `bpfree exp list`)",
                ));
            }
            let exps: Vec<&'static dyn Experiment> = opts
                .names
                .iter()
                .map(|n| resolve_experiment(n))
                .collect::<Result<_, _>>()?;
            run_exps(&exps, opts, "run")
        }
        Some("all") => {
            let opts = ExpOpts::parse(&args[1..], true)?;
            for n in &opts.skip {
                resolve_experiment(n)?;
            }
            let exps: Vec<&'static dyn Experiment> = registry::all()
                .iter()
                .copied()
                .filter(|e| !opts.skip.iter().any(|s| s == e.name()))
                .collect();
            run_exps(&exps, opts, "all")
        }
        _ => Err(usage_err(
            "exp needs a subcommand: `list`, `run NAME...`, or `all`",
        )),
    }
}

/// Arguments to `exp run` / `exp all`.
struct ExpOpts {
    names: Vec<String>,
    skip: Vec<String>,
    out_dir: Option<PathBuf>,
    image: Option<PathBuf>,
}

impl ExpOpts {
    fn parse(args: &[String], allow_skip: bool) -> Result<ExpOpts, Failure> {
        let mut opts = ExpOpts {
            names: Vec::new(),
            skip: Vec::new(),
            out_dir: None,
            image: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out-dir" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err("--out-dir needs a value"))?;
                    opts.out_dir = Some(PathBuf::from(v));
                }
                s if s.starts_with("--out-dir=") => {
                    opts.out_dir = Some(PathBuf::from(&s["--out-dir=".len()..]));
                }
                "--image" => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err("--image needs a value"))?;
                    opts.image = Some(PathBuf::from(v));
                }
                s if s.starts_with("--image=") => {
                    opts.image = Some(PathBuf::from(&s["--image=".len()..]));
                }
                "--skip" if allow_skip => {
                    let v = it.next().ok_or_else(|| usage_err("--skip needs a value"))?;
                    opts.skip.push(v.clone());
                }
                s if s.starts_with("--skip=") && allow_skip => {
                    opts.skip.push(s["--skip=".len()..].to_string());
                }
                s if s.starts_with('-') => {
                    return Err(usage_err(format!("unrecognized flag `{s}`")));
                }
                _ => opts.names.push(arg.clone()),
            }
        }
        if allow_skip {
            if let Some(stray) = opts.names.first() {
                return Err(usage_err(format!(
                    "exp all takes no experiment names (got `{stray}`); use `exp run` or `--skip`"
                )));
            }
        }
        Ok(opts)
    }
}

fn resolve_experiment(name: &str) -> Result<&'static dyn Experiment, Failure> {
    registry::by_name(name).ok_or_else(|| {
        let mut msg = format!("unknown experiment `{name}`");
        if let Some(s) = registry::suggest(name) {
            msg.push_str(&format!(" (did you mean `{s}`?)"));
        }
        msg.push_str("; see `bpfree exp list`");
        usage_err(msg)
    })
}

/// `bpfree image build|verify|ls` — the single-file warm-start suite
/// image (cache format v7, see `bpfree::cache::image`).
fn cmd_image(args: &[String]) -> Result<(), Failure> {
    let path_arg = |verb: &str| -> Result<PathBuf, Failure> {
        let parsed = CmdArgs::parse(&format!("image {verb}"), &args[1..], 1, &[], &[])?;
        Ok(PathBuf::from(
            parsed.first(&format!("image {verb} needs a path"))?,
        ))
    };
    match args.first().map(String::as_str) {
        Some("build") => {
            let path = path_arg("build")?;
            // Work the full experiment batch through the engine (warm
            // from the cache image where possible), then snapshot every
            // memo into the image at PATH.
            let engine = config::engine();
            let exps: Vec<&'static dyn Experiment> = registry::all().to_vec();
            let mut sink = bpfree::bench::sink::DiscardSink::new();
            registry::run_experiments(&exps, engine, &mut sink, true)
                .map_err(|e| runtime_err(e.to_string()))?;
            let (entries, bytes) = engine
                .export_image(&path)
                .map_err(|e| runtime_err(e.to_string()))?;
            persist(engine);
            println!("image: {}", path.display());
            println!("entries: {entries}");
            println!("bytes: {bytes}");
            Ok(())
        }
        Some("verify") => {
            let path = path_arg("verify")?;
            // Structural integrity first (magic, checksums, bounds),
            // then a real mount against the live suite: every entry
            // either revalidates or is reported as skipped.
            let engine = bpfree::engine::Engine::new(bpfree::engine::EngineConfig::no_cache());
            let report = engine
                .mount_image(&path)
                .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
            println!(
                "{}: ok — {} entries mounted, {} skipped, {} bytes",
                path.display(),
                report.mounted,
                report.skipped,
                report.bytes
            );
            Ok(())
        }
        Some("ls") => {
            let path = path_arg("ls")?;
            let img = bpfree::cache::image::SuiteImage::open(&path)
                .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
            println!(
                "{:<10} {:<11} {:<18} {:>7} {:>10} key",
                "kind", "bench", "options", "dataset", "bytes"
            );
            for e in img.entries() {
                println!(
                    "{:<10} {:<11} {:<18} {:>7} {:>10} {:016x}",
                    e.kind.name(),
                    if e.name.is_empty() { "-" } else { &e.name },
                    e.opt,
                    e.dataset.map_or("-".to_string(), |d| d.to_string()),
                    e.payload_bytes(),
                    e.key
                );
            }
            println!(
                "{} entries, {} bytes total",
                img.entries().len(),
                img.total_bytes()
            );
            Ok(())
        }
        _ => Err(usage_err(
            "image needs a subcommand: `build PATH`, `verify PATH`, or `ls PATH`",
        )),
    }
}

/// `bpfree cache stat` — what the cache image holds, per artifact
/// kind. Honors `--cache-dir` / `BPFREE_CACHE_DIR` like every other
/// command.
fn cmd_cache(args: &[String]) -> Result<(), Failure> {
    if args.first().map(String::as_str) != Some("stat") {
        return Err(usage_err("cache needs a subcommand: `stat`"));
    }
    CmdArgs::parse("cache stat", &args[1..], 0, &[], &[])?;
    let dir = &config::config().cache_dir;
    let path = bpfree::cache::image_path(dir);
    let stat = bpfree::cache::maint::scan(dir)
        .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
    println!("cache image: {}", path.display());
    println!("{:<10} {:>8} {:>12}", "kind", "entries", "bytes");
    for (kind, n, bytes) in stat.by_kind() {
        println!("{:<10} {n:>8} {bytes:>12}", kind.name());
    }
    println!(
        "total: {} entries, {} bytes",
        stat.entries.len(),
        stat.total_bytes()
    );
    Ok(())
}

/// Rewrites the cache image if this process computed anything (see
/// `Engine::persist`). A failed write costs the next run time, never
/// this run's output, so it is a warning, not an error.
fn persist(engine: &bpfree::engine::Engine) {
    if let Err(e) = engine.persist() {
        eprintln!(
            "[bpfree] warning: cannot write the cache image under {}: {e}",
            engine.config().cache_dir.display()
        );
    }
}

/// Runs `exps` against the shared engine — to stdout, or captured under
/// `--out-dir` with a manifest. One process, one engine: every
/// (benchmark, dataset) is compiled and simulated at most once for the
/// whole batch, which is the point of `exp all`.
fn run_exps(exps: &[&'static dyn Experiment], opts: ExpOpts, mode: &str) -> Result<(), Failure> {
    let rt = |e: io::Error| runtime_err(e.to_string());
    let engine = config::engine();
    // An explicit suite image pre-fills every memo the batch would
    // otherwise compute (on top of the cache image the engine mounted
    // itself); a structurally corrupt `--image` is a hard error, but
    // entries that fail live revalidation just fall back to recompute.
    if let Some(img) = &opts.image {
        let report = engine
            .mount_image(img)
            .map_err(|e| runtime_err(format!("cannot mount `{}`: {e}", img.display())))?;
        eprintln!(
            "[bpfree] mounted {}: {} entries ({} skipped), {} bytes",
            img.display(),
            report.mounted,
            report.skipped,
            report.bytes
        );
    }
    let start = Instant::now();
    match opts.out_dir {
        Some(dir) => {
            let mut sink = CaptureSink::new(&dir).map_err(rt)?;
            registry::run_experiments(exps, engine, &mut sink, true).map_err(rt)?;
            let manifest = sink.finish().map_err(rt)?;
            eprintln!(
                "[bpfree] captured {} experiments under {} ({})",
                exps.len(),
                dir.display(),
                manifest.display()
            );
        }
        None => {
            let mut sink = StdoutSink::new();
            registry::run_experiments(exps, engine, &mut sink, true).map_err(rt)?;
        }
    }
    persist(engine);
    eprintln!(
        "[bpfree] exp {mode}: {} experiments in {:.1}s, {} interpreter passes",
        exps.len(),
        start.elapsed().as_secs_f64(),
        engine.simulations()
    );
    if let Some(out) = &config::config().timings {
        emit_timings(out).map_err(rt)?;
    }
    Ok(())
}

/// Drains the per-task timing log (`--timings` / `BPFREE_TIMINGS`) and
/// writes it as JSON to stderr or the configured file.
fn emit_timings(out: &config::TimingsOut) -> io::Result<()> {
    use bpfree::bench::json::Json;
    let tasks: Vec<Json> = bpfree::bench::timings::drain()
        .iter()
        .map(|t| {
            Json::obj()
                .field("kind", t.kind)
                .field("key", t.key.as_str())
                .field("micros", t.micros)
                .field(
                    "worker",
                    match t.worker {
                        Some(w) => Json::UInt(w as u64),
                        None => Json::Null,
                    },
                )
                .build()
        })
        .collect();
    let doc = Json::obj()
        .field("schema", "bpfree-timings/1")
        .field("tasks", tasks)
        .build();
    match out {
        config::TimingsOut::Stderr => {
            eprintln!("{}", doc.pretty());
            Ok(())
        }
        config::TimingsOut::File(path) => std::fs::write(path, format!("{}\n", doc.pretty())),
    }
}
