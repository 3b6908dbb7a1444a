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
//! bpfree image verify PATH          integrity + built-by-this-build check
//! bpfree image ls PATH              list an image's directory
//! bpfree cache stat                 inventory the cache image
//! ```
//!
//! Only `bench`, `exp run`, `exp all` and `image build` use the cache:
//! they start from the cache image (`<cache dir>/suite.img`, unless
//! `--no-cache`) and, if they computed anything, rewrite it once at the
//! end. `cache stat` lists it; every other command leaves it alone.
//!
//! Each command parses its own arguments and takes only the flags it
//! uses, so a setting has one source, the command line:
//!
//! - `--no-cache` and `--cache-dir DIR` (default
//!   `$CARGO_TARGET_DIR/bpfree-cache`, else `target/bpfree-cache`) on
//!   `bench`, `exp run`, `exp all` and `image build`; `--cache-dir DIR`
//!   on `cache stat`;
//! - `--jobs N` (default: the machine's available parallelism) on
//!   `exp run`, `exp all` and `image build`. The output is identical at
//!   any `N`.
//!
//! Exit codes: 0 success, 1 runtime failure (bad input file, simulator
//! error), 2 usage error (unknown command/experiment/benchmark/function,
//! a flag the command does not take, a missing or malformed flag value).
//! Only usage errors print the usage text.
//!
//! Wall-clock and per-layer timings of the whole reproduction come from
//! the repository benchmark, not from this binary:
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload W [--trace 1]`.

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bpfree::bench::json::Json;
use bpfree::bench::registry::{self, Experiment, Report};
use bpfree::core::{
    evaluate, perfect_predictions, Attribution, BranchClass, BranchClassifier, CombinedPredictor,
    Direction, HeuristicKind,
};
use bpfree::engine::{Engine, EngineConfig};
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

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        runtime_err(e.to_string())
    }
}

/// Standard output, the one writer every command prints through. A
/// reader that closes the pipe early (`bpfree list | head -1`) only ends
/// the output: later writes are dropped, so the command still finishes
/// its work (`exp run|all` still writes the cache image) and exits 0
/// without a message. Any other write error fails the command.
struct Out {
    stdout: io::Stdout,
    closed: bool,
}

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            match self.stdout.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                result => return result,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.closed {
            match self.stdout.flush() {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                result => return result,
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Out {
        stdout: io::stdout(),
        closed: false,
    };
    let result = (|| {
        match raw.first().map(String::as_str) {
            Some("compile") => cmd_compile(out, &raw[1..]),
            Some("run") => cmd_run(out, &raw[1..]),
            Some("predict") => cmd_predict(out, &raw[1..]),
            Some("cfg") => cmd_cfg(out, &raw[1..]),
            Some("bench") => cmd_bench(out, &raw[1..]),
            Some("exp") => cmd_exp(out, &raw[1..]),
            Some("image") => cmd_image(out, &raw[1..]),
            Some("cache") => cmd_cache(out, &raw[1..]),
            Some("list") => cmd_list(out, &raw[1..]),
            Some("--version" | "-V") => {
                writeln!(out, "bpfree {}", env!("CARGO_PKG_VERSION"))?;
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
        }?;
        out.flush().map_err(Failure::from)
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
    eprintln!("                                    check it was built by this build");
    eprintln!("  bpfree image ls PATH              list an image's directory");
    eprintln!("  bpfree cache stat                 inventory the cache image (DIR/suite.img)");
    eprintln!("  bpfree --version                  print the version");
    eprintln!();
    eprintln!("flags, each taken only by the commands named:");
    eprintln!("  --no-cache         bench, exp run/all, image build: no cache image");
    eprintln!("  --cache-dir DIR    those and cache stat (default target/bpfree-cache)");
    eprintln!("  --jobs N           exp run/all, image build: worker threads");
    eprintln!("  --out-dir DIR      exp run/all: capture files + manifest.json");
    eprintln!("  --image PATH       exp run/all: mount a warm-start suite image");
}

fn load_program(path: &str, options: Options) -> Result<bpfree::ir::Program, Failure> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read `{path}`: {e}")))?;
    compile_with(&source, options).map_err(|e| runtime_err(format!("{path}:{}", e.render(&source))))
}

/// One subcommand's arguments, checked against what it takes: up to
/// `max_positional` positionals in order, plus the flags it declares —
/// `switches` stand alone, `valued` flags take the next argument or the
/// text after `=` (`--out-dir DIR`, `--out-dir=DIR`). Any other flag, a
/// missing or empty value, an empty positional or a surplus positional
/// is a usage error, so a typo never silently runs with the default and
/// an empty path never means the current directory.
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
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
                _ => (arg.as_str(), None),
            };
            if let Some(&name) = switches.iter().find(|&&s| s == arg) {
                parsed.flags.push((name, None));
            } else if let Some(&name) = valued.iter().find(|&&s| s == flag) {
                let v = inline
                    .or_else(|| it.next().map(String::as_str))
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| usage_err(format!("{name} needs a value")))?;
                parsed.flags.push((name, Some(v.to_string())));
            } else if arg.len() > 1 && arg.starts_with('-') {
                return Err(usage_err(format!("unrecognized flag `{arg}`")));
            } else if arg.is_empty() {
                return Err(usage_err(format!("{cmd}: empty argument")));
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
        self.values(name).pop()
    }

    /// The values of every `name` flag given, in order.
    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Failure>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| usage_err(format!("bad value for {name}: {e}")))
            })
            .transpose()
    }

    /// The artifact engine of a command that takes the cache flags
    /// (`--no-cache`, `--cache-dir DIR`), after applying `--jobs N` if
    /// the command takes that too. Building it mounts the cache image
    /// when the cache is on.
    fn engine(&self) -> Result<Engine, Failure> {
        if let Some(jobs) = self.number::<NonZeroUsize>("--jobs")? {
            bpfree_par::set_jobs(jobs.get());
        }
        Ok(Engine::new(EngineConfig {
            use_cache: !self.has("--no-cache"),
            cache_dir: self.cache_dir(),
            ..EngineConfig::default()
        }))
    }

    /// `--cache-dir DIR`, else the default cache directory.
    fn cache_dir(&self) -> PathBuf {
        self.value("--cache-dir")
            .map_or_else(bpfree::cache::default_dir, PathBuf::from)
    }
}

fn cmd_compile(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse("compile", args, 1, &["--o0"], &[])?;
    let path = args.first("compile needs a file")?;
    let options = if args.has("--o0") {
        Options::o0()
    } else {
        Options::default()
    };
    let program = load_program(path, options)?;
    write!(out, "{program}")?;
    Ok(())
}

fn cmd_run(out: &mut Out, args: &[String]) -> Result<(), Failure> {
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
    writeln!(out, "exit: {}", result.exit)?;
    writeln!(out, "instructions: {}", result.instructions)?;
    Ok(())
}

fn cmd_predict(out: &mut Out, args: &[String]) -> Result<(), Failure> {
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

    writeln!(
        out,
        "{:<20} {:<8} {:<10} {:<9} {:>9} {:>9} {:>6}",
        "branch", "class", "rule", "predicts", "taken", "fallthru", "miss%"
    )?;
    let mut branches = program.branches();
    branches.sort();
    for b in branches {
        let c = profile.counts(b);
        let miss = match predictions.get(b) {
            Some(Direction::Taken) => c.fallthru,
            Some(Direction::FallThru) => c.taken,
            None => c.total(),
        };
        writeln!(
            out,
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
        )?;
    }
    let report = evaluate(&predictions, &profile, &classifier);
    let perfect = evaluate(
        &perfect_predictions(&program, &profile),
        &profile,
        &classifier,
    );
    writeln!(out)?;
    writeln!(
        out,
        "overall: {:.1}% miss ({:.1}% perfect bound) over {} dynamic branches",
        100.0 * report.all.miss_rate(),
        100.0 * perfect.all.miss_rate(),
        report.all.dynamic
    )?;
    Ok(())
}

/// Emits each requested function's CFG as Graphviz dot, with loop heads
/// shaded, backedges dashed, and predicted edges bold.
fn cmd_cfg(out: &mut Out, args: &[String]) -> Result<(), Failure> {
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

    writeln!(out, "digraph bpfree {{")?;
    writeln!(out, "  node [shape=box, fontname=monospace];")?;
    for fid in program.func_ids() {
        let func = program.func(fid);
        if only.is_some_and(|name| func.name() != name) {
            continue;
        }
        let analysis = classifier.analysis(&program, fid);
        writeln!(out, "  subgraph cluster_{} {{", fid.index())?;
        writeln!(out, "    label=\"{}\";", func.name())?;
        for bid in func.block_ids() {
            let style = if analysis.loops.is_head(bid) {
                ", style=filled, fillcolor=lightgrey"
            } else {
                ""
            };
            writeln!(
                out,
                "    n{}_{} [label=\"{} ({} instrs)\"{}];",
                fid.index(),
                bid.index(),
                bid,
                func.block(bid).instrs.len(),
                style
            )?;
        }
        for bid in func.block_ids() {
            use bpfree::ir::Terminator;
            let mk = |out: &mut Out, dst: bpfree::ir::BlockId, attrs: &str| {
                writeln!(
                    out,
                    "    n{}_{} -> n{}_{} [{}];",
                    fid.index(),
                    bid.index(),
                    fid.index(),
                    dst.index(),
                    attrs
                )
            };
            match &func.block(bid).term {
                Terminator::Jump(t) => mk(out, *t, "")?,
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
                        out,
                        *taken,
                        &format!("{}{}label=T", dash(*taken), bold(Direction::Taken)),
                    )?;
                    mk(
                        out,
                        *fallthru,
                        &format!("{}{}label=F", dash(*fallthru), bold(Direction::FallThru)),
                    )?;
                }
                Terminator::Ret { .. } => {}
            }
        }
        writeln!(out, "  }}")?;
    }
    writeln!(out, "}}")?;
    Ok(())
}

fn cmd_bench(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    let args = CmdArgs::parse(
        "bench",
        args,
        1,
        &["--no-cache"],
        &["--dataset", "--cache-dir"],
    )?;
    let name = args.first("bench needs a benchmark name")?;
    let bench = bpfree::suite::by_name(name)
        .ok_or_else(|| usage_err(format!("no benchmark `{name}` (try `bpfree list`)")))?;
    let dataset = args.number("--dataset")?.unwrap_or(0);
    // The artifact engine memoizes and (unless --no-cache) persists
    // everything this command computes.
    let engine = &args.engine()?;
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

    writeln!(out, "benchmark: {} — {}", bench.name, bench.description)?;
    writeln!(
        out,
        "dataset: {} of {}",
        dataset,
        engine.datasets(&bench).len()
    )?;
    writeln!(out, "instructions: {}", result.instructions)?;
    writeln!(out, "dynamic branches: {}", profile.total_branches())?;
    writeln!(
        out,
        "non-loop share: {:.0}%",
        100.0 * report.nonloop_fraction()
    )?;
    writeln!(
        out,
        "heuristic miss: loop {:.1}%, non-loop {:.1}%, all {:.1}%",
        100.0 * report.loop_branches.miss_rate(),
        100.0 * report.nonloop.miss_rate(),
        100.0 * report.all.miss_rate()
    )?;
    writeln!(
        out,
        "perfect bound: all {:.1}%",
        100.0 * perfect.all.miss_rate()
    )?;
    Ok(())
}

fn cmd_list(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    CmdArgs::parse("list", args, 0, &[], &[])?;
    writeln!(
        out,
        "{:<11} {:<4} {:<5} description",
        "name", "lang", "spec"
    )?;
    for b in bpfree::suite::all() {
        writeln!(
            out,
            "{:<11} {:<4} {:<5} {}",
            b.name,
            b.lang.to_string(),
            if b.spec { "*" } else { "" },
            b.description
        )?;
    }
    Ok(())
}

/// `bpfree exp list|run|all` — the registered experiments.
fn cmd_exp(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    match args.first().map(String::as_str) {
        Some("list") => {
            CmdArgs::parse("exp list", &args[1..], 0, &[], &[])?;
            writeln!(out, "{:<16} {:<26} description", "name", "paper")?;
            for e in registry::all() {
                writeln!(
                    out,
                    "{:<16} {:<26} {}",
                    e.name(),
                    e.paper_ref(),
                    e.description()
                )?;
            }
            Ok(())
        }
        Some("run") => {
            let valued = &["--out-dir", "--image", "--jobs", "--cache-dir"];
            let args = CmdArgs::parse("exp run", &args[1..], usize::MAX, &["--no-cache"], valued)?;
            if args.positional.is_empty() {
                return Err(usage_err(
                    "exp run needs at least one experiment name (see `bpfree exp list`)",
                ));
            }
            let exps: Vec<&'static dyn Experiment> = args
                .positional
                .iter()
                .map(|n| resolve_experiment(n))
                .collect::<Result<_, _>>()?;
            run_exps(out, &exps, &args, "run")
        }
        Some("all") => {
            let valued = &["--out-dir", "--image", "--skip", "--jobs", "--cache-dir"];
            let args = CmdArgs::parse("exp all", &args[1..], usize::MAX, &["--no-cache"], valued)?;
            if let Some(stray) = args.positional.first() {
                return Err(usage_err(format!(
                    "exp all takes no experiment names (got `{stray}`); use `exp run` or `--skip`"
                )));
            }
            let skip = args.values("--skip");
            for n in &skip {
                resolve_experiment(n)?;
            }
            let exps: Vec<&'static dyn Experiment> = registry::all()
                .iter()
                .copied()
                .filter(|e| !skip.contains(&e.name()))
                .collect();
            run_exps(out, &exps, &args, "all")
        }
        _ => Err(usage_err(
            "exp needs a subcommand: `list`, `run NAME...`, or `all`",
        )),
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
/// image (cache format v10, see `bpfree::cache::image`).
fn cmd_image(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    match args.first().map(String::as_str) {
        Some("build") => {
            let valued = &["--jobs", "--cache-dir"];
            let args = CmdArgs::parse("image build", &args[1..], 1, &["--no-cache"], valued)?;
            let path = Path::new(args.first("image build needs a path")?);
            // Work the full experiment batch through the engine (warm
            // from the cache image where possible), then snapshot every
            // memo into the image at PATH.
            let engine = &args.engine()?;
            registry::run_experiments(registry::all(), engine, true)
                .map_err(|e| runtime_err(e.to_string()))?;
            let (entries, bytes) = engine
                .export_image(path)
                .map_err(|e| runtime_err(e.to_string()))?;
            persist(engine);
            writeln!(out, "image: {}", path.display())?;
            writeln!(out, "entries: {entries}")?;
            writeln!(out, "bytes: {bytes}")?;
            Ok(())
        }
        Some("verify") => {
            let args = CmdArgs::parse("image verify", &args[1..], 1, &[], &[])?;
            let path = Path::new(args.first("image verify needs a path")?);
            // Structural integrity first (magic, checksums, bounds),
            // then a real mount: an image from another build skips every
            // entry, and each entry of this build's either passes its
            // checks or is skipped. Skips are explained on stderr.
            let engine = Engine::new(EngineConfig {
                verbose: true,
                ..EngineConfig::no_cache()
            });
            let report = engine
                .mount_image(path)
                .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
            writeln!(
                out,
                "{}: ok — {} entries mounted, {} skipped, {} bytes",
                path.display(),
                report.mounted,
                report.skipped,
                report.bytes
            )?;
            Ok(())
        }
        Some("ls") => {
            let args = CmdArgs::parse("image ls", &args[1..], 1, &[], &[])?;
            let path = Path::new(args.first("image ls needs a path")?);
            let img = bpfree::cache::image::SuiteImage::open(path)
                .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
            writeln!(
                out,
                "{:<10} {:<11} {:<18} {:>7} {:>10}",
                "kind", "bench", "options", "dataset", "bytes"
            )?;
            for e in img.entries() {
                writeln!(
                    out,
                    "{:<10} {:<11} {:<18} {:>7} {:>10}",
                    e.kind.name(),
                    e.name,
                    e.opt,
                    e.dataset.map_or("-".to_string(), |d| d.to_string()),
                    e.payload_bytes()
                )?;
            }
            writeln!(
                out,
                "{} entries, {} bytes total",
                img.entries().len(),
                img.total_bytes()
            )?;
            Ok(())
        }
        _ => Err(usage_err(
            "image needs a subcommand: `build PATH`, `verify PATH`, or `ls PATH`",
        )),
    }
}

/// `bpfree cache stat` — what the cache image under `--cache-dir` (or
/// the default cache directory) holds, per artifact kind.
fn cmd_cache(out: &mut Out, args: &[String]) -> Result<(), Failure> {
    if args.first().map(String::as_str) != Some("stat") {
        return Err(usage_err("cache needs a subcommand: `stat`"));
    }
    let dir = &CmdArgs::parse("cache stat", &args[1..], 0, &[], &["--cache-dir"])?.cache_dir();
    let path = bpfree::cache::image_path(dir);
    let stat = bpfree::cache::maint::scan(dir)
        .map_err(|e| runtime_err(format!("{}: {e}", path.display())))?;
    writeln!(out, "cache image: {}", path.display())?;
    writeln!(out, "{:<10} {:>8} {:>12}", "kind", "entries", "bytes")?;
    for (kind, n, bytes) in stat.by_kind() {
        writeln!(out, "{:<10} {n:>8} {bytes:>12}", kind.name())?;
    }
    writeln!(
        out,
        "total: {} entries, {} bytes",
        stat.entries.len(),
        stat.total_bytes()
    )?;
    Ok(())
}

/// Rewrites the cache image if this process computed anything (see
/// `Engine::persist`). A failed write costs the next run time, never
/// this run's output, so it is a warning, not an error.
fn persist(engine: &Engine) {
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
fn run_exps(
    out: &mut Out,
    exps: &[&'static dyn Experiment],
    args: &CmdArgs,
    mode: &str,
) -> Result<(), Failure> {
    let engine = &args.engine()?;
    // An explicit suite image pre-fills every memo the batch would
    // otherwise compute (on top of the cache image the engine mounted
    // itself); a structurally corrupt `--image` is a hard error, but one
    // from another build, or entries that fail their checks, just fall
    // back to recompute.
    if let Some(img) = args.value("--image").map(Path::new) {
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
    let out_dir = args.value("--out-dir").map(Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let start = Instant::now();
    let reports = registry::run_experiments(exps, engine, true)?;
    match out_dir {
        Some(dir) => {
            let manifest = write_capture(dir, exps, &reports)?;
            eprintln!(
                "[bpfree] captured {} experiments under {} ({})",
                exps.len(),
                dir.display(),
                manifest.display()
            );
        }
        None => {
            for report in &reports {
                out.write_all(&report.bytes)?;
            }
            out.flush()?;
        }
    }
    persist(engine);
    eprintln!(
        "[bpfree] exp {mode}: {} experiments in {:.1}s, {} interpreter passes",
        exps.len(),
        start.elapsed().as_secs_f64(),
        engine.simulations()
    );
    Ok(())
}

/// Writes each report to `<dir>/<name>.txt` (the bytes `exp` prints)
/// and a `manifest.json` with paper references and each experiment's
/// rendering wall-clock; returns the manifest's path.
fn write_capture(
    dir: &Path,
    exps: &[&'static dyn Experiment],
    reports: &[Report],
) -> io::Result<PathBuf> {
    let mut experiments = Vec::with_capacity(exps.len());
    for (exp, report) in exps.iter().zip(reports) {
        let file = format!("{}.txt", exp.name());
        std::fs::write(dir.join(&file), &report.bytes)?;
        experiments.push(
            Json::obj()
                .field("name", exp.name())
                .field("paper_ref", exp.paper_ref())
                .field("file", file)
                .field("millis", report.millis)
                .build(),
        );
    }
    let manifest = Json::obj()
        .field(
            "paper",
            "Ball & Larus, Branch Prediction for Free, PLDI 1993",
        )
        .field("experiments", experiments)
        .build();
    let path = dir.join("manifest.json");
    std::fs::write(&path, format!("{}\n", manifest.pretty()))?;
    Ok(path)
}
