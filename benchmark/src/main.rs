//! The repository benchmark: the whole reproduction (`bpfree exp all`)
//! cold, warm and mounted, plus the per-program `predict` pipeline,
//! each with an optional traced run that breaks the time down by layer.
//! See `README.md` for the workloads, the metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cold|warm|mounted|programs [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every time is taken beside a run of a fixed calibration kernel and
//! scaled to the reference speed (see `calib.rs`), which cancels most of
//! a shared host's drift in speed.
//!
//! Every metric is printed as `workload metric value unit`; the last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones). A fuller results file, with provenance, every
//! rep and every span, goes to `<target dir>/benchmark/`.

mod calib;
mod expall;
mod proc;
mod programs;
mod pure;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bpfree::bench::json::Json;
use bpfree::bench::registry;

use crate::pure::{fnv1a, median, quantile};

/// `--jobs` for every `exp all`: `nproc` on the 2-core reference box.
pub const JOBS: usize = 2;

/// A child still running after this long is killed and its rep fails.
pub const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// Digests of correct output, taken from this code's own output.
const GOLDEN: &str = include_str!("../golden.txt");

const USAGE: &str = "usage: benchmark --workload cold|warm|mounted|programs \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Timed set-ups per run of an `exp all` workload; `setup_s` is their
/// median. (`programs` times one in each rep's child.)
pub const SETUPS: usize = 3;

/// The end-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 3] =
    [("wall_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// The per-layer metrics after `render_s` and the per-experiment
/// `render.<experiment>_s` rows: (name, unit), in report order.
const LAYERS: [(&str, &str); 44] = [
    ("ordering.matrix_s", "s"),
    ("ordering.pareto_s", "s"),
    ("ordering.exact_s", "s"),
    ("ordering.sampled_s", "s"),
    ("ordering.sampled_adds", "count"),
    ("sim.decode_s", "s"),
    ("sim.interpret_s", "s"),
    ("sim.instrs", "count"),
    ("sim.instrs_per_s", "1/s"),
    ("suite.datasets_s", "s"),
    ("lang.compile_s", "s"),
    ("lang.ir_instrs", "count"),
    ("core.analyze_s", "s"),
    ("core.branch_sites", "count"),
    ("core.evaluate_s", "s"),
    ("engine.datasets_s", "s"),
    ("engine.program_s", "s"),
    ("engine.predictions_s", "s"),
    ("engine.decoded_s", "s"),
    ("engine.run_s", "s"),
    ("engine.ordering_study_s", "s"),
    ("engine.compiles", "count"),
    ("engine.analyses", "count"),
    ("engine.decodes", "count"),
    ("engine.simulations", "count"),
    ("engine.trace_records", "count"),
    ("engine.orderings", "count"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("image.build_s", "s"),
    ("image.bytes", "bytes"),
    ("image.mount_s", "s"),
    ("image.mounted", "count"),
    ("image.skipped", "count"),
    ("replay.ipbc_s", "s"),
    ("replay.events", "count"),
    ("replay.events_per_s", "1/s"),
    ("proc.kernel_s", "s"),
    ("proc.cpu_min_s", "s"),
    ("proc.wall_p25_s", "s"),
    ("proc.wall_p50_s", "s"),
    ("proc.wall_iqr_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Every per-layer metric, (name, unit), in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics = vec![("render_s".to_string(), "s")];
    metrics.extend(
        registry::all()
            .iter()
            .map(|e| (format!("render.{}_s", e.name()), "s")),
    );
    metrics.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    metrics
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Cold,
    Warm,
    Mounted,
    Programs,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Cold,
        Workload::Warm,
        Workload::Mounted,
        Workload::Programs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Mounted => "mounted",
            Workload::Programs => "programs",
        }
    }
}

/// Per-layer metric values by name; a metric a workload does not set
/// reads as zero.
pub type Layers = BTreeMap<String, f64>;

/// One timed repetition.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub max_rss_kb: u64,
    /// Exited cleanly with golden output.
    pub ok: bool,
    /// The calibration kernel's mean time just before and just after;
    /// filled in by [`Ctx::timed_loop`].
    pub kernel_s: f64,
}

/// What the traced run found.
pub struct Traced {
    pub layers: Layers,
    /// Its outputs matched the goldens.
    pub ok: bool,
    pub spans: Json,
}

/// Everything one workload measured.
pub struct Outcome {
    /// Set-up times at the reference speed.
    pub setups: Vec<f64>,
    pub reps: Vec<Rep>,
    pub traced: Option<Traced>,
}

/// What every workload shares.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch space, removed when the run ends.
    pub tmp: PathBuf,
    /// Where results and mismatching outputs are kept.
    pub work: PathBuf,
}

impl Ctx {
    /// Runs `rep` back to back — a closed loop with one client, with a
    /// calibration between reps — until the run's measuring time is up,
    /// and at least once.
    pub fn timed_loop(
        &self,
        rep: impl FnMut(usize) -> Result<Rep, String>,
    ) -> Result<Vec<Rep>, String> {
        let start = Instant::now();
        let reps = calib::bracketed(calib::kernel_s, |_| start.elapsed() < self.seconds, rep)?;
        Ok(reps
            .into_iter()
            .map(|(rep, kernel_s)| Rep { kernel_s, ..rep })
            .collect())
    }

    /// Whether `bytes` digest to golden `name`. A mismatch keeps the
    /// bytes and says where.
    pub fn check(&self, name: &str, bytes: &[u8], label: &str) -> bool {
        let want = golden(name);
        let got = fnv1a(bytes);
        if got == want {
            return true;
        }
        let path = self.work.join(format!("mismatch-{label}.txt"));
        let saved = std::fs::write(&path, bytes).map_or_else(
            |e| format!("could not save it: {e}"),
            |()| format!("saved as {}", path.display()),
        );
        eprintln!("benchmark: {label}: {name} digest {got:016x}, golden {want:016x}; {saved}");
        false
    }
}

/// The golden digest called `name` in `golden.txt`.
fn golden(name: &str) -> u64 {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, hex) = l.split_once(' ')?;
            (n == name).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
        })
        .unwrap_or_else(|| panic!("golden.txt has no `{name}` digest"))
}

/// A directory removed when dropped, whether the run succeeded or not.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`: 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(programs::CHILD) => argv
            .get(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{} needs a seed", programs::CHILD))
            .and_then(programs::child),
        Some(calib::CHILD) => calib::child(),
        _ => match parse_args(argv.into_iter()) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let work = target.join("benchmark");
    let tmp = TempDir(work.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        tmp: tmp.0.clone(),
        work,
    };
    let outcome = match args.workload {
        Workload::Programs => programs::run(&ctx)?,
        w => expall::run(&ctx, w, &build_bpfree(&root, &target)?)?,
    };
    report(args, &ctx, &root, outcome)
}

/// The repository checkout: the parent of this package's directory.
fn repo_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds the `bpfree` binary from the checkout's sources (a no-op when
/// it is current) and returns its path.
fn build_bpfree(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--bin", "bpfree", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let bin = target.join("release").join("bpfree");
    if !status.success() {
        return Err(format!("building bpfree failed ({status})"));
    }
    if !bin.is_file() {
        return Err(format!("{} is missing after the build", bin.display()));
    }
    Ok(bin)
}

/// The first line a tool prints, or `unknown`.
fn tool_version(cmd: &mut Command) -> String {
    cmd.stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `a / b`, or zero when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn report(args: &Args, ctx: &Ctx, root: &Path, outcome: Outcome) -> Result<(), String> {
    let workload = args.workload.name();
    let good: Vec<&Rep> = outcome.reps.iter().filter(|r| r.ok).collect();
    if good.is_empty() {
        return Err(format!("all {} reps failed", outcome.reps.len()));
    }
    let walls: Vec<f64> = good.iter().map(|r| r.wall_s).collect();
    let scaled: Vec<f64> = good
        .iter()
        .map(|r| calib::scaled(r.wall_s, r.kernel_s))
        .collect();
    let cpus: Vec<f64> = good.iter().map(|r| r.cpu_s).collect();
    let kernels: Vec<f64> = outcome.reps.iter().map(|r| r.kernel_s).collect();
    let peaks_mb: Vec<f64> = good.iter().map(|r| r.max_rss_kb as f64 / 1024.0).collect();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // The mean, not the median: with the drift scaled out, what is left
    // is spread evenly enough that the mean of a run's dozen reps varies
    // less from run to run.
    let mean_scaled = scaled.iter().sum::<f64>() / scaled.len() as f64;
    let end_to_end = [mean_scaled, median(&peaks_mb), median(&outcome.setups)];
    let mut failed = outcome.reps.len() - good.len();
    let mut attempted = outcome.reps.len();

    let mut lines: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    let mut result_metrics = lines.clone();
    if let Some(traced) = &outcome.traced {
        attempted += 1;
        failed += usize::from(!traced.ok);
        let mut layers = traced.layers.clone();
        layers.insert("proc.kernel_s".into(), median(&kernels));
        layers.insert("proc.cpu_min_s".into(), min(&cpus));
        layers.insert("proc.wall_p25_s".into(), quantile(&walls, 0.25));
        layers.insert("proc.wall_p50_s".into(), median(&walls));
        layers.insert(
            "proc.wall_iqr_s".into(),
            quantile(&walls, 0.75) - quantile(&walls, 0.25),
        );
        let known = per_layer();
        if let Some(stray) = layers.keys().find(|k| !known.iter().any(|(n, _)| n == *k)) {
            return Err(format!(
                "per-layer metric `{stray}` is not in the metric list"
            ));
        }
        result_metrics = known
            .into_iter()
            .map(|(name, unit)| {
                let v = layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect();
        lines.extend(result_metrics.iter().cloned());
    }
    for (name, value, unit) in &lines {
        println!("{workload} {name} {value} {unit}");
    }

    let metrics_json = |m: &[(String, f64, &str)]| {
        m.iter()
            .fold(Json::obj(), |o, (n, v, u)| {
                o.field(n, Json::obj().field("value", *v).field("unit", *u).build())
            })
            .build()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(parent) = root.parent() {
        // Never read a repository outside the checkout.
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let reps: Vec<Json> = outcome
        .reps
        .iter()
        .map(|r| {
            Json::obj()
                .field("wall_s", r.wall_s)
                .field("kernel_s", r.kernel_s)
                .field("cpu_s", r.cpu_s)
                .field("max_rss_kb", r.max_rss_kb)
                .field("ok", r.ok)
                .build()
        })
        .collect();
    let mut doc = Json::obj()
        .field("workload", workload)
        .field(
            "provenance",
            Json::obj()
                .field("seed", ctx.seed)
                .field("seconds", args.seconds)
                .field("trace", args.trace)
                .field("jobs", JOBS as u64)
                .field("reference_s", calib::REFERENCE_S)
                .field("nproc", nproc)
                .field("rustc", tool_version(Command::new(rustc).arg("-V")))
                .field("git_rev", tool_version(&mut git))
                .build(),
        )
        .field("correct", failed == 0)
        .field("attempted", attempted as u64)
        .field("failed", failed as u64)
        .field(
            "setups_s",
            outcome
                .setups
                .iter()
                .map(|&s| Json::Float(s))
                .collect::<Vec<_>>(),
        )
        .field("reps", reps)
        .field("metrics", metrics_json(&lines));
    if let Some(traced) = outcome.traced {
        doc = doc.field("spans", traced.spans);
    }
    let path = ctx
        .work
        .join(format!("results-{workload}-seed{}.json", ctx.seed));
    std::fs::write(&path, doc.build().pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("benchmark: results in {}", path.display());

    let body: Vec<String> = result_metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_line() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload warm --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Warm);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12, true));
        let d = args("--workload programs").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 20, false));
        assert!(args("--seed 3").is_err(), "workload is required");
        assert!(args("--workload tepid").is_err());
        assert!(args("--workload cold --trace 2").is_err());
        assert!(args("--workload cold --seconds 0").is_err());
        assert!(args("--workload cold --frob 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn goldens_parse() {
        golden("exp_all");
        golden("programs");
    }

    /// BENCHMARK.json names exactly the workloads and metrics this
    /// program reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let names: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for name in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
        assert_eq!(spec.matches("\"name\": ").count(), names.len());
    }
}
