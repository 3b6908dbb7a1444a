//! The `exp all` workloads: the whole reproduction run by the `bpfree`
//! binary against an empty cache (`cold`), a filled cache (`warm`) or a
//! suite image (`mounted`), each rep one child process; then, with
//! tracing on, the same batch driven step by step in-process on a fresh
//! engine.

use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use bpfree::bench::registry;
use bpfree::bench::sink::VecSink;
use bpfree::core::ipbc::IpbcAnalyzer;
use bpfree::core::ordering::OrderingStudy;
use bpfree::core::{
    loop_rand_predictions, perfect_predictions, CombinedPredictor, HeuristicKind, DEFAULT_SEED,
};
use bpfree::engine::{Engine, EngineConfig};
use bpfree::lang::Options;
use bpfree::sim::InterpTier;
use bpfree::suite::Benchmark;

use crate::calib;
use crate::proc::{run_measured, Exit, Measured};
use crate::pure::{mask_durations, shuffle};
use crate::tracer::{self, Tracer, ANALYSES, COMPILES, COUNTERS, DECODES, SIMULATIONS};
use crate::{ratio, Ctx, Layers, Outcome, Rep, Traced, Workload, JOBS, REP_TIMEOUT, SETUPS};

/// Environment variables that would change what a `bpfree` child does.
const BPFREE_ENV: [&str; 5] = [
    "BPFREE_JOBS",
    "BPFREE_NO_CACHE",
    "BPFREE_CACHE_DIR",
    "BPFREE_INTERP",
    "BPFREE_TIMINGS",
];

/// Start-up probes in one `cold` set-up: one probe takes about a
/// millisecond, too short to time alone.
const PROBES: usize = 10;

/// `ordering_ablate`'s sampled sweep: samples and RNG seed.
const SAMPLES: u64 = 20_000;
const SAMPLE_SEED: u64 = 7;

/// The benchmark whose trace the replay kernel scores (the largest of
/// the traced set).
const REPLAY_BENCH: &str = "doduc";

struct ExpAll<'a> {
    ctx: &'a Ctx,
    workload: Workload,
    bin: &'a Path,
    /// The cache directory (`cold`: emptied before each rep; `warm`:
    /// filled by the set-up).
    cache: PathBuf,
    /// The suite image `mounted` serves from.
    image: PathBuf,
}

pub fn run(ctx: &Ctx, workload: Workload, bin: &Path) -> Result<Outcome, String> {
    let w = ExpAll {
        ctx,
        workload,
        bin,
        cache: ctx.tmp.join("cache"),
        image: ctx.tmp.join("suite.img"),
    };
    let setups = calib::bracketed(calib::kernel_s, |i| i < SETUPS, |i| w.setup(i))?
        .into_iter()
        .map(|(s, kernel_s)| calib::scaled(s, kernel_s))
        .collect();
    let reps = ctx.timed_loop(|i| w.rep(i))?;
    let traced = if ctx.trace { Some(w.traced()?) } else { None };
    Ok(Outcome {
        setups,
        reps,
        traced,
    })
}

fn remove(path: &Path) -> Result<(), String> {
    let removed = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
    match removed {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(format!("{}: {e}", path.display())),
        _ => Ok(()),
    }
}

impl ExpAll<'_> {
    /// Runs `bpfree ARGS` as a measured child, with its stdout and
    /// stderr in files under the scratch directory, and returns the
    /// measurement and the stdout bytes.
    fn bpfree(&self, args: &[&str], paths: &[&Path]) -> Result<(Measured, Vec<u8>), String> {
        let out = self.ctx.tmp.join("stdout.txt");
        let err = self.ctx.tmp.join("stderr.txt");
        let file = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let mut cmd = Command::new(self.bin);
        cmd.args(args)
            .args(paths)
            .current_dir(&self.ctx.tmp)
            .stdin(Stdio::null())
            .stdout(file(&out)?)
            .stderr(file(&err)?);
        for var in BPFREE_ENV {
            cmd.env_remove(var);
        }
        let m = run_measured(&mut cmd, REP_TIMEOUT)
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        if m.exit != Exit::Code(0) {
            let stderr = std::fs::read_to_string(&err).unwrap_or_default();
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            eprintln!(
                "benchmark: `bpfree {}` ended {:?}; stderr ends:\n{}",
                args.join(" "),
                m.exit,
                tail.into_iter().rev().collect::<Vec<_>>().join("\n")
            );
        }
        let stdout = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok((m, stdout))
    }

    /// Whether a finished `exp all` child succeeded with golden output.
    fn passed(&self, m: &Measured, stdout: &[u8], label: &str) -> bool {
        m.exit == Exit::Code(0) && self.ctx.check("exp_all", &mask_durations(stdout), label)
    }

    /// One set-up, timed in seconds: start-up probes for `cold`, a cache
    /// fill for `warm`, an image build for `mounted`.
    fn setup(&self, i: usize) -> Result<f64, String> {
        let label = format!("{}-setup{i}", self.workload.name());
        let (m, ok) = match self.workload {
            Workload::Cold => {
                let mut wall_s = 0.0;
                for _ in 0..PROBES {
                    let (m, stdout) = self.bpfree(&["exp", "list"], &[])?;
                    let listing = String::from_utf8_lossy(&stdout);
                    let listed = registry::all()
                        .iter()
                        .all(|e| listing.lines().any(|l| l.starts_with(e.name())));
                    if m.exit != Exit::Code(0) || !listed {
                        return Err(format!("{label} failed"));
                    }
                    wall_s += m.wall_s;
                }
                return Ok(wall_s);
            }
            Workload::Warm => {
                remove(&self.cache)?;
                let (m, stdout) = self.bpfree(
                    &["exp", "all", "--jobs", &JOBS.to_string(), "--cache-dir"],
                    &[&self.cache],
                )?;
                let ok = self.passed(&m, &stdout, &label);
                (m, ok)
            }
            Workload::Mounted => {
                remove(&self.image)?;
                let (m, _) = self.bpfree(
                    &["image", "build", "--no-cache", "--jobs", &JOBS.to_string()],
                    &[&self.image],
                )?;
                let ok = m.exit == Exit::Code(0) && self.image.is_file();
                (m, ok)
            }
            Workload::Programs => unreachable!("programs has its own runner"),
        };
        if !ok {
            return Err(format!("{label} failed"));
        }
        Ok(m.wall_s)
    }

    /// One timed `bpfree exp all`.
    fn rep(&self, i: usize) -> Result<Rep, String> {
        let jobs = JOBS.to_string();
        let mut args = vec!["exp", "all", "--jobs", &jobs];
        let paths: [&Path; 1] = match self.workload {
            Workload::Cold => {
                remove(&self.cache)?;
                args.push("--cache-dir");
                [&self.cache]
            }
            Workload::Warm => {
                args.push("--cache-dir");
                [&self.cache]
            }
            _ => {
                args.extend(["--no-cache", "--image"]);
                [&self.image]
            }
        };
        let (m, stdout) = self.bpfree(&args, &paths)?;
        let label = format!("{}-rep{i}", self.workload.name());
        Ok(Rep {
            wall_s: m.wall_s,
            cpu_s: m.cpu_s,
            max_rss_kb: m.max_rss_kb,
            ok: self.passed(&m, &stdout, &label),
            kernel_s: 0.0,
        })
    }

    /// The traced run: the batch driven step by step on a fresh engine
    /// configured like the reps' children, each call into a layer in its
    /// own span; then the ordering, replay and image-export kernels once
    /// each, outside the coverage window.
    fn traced(&self) -> Result<Traced, String> {
        bpfree_par::set_jobs(JOBS);
        let opt = Options::default();
        let cache_config = |dir: PathBuf| EngineConfig {
            use_cache: true,
            cache_dir: dir,
            verbose: false,
            tier: InterpTier::default(),
        };
        let trace_cache = self.ctx.tmp.join("trace-cache");
        let engine = Engine::new(match self.workload {
            Workload::Cold => cache_config(trace_cache.clone()),
            Workload::Warm => cache_config(self.cache.clone()),
            _ => EngineConfig::no_cache(),
        });
        let mut layers = Layers::new();
        let mut set = |name: &str, v: f64| {
            layers.insert(name.to_string(), v);
        };
        let mut t = Tracer::new(Some(&engine));

        // 1. The image (mounted only).
        if self.workload == Workload::Mounted {
            let mounted = t
                .span("image.mount", "suite.img", |_| {
                    engine.mount_image(&self.image)
                })
                .map_err(|e| format!("cannot mount {}: {e}", self.image.display()))?;
            set("image.mounted", mounted.mounted as f64);
            set("image.skipped", mounted.skipped as f64);
        }

        // 2. Every benchmark's artifacts, in seed order; the traced set
        // records its trace first so the run falls out of the same pass.
        let traced: BTreeSet<&str> = registry::all()
            .iter()
            .flat_map(|e| e.traced())
            .copied()
            .collect();
        let mut benches = bpfree::suite::all();
        shuffle(self.ctx.seed, &mut benches);
        let mut instrs = 0u64;
        for b in &benches {
            let passes = engine.simulations();
            t.span("bench", b.name, |t| {
                t.span("engine.datasets", b.name, |_| engine.datasets(b));
                t.span("engine.program", b.name, |_| engine.program(b, opt));
                t.span("engine.predictions", b.name, |_| engine.predictions(b, opt));
                t.span("engine.decoded", b.name, |_| engine.decoded(b, opt));
                if traced.contains(b.name) {
                    t.span("engine.trace", b.name, |_| engine.trace(b, opt, 0));
                }
                t.span("engine.run", b.name, |_| engine.run(b, opt, 0));
            });
            if engine.simulations() > passes {
                instrs += engine.run(b, opt, 0).result.instructions;
            }
        }

        // 3. The ordering study over the roster.
        let roster = bpfree::bench::ordering_roster();
        let refs: Vec<&Benchmark> = roster.iter().collect();
        let study = t.span("engine.ordering_study", "roster", |_| {
            engine.ordering_study(&refs, opt)
        });

        // 4. Every experiment, in registry order; together their bytes
        // are `exp all`'s stdout.
        let mut stdout = Vec::new();
        for exp in registry::all() {
            let bytes = t
                .span("render", exp.name(), |_| {
                    let mut sink = VecSink::new();
                    exp.run(&engine, &mut sink).map(|()| sink.take())
                })
                .map_err(|e| format!("{}: {e}", exp.name()))?;
            stdout.extend(bytes);
        }
        t.end_pipeline();
        let counters = tracer::counters(&engine);
        let label = format!("{}-traced", self.workload.name());
        let mut ok = self.ctx.check("exp_all", &mask_durations(&stdout), &label);

        // Kernels, each called once on the same study and trace.
        let rebuilt = t.span("ordering.matrix", "roster", |_| {
            OrderingStudy::new_serial(study.benches().to_vec())
        });
        let same_bits = |a: &[Vec<f64>], b: &[Vec<f64>]| {
            a.iter()
                .flatten()
                .map(|x| x.to_bits())
                .eq(b.iter().flatten().map(|x| x.to_bits()))
        };
        if !same_bits(rebuilt.rates(), study.rates()) {
            eprintln!("benchmark: {label}: the rebuilt rate matrix differs from the engine's");
            ok = false;
        }
        let k = rebuilt.benches().len() / 2;
        t.span("ordering.pareto", "roster", |_| {
            rebuilt.pareto_front().len()
        });
        t.span("ordering.exact", "roster", |_| rebuilt.subset_experiment(k));
        t.span("ordering.sampled", "roster", |_| {
            rebuilt.subset_experiment_sampled(k, SAMPLES, SAMPLE_SEED)
        });

        let bench = bpfree::suite::by_name(REPLAY_BENCH).expect("the replay benchmark exists");
        let compiled = engine.compiled(&bench, opt);
        let run = engine.run(&bench, opt, 0);
        let trace = engine.trace(&bench, opt, 0);
        let (program, classifier) = (&*compiled.program, &*compiled.classifier);
        let predictors = [
            (
                "Loop+Rand",
                loop_rand_predictions(program, classifier, DEFAULT_SEED),
            ),
            (
                "Heuristic",
                CombinedPredictor::new(program, classifier, HeuristicKind::paper_order())
                    .predictions(),
            ),
            ("Perfect", perfect_predictions(program, &run.profile)),
        ];
        let mut analyzer = IpbcAnalyzer::new(program);
        for (name, p) in &predictors {
            analyzer.add_predictor(*name, p);
        }
        t.span("replay.ipbc", REPLAY_BENCH, |_| {
            trace.replay_segmented(&mut analyzer)
        });
        std::hint::black_box(analyzer.finish());

        let exported = self.ctx.tmp.join("export.img");
        let (_, image_bytes) = t
            .span("image.build", "export.img", |_| {
                engine.export_image(&exported)
            })
            .map_err(|e| format!("cannot export an image: {e}"))?;

        // Per-layer metrics from the spans and counters.
        let total = |name: &str| t.total(name);
        set("render_s", total("render"));
        for exp in registry::all() {
            set(
                &format!("render.{}_s", exp.name()),
                t.total_keyed("render", exp.name()),
            );
        }
        set("ordering.matrix_s", total("ordering.matrix"));
        set("ordering.pareto_s", total("ordering.pareto"));
        set("ordering.exact_s", total("ordering.exact"));
        set("ordering.sampled_s", total("ordering.sampled"));
        set(
            "ordering.sampled_adds",
            (SAMPLES * rebuilt.orders().len() as u64 * k as u64) as f64,
        );
        let interpret = t.total_working("engine.trace", SIMULATIONS)
            + t.total_working("engine.run", SIMULATIONS);
        set("sim.decode_s", t.total_working("engine.decoded", DECODES));
        set("sim.interpret_s", interpret);
        set("sim.instrs", instrs as f64);
        set("sim.instrs_per_s", ratio(instrs as f64, interpret));
        set("suite.datasets_s", total("engine.datasets"));
        set(
            "lang.compile_s",
            t.total_working("engine.program", COMPILES),
        );
        set(
            "core.analyze_s",
            t.total_working("engine.predictions", ANALYSES),
        );
        let programs: Vec<_> = benches.iter().map(|b| engine.program(b, opt)).collect();
        set(
            "lang.ir_instrs",
            programs.iter().map(|p| p.static_size()).sum::<u64>() as f64,
        );
        set(
            "core.branch_sites",
            programs.iter().map(|p| p.branches().len()).sum::<usize>() as f64,
        );
        for step in [
            "datasets",
            "program",
            "predictions",
            "decoded",
            "ordering_study",
        ] {
            set(
                &format!("engine.{step}_s"),
                total(&format!("engine.{step}")),
            );
        }
        set("engine.run_s", total("engine.trace") + total("engine.run"));
        for (name, count) in COUNTERS.iter().zip(counters) {
            set(&format!("engine.{name}"), count as f64);
        }
        let cache_dir = match self.workload {
            Workload::Cold => Some(&trace_cache),
            Workload::Warm => Some(&self.cache),
            _ => None,
        };
        if let Some(dir) = cache_dir {
            let stat = bpfree::cache::maint::scan(dir)
                .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
            set("cache.entries", stat.entries.len() as f64);
            set("cache.bytes", stat.total_bytes() as f64);
        }
        set("image.build_s", total("image.build"));
        set("image.bytes", image_bytes as f64);
        set("image.mount_s", total("image.mount"));
        set("replay.ipbc_s", total("replay.ipbc"));
        set("replay.events", trace.len() as f64);
        set(
            "replay.events_per_s",
            ratio(trace.len() as f64, total("replay.ipbc")),
        );
        set("trace.wall_s", t.wall());
        set("trace.coverage", t.coverage());
        Ok(Traced {
            layers,
            ok,
            spans: t.to_json(),
        })
    }
}
