//! Shared CLI configuration for the experiment pipeline.
//!
//! The root `bpfree` CLI's engine-backed subcommands (`run`, `predict`,
//! `bench`, `exp`, `image`, `cache`) accept the same flags:
//!
//! - `--jobs N` (or `BPFREE_JOBS=N`): worker threads for the parallel
//!   loops. Results are bit-identical at any value; `--jobs 1` forces
//!   the serial path.
//! - `--no-cache` (or `BPFREE_NO_CACHE=1`): bypass the on-disk
//!   suite-artifact cache.
//! - `--cache-dir DIR` (or `BPFREE_CACHE_DIR=DIR`): cache location
//!   (default `target/bpfree-cache`); the cache is the one image
//!   `DIR/suite.img`.
//! - `--timings[=PATH]` (or `BPFREE_TIMINGS=1|PATH`): record
//!   per-task timings (query kind, key, wall-clock) and emit them as
//!   JSON to stderr (bare flag) or `PATH`.
//!
//! A flag value may follow as the next argument or after `=`; an empty
//! one (`--cache-dir=`, `--cache-dir ""`) is an error, never the current
//! directory.
//!
//! Every simulation runs the bytecode interpreter; the tree walker is a
//! test oracle that no flag selects.
//!
//! The CLI pulls the standard flags out of a mixed argument list with
//! [`extract`] and applies them with [`apply`]. [`apply`] is
//! re-entrant: the first call wins and later calls (any experiment run
//! in the same process, nested helpers, tests) observe the already
//! installed configuration instead of racing to replace it. The engine
//! itself is built lazily by [`engine`], so commands that never query
//! an artifact (`exp list`, `run`, `predict`) never open the cache.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Where the per-task timing log goes when `--timings` is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingsOut {
    /// Pretty-printed JSON to stderr after the batch summary.
    Stderr,
    /// Written to this file.
    File(PathBuf),
}

/// Resolved configuration, also stored process-globally so [`engine`]
/// and the CLI commands can honor it without threading it through every
/// call site.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads (`None` = machine default / `BPFREE_JOBS`).
    pub jobs: Option<usize>,
    /// Whether suite artifacts may be read from / written to disk.
    pub use_cache: bool,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Per-task timing log destination (`None` = off).
    pub timings: Option<TimingsOut>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            jobs: None,
            use_cache: !bpfree_cache::disabled_by_env(),
            cache_dir: bpfree_cache::default_dir(),
            timings: timings_from_env(),
        }
    }
}

/// `BPFREE_TIMINGS`'s destination: unset/empty/`0` is off, `1`, `true`,
/// or `stderr` means stderr, anything else is a file path.
fn timings_from_env() -> Option<TimingsOut> {
    match std::env::var("BPFREE_TIMINGS").ok()?.as_str() {
        "" | "0" => None,
        "1" | "true" | "stderr" => Some(TimingsOut::Stderr),
        path => Some(TimingsOut::File(PathBuf::from(path))),
    }
}

static CONFIG: OnceLock<Config> = OnceLock::new();

/// The active configuration ([`apply`]'s result, or the environment
/// defaults if nothing called [`apply`]).
pub fn config() -> &'static Config {
    CONFIG.get_or_init(Config::default)
}

/// Stores `cfg` globally and applies its job count and timing switch.
/// It does not build the engine: [`engine`] does that on first use, so
/// the cache is only opened by commands that need it.
///
/// Re-entrant, first caller wins (matching `OnceLock` semantics): a
/// second `apply` — e.g. an experiment run in-process after the CLI
/// already configured itself — leaves the installed configuration
/// untouched and returns it.
pub fn apply(cfg: Config) -> &'static Config {
    if CONFIG.set(cfg).is_ok() {
        // First application: this config owns the process-wide knobs.
        if let Some(n) = config().jobs {
            bpfree_par::set_jobs(n);
        }
        if config().timings.is_some() {
            bpfree_par::timings::enable();
        }
    }
    config()
}

/// The process-wide artifact engine, configured from [`config`] (or the
/// environment defaults if nothing called [`apply`]). The first call
/// builds it, which mounts the cache image when caching is on.
pub fn engine() -> &'static bpfree_engine::Engine {
    let cfg = config();
    bpfree_engine::install(bpfree_engine::EngineConfig {
        use_cache: cfg.use_cache,
        cache_dir: cfg.cache_dir.clone(),
        ..bpfree_engine::EngineConfig::default()
    })
}

/// Pulls the standard experiment flags out of a mixed argument list,
/// returning the parsed [`Config`] and the remaining arguments in their
/// original order: the standard flags may appear anywhere on the
/// `bpfree` command line, before or after the subcommand, and whatever
/// is left over belongs to the subcommand.
pub fn extract(args: impl IntoIterator<Item = String>) -> Result<(Config, Vec<String>), String> {
    let mut cfg = Config::default();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-cache" => cfg.use_cache = false,
            "--jobs" | "-j" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--jobs requires a value".to_string())?;
                cfg.jobs = Some(parse_jobs(&v)?);
            }
            s if s.starts_with("--jobs=") => {
                cfg.jobs = Some(parse_jobs(&s["--jobs=".len()..])?);
            }
            "--cache-dir" => {
                cfg.cache_dir = cache_dir(args.next().as_deref().unwrap_or(""))?;
            }
            s if s.starts_with("--cache-dir=") => {
                cfg.cache_dir = cache_dir(&s["--cache-dir=".len()..])?;
            }
            "--timings" => cfg.timings = Some(TimingsOut::Stderr),
            s if s.starts_with("--timings=") => {
                let v = &s["--timings=".len()..];
                if v.is_empty() {
                    return Err("--timings= requires a path".to_string());
                }
                cfg.timings = Some(TimingsOut::File(PathBuf::from(v)));
            }
            _ => rest.push(arg),
        }
    }
    Ok((cfg, rest))
}

fn cache_dir(v: &str) -> Result<PathBuf, String> {
    if v.is_empty() {
        return Err("--cache-dir requires a value".to_string());
    }
    Ok(PathBuf::from(v))
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs expects a positive integer, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Config, String> {
        let (cfg, rest) = extract(args.iter().map(|s| s.to_string()))?;
        assert!(rest.is_empty(), "left over: {rest:?}");
        Ok(cfg)
    }

    #[test]
    fn parses_jobs_and_cache_flags() {
        let c = p(&["--jobs", "4", "--no-cache", "--cache-dir", "/tmp/x"]).unwrap();
        assert_eq!(c.jobs, Some(4));
        assert!(!c.use_cache);
        assert_eq!(c.cache_dir, PathBuf::from("/tmp/x"));

        let c = p(&["--jobs=2", "--cache-dir=/tmp/y"]).unwrap();
        assert_eq!(c.jobs, Some(2));
        assert_eq!(c.cache_dir, PathBuf::from("/tmp/y"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(p(&["--jobs", "0"]).is_err());
        assert!(p(&["--jobs", "zap"]).is_err());
        assert!(p(&["--jobs"]).is_err());
        assert!(p(&["--jobs="]).is_err());
        assert!(p(&["--cache-dir"]).is_err());
        assert!(p(&["--cache-dir", ""]).is_err());
        assert!(p(&["--cache-dir="]).is_err());
    }

    #[test]
    fn extract_leaves_subcommand_args_in_order() {
        let (cfg, rest) = extract(
            [
                "exp",
                "--jobs",
                "2",
                "run",
                "table1",
                "--no-cache",
                "--out-dir",
                "/tmp/o",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(cfg.jobs, Some(2));
        assert!(!cfg.use_cache);
        assert_eq!(rest, ["exp", "run", "table1", "--out-dir", "/tmp/o"]);
    }

    #[test]
    fn parses_timings_flag() {
        assert_eq!(p(&["--timings"]).unwrap().timings, Some(TimingsOut::Stderr));
        assert_eq!(
            p(&["--timings=/tmp/t.json"]).unwrap().timings,
            Some(TimingsOut::File(PathBuf::from("/tmp/t.json")))
        );
        assert!(p(&["--timings="]).is_err());
    }

    #[test]
    fn apply_is_reentrant_first_wins() {
        let first = apply(Config {
            jobs: None,
            use_cache: false,
            cache_dir: PathBuf::from("/tmp/first"),
            timings: None,
        });
        let second = apply(Config {
            jobs: None,
            use_cache: true,
            cache_dir: PathBuf::from("/tmp/second"),
            timings: None,
        });
        assert_eq!(first.cache_dir, second.cache_dir);
        assert_eq!(second.cache_dir, PathBuf::from("/tmp/first"));
    }
}
