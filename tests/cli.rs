//! End-to-end tests of the `bpfree` command-line driver.

use std::io::Write;
use std::process::Command;

fn bpfree() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bpfree"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("bpfree-cli-{name}-{}.cmm", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const PROGRAM: &str = "fn main() -> int {
    int i; int s;
    for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { s = s + i; } }
    return s;
}";

#[test]
fn run_executes_and_reports_exit() {
    let path = write_temp("run", PROGRAM);
    let out = bpfree().arg("run").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exit: 20"), "{stdout}");
    assert!(stdout.contains("instructions:"));
}

#[test]
fn compile_emits_ir() {
    let path = write_temp("compile", PROGRAM);
    let out = bpfree().arg("compile").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fn main"));
    assert!(stdout.contains("L0:"));
}

#[test]
fn compile_o0_differs_from_optimised() {
    let src = "fn sq(int x) -> int { return x * x; }
        fn main() -> int { return sq(4); }";
    let path = write_temp("o0", src);
    let opt = bpfree().arg("compile").arg(&path).output().unwrap();
    let raw = bpfree()
        .arg("compile")
        .arg(&path)
        .arg("--o0")
        .output()
        .unwrap();
    let opt_s = String::from_utf8_lossy(&opt.stdout).to_string();
    let raw_s = String::from_utf8_lossy(&raw.stdout).to_string();
    assert!(raw_s.contains("fn sq"), "-O0 keeps the helper");
    assert!(
        !opt_s.contains("fn sq"),
        "default pipeline inlines and drops it"
    );
}

#[test]
fn predict_prints_branch_table() {
    let path = write_temp("predict", PROGRAM);
    let out = bpfree().arg("predict").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loop-pred"), "{stdout}");
    assert!(stdout.contains("overall:"));
}

#[test]
fn bench_runs_a_suite_program() {
    let out = bpfree().arg("bench").arg("grep").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("benchmark: grep"));
    assert!(stdout.contains("heuristic miss:"));
}

#[test]
fn list_names_all_23() {
    let out = bpfree().arg("list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["gcc", "xlisp", "tomcatv", "matrix300"] {
        assert!(stdout.contains(name));
    }
    assert_eq!(stdout.lines().count(), 24); // header + 23 rows
}

#[test]
fn compile_error_is_reported_with_location() {
    let path = write_temp("err", "fn main() -> int { return undefined_var; }");
    let out = bpfree().arg("compile").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown variable"), "{stderr}");
}

/// Source nested 30,000 levels deep, in each shape that used to
/// overflow the native stack, is a located syntax error (exit 1).
#[test]
fn deep_nesting_is_a_compile_error_not_a_crash() {
    let n = 30_000;
    let shapes = [
        ("ifs", "if (x >= 0) { ".repeat(n) + &"}".repeat(n)),
        ("blocks", "{ ".repeat(n) + &"}".repeat(n)),
        (
            "parens",
            format!("x = {}1{};", "(".repeat(n), ")".repeat(n)),
        ),
        ("sum", format!("x = 0{};", " + 1".repeat(n - 1))),
    ];
    for (name, body) in shapes {
        let source = format!("fn main() -> int {{ int x; {body} return x; }}");
        let path = write_temp(&format!("deep-{name}"), &source);
        let out = bpfree().arg("run").arg(&path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        let at = format!("{}:1:", path.display());
        assert!(stderr.contains(&at), "{name}: {stderr}");
        assert!(
            stderr.contains("syntax error: nesting deeper than"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bpfree().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn compile_error_is_runtime_not_usage() {
    let path = write_temp("exit1", "fn main() -> int { return undefined_var; }");
    let out = bpfree().arg("compile").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "runtime failures exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("usage:"),
        "runtime failures must not dump usage: {stderr}"
    );
}

#[test]
fn version_flag_prints_version() {
    let out = bpfree().arg("--version").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim(),
        format!("bpfree {}", env!("CARGO_PKG_VERSION"))
    );
}

#[test]
fn exp_list_names_every_experiment() {
    let out = bpfree().arg("exp").arg("list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["table1", "table7", "graph1", "graphs4_11", "summary_json"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert_eq!(stdout.lines().count(), 20); // header + 19 experiments
}

#[test]
fn exp_run_streams_to_stdout() {
    // graph12 is the pure-math experiment: instant, no suite work. The
    // standard flags take their values in either form.
    let dir = scratch_dir("flag-forms");
    let cache_dir = format!("--cache-dir={}", dir.display());
    for flags in [&[][..], &["--jobs=1", "--no-cache", &cache_dir]] {
        let out = bpfree()
            .args(["exp", "run", "graph12"])
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("model dividing lengths"), "{stdout}");
        assert!(stderr.contains("running graph12"), "{stderr}");
        assert!(stderr.contains("interpreter passes"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_exits_2_with_suggestion() {
    let out = bpfree()
        .arg("exp")
        .arg("run")
        .arg("tabel1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `table1`"), "{stderr}");
    assert!(stderr.contains("bpfree exp list"), "{stderr}");
}

#[test]
fn exp_all_captures_files_and_manifest() {
    let dir = std::env::temp_dir().join(format!("bpfree-expall-{}", std::process::id()));
    // Skip the expensive studies; the remaining 16 experiments still
    // exercise the whole suite through the shared engine.
    let out = bpfree()
        .args(["exp", "all", "--skip", "ordering_ablate"])
        .args(["--skip", "table4", "--skip", "graphs4_11"])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Captured experiments land as <name>.txt; skipped ones don't.
    assert!(dir.join("table6.txt").exists());
    assert!(dir.join("summary_json.txt").exists());
    assert!(!dir.join("ordering_ablate.txt").exists());
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"table6\""), "{manifest}");
    assert!(!manifest.contains("\"ordering_ablate\""), "{manifest}");
    // Nothing leaks onto stdout; the summary line goes to stderr.
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("16 experiments"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_benchmark_suggests_list() {
    let out = bpfree().arg("bench").arg("nonesuch").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bpfree list"));
}

#[test]
fn fuel_limit_is_honoured() {
    let path = write_temp(
        "fuel",
        "fn main() -> int { int i; do { i = i + 1; } while (i > 0); return i; }",
    );
    let out = bpfree()
        .arg("run")
        .arg(&path)
        .arg("--fuel")
        .arg("5000")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fuel"));
}

#[test]
fn cfg_emits_graphviz() {
    let path = write_temp("cfg", PROGRAM);
    let out = bpfree().arg("cfg").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph bpfree {"));
    assert!(stdout.contains("cluster_0"));
    // The loop latch's backedge is dashed and some edge carries the
    // bold predicted style.
    assert!(stdout.contains("style=dashed"), "{stdout}");
    assert!(stdout.contains("penwidth=2.4"), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn cfg_func_filter_limits_output() {
    let src = "fn helper(int x) -> int {
        int i; int s;
        for (i = 0; i < x; i = i + 1) { s = s + i * (s >> 1); }
        while (s > 9) { s = s - 3; }
        return s;
    }
    fn main() -> int { return helper(5); }";
    let path = write_temp("cfgf", src);
    let out = bpfree()
        .arg("cfg")
        .arg(&path)
        .arg("--func")
        .arg("helper")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("helper"));
    assert!(!stdout.contains("label=\"main\""));
}

/// A valid suite image of one compile entry.
fn small_image() -> Vec<u8> {
    use bpfree::cache::image::{Artifact, ImageBuilder};
    let program = bpfree::lang::compile(PROGRAM).unwrap();
    let mut b = ImageBuilder::new();
    b.add("grep", "O", None, Artifact::Compile(&program));
    b.finish()
}

/// Each command takes only the flags it uses: `--no-cache` and
/// `--cache-dir` only where it reads the cache, `--jobs` only where it
/// runs parallel work, and none of them before the subcommand. A flag
/// it takes still needs a valid value: `--jobs` a positive count.
#[test]
fn every_command_rejects_arguments_it_does_not_take() {
    let file = write_temp("strict", PROGRAM);
    let f = file.to_str().unwrap();
    let image = std::env::temp_dir().join(format!("bpfree-cli-strict-{}.img", std::process::id()));
    std::fs::write(&image, small_image()).unwrap();
    let img = image.to_str().unwrap();
    let dir = std::env::temp_dir();
    let d = dir.to_str().unwrap();
    const FROB: &str = "unrecognized flag `--frobnicate`";
    const NO_CACHE: &str = "unrecognized flag `--no-cache`";
    const JOBS: &str = "unrecognized flag `--jobs`";
    const CACHE_DIR: &str = "unrecognized flag `--cache-dir`";
    const TIMINGS: &str = "unrecognized flag `--timings`";
    let cases: &[(&[&str], &str)] = &[
        (&["--frobnicate"], FROB),
        (&["compile", f, "--frobnicate"], FROB),
        (&["compile", f, "extra"], "unexpected argument `extra`"),
        (&["run", f, "--fule", "5"], "unrecognized flag `--fule`"),
        (&["predict", f, "--frobnicate"], FROB),
        (&["cfg", f, "--func", "nope"], "no function `nope`"),
        (&["cfg", f, "--func"], "--func needs a value"),
        (
            &["bench", "grep", "--datset", "1"],
            "unrecognized flag `--datset`",
        ),
        (&["list", "--frobnicate"], FROB),
        (&["exp", "list", "--frobnicate"], FROB),
        (&["exp", "run", "graph12", "--frobnicate"], FROB),
        (
            &["exp", "all", "--interp", "tree"],
            "unrecognized flag `--interp`",
        ),
        (&["image", "ls", "x.img", "--frobnicate"], FROB),
        (&["cache", "stat", "--frobnicate"], FROB),
        (&["run", f, "--no-cache"], NO_CACHE),
        (&["compile", f, "--jobs", "2"], JOBS),
        (&["predict", f, "--cache-dir", d], CACHE_DIR),
        (&["list", "--timings"], TIMINGS),
        (&["exp", "list", "--cache-dir", d], CACHE_DIR),
        (&["image", "ls", img, "--no-cache"], NO_CACHE),
        (&["image", "verify", img, "--jobs", "2"], JOBS),
        (&["bench", "grep", "--jobs", "2"], JOBS),
        (&["cache", "stat", "--no-cache"], NO_CACHE),
        (&["--jobs", "2", "exp", "list"], JOBS),
        (
            &["exp", "run", "graph12", "-j", "2"],
            "unrecognized flag `-j`",
        ),
        (&["exp", "all", "--timings"], TIMINGS),
        (
            &["exp", "run", "graph12", "--jobs", "0"],
            "bad value for --jobs",
        ),
        (
            &["exp", "run", "graph12", "--jobs", "zap"],
            "bad value for --jobs",
        ),
        (&["exp", "run", "graph12", "--jobs"], "--jobs needs a value"),
        (
            &["exp", "run", "graph12", "--jobs="],
            "--jobs needs a value",
        ),
        (
            &["exp", "run", "graph12", "--cache-dir"],
            "--cache-dir needs a value",
        ),
    ];
    for (args, expect) in cases {
        let out = bpfree().args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran anyway: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let _ = std::fs::remove_file(&image);
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bpfree-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An empty path value is a usage error before any work, never the
/// current directory: run in an empty directory, each command exits 2
/// with the usage text and leaves the directory as it was.
#[test]
fn empty_path_values_are_usage_errors() {
    let cwd = scratch_dir("empty-paths");
    let cases: &[&[&str]] = &[
        &["exp", "run", "graph12", "--out-dir="],
        &["exp", "run", "graph12", "--out-dir", ""],
        &["exp", "all", "--out-dir="],
        &["exp", "run", "graph12", "--image="],
        &["exp", "run", "graph12", "--image", ""],
        &["exp", "run", "table7", "--cache-dir="],
        &["exp", "run", "table7", "--cache-dir", ""],
        &["image", "build", ""],
        &["image", "verify", ""],
        &["image", "ls", ""],
    ];
    for args in cases {
        let out = bpfree().args(*args).current_dir(&cwd).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let left: Vec<_> = std::fs::read_dir(&cwd)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A valid suite image cut one byte short.
fn truncated_image() -> Vec<u8> {
    let mut bytes = small_image();
    bytes.pop();
    bytes
}

fn table6(extra: &[&std::ffi::OsStr]) -> std::process::Output {
    let args = ["exp", "run", "table6"];
    bpfree().args(args).args(extra).output().unwrap()
}

/// A format v9 image with no entries: the 72-byte header of an empty
/// string table and directory, as the v9 writer laid it out (magic,
/// endian marker, version, entry count, directory, string-table and
/// file offsets, build stamp, then the header and tail checksums).
fn v9_image() -> Vec<u8> {
    let mut bytes = b"BPFIMG09".to_vec();
    bytes.extend(0x0A0B_0C0Du32.to_le_bytes());
    bytes.extend(9u32.to_le_bytes());
    for word in [0, 72, 72, 72, bpfree::cache::BUILD_FINGERPRINT] {
        bytes.extend(word.to_le_bytes());
    }
    bytes.extend(fnv(&bytes).to_le_bytes());
    bytes.extend(fnv(&[]).to_le_bytes());
    bytes
}

/// A damaged cache image, or one of an older format, is an empty cache:
/// the run recomputes, prints exactly what `--no-cache` prints, and
/// leaves a valid image of this format behind. The damaged bytes named
/// by `--image` are still a hard error, and a cache dir that cannot
/// hold an image only costs the write.
#[test]
fn damaged_or_unwritable_cache_never_changes_output() {
    let tmp = scratch_dir("damaged-cache");
    let reference = table6(&["--no-cache".as_ref()]);
    assert!(reference.status.success());

    let image = bpfree::cache::image_path(&tmp);
    for unusable in [truncated_image(), v9_image()] {
        std::fs::write(&image, unusable).unwrap();
        let out = table6(&["--cache-dir".as_ref(), tmp.as_os_str()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert_eq!(out.stdout, reference.stdout);
        assert!(stderr.contains("empty cache"), "{stderr}");
        let img = bpfree::cache::image::SuiteImage::open(&image).expect("a valid image");
        assert!(!img.entries().is_empty());
        let written = std::fs::read(&image).unwrap();
        assert_eq!(written[..8], bpfree::cache::image::MAGIC);
    }

    let bad = tmp.join("bad.img");
    std::fs::write(&bad, truncated_image()).unwrap();
    let out = table6(&["--no-cache".as_ref(), "--image".as_ref(), bad.as_os_str()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot mount"));
    assert!(out.stdout.is_empty());

    let file = tmp.join("not-a-dir");
    std::fs::write(&file, "a regular file").unwrap();
    let out = table6(&["--cache-dir".as_ref(), file.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(out.stdout, reference.stdout);
    assert!(stderr.contains("cannot write the cache image"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "a regular file");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// 64-bit FNV-1a, the suite image's checksum.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Overwrites the payload `old` of a suite image with `new`, padded
/// with spaces to the old length, and re-stamps the image's trailing
/// checksum, which covers every byte before it.
fn overwrite_payload(image: &mut [u8], old: &[u8], new: &[u8]) {
    let off = image
        .windows(old.len())
        .position(|w| w == old)
        .expect("the image holds the payload");
    assert!(new.len() <= old.len());
    image[off..off + old.len()].fill(b' ');
    image[off..off + new.len()].copy_from_slice(new);
    let end = image.len() - 8;
    let sum = fnv(&image[..end]);
    image[end..].copy_from_slice(&sum.to_le_bytes());
}

/// A compile entry whose checksum holds but whose payload is malformed
/// is skipped, not a crash. The malformed payloads are text, padded
/// with spaces over grep's program bytes, that is no program's binary
/// form.
#[test]
fn malformed_compile_entry_is_skipped_not_a_crash() {
    use bpfree::cache::image::{Artifact, ImageBuilder};
    let bench = bpfree::suite::by_name("grep").unwrap();
    let program = bench.compile().unwrap();
    let mut b = ImageBuilder::new();
    let opt = bpfree::lang::Options::default().fingerprint();
    b.add(bench.name, opt, None, Artifact::Compile(&program));
    let clean = b.finish();
    let dir = scratch_dir("malformed-compile");
    let payloads = [
        "; globals: 0 words\nfn main() [frame=0 words]\nL0:\n    ret\n    li $r0, 1\n",
        "; globals: 0 words\nfn main() [frame=0 words]\nL0:\n    ret\nL7:\n    ret\n",
    ];
    let program_bytes = program.to_bytes();
    for (i, payload) in payloads.iter().enumerate() {
        let mut bytes = clean.clone();
        overwrite_payload(&mut bytes, &program_bytes, payload.as_bytes());
        let path = dir.join(format!("malformed-{i}.img"));
        std::fs::write(&path, &bytes).unwrap();
        let out = bpfree()
            .args(["image", "verify"])
            .arg(&path)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(stdout.contains("0 entries mounted, 1 skipped"), "{stdout}");
        assert!(stderr.contains("skip image entry compile grep"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default cache directory follows `CARGO_TARGET_DIR`, and an empty
/// one is unset, not the current directory: the cache lands under
/// `target/bpfree-cache`.
#[test]
fn empty_cargo_target_dir_is_unset() {
    let cwd = scratch_dir("empty-target-env");
    for (target, dir) in [("", "target"), ("T", "T")] {
        let out = bpfree()
            .args(["bench", "grep"])
            .current_dir(&cwd)
            .env("CARGO_TARGET_DIR", target)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(
            !cwd.join("suite.img").exists() && !cwd.join("bpfree-cache").exists(),
            "the cache went into the cwd"
        );
        let image = cwd.join(dir).join("bpfree-cache/suite.img");
        assert!(image.is_file(), "{target:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Listing experiments never opens the cache, however broken it is.
#[test]
fn exp_list_never_opens_the_cache() {
    let tmp = scratch_dir("list-cache");
    let cache = tmp.join("bpfree-cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(bpfree::cache::image_path(&cache), "garbage").unwrap();
    let out = bpfree()
        .args(["exp", "list"])
        .env("CARGO_TARGET_DIR", &tmp)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(out.status.success() && !out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{stderr}");
}

/// A reader that closes the pipe early only ends the output: with the
/// read end of stdout dropped right after spawn, each command exits 0
/// without a panic, and a cold `exp run` still writes the cache image.
#[test]
fn a_closed_stdout_pipe_only_ends_the_output() {
    let tmp = scratch_dir("closed-pipe");
    let cache = tmp.join("cache");
    let cases: [Vec<&std::ffi::OsStr>; 3] = [
        vec!["list".as_ref()],
        vec!["exp".as_ref(), "list".as_ref()],
        vec![
            "exp".as_ref(),
            "run".as_ref(),
            "table1".as_ref(),
            "--cache-dir".as_ref(),
            cache.as_os_str(),
        ],
    ];
    for args in &cases {
        let mut child = bpfree()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(bpfree::cache::image_path(&cache).is_file());
    let _ = std::fs::remove_dir_all(&tmp);
}
