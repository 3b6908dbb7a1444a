//! A cached run or trace entry that parses cleanly but names a branch
//! site the live program does not have is a cache miss: the engine
//! recomputes it, stores it again, and never hands the foreign site to
//! the dense per-site tables downstream (where it would panic, or move
//! counts off a real branch and change a rendered table).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bpfree_cache::image::ImageBuilder;
use bpfree_cache::{CompileArtifacts, RunArtifacts, TraceArtifacts};
use bpfree_core::ipbc::IpbcAnalyzer;
use bpfree_core::perfect_predictions;
use bpfree_engine::{Engine, EngineConfig};
use bpfree_ir::{BlockId, BranchRef, FuncId};
use bpfree_lang::Options;
use bpfree_sim::{BranchTrace, EdgeProfile};

/// A function index no suite benchmark uses.
const FOREIGN_FUNC: u32 = 63;

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bpfree-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_engine(dir: &Path) -> Engine {
    Engine::new(EngineConfig {
        use_cache: true,
        cache_dir: dir.to_path_buf(),
        verbose: false,
        ..EngineConfig::no_cache()
    })
}

/// Every file in `dir`, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.txt"))
}

#[test]
fn entries_naming_foreign_sites_are_recomputed_and_restored() {
    let bench = bpfree_suite::by_name("grep").unwrap();
    let opt = Options::default();
    let fp = opt.fingerprint();

    // A clean fill: dataset 0 traced (trace + run entries), dataset 1
    // profiled (run entry only).
    let clean_dir = temp_cache("foreign-clean");
    let cold = cached_engine(&clean_dir);
    let trace0 = cold.trace(&bench, opt, 0);
    let run0 = cold.run(&bench, opt, 0);
    let run1 = cold.run(&bench, opt, 1);
    assert_eq!(cold.simulations(), 2);
    let program = cold.program(&bench, opt);
    assert!(program.funcs().len() <= FOREIGN_FUNC as usize);
    let clean = snapshot(&clean_dir);

    let dir = temp_cache("foreign-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in &clean {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let datasets = cold.datasets(&bench);
    let tkey = bpfree_cache::trace_key(bench.name, bench.source, fp, &datasets[0]);
    let rkey0 = bpfree_cache::run_key(bench.name, bench.source, fp, &datasets[0]);
    let rkey1 = bpfree_cache::run_key(bench.name, bench.source, fp, &datasets[1]);

    // Trace entry: the first dictionary event moves to a function the
    // program does not have. Without its run entry, a run query must
    // fall back to this trace.
    let hit = bpfree_cache::lookup_trace(&dir, &tkey).unwrap();
    let mut dict = hit.trace.dict().to_vec();
    dict[0].branch.func = FuncId(FOREIGN_FUNC);
    let seq = hit.trace.indices().collect();
    let bad = BranchTrace::from_parts(dict, seq, hit.trace.trailing_instrs()).unwrap();
    bpfree_cache::store_trace(
        &dir,
        &tkey,
        &TraceArtifacts {
            trace: bad,
            run: hit.run,
        },
    )
    .unwrap();
    std::fs::remove_file(entry_path(&dir, &rkey0)).unwrap();
    assert!(bpfree_cache::lookup_trace(&dir, &tkey).is_some());

    // Run entry: the first profile row names the same foreign function.
    let path = entry_path(&dir, &rkey1);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let row = 1 + lines
        .iter()
        .position(|l| l.starts_with("profile "))
        .unwrap();
    let (_, rest) = lines[row].split_once(' ').unwrap();
    lines[row] = format!("{FOREIGN_FUNC} {rest}");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    assert!(bpfree_cache::lookup_run(&dir, &rkey1).is_some());

    let warm = cached_engine(&dir);
    let bundle0 = warm.run(&bench, opt, 0);
    assert_eq!(warm.simulations(), 1, "trace-replay fallback rejected");
    let trace = warm.trace(&bench, opt, 0);
    assert_eq!(warm.simulations(), 2, "trace entry rejected");
    let bundle1 = warm.run(&bench, opt, 1);
    assert_eq!(warm.simulations(), 3, "run entry rejected");

    // The recomputed artifacts are the clean ones, and an IPBC pass over
    // the served trace (a dense per-site table) runs.
    assert_eq!(*trace, *trace0);
    assert_eq!(*bundle0.profile, *run0.profile);
    assert_eq!(bundle0.result, run0.result);
    assert_eq!(*bundle1.profile, *run1.profile);
    assert_eq!(bundle1.result, run1.result);
    let mut ipbc = IpbcAnalyzer::new(&program);
    ipbc.add_predictor("Perfect", &perfect_predictions(&program, &bundle0.profile));
    trace.replay(&mut ipbc);
    assert!(ipbc.finish()[0].ipbc_average() > 0.0);

    // Every entry was stored again: the directory is byte-identical to
    // the clean fill, and the next process simulates nothing.
    assert_eq!(snapshot(&dir), clean);
    let again = cached_engine(&dir);
    again.trace(&bench, opt, 0);
    again.run(&bench, opt, 1);
    assert_eq!(again.simulations(), 0);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same check on a mounted suite image: a trace naming a foreign
/// function and a run naming a block that is no branch are skipped, and
/// the engine recomputes them on demand.
#[test]
fn mounted_entries_naming_foreign_sites_are_skipped() {
    let bench = bpfree_suite::by_name("grep").unwrap();
    let opt = Options::default();
    let fp = opt.fingerprint();
    let clean = Engine::new(EngineConfig::no_cache());
    let trace0 = clean.trace(&bench, opt, 0);
    let run0 = clean.run(&bench, opt, 0);
    let program = clean.program(&bench, opt);
    let dataset = &clean.datasets(&bench)[0];

    let mut dict = trace0.dict().to_vec();
    dict[0].branch.func = FuncId(FOREIGN_FUNC);
    let seq = trace0.indices().collect();
    let bad_trace = BranchTrace::from_parts(dict, seq, trace0.trailing_instrs()).unwrap();
    // The run's row moves to a real block that ends in no branch.
    let (func, block) = program
        .func_ids()
        .find_map(|f| {
            let blocks = program.func(f).blocks();
            let b = blocks.iter().position(|b| !b.term.is_branch())?;
            Some((f, BlockId(b as u32)))
        })
        .unwrap();
    let mut rows: Vec<_> = run0.profile.iter().collect();
    rows[0].0 = BranchRef { func, block };
    let bad_profile: EdgeProfile = rows.into_iter().collect();

    let mut b = ImageBuilder::new();
    b.add_compile(
        bench.name,
        fp,
        bpfree_cache::compile_key_hash(bench.name, bench.source, fp),
        &CompileArtifacts {
            program: (*program).clone(),
        },
    );
    b.add_run(
        bench.name,
        fp,
        0,
        bpfree_cache::run_key_hash(bench.name, bench.source, fp, dataset),
        &RunArtifacts {
            profile: bad_profile,
            run: run0.result,
        },
    );
    b.add_trace(
        bench.name,
        fp,
        0,
        bpfree_cache::trace_key_hash(bench.name, bench.source, fp, dataset),
        &TraceArtifacts {
            trace: bad_trace,
            run: run0.result,
        },
    );
    let dir = temp_cache("foreign-image");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("suite.img");
    std::fs::write(&path, b.finish()).unwrap();

    let warm = Engine::new(EngineConfig::no_cache());
    let report = warm.mount_image(&path).unwrap();
    assert_eq!((report.mounted, report.skipped), (1, 2), "only the program");
    assert_eq!(*warm.trace(&bench, opt, 0), *trace0);
    assert_eq!(*warm.run(&bench, opt, 0).profile, *run0.profile);
    assert_eq!(warm.simulations(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
