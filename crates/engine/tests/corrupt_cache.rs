//! A cached run or trace entry that parses cleanly but names a branch
//! site the live program does not have is a cache miss: the engine
//! recomputes it, persists it again, and never hands the foreign site
//! to the dense per-site tables downstream (where it would panic, or
//! move counts off a real branch and change a rendered table).

use std::path::{Path, PathBuf};

use bpfree_cache::image::{Artifact, ImageBuilder};
use bpfree_cache::image_path;
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

/// `trace` with its first dictionary event moved to [`FOREIGN_FUNC`].
fn foreign_trace(trace: &BranchTrace) -> BranchTrace {
    let mut dict = trace.dict().to_vec();
    dict[0].branch.func = FuncId(FOREIGN_FUNC);
    let seq = trace.indices().collect();
    BranchTrace::from_parts(dict, seq, trace.trailing_instrs()).unwrap()
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
    cold.persist().unwrap();
    let clean = std::fs::read(image_path(&clean_dir)).unwrap();
    let program = cold.program(&bench, opt);
    assert!(program.funcs().len() <= FOREIGN_FUNC as usize);

    // The same image with dataset 0's run entry left out and two
    // entries naming a function the program does not have: the trace's
    // first dictionary event (without a run entry, the trace is what
    // would serve dataset 0's run) and dataset 1's first profile row.
    let bad_trace = foreign_trace(&trace0);
    let mut rows: Vec<_> = run1.profile.iter().collect();
    rows[0].0.func = FuncId(FOREIGN_FUNC);
    let bad_profile: EdgeProfile = rows.into_iter().collect();
    let name = bench.name;
    let mut b = ImageBuilder::new();
    b.add(name, fp, None, Artifact::Compile(&program));
    b.add(name, fp, Some(0), Artifact::Trace(&bad_trace, run0.result));
    b.add(name, fp, Some(1), Artifact::Run(&bad_profile, run1.result));
    let dir = temp_cache("foreign-corrupt");
    b.write(&image_path(&dir)).unwrap();

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

    // Every entry is persisted again: the image is byte-identical to
    // the clean fill's, and the next process simulates nothing.
    warm.persist().unwrap();
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), clean);
    let again = cached_engine(&dir);
    again.trace(&bench, opt, 0);
    again.run(&bench, opt, 1);
    assert_eq!(again.simulations(), 0);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same check on a mounted suite image: a trace naming a foreign
/// function, a run naming a block that is no branch and a run naming a
/// dataset the benchmark does not have are skipped, and the engine
/// recomputes the first two on demand.
#[test]
fn mounted_entries_naming_foreign_sites_are_skipped() {
    let bench = bpfree_suite::by_name("grep").unwrap();
    let opt = Options::default();
    let fp = opt.fingerprint();
    let clean = Engine::new(EngineConfig::no_cache());
    let trace0 = clean.trace(&bench, opt, 0);
    let run0 = clean.run(&bench, opt, 0);
    let program = clean.program(&bench, opt);
    let past_the_end = clean.datasets(&bench).len() as u32;

    let bad_trace = foreign_trace(&trace0);
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

    let name = bench.name;
    let mut b = ImageBuilder::new();
    b.add(name, fp, None, Artifact::Compile(&program));
    b.add(name, fp, Some(0), Artifact::Run(&bad_profile, run0.result));
    b.add(name, fp, Some(0), Artifact::Trace(&bad_trace, run0.result));
    let clean_run = Artifact::Run(&run0.profile, run0.result);
    b.add(name, fp, Some(past_the_end), clean_run);
    let dir = temp_cache("foreign-image");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("suite.img");
    std::fs::write(&path, b.finish()).unwrap();

    let warm = Engine::new(EngineConfig::no_cache());
    let report = warm.mount_image(&path).unwrap();
    assert_eq!((report.mounted, report.skipped), (1, 3), "only the program");
    assert_eq!(*warm.trace(&bench, opt, 0), *trace0);
    assert_eq!(*warm.run(&bench, opt, 0).profile, *run0.profile);
    assert_eq!(warm.simulations(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
