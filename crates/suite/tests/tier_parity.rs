//! Differential test of the two interpreter tiers: every interpreter
//! pass `exp all` makes — each suite benchmark × each dataset under the
//! default options, plus dataset 0 of each benchmark under
//! `Options::no_inline()` and `Options::o0()` — runs under both the
//! tree-walking reference and the pre-decoded bytecode tier, and the
//! two executions must agree on *everything observable* — exit code,
//! dynamic instruction count, the full `ExecObserver` event stream
//! (order and branch slots included: the tree walker numbers branches
//! in `Program::branches` order, so this pins the decoder's slots), and
//! the final contents of every named global.
//!
//! Event streams run to millions of branches, so instead of
//! materialising them we fold each into an order-sensitive FNV-1a hash;
//! equal hashes plus equal event counts make accidental collisions a
//! non-concern for a regression suite.

use bpfree_ir::Program;
use bpfree_lang::Options;
use bpfree_sim::{
    BranchSite, BytecodeProgram, ExecObserver, InterpTier, RunResult, SimConfig, Simulator,
};
use bpfree_suite::Dataset;

/// Folds the observer event stream into an order-sensitive hash.
struct EventHasher {
    hash: u64,
    events: u64,
}

impl EventHasher {
    fn new() -> EventHasher {
        EventHasher {
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            events: 0,
        }
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl ExecObserver for EventHasher {
    fn on_instrs(&mut self, count: u64) {
        self.events += 1;
        self.mix(1);
        self.mix(count);
    }

    fn on_branch(&mut self, site: &BranchSite, taken: bool) {
        self.events += 1;
        self.mix(2);
        self.mix(site.branch.func.index() as u64);
        self.mix(site.branch.block.index() as u64);
        self.mix(u64::from(site.slot));
        self.mix(u64::from(taken));
    }
}

/// Everything one execution exposes: result, event stream digest, and
/// the post-run contents of every named global.
struct Observation {
    result: RunResult,
    hash: u64,
    events: u64,
    globals: Vec<(String, Vec<i64>)>,
}

fn observe(
    program: &Program,
    decoded: Option<&BytecodeProgram>,
    dataset: &Dataset,
    tier: InterpTier,
) -> Observation {
    let config = SimConfig {
        tier,
        ..SimConfig::default()
    };
    let mut sim = match decoded {
        Some(bc) => Simulator::with_decoded_config(program, bc, config),
        None => Simulator::with_config(program, config),
    };
    sim.set_globals(&dataset.values).expect("dataset applies");
    let mut hasher = EventHasher::new();
    let result = sim.run(&mut hasher).expect("benchmark runs");
    let mut names: Vec<&String> = program.symbols().keys().collect();
    names.sort();
    let globals = names
        .into_iter()
        .map(|n| (n.clone(), sim.read_global(n).expect("known global")))
        .collect();
    Observation {
        result,
        hash: hasher.hash,
        events: hasher.events,
        globals,
    }
}

/// Runs `dataset` on `program` under both tiers and compares every
/// observable; `at` names the run in failure messages.
fn assert_tiers_agree(program: &Program, decoded: &BytecodeProgram, dataset: &Dataset, at: &str) {
    let tree = observe(program, None, dataset, InterpTier::Tree);
    let bytecode = observe(program, Some(decoded), dataset, InterpTier::Bytecode);
    assert_eq!(tree.result.exit, bytecode.result.exit, "exit of {at}");
    assert_eq!(
        tree.result.instructions, bytecode.result.instructions,
        "instruction count of {at}"
    );
    assert_eq!(tree.events, bytecode.events, "event count of {at}");
    assert_eq!(tree.hash, bytecode.hash, "event stream of {at}");
    assert_eq!(tree.globals, bytecode.globals, "globals after {at}");
}

#[test]
fn every_benchmark_and_dataset_agrees_across_tiers() {
    for bench in bpfree_suite::all() {
        let program = bench.compile().expect("suite benchmark compiles");
        let decoded = BytecodeProgram::compile(&program);
        for (i, dataset) in bench.datasets().iter().enumerate() {
            let at = format!("{}[{i}] ({})", bench.name, dataset.name);
            assert_tiers_agree(&program, &decoded, dataset, &at);
        }
    }
}

/// The other 46 passes of `exp all`: dataset 0 of every benchmark
/// without inlining, and without any optimisation.
#[test]
fn reference_dataset_agrees_across_tiers_without_optimisations() {
    for bench in bpfree_suite::all() {
        let dataset = &bench.datasets()[0];
        for opt in [Options::no_inline(), Options::o0()] {
            let program =
                bpfree_lang::compile_with(bench.source, opt).expect("suite benchmark compiles");
            let decoded = BytecodeProgram::compile(&program);
            let at = format!("{}[0] [{}]", bench.name, opt.fingerprint());
            assert_tiers_agree(&program, &decoded, dataset, &at);
        }
    }
}
