//! Rendering computes nothing: once the engine has planned what an
//! experiment declares it reads ([`Experiment::needs`] plus
//! [`Experiment::traced`]), running the experiment reads only memo hits.
//! An under-declared need fails here as a work counter that moves,
//! instead of quietly running interpreter passes one at a time inside a
//! render loop.

use bpfree_bench::registry::{self, Experiment};
use bpfree_bench::sink::VecSink;
use bpfree_engine::{Engine, EngineConfig};

/// The interpreter passes `bpfree exp run NAME --no-cache` makes.
const PASSES: [(&str, u64); 19] = [
    ("table1", 23),
    ("table2", 23),
    ("table3", 23),
    ("table4", 22),
    ("table5", 23),
    ("table6", 23),
    ("table7", 23),
    ("graph1", 22),
    ("graphs4_11", 7),
    ("graph12", 0),
    ("graph13", 69),
    ("btfnt", 23),
    ("extensions", 23),
    ("ff_stability", 46),
    ("freq_estimate", 23),
    ("leave_one_out", 23),
    ("opt_ablate", 69),
    ("ordering_ablate", 23),
    ("summary_json", 23),
];

fn passes(name: &str) -> u64 {
    PASSES
        .iter()
        .find(|p| p.0 == name)
        .unwrap_or_else(|| panic!("no pass count for {name}"))
        .1
}

/// The engine's six work counters.
fn counters(e: &Engine) -> [u64; 6] {
    [
        e.compiles(),
        e.analyses(),
        e.decodes(),
        e.simulations(),
        e.trace_records(),
        e.orderings(),
    ]
}

#[test]
fn rendering_after_planning_the_declared_needs_computes_nothing() {
    // Experiments with equal declarations share one planned engine.
    let mut groups: Vec<Vec<&'static dyn Experiment>> = Vec::new();
    for &exp in registry::all() {
        let same = |g: &Vec<&'static dyn Experiment>| {
            g[0].needs() == exp.needs() && g[0].traced() == exp.traced()
        };
        match groups.iter_mut().find(|g| same(g)) {
            Some(group) => group.push(exp),
            None => groups.push(vec![exp]),
        }
    }

    for group in &groups {
        let engine = Engine::new(EngineConfig::no_cache());
        engine.warm(&registry::needs(group));
        let planned = counters(&engine);
        for exp in group {
            let mut sink = VecSink::new();
            exp.run(&engine, &mut sink).expect("experiment renders");
            assert!(!sink.take().is_empty(), "{} wrote a report", exp.name());
            assert_eq!(
                counters(&engine),
                planned,
                "rendering {} computed what its needs() and traced() do not declare \
                 (compiles, analyses, decodes, simulations, trace records, orderings)",
                exp.name()
            );
        }
        // And nothing beyond what they read: the plan made exactly the
        // passes each member makes on its own.
        for exp in group {
            assert_eq!(
                engine.simulations(),
                passes(exp.name()),
                "passes planned for {}",
                exp.name()
            );
        }
    }
}
