//! The dense branch observers against the hash-map implementations they
//! replaced. [`EdgeProfiler`] and [`TraceRecorder`] keep their per-site
//! state in tables indexed by the event's [`BranchSite::slot`]; the
//! oracles below key a `HashMap` by [`BranchRef`] and by whole
//! [`TraceEvent`]s instead. Over random event streams and over the real
//! streams of suite benchmarks, both must give equal profiles, identical
//! traces (dictionary order included), and equal results after replay.
//! Replay numbers a trace's own slots, which the last two tests pin.

use std::collections::HashMap;

use bpfree_ir::{BlockId, BranchRef, FuncId, GlobalValues};
use bpfree_sim::{
    BranchSite, BranchTrace, EdgeProfile, EdgeProfiler, ExecObserver, Pair, Simulator, TraceEvent,
    TraceRecorder,
};
use proptest::prelude::*;

/// Edge profiling through a `HashMap<BranchRef, EdgeCounts>`.
#[derive(Default)]
struct OracleProfiler {
    profile: EdgeProfile,
}

impl ExecObserver for OracleProfiler {
    fn on_branch(&mut self, site: &BranchSite, taken: bool) {
        self.profile.record(site.branch, taken);
    }
}

/// Trace recording that interns whole events in a
/// `HashMap<TraceEvent, u32>`.
#[derive(Default)]
struct OracleRecorder {
    dict: Vec<TraceEvent>,
    index: HashMap<TraceEvent, u32>,
    seq: Vec<u32>,
    pending_instrs: u64,
}

impl OracleRecorder {
    fn into_trace(self) -> BranchTrace {
        BranchTrace::from_parts(self.dict, self.seq, self.pending_instrs).expect("indices in range")
    }
}

impl ExecObserver for OracleRecorder {
    fn on_instrs(&mut self, count: u64) {
        self.pending_instrs += count;
    }

    fn on_branch(&mut self, site: &BranchSite, taken: bool) {
        let event = TraceEvent {
            instrs: self.pending_instrs,
            branch: site.branch,
            taken,
        };
        self.pending_instrs = 0;
        let next = self.dict.len() as u32;
        let idx = *self.index.entry(event).or_insert_with(|| {
            self.dict.push(event);
            next
        });
        self.seq.push(idx);
    }
}

type Dense = Pair<EdgeProfiler, TraceRecorder>;
type Oracle = Pair<OracleProfiler, OracleRecorder>;

fn dense() -> Dense {
    Pair(EdgeProfiler::new(), TraceRecorder::new())
}

fn oracle() -> Oracle {
    Pair(OracleProfiler::default(), OracleRecorder::default())
}

/// Both sides saw the same stream: equal profiles, identical traces,
/// and a replay of the dense trace that lands on the oracle's replay.
fn assert_agree(dense: Dense, oracle: Oracle, what: &str) {
    let Pair(profiler, recorder) = dense;
    let Pair(oracle_profiler, oracle_recorder) = oracle;
    let profile = profiler.into_profile();
    assert_eq!(profile, oracle_profiler.profile, "{what}: profile");
    assert_eq!(
        profile.n_sites(),
        oracle_profiler.profile.n_sites(),
        "{what}"
    );

    let trace = recorder.into_trace();
    let expected = oracle_recorder.into_trace();
    assert_eq!(trace.dict(), expected.dict(), "{what}: dictionary");
    assert!(trace.indices().eq(expected.indices()), "{what}: sequence");
    assert_eq!(
        trace.trailing_instrs(),
        expected.trailing_instrs(),
        "{what}: trailing instructions"
    );
    assert_eq!(trace, expected, "{what}: trace");

    let mut serial = OracleProfiler::default();
    expected.replay(&mut serial);
    assert_eq!(serial.profile, profile, "{what}: oracle replay");
    let mut replayed = EdgeProfiler::new();
    trace.replay(&mut replayed);
    assert_eq!(replayed.into_profile(), profile, "{what}: replay");
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Instrs(u64),
    Branch(BranchSite, bool),
}

fn feed<O: ExecObserver>(events: &[Event], observer: &mut O) {
    for &event in events {
        match event {
            Event::Instrs(n) => observer.on_instrs(n),
            Event::Branch(site, taken) => observer.on_branch(&site, taken),
        }
    }
}

/// A random stream over 1–15 sparse sites (func 0..8, block ids up to
/// 4095). Each stream numbers its distinct sites densely in program
/// order, as a replay does, and `gap` spreads the slots apart so the
/// tables grow past slots that never run. Each branch follows 0–2
/// `on_instrs` calls, mostly short so events repeat, but spanning ~60
/// distinct instruction counts per site; a trailing run may follow.
fn arb_stream() -> impl Strategy<Value = Vec<Event>> {
    let branch = (0u32..8, 0u32..4096).prop_map(|(f, b)| BranchRef {
        func: FuncId(f),
        block: BlockId(b),
    });
    (proptest::collection::vec(branch, 1..16), 1u32..40).prop_flat_map(|(branches, gap)| {
        let mut distinct = branches.clone();
        distinct.sort();
        distinct.dedup();
        let sites: Vec<BranchSite> = branches
            .iter()
            .map(|&branch| BranchSite {
                branch,
                slot: gap * distinct.partition_point(|&b| b < branch) as u32,
            })
            .collect();
        let n = sites.len();
        let instrs = prop_oneof![3 => 0u64..4, 1 => 0u64..30];
        let step = (proptest::collection::vec(instrs, 0..3), 0..n, any::<bool>());
        (
            Just(sites),
            proptest::collection::vec(step, 0..600),
            proptest::collection::vec(1u64..9, 0..2),
        )
            .prop_map(|(sites, steps, tail)| {
                let mut events = Vec::new();
                for (runs, site, taken) in steps {
                    events.extend(runs.into_iter().map(Event::Instrs));
                    events.push(Event::Branch(sites[site], taken));
                }
                events.extend(tail.into_iter().map(Event::Instrs));
                events
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One stream into both implementations.
    #[test]
    fn dense_observers_match_hash_oracles(events in arb_stream()) {
        let (mut d, mut o) = (dense(), oracle());
        feed(&events, &mut d);
        feed(&events, &mut o);
        assert_agree(d, o, "random stream");
    }

}

/// The real event streams of small suite benchmarks, recorded by both
/// implementations in the same pass.
#[test]
fn dense_observers_match_hash_oracles_on_suite_streams() {
    for name in ["grep", "eqntott", "qpt"] {
        let bench = bpfree_suite::by_name(name).expect("suite benchmark");
        let program = bench.compile().expect("compiles");
        let dataset = &bench.datasets()[0];
        let mut fan = Pair(dense(), oracle());
        let run = bench.run_with(&program, dataset, &mut fan).expect("runs");
        let Pair(d, o) = fan;
        assert!(run.instructions > 0);
        assert_agree(d, o, name);
    }
}

/// Records the sites a stream reports, in order.
#[derive(Default)]
struct SiteLog(Vec<BranchSite>);

impl ExecObserver for SiteLog {
    fn on_branch(&mut self, site: &BranchSite, _taken: bool) {
        self.0.push(*site);
    }
}

/// A trace recorded with sparse slots replays with its distinct sites
/// numbered `0..k` in program order, whatever order they first ran in.
#[test]
fn replay_numbers_a_sparse_traces_sites_in_program_order() {
    let site = |func, block, slot| BranchSite {
        branch: BranchRef {
            func: FuncId(func),
            block: BlockId(block),
        },
        slot,
    };
    let live = [
        site(2, 9, 40),
        site(0, 3, 7),
        site(2, 9, 40),
        site(1, 0, 19),
        site(0, 3, 7),
    ];
    let mut recorder = TraceRecorder::new();
    for (i, s) in live.iter().enumerate() {
        recorder.on_instrs(3);
        recorder.on_branch(s, i % 2 == 0);
    }
    let mut log = SiteLog::default();
    recorder.into_trace().replay(&mut log);
    let replayed = [
        site(2, 9, 2),
        site(0, 3, 0),
        site(2, 9, 2),
        site(1, 0, 1),
        site(0, 3, 0),
    ];
    assert_eq!(log.0, replayed);
}

/// One `EdgeProfiler` fed a live run and then a replay of a trace that
/// missed a branch sees two numberings; debug builds refuse the second.
#[cfg(debug_assertions)]
#[test]
#[should_panic(
    expected = "slot 1 names both @0:L1 and @0:L2: one EdgeProfiler saw two event streams"
)]
fn an_edge_profiler_refuses_a_second_numbering() {
    let program = bpfree_lang::compile(
        "global int g;
        fn main() -> int {
            int s;
            if (g > 0) { if (g > 5) { s = 1; } }
            if (s == 0) { s = 2; }
            return s;
        }",
    )
    .unwrap();
    let run = |g: i64, observer: &mut dyn ExecObserver| {
        let mut values = GlobalValues::new();
        values.set_int("g", vec![g]);
        let mut sim = Simulator::new(&program);
        sim.set_globals(&values).unwrap();
        sim.run(&mut { observer }).unwrap();
    };
    // With `g = 0` the run skips the inner test (@0:L1), so the replay
    // gives the last test (@0:L2) slot 1, which the live run gave the
    // inner one.
    let mut recorder = TraceRecorder::new();
    run(0, &mut recorder);
    let trace = recorder.into_trace();
    let mut profiler = EdgeProfiler::new();
    run(9, &mut profiler);
    trace.replay(&mut profiler);
}
