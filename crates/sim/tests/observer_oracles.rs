//! The dense branch observers against the hash-map implementations they
//! replaced. [`EdgeProfiler`] and [`TraceRecorder`] keep their per-site
//! state in `[func][block]` tables; the oracles below key a `HashMap` by
//! [`BranchRef`] and by whole [`TraceEvent`]s instead. Over random event
//! streams and over the real streams of suite benchmarks, both must give
//! equal profiles, identical traces (dictionary order included), and
//! equal results after replay.

use std::collections::HashMap;

use bpfree_ir::{BlockId, BranchRef, FuncId};
use bpfree_sim::{
    BranchTrace, EdgeProfile, EdgeProfiler, ExecObserver, Pair, TraceEvent, TraceRecorder,
};
use proptest::prelude::*;

/// Edge profiling through a `HashMap<BranchRef, EdgeCounts>`.
#[derive(Default)]
struct OracleProfiler {
    profile: EdgeProfile,
}

impl ExecObserver for OracleProfiler {
    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        self.profile.record(branch, taken);
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

    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        let event = TraceEvent {
            instrs: self.pending_instrs,
            branch,
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
    Branch(BranchRef, bool),
}

fn feed<O: ExecObserver>(events: &[Event], observer: &mut O) {
    for &event in events {
        match event {
            Event::Instrs(n) => observer.on_instrs(n),
            Event::Branch(branch, taken) => observer.on_branch(branch, taken),
        }
    }
}

/// A random stream over 1–15 sparse sites (func 0..8, block ids up to
/// 4095, so most table slots never run). Each branch follows 0–2
/// `on_instrs` calls, mostly short so events repeat, but spanning ~60
/// distinct instruction counts per site; a trailing run may follow.
fn arb_stream() -> impl Strategy<Value = Vec<Event>> {
    let site = (0u32..8, 0u32..4096).prop_map(|(f, b)| BranchRef {
        func: FuncId(f),
        block: BlockId(b),
    });
    proptest::collection::vec(site, 1..16).prop_flat_map(|sites| {
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
