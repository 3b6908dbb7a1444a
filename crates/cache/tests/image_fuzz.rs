//! Corruption fuzzing for the suite-image loader: over arbitrary
//! truncations and arbitrary bit flips at arbitrary offsets, opening an
//! image must either fail cleanly (`Err` → the engine recomputes) or
//! open with every payload still decoding to exactly the pristine
//! contents (the flip landed in never-read padding). Never a panic,
//! never a hang, never silently different data.

use std::sync::OnceLock;

use bpfree_cache::image::{Artifact, ImageBuilder, SectionKind, SuiteImage};
use proptest::prelude::*;

fn pristine() -> &'static Vec<u8> {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let program = bpfree_lang::compile(
            "fn main() -> int {
                int x; int i;
                x = 7;
                for (i = 0; i < 40; i = i + 1) {
                    if (i % 3 == 0) { x = x + 2; } else { x = x - 1; }
                }
                return x;
            }",
        )
        .unwrap();
        let mut fan = bpfree_sim::Pair(
            bpfree_sim::EdgeProfiler::new(),
            bpfree_sim::TraceRecorder::new(),
        );
        let run = bpfree_sim::Simulator::new(&program).run(&mut fan).unwrap();
        let bpfree_sim::Pair(profiler, recorder) = fan;
        let profile = profiler.into_profile();
        let trace = recorder.into_trace();

        let classifier = bpfree_core::BranchClassifier::analyze(&program);
        let table = bpfree_core::HeuristicTable::build(&program, &classifier);

        let mut b = ImageBuilder::new();
        b.add("fuzz", "O", None, 0x11, Artifact::Compile(&program));
        let prediction = Artifact::Prediction(&classifier, &table);
        b.add("fuzz", "O", None, 0x33, prediction);
        b.add("fuzz", "O", Some(0), 0x44, Artifact::Run(&profile, run));
        b.add("fuzz", "O", Some(0), 0x55, Artifact::Trace(&trace, run));
        b.finish()
    })
}

/// Every payload of an opened (possibly padding-flipped) image must
/// match the pristine image's decode bit-for-bit.
fn assert_contents_pristine(img: &SuiteImage) {
    let clean = SuiteImage::from_bytes(pristine().clone()).expect("pristine image opens");
    assert_eq!(img.entries().len(), clean.entries().len());
    for (e, ce) in img.entries().iter().zip(clean.entries()) {
        assert_eq!(e.kind, ce.kind);
        assert_eq!(e.key, ce.key);
        match e.kind {
            SectionKind::Compile => {
                assert_eq!(img.compile(e).unwrap(), clean.compile(ce).unwrap());
            }
            SectionKind::Prediction => {
                assert_eq!(img.prediction(e).unwrap(), clean.prediction(ce).unwrap());
            }
            SectionKind::Run => {
                let (a, b) = (img.run(e).unwrap(), clean.run(ce).unwrap());
                assert_eq!(a.profile, b.profile);
                assert_eq!(a.run, b.run);
            }
            SectionKind::Trace => {
                let (a, b) = (img.trace(e).unwrap(), clean.trace(ce).unwrap());
                assert_eq!(a.trace, b.trace);
                assert_eq!(a.run, b.run);
            }
            SectionKind::Ordering => {
                assert_eq!(img.ordering(e).is_some(), clean.ordering(ce).is_some());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any truncation point: opening must fail, not panic.
    #[test]
    fn truncation_fails_cleanly(cut in 0usize..100_000) {
        let bytes = pristine();
        let cut = cut % bytes.len();
        prop_assert!(SuiteImage::from_bytes(bytes[..cut].to_vec()).is_err());
    }

    /// A single bit flip anywhere: either a clean `Err`, or (padding
    /// flip) an open image whose every payload is still pristine.
    #[test]
    fn single_bit_flip_is_detected_or_harmless(at in 0usize..100_000, bit in 0u32..8) {
        let bytes = pristine();
        let at = at % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        if let Ok(img) = SuiteImage::from_bytes(flipped) {
            assert_contents_pristine(&img);
        }
    }

    /// A burst of random byte corruption: same contract as single
    /// flips.
    #[test]
    fn corruption_bursts_are_detected_or_harmless(
        at in 0usize..100_000,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let bytes = pristine();
        let at = at % bytes.len();
        let mut garbled = bytes.clone();
        for (i, &b) in junk.iter().enumerate() {
            if let Some(slot) = garbled.get_mut(at + i) {
                *slot ^= b;
            }
        }
        if let Ok(img) = SuiteImage::from_bytes(garbled) {
            assert_contents_pristine(&img);
        }
    }
}
