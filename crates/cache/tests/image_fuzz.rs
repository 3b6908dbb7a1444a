//! Corruption fuzzing for the suite-image loader: one checksum covers
//! every byte of an image and there is no padding, so every arbitrary
//! truncation, bit flip or burst of corruption must fail to open with a
//! clean `Err` (→ the engine recomputes). Never a panic, never a hang,
//! never silently different data.

use std::sync::OnceLock;

use bpfree_cache::image::{Artifact, ImageBuilder, SuiteImage};
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
        b.add("fuzz", "O", None, Artifact::Compile(&program));
        let prediction = Artifact::Prediction(&classifier, &table);
        b.add("fuzz", "O", None, prediction);
        b.add("fuzz", "O", Some(0), Artifact::Run(&profile, run));
        b.add("fuzz", "O", Some(0), Artifact::Trace(&trace, run));
        b.finish()
    })
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

    /// A single bit flip anywhere: a clean `Err`.
    #[test]
    fn single_bit_flip_is_refused(at in 0usize..100_000, bit in 0u32..8) {
        let bytes = pristine();
        let at = at % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        prop_assert!(SuiteImage::from_bytes(flipped).is_err());
    }

    /// A burst of random byte corruption starting at `at`: a clean
    /// `Err`. The first byte always changes.
    #[test]
    fn corruption_bursts_are_refused(
        at in 0usize..100_000,
        first in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 0..63),
    ) {
        let bytes = pristine();
        let at = at % bytes.len();
        let mut garbled = bytes.clone();
        for (i, &b) in std::iter::once(&first).chain(&junk).enumerate() {
            if let Some(slot) = garbled.get_mut(at + i) {
                *slot ^= b;
            }
        }
        prop_assert!(SuiteImage::from_bytes(garbled).is_err());
    }
}
