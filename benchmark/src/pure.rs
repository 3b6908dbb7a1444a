//! The benchmark's pure parts: quantiles, the output digest, the
//! duration mask applied before digesting, and the seeded shuffle that
//! orders each workload's inputs.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`: the
/// "inclusive" method of Python's `statistics.quantiles` and NumPy's
/// default.
///
/// # Panics
///
/// On an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Replaces every wall-clock duration in experiment output (`21.46ms`,
/// `948ns`, `1.9s`, `3µs`) with `TIME`, so runs that differ only in how
/// long they took digest the same. The unit goes too: a sweep that takes
/// `1.07s` cold prints `746.7ms` warm. A duration is a digit run
/// (optionally with a fraction) directly followed by a unit and then a
/// space, comma, newline or the end of the text; everything else passes
/// through untouched.
pub fn mask_durations(text: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len());
    let mut i = 0;
    while i < text.len() {
        if !text[i].is_ascii_digit() {
            out.push(text[i]);
            i += 1;
            continue;
        }
        let start = i;
        while i < text.len() && text[i].is_ascii_digit() {
            i += 1;
        }
        if text.get(i) == Some(&b'.') && text.get(i + 1).is_some_and(u8::is_ascii_digit) {
            i += 1;
            while i < text.len() && text[i].is_ascii_digit() {
                i += 1;
            }
        }
        let rest = &text[i..];
        let unit = ["ns", "ms", "µs", "s"]
            .iter()
            .find(|u| rest.starts_with(u.as_bytes()))
            .map(|u| u.len());
        match unit {
            Some(u) if matches!(text.get(i + u), None | Some(b' ' | b',' | b'\n')) => {
                out.extend_from_slice(b"TIME");
                i += u;
            }
            _ => out.extend_from_slice(&text[start..i]),
        }
    }
    out
}

/// Shuffles `items` in place with a Fisher–Yates pass driven by
/// SplitMix64 seeded with `seed`: the same seed always gives the same
/// order.
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.5], 0.25), 7.5);
    }

    #[test]
    #[should_panic(expected = "quantile of no values")]
    fn quantile_of_nothing_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn mask(s: &str) -> String {
        String::from_utf8(mask_durations(s.as_bytes())).unwrap()
    }

    /// The cases of the in-repo perf harness's duration-mask test; here
    /// the unit is masked as well.
    #[test]
    fn masks_durations_like_the_ci_normalizer() {
        assert_eq!(
            mask("exact : 21.468094ms for all C(22,11) subsets\n"),
            "exact : TIME for all C(22,11) subsets\n"
        );
        assert_eq!(mask("took 948ns, then 1.9s\n"), "took TIME, then TIME\n");
        assert_eq!(mask("done in 3µs"), "done in TIME");
        assert_eq!(mask("1.07s\n"), mask("746.695223ms\n"));
        // Not durations: bare numbers, percentages, counts, words.
        assert_eq!(
            mask("31.70% vs 4.54% over 5040 orders"),
            "31.70% vs 4.54% over 5040 orders"
        );
        assert_eq!(
            mask("20k samples, 7 heuristics"),
            "20k samples, 7 heuristics"
        );
        assert_eq!(mask("v1.2savage"), "v1.2savage");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..69).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            shuffle(seed, &mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7), "same seed, same order");
        assert_ne!(shuffled(7), shuffled(8), "another seed, another order");
        assert_ne!(shuffled(7), base, "the order actually changes");
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a permutation: nothing lost or repeated");
        let mut one = [1];
        shuffle(3, &mut one);
        assert_eq!(one, [1]);
    }
}
