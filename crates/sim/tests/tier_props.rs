//! Fuzz-style differential properties for the two interpreter tiers:
//! random small Cmm programs must behave *identically* under the
//! tree-walking reference and the pre-decoded bytecode tier — same
//! `Ok` results, same `SimError`s (variant and payload), and the same
//! `ExecObserver` event stream up to the point of success or failure,
//! branch slots included: the tree walker numbers branches in
//! `Program::branches` order, which pins the decoder's numbering.
//! Error paths are exercised on purpose: tiny fuel budgets (OutOfFuel),
//! shallow call-depth limits (StackOverflow), tiny memories
//! (OutOfMemory), and wild pointer offsets (BadAddress).

use bpfree_sim::{BranchSite, ExecObserver, InterpTier, SimConfig, SimError, Simulator};
use proptest::prelude::*;

/// Order-sensitive FNV-1a digest of the observer event stream.
struct EventHasher {
    hash: u64,
    events: u64,
}

impl EventHasher {
    fn new() -> EventHasher {
        EventHasher {
            hash: 0xcbf2_9ce4_8422_2325,
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

/// Runs `src` under `tier` and returns everything observable.
fn observe(
    src: &str,
    config: SimConfig,
    tier: InterpTier,
) -> (Result<(i64, u64), SimError>, u64, u64) {
    let program = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let mut sim = Simulator::with_config(&program, SimConfig { tier, ..config });
    let mut hasher = EventHasher::new();
    let result = sim.run(&mut hasher).map(|r| (r.exit, r.instructions));
    (result, hasher.hash, hasher.events)
}

/// The property: both tiers observe identically (results, errors, and
/// event stream).
fn assert_tiers_agree(src: &str, config: SimConfig) {
    let tree = observe(src, config, InterpTier::Tree);
    let bytecode = observe(src, config, InterpTier::Bytecode);
    prop_assert_eq!(tree, bytecode, "program:\n{}", src);
}

/// Random nested integer expressions over three locals.
fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-99i64..100).prop_map(|v| {
            if v < 0 {
                format!("(0 - {})", -v)
            } else {
                v.to_string()
            }
        }),
        (0usize..3).prop_map(|i| format!("v{i}")),
    ];
    leaf.prop_recursive(4, 48, 2, |inner| {
        (
            inner.clone(),
            prop_oneof![
                Just("+"),
                Just("-"),
                Just("*"),
                Just("/"),
                Just("%"),
                Just("&"),
                Just("|"),
                Just("^"),
                Just("<"),
                Just("<="),
                Just("=="),
                Just("!="),
            ],
            inner,
        )
            .prop_map(|(a, op, b)| format!("({a} {op} {b})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure computation: expressions, conditions, and a loop whose trip
    /// count and body both depend on generated expressions.
    #[test]
    fn random_programs_agree(
        e1 in arb_expr(),
        e2 in arb_expr(),
        vars in [-50i64..50, -50i64..50, -50i64..50],
        trips in 0i64..40,
    ) {
        let src = format!(
            "fn main() -> int {{
                int v0; int v1; int v2; int i; int s;
                v0 = {}; v1 = {}; v2 = {};
                for (i = 0; i < {trips}; i = i + 1) {{
                    s = s + {e1};
                    if ({e2}) {{ s = s - v1; }}
                }}
                return s;
            }}",
            vars[0], vars[1], vars[2]
        );
        assert_tiers_agree(&src, SimConfig { fuel: 1_000_000, ..SimConfig::default() });
    }

    /// Calls and recursion: helper functions survive or inline
    /// depending on the optimiser, and either way both tiers must walk
    /// the same frames in the same order and number the branches of
    /// both functions alike.
    #[test]
    fn random_calls_agree(
        e in arb_expr(),
        vars in [-20i64..20, -20i64..20, -20i64..20],
        depth in 0i64..30,
    ) {
        let src = format!(
            "fn rec(int n, int acc, int v0, int v1, int v2) -> int {{
                if (n <= 0) {{ return acc; }}
                return rec(n - 1, acc + {e}, v0, v1, v2);
            }}
            fn main() -> int {{
                int r;
                r = rec({depth}, 0, {}, {}, {});
                if (r < 0) {{ r = 0 - r; }}
                return r;
            }}",
            vars[0], vars[1], vars[2]
        );
        assert_tiers_agree(&src, SimConfig { fuel: 1_000_000, ..SimConfig::default() });
    }

    /// Fuel exhaustion: a random budget cuts execution somewhere in the
    /// middle, and both tiers must fail at the same block boundary with
    /// the same `executed` payload (or agree it fits).
    #[test]
    fn fuel_exhaustion_agrees(fuel in 0u64..400, trips in 0i64..40) {
        let src = format!(
            "fn main() -> int {{
                int i; int s;
                for (i = 0; i < {trips}; i = i + 1) {{ s = s + i; }}
                return s;
            }}"
        );
        assert_tiers_agree(&src, SimConfig { fuel, ..SimConfig::default() });
    }

    /// Stack overflow / frame overflow: recursion against a random
    /// call-depth limit (and sometimes a memory too small for the
    /// frames).
    #[test]
    fn stack_limits_agree(depth in 1usize..40, ask in 0i64..60, mem_kw in 1usize..3) {
        let src = format!(
            "fn rec(int n) -> int {{
                if (n <= 0) {{ return 0; }}
                return 1 + rec(n - 1);
            }}
            fn main() -> int {{ return rec({ask}); }}"
        );
        let config = SimConfig {
            max_call_depth: depth,
            mem_words: mem_kw << 10,
            fuel: 1_000_000,
            ..SimConfig::default()
        };
        assert_tiers_agree(&src, config);
    }

    /// Heap exhaustion: an allocation loop against a random small
    /// memory; the failing iteration and the `requested` payload must
    /// match.
    #[test]
    fn heap_exhaustion_agrees(mem in 64usize..2048, chunk in 1i64..200, n in 1i64..64) {
        let src = format!(
            "fn main() -> int {{
                int i; int p;
                for (i = 0; i < {n}; i = i + 1) {{ p = alloc({chunk}); }}
                return p;
            }}"
        );
        let config = SimConfig {
            mem_words: mem,
            fuel: 1_000_000,
            ..SimConfig::default()
        };
        assert_tiers_agree(&src, config);
    }

    /// Bad addresses: loads/stores at wild offsets off a small heap
    /// block — below the null word, inside, past the block, or beyond
    /// the top of memory — must trap (or not) identically, with the
    /// same faulting address.
    #[test]
    fn bad_addresses_agree(offset in prop_oneof![
        -16i64..16,
        Just(-(1i64 << 22)),
        Just(1i64 << 22),
        Just(1i64 << 40),
    ]) {
        let src = format!(
            "fn main() -> int {{
                int p;
                p = alloc(4);
                p[{offset}] = 7;
                return p[{offset}];
            }}"
        );
        assert_tiers_agree(&src, SimConfig { fuel: 1_000_000, ..SimConfig::default() });
    }
}
