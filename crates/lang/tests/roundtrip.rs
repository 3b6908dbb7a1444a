//! Binary round trip: every program the compiler can produce must
//! encode to bytes that decode back to an identical program, and a
//! damaged encoding must decode to `None` or to a valid program, never
//! panic.

use std::sync::OnceLock;

use bpfree_ir::Program;
use bpfree_lang::{compile, compile_with, Options};
use proptest::prelude::*;

fn roundtrip(p: &Program) {
    let bytes = p.to_bytes();
    let q = Program::from_bytes(&bytes).unwrap_or_else(|| panic!("decode failed\n{p}"));
    assert_eq!(*p, q, "round-trip mismatch\n{p}");
    assert_eq!(q.to_bytes(), bytes, "re-encoding differs");
}

#[test]
fn roundtrips_kitchen_sink() {
    let src = "global int data[16];
        global float ws[4];
        global int n;
        fn hash(int key) -> int { return key * 31 % 97; }
        fn scan(ptr list, int k) -> int {
            while (list != null) {
                if (list[0] == k) { return 1; }
                list = list[1];
            }
            return 0;
        }
        fn avg() -> float {
            float s; int i;
            for (i = 0; i < 4; i = i + 1) { s = s + ws[i]; }
            return s / 4.0;
        }
        fn main() -> int {
            ptr head; int i; int found;
            int buf[8];
            for (i = 0; i < 10; i = i + 1) {
                ptr cell;
                cell = alloc(2);
                cell[0] = hash(i + 100);
                cell[1] = head;
                head = cell;
                buf[i % 8] = i;
            }
            found = scan(head, hash(105));
            if (avg() > 0.25 && found != 0) { n = n + 1; }
            return found * 10 + buf[3];
        }";
    roundtrip(&compile(src).unwrap_or_else(|e| panic!("{}", e.render(src))));
}

/// The encoding of every suite benchmark under every option set, as
/// the suite image stores them.
fn suite_bytes() -> &'static [Vec<u8>] {
    static BYTES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut all = Vec::new();
        for b in bpfree_suite::all() {
            for opt in Options::ALL {
                let p = compile_with(b.source, opt).unwrap();
                all.push(p.to_bytes());
            }
        }
        all
    })
}

#[test]
fn roundtrips_every_suite_benchmark() {
    for b in bpfree_suite::all() {
        for opt in Options::ALL {
            let p = compile_with(b.source, opt).unwrap();
            roundtrip(&p);
        }
    }
    assert_eq!(suite_bytes().len(), 23 * 4);
}

/// One way to damage an encoding.
#[derive(Debug, Clone)]
enum Damage {
    Truncate,
    FlipBit(u8),
    Overwrite(u8),
    Append(Vec<u8>),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Truncate),
        (0u8..8).prop_map(Damage::FlipBit),
        any::<u8>().prop_map(Damage::Overwrite),
        proptest::collection::vec(any::<u8>(), 1..9).prop_map(Damage::Append),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random-ish expression programs round-trip too (negative literals,
    /// floats, nested control flow).
    #[test]
    fn roundtrips_generated_programs(
        a in -1000i64..1000,
        f in -100.0f64..100.0,
        loops in 1u8..4,
    ) {
        let mut body = String::new();
        for l in 0..loops {
            body.push_str(&format!(
                "for (i = 0; i < {}; i = i + 1) {{
                    if (i % {} == 0) {{ s = s + i + {a}; }}
                    acc = acc + {f:?} * float(i);
                 }}\n",
                5 + l as i64 * 3,
                l + 2,
            ));
        }
        let src = format!(
            "global float acc;
             fn main() -> int {{
                int i; int s;
                {body}
                return s;
             }}"
        );
        let p = compile(&src).unwrap_or_else(|e| panic!("{}", e.render(&src)));
        let q = Program::from_bytes(&p.to_bytes()).unwrap();
        prop_assert_eq!(p, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A suite program's bytes, truncated, with one bit flipped, one
    /// byte overwritten or bytes appended, decode without a panic; what
    /// does decode is valid and is exactly those bytes.
    #[test]
    fn damaged_suite_bytes_decode_to_none_or_a_valid_program(
        which in 0usize..23 * 4,
        at in any::<usize>(),
        damage in damage(),
    ) {
        let mut bytes = suite_bytes()[which].clone();
        let i = at % bytes.len();
        match damage {
            Damage::Truncate => bytes.truncate(i),
            Damage::FlipBit(bit) => bytes[i] ^= 1 << bit,
            Damage::Overwrite(v) => bytes[i] = v,
            Damage::Append(tail) => bytes.extend(tail),
        }
        if let Some(p) = Program::from_bytes(&bytes) {
            prop_assert!(p.validate().is_ok());
            prop_assert_eq!(p.to_bytes(), bytes);
        }
    }
}
