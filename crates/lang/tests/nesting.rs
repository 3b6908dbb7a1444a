//! The nesting limit: for each deep shape — nested `if`s, nested
//! blocks, nested parentheses and a long `+` chain — the deepest
//! program the parser accepts compiles and runs under both interpreter
//! tiers on an ordinary test thread, one level more is a syntax error
//! naming the limit, and 30,000 levels fail the same way instead of
//! overflowing the stack.

use bpfree_lang::{compile, MAX_NESTING};
use bpfree_sim::{InterpTier, NullObserver, SimConfig, Simulator};

/// A shape's name, its program at `n` levels, and what that program
/// returns.
type Shape = (&'static str, fn(usize) -> String, fn(usize) -> i64);

fn program(body: &str) -> String {
    format!("fn main() -> int {{ int x; x = 0; {body} return x; }}")
}

const SHAPES: [Shape; 4] = [
    (
        "nested ifs",
        |n| program(&("if (x >= 0) { x = x + 1; ".repeat(n) + &"}".repeat(n))),
        |n| n as i64,
    ),
    (
        "nested blocks",
        |n| program(&("{ x = x + 1; ".repeat(n) + &"}".repeat(n))),
        |n| n as i64,
    ),
    (
        "nested parentheses",
        |n| program(&format!("x = {}1{};", "(".repeat(n), ")".repeat(n))),
        |_| 1,
    ),
    (
        "`+` chain",
        |n| program(&format!("x = 1{};", " + 1".repeat(n - 1))),
        |n| n as i64,
    ),
];

fn too_deep(source: &str) -> bool {
    compile(source).is_err_and(|e| {
        e.to_string() == format!("syntax error: nesting deeper than {MAX_NESTING} levels")
    })
}

#[test]
fn each_shape_at_the_limit_compiles_and_runs() {
    for (name, shape, exit) in SHAPES {
        let limit = (1..=MAX_NESTING)
            .take_while(|&n| compile(&shape(n)).is_ok())
            .last()
            .unwrap_or_else(|| panic!("{name}: one level must compile"));
        // Every shape spends a few levels on the function body and the
        // statement around it, and no more.
        assert!(limit >= MAX_NESTING - 3, "{name}: limit {limit}");
        assert!(too_deep(&shape(limit + 1)), "{name}: {} levels", limit + 1);

        let deepest = compile(&shape(limit)).unwrap();
        for tier in [InterpTier::Bytecode, InterpTier::Tree] {
            let config = SimConfig {
                tier,
                ..SimConfig::default()
            };
            let run = Simulator::with_config(&deepest, config)
                .run(&mut NullObserver)
                .unwrap_or_else(|e| panic!("{name} under {tier:?}: {e}"));
            assert_eq!(run.exit, exit(limit), "{name} under {tier:?}");
        }
    }
}

#[test]
fn thirty_thousand_levels_are_a_syntax_error_not_a_crash() {
    for (name, shape, _) in SHAPES {
        let source = shape(30_000);
        let err = compile(&source).unwrap_err();
        assert!(too_deep(&source), "{name}: {err}");
        // The error points into the first line, at the construct that
        // went one level too deep.
        assert!(err.render(&source).starts_with("1:"), "{name}");
    }
}
