//! # Cmm — the benchmark-suite language
//!
//! The paper analysed optimised MIPS executables of C and Fortran
//! programs. We do not have those binaries, so this crate provides a small
//! C-like language, **Cmm**, and a compiler from Cmm to the
//! [`bpfree_ir`] MIPS-flavoured IR. The 23 programs of the benchmark suite
//! (crate `bpfree-suite`) are written in Cmm.
//!
//! The compiler deliberately mimics the code-generation idioms the paper's
//! heuristics key on:
//!
//! * **Loop rotation** — `while`/`for` loops compile to a guard branch
//!   around a do-until loop, replicating the loop test (the paper notes
//!   "many compilers generate code for while loops and for loops by
//!   generating an if-then around a do-until loop"). The guard is a
//!   *non-loop* branch that chooses between executing and avoiding the
//!   loop; the replicated test at the bottom is a *loop* branch whose
//!   taken edge is the backedge.
//! * **MIPS branch selection** — comparisons against zero become
//!   `blez`/`bltz`/`bgez`/`bgtz`-style conditions, equality tests become
//!   `beq`/`bne`, general relational tests materialise through `slt`, and
//!   floating-point comparisons set a condition flag read by
//!   `bc1t`/`bc1f`. The opcode heuristic reads exactly these forms.
//! * **Branch-over polarity** — `if` statements branch *on the negated
//!   condition over the then-block* (forward taken edge = else side),
//!   while rotated loop latches branch *back on the true condition*
//!   (taken edge = backedge), as MIPS compilers emit.
//! * **SP/GP addressing** — global scalars load directly off `$gp`; local
//!   arrays live in the `$sp`-addressed frame; heap cells come from
//!   `alloc` and are addressed off ordinary registers. The pointer
//!   heuristic distinguishes these.
//!
//! ## Language summary
//!
//! ```text
//! program  := (global | fn)*
//! global   := "global" type IDENT ("[" INT "]")? ";"
//! fn       := "fn" IDENT "(" (type IDENT ("," type IDENT)*)? ")" ("->" type)? block
//! type     := "int" | "float" | "ptr"
//! stmt     := type IDENT ("[" INT "]")? ";"          // declaration
//!           | lvalue "=" expr ";"                    // assignment
//!           | "if" "(" expr ")" block ("else" (block | if))?
//!           | "while" "(" expr ")" block
//!           | "do" block "while" "(" expr ")" ";"
//!           | "for" "(" simple? ";" expr? ";" simple? ")" block
//!           | "break" ";" | "continue" ";"
//!           | "return" expr? ";"
//!           | expr ";"
//!           | block
//! expr     := ternary-free C expression grammar: || && | ^ & == != < <= > >=
//!             << >> + - * / % unary -,! postfix call/index
//! ```
//!
//! Statements and expressions nest at most [`MAX_NESTING`] levels deep,
//! counted together; deeper source is a syntax error.
//!
//! `ptr` and `int` are both 64-bit words and convert implicitly (Cmm is
//! memory-untyped like B/BCPL); `int` promotes implicitly to `float`, and
//! `int(e)` / `float(e)` convert explicitly. `null` is the zero pointer.
//! `alloc(n)` returns a fresh zeroed n-word heap block. Indexing applies
//! to global/local arrays (typed loads) and to any word-typed expression
//! (pointer load). Local scalars live in virtual registers; there is no
//! address-of operator.
//!
//! # Example
//!
//! ```
//! let program = bpfree_lang::compile(
//!     r#"
//!     global int xs[8];
//!     fn sum(int n) -> int {
//!         int i; int s;
//!         s = 0;
//!         for (i = 0; i < n; i = i + 1) { s = s + xs[i]; }
//!         return s;
//!     }
//!     fn main() -> int { return sum(8); }
//!     "#,
//! )?;
//! // `sum` is a small leaf, so the default pipeline inlines it into
//! // `main` and drops the dead copy — like a 1993 C compiler at -O.
//! assert!(program.func_by_name("main").is_some());
//! assert!(program.func_by_name("sum").is_none());
//! # Ok::<(), bpfree_lang::CompileError>(())
//! ```

#![forbid(unsafe_code)]

mod ast;
mod error;
mod inline;
mod lexer;
mod lower;
mod parser;
mod passes;

pub use ast::{BinOp, Expr, ExprKind, Item, Program as AstProgram, Stmt, StmtKind, Type, UnOp};
pub use error::CompileError;
pub use lexer::{Lexer, Span, Token, TokenKind};
pub use parser::{parse, MAX_NESTING};

use bpfree_ir::Program;

/// Compiler options. The default is full optimisation — what the paper's
/// `-O`-compiled benchmarks looked like. Disable passes to inspect raw
/// lowering output (an `-O0` view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Options {
    /// Inline small leaf functions and drop fully-inlined dead functions.
    pub inline: bool,
    /// Straighten blocks, remove unreachable code, propagate copies.
    pub simplify: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            inline: true,
            simplify: true,
        }
    }
}

impl Options {
    /// Every option set, one per [`Options::fingerprint`].
    pub const ALL: [Options; 4] = [
        Options {
            inline: true,
            simplify: true,
        },
        Options {
            inline: true,
            simplify: false,
        },
        Options::no_inline(),
        Options::o0(),
    ];

    /// No optimisation passes: the raw lowering output.
    pub const fn o0() -> Options {
        Options {
            inline: false,
            simplify: false,
        }
    }

    /// CFG cleanup without inlining.
    pub const fn no_inline() -> Options {
        Options {
            inline: false,
            simplify: true,
        }
    }

    /// A short stable label naming the enabled passes, for artifact
    /// cache keys and diagnostics: two programs compiled under options
    /// with different fingerprints never share cached artifacts.
    pub fn fingerprint(&self) -> &'static str {
        match (self.inline, self.simplify) {
            (true, true) => "O:inline+simplify",
            (false, true) => "O:simplify",
            (true, false) => "O:inline",
            (false, false) => "O0",
        }
    }

    /// The option set whose [`Options::fingerprint`] is `fp`, or `None`
    /// for a string no option set prints.
    pub fn from_fingerprint(fp: &str) -> Option<Options> {
        Options::ALL.into_iter().find(|o| o.fingerprint() == fp)
    }
}

/// Compiles Cmm source text to a validated IR [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] carrying a source span for lexical, syntax,
/// or type errors, and for IR validation failures (which indicate a
/// compiler bug and are reported as internal errors).
///
/// # Example
///
/// ```
/// let p = bpfree_lang::compile("fn main() -> int { return 7; }")?;
/// assert_eq!(p.funcs().len(), 1);
/// # Ok::<(), bpfree_lang::CompileError>(())
/// ```
pub fn compile(source: &str) -> Result<Program, CompileError> {
    compile_with(source, Options::default())
}

/// Compiles with explicit [`Options`].
///
/// # Errors
///
/// As [`compile`].
///
/// # Example
///
/// ```
/// use bpfree_lang::{compile_with, Options};
/// let src = "fn sq(int x) -> int { return x * x; }
///            fn main() -> int { return sq(9); }";
/// // At -O0 the call to `sq` survives; by default it is inlined away.
/// let raw = compile_with(src, Options::o0())?;
/// assert!(raw.func_by_name("sq").is_some());
/// let opt = compile_with(src, Options::default())?;
/// assert!(opt.func_by_name("sq").is_none());
/// # Ok::<(), bpfree_lang::CompileError>(())
/// ```
pub fn compile_with(source: &str, options: Options) -> Result<Program, CompileError> {
    let ast = parse(source)?;
    lower::lower(&ast, options)
}

#[cfg(test)]
mod tests {
    use super::Options;

    #[test]
    fn fingerprints_name_each_option_set_and_nothing_else() {
        for o in Options::ALL {
            assert_eq!(Options::from_fingerprint(o.fingerprint()), Some(o));
        }
        assert_eq!(Options::from_fingerprint("O:unroll"), None);
    }
}
