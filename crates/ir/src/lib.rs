//! A MIPS-flavoured low-level intermediate representation.
//!
//! This crate models the aspects of MIPS R2000/R3000 machine code that the
//! Ball–Larus branch prediction heuristics key on:
//!
//! * two-way conditional branches with fixed targets, including the
//!   compare-against-zero forms (`blez`, `bltz`, `bgez`, `bgtz`, `beqz`,
//!   `bnez`), register–register equality forms (`beq`, `bne`), and branches
//!   on the floating-point condition flag set by a preceding compare;
//! * loads and stores with a base register and word offset, with the stack
//!   pointer ([`Reg::SP`]) and global pointer ([`Reg::GP`]) conventions the
//!   paper's pointer heuristic relies on;
//! * direct calls and returns.
//!
//! A [`Program`] is a collection of [`Function`]s; each function is a list
//! of [`Block`]s ending in a [`Terminator`]. Conditional branches live only
//! in terminators, so a branch is identified by a `(FuncId, BlockId)` pair
//! (see [`BranchRef`]).
//!
//! # Example
//!
//! ```
//! use bpfree_ir::{FunctionBuilder, Instr, Terminator, Cond, Program};
//!
//! let mut b = FunctionBuilder::new("answer");
//! let entry = b.entry();
//! let r = b.new_reg();
//! b.push(entry, Instr::Li { rd: r, imm: 42 });
//! b.set_term(entry, Terminator::Ret { val: Some(r), fval: None });
//! let f = b.finish().unwrap();
//! let program = Program::new(vec![f], 0).unwrap();
//! assert_eq!(program.funcs().len(), 1);
//! ```

#![forbid(unsafe_code)]

mod builder;
pub mod codec;
mod dense;
mod display;
mod function;
mod instr;
mod reg;
mod validate;

pub use builder::{BuildError, FunctionBuilder};
pub use dense::{BranchId, BranchTable, Interner, NameId};
pub use function::{
    Block, BranchRef, FuncId, Function, GlobalSym, GlobalValues, Program, ProgramBuilder,
};
pub use instr::{BinOp, BlockId, Cond, FBinOp, FCmp, Instr, Terminator};
pub use reg::{FReg, Reg};
pub use validate::ValidateError;
