use std::fmt;

use crate::function::{FuncId, Function, Program};
use crate::instr::{BlockId, Instr, Terminator};
use crate::reg::{FReg, Reg};

/// Structural errors detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// A program must contain at least one function.
    EmptyProgram,
    /// A function must contain at least one block.
    EmptyFunction { func: String },
    /// A terminator names a block outside the function.
    BadBlockTarget {
        func: String,
        block: BlockId,
        target: BlockId,
    },
    /// A conditional branch whose two successors are the same block is a
    /// degenerate branch the prediction framework cannot score.
    DegenerateBranch { func: String, block: BlockId },
    /// A call names a function id outside the program.
    BadCallee {
        func: String,
        block: BlockId,
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        func: String,
        block: BlockId,
        callee: String,
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// An instruction names an integer register beyond the declared count.
    BadReg {
        func: String,
        block: BlockId,
        reg: Reg,
    },
    /// An instruction names a float register beyond the declared count.
    BadFReg {
        func: String,
        block: BlockId,
        reg: FReg,
    },
    /// A named global lies outside the global region.
    GlobalOutOfRange {
        name: String,
        offset: i64,
        len: i64,
        globals_words: i64,
    },
    /// A negative stack frame size.
    NegativeFrame { func: String, frame_words: i64 },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::EmptyProgram => write!(f, "program has no functions"),
            ValidateError::EmptyFunction { func } => {
                write!(f, "function `{func}` has no blocks")
            }
            ValidateError::BadBlockTarget {
                func,
                block,
                target,
            } => {
                write!(
                    f,
                    "function `{func}`: block {block} targets nonexistent {target}"
                )
            }
            ValidateError::DegenerateBranch { func, block } => {
                write!(
                    f,
                    "function `{func}`: block {block} branches to one target twice"
                )
            }
            ValidateError::BadCallee {
                func,
                block,
                callee,
            } => {
                write!(
                    f,
                    "function `{func}`: block {block} calls nonexistent {callee}"
                )
            }
            ValidateError::ArityMismatch {
                func,
                block,
                callee,
                expected,
                got,
            } => write!(
                f,
                "function `{func}`: block {block} calls `{callee}` with {}+{} args, expected {}+{}",
                got.0, got.1, expected.0, expected.1
            ),
            ValidateError::BadReg { func, block, reg } => {
                write!(
                    f,
                    "function `{func}`: block {block} uses undeclared register {reg}"
                )
            }
            ValidateError::BadFReg { func, block, reg } => {
                write!(
                    f,
                    "function `{func}`: block {block} uses undeclared register {reg}"
                )
            }
            ValidateError::GlobalOutOfRange {
                name,
                offset,
                len,
                globals_words,
            } => write!(
                f,
                "global `{name}` at [{offset}, {}) exceeds the {globals_words}-word region",
                offset.saturating_add(*len)
            ),
            ValidateError::NegativeFrame { func, frame_words } => {
                write!(f, "function `{func}` has negative frame size {frame_words}")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Checks structural well-formedness: block targets in range, callees
    /// exist with matching arity, register indices (parameters included)
    /// within the declared counts, no degenerate branches, no negative
    /// frames.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.funcs().is_empty() {
            return Err(ValidateError::EmptyProgram);
        }
        for func in self.funcs() {
            self.validate_function(func)?;
        }
        Ok(())
    }

    fn validate_function(&self, func: &Function) -> Result<(), ValidateError> {
        let name = func.name().to_string();
        if func.blocks().is_empty() {
            return Err(ValidateError::EmptyFunction { func: name });
        }
        if func.frame_words() < 0 {
            return Err(ValidateError::NegativeFrame {
                func: name,
                frame_words: func.frame_words(),
            });
        }
        if let Some(&reg) = func.params().iter().find(|r| r.0 >= func.n_regs()) {
            return Err(ValidateError::BadReg {
                func: name,
                block: func.entry(),
                reg,
            });
        }
        if let Some(&reg) = func.fparams().iter().find(|r| r.0 >= func.n_fregs()) {
            return Err(ValidateError::BadFReg {
                func: name,
                block: func.entry(),
                reg,
            });
        }
        let n_blocks = func.blocks().len() as u32;
        for bid in func.block_ids() {
            let block = func.block(bid);
            for instr in &block.instrs {
                self.validate_instr(func, bid, instr)?;
            }
            match &block.term {
                Terminator::Jump(t) => {
                    if t.0 >= n_blocks {
                        return Err(ValidateError::BadBlockTarget {
                            func: func.name().into(),
                            block: bid,
                            target: *t,
                        });
                    }
                }
                Terminator::Branch {
                    cond,
                    taken,
                    fallthru,
                } => {
                    for t in [taken, fallthru] {
                        if t.0 >= n_blocks {
                            return Err(ValidateError::BadBlockTarget {
                                func: func.name().into(),
                                block: bid,
                                target: *t,
                            });
                        }
                    }
                    if taken == fallthru {
                        return Err(ValidateError::DegenerateBranch {
                            func: func.name().into(),
                            block: bid,
                        });
                    }
                    for r in cond.uses() {
                        check_reg(func, bid, r)?;
                    }
                }
                Terminator::Ret { val, fval } => {
                    if let Some(r) = val {
                        check_reg(func, bid, *r)?;
                    }
                    if let Some(r) = fval {
                        check_freg(func, bid, *r)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_instr(
        &self,
        func: &Function,
        bid: BlockId,
        instr: &Instr,
    ) -> Result<(), ValidateError> {
        for r in instr.uses().chain(instr.def()) {
            check_reg(func, bid, r)?;
        }
        for r in instr.fuses().chain(instr.fdef()) {
            check_freg(func, bid, r)?;
        }
        if let Instr::Call {
            callee,
            args,
            fargs,
            ..
        } = instr
        {
            if callee.0 as usize >= self.funcs().len() {
                return Err(ValidateError::BadCallee {
                    func: func.name().into(),
                    block: bid,
                    callee: *callee,
                });
            }
            let target = self.func(*callee);
            let expected = (target.params().len(), target.fparams().len());
            let got = (args.len(), fargs.len());
            if expected != got {
                return Err(ValidateError::ArityMismatch {
                    func: func.name().into(),
                    block: bid,
                    callee: target.name().into(),
                    expected,
                    got,
                });
            }
        }
        Ok(())
    }
}

fn check_reg(func: &Function, bid: BlockId, r: Reg) -> Result<(), ValidateError> {
    if r.0 >= func.n_regs() && !r.is_special() {
        return Err(ValidateError::BadReg {
            func: func.name().into(),
            block: bid,
            reg: r,
        });
    }
    Ok(())
}

fn check_freg(func: &Function, bid: BlockId, r: FReg) -> Result<(), ValidateError> {
    if r.0 >= func.n_fregs() {
        return Err(ValidateError::BadFReg {
            func: func.name().into(),
            block: bid,
            reg: r,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Cond;

    fn ret() -> Terminator {
        Terminator::Ret {
            val: None,
            fval: None,
        }
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            Program::new(vec![], 0).unwrap_err(),
            ValidateError::EmptyProgram
        );
    }

    #[test]
    fn bad_jump_target_rejected() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        b.set_term(e, Terminator::Jump(BlockId(9)));
        let err = Program::new(vec![b.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadBlockTarget { .. }));
    }

    #[test]
    fn degenerate_branch_rejected() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        let t = b.new_block();
        let r = b.new_reg();
        b.set_term(
            e,
            Terminator::Branch {
                cond: Cond::Nez(r),
                taken: t,
                fallthru: t,
            },
        );
        b.set_term(t, ret());
        let err = Program::new(vec![b.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::DegenerateBranch { .. }));
    }

    #[test]
    fn bad_callee_rejected() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        b.push(
            e,
            Instr::Call {
                callee: FuncId(7),
                args: vec![],
                fargs: vec![],
                ret: None,
                fret: None,
            },
        );
        b.set_term(e, ret());
        let err = Program::new(vec![b.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadCallee { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut callee = FunctionBuilder::new("callee");
        let _p = callee.add_param();
        let e = callee.entry();
        callee.set_term(e, ret());

        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        b.push(
            e,
            Instr::Call {
                callee: FuncId(1),
                args: vec![],
                fargs: vec![],
                ret: None,
                fret: None,
            },
        );
        b.set_term(e, ret());
        let err = Program::new(vec![b.finish().unwrap(), callee.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::ArityMismatch { .. }));
    }

    #[test]
    fn undeclared_register_rejected() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        b.push(
            e,
            Instr::Move {
                rd: Reg(100),
                rs: Reg::ZERO,
            },
        );
        b.set_term(e, ret());
        let err = Program::new(vec![b.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadReg { .. }));
    }

    #[test]
    fn parameter_outside_the_register_file_rejected() {
        let main = |params, fparams| {
            let blocks = vec![crate::function::Block {
                instrs: vec![],
                term: ret(),
            }];
            Function::assemble("main".into(), blocks, params, fparams, 4, 1, 0)
        };
        assert!(Program::new(vec![main(vec![Reg(3)], vec![FReg(0)])], 0).is_ok());
        let err = Program::new(vec![main(vec![Reg(4)], vec![])], 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadReg { .. }));
        let err = Program::new(vec![main(vec![], vec![FReg(1)])], 0).unwrap_err();
        assert!(matches!(err, ValidateError::BadFReg { .. }));
    }

    #[test]
    fn special_registers_always_allowed() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        let r = b.new_reg();
        b.push(
            e,
            Instr::Load {
                rd: r,
                base: Reg::GP,
                offset: 0,
            },
        );
        b.push(
            e,
            Instr::Store {
                rs: r,
                base: Reg::SP,
                offset: 0,
            },
        );
        b.set_term(e, ret());
        assert!(Program::new(vec![b.finish().unwrap()], 4).is_ok());
    }

    #[test]
    fn negative_frame_rejected() {
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        b.reserve_frame(-4);
        b.set_term(e, ret());
        let err = Program::new(vec![b.finish().unwrap()], 0).unwrap_err();
        assert!(matches!(err, ValidateError::NegativeFrame { .. }));
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = ValidateError::BadBlockTarget {
            func: "f".into(),
            block: BlockId(1),
            target: BlockId(9),
        };
        let msg = err.to_string();
        assert!(msg.contains("f") && msg.contains("L1") && msg.contains("L9"));
    }
}
