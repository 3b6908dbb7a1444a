use std::fmt;

use crate::function::Function;
use crate::instr::{BlockId, Instr, Terminator};
use crate::reg::{FReg, Reg};

/// Error produced by [`FunctionBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A block was created but never given a terminator.
    UnterminatedBlock { func: String, block: BlockId },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnterminatedBlock { func, block } => {
                write!(f, "function `{func}`: block {block} has no terminator")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incrementally constructs a [`Function`].
///
/// The builder hands out fresh virtual registers and blocks; the entry
/// block (id 0) exists from the start. Every block must receive exactly one
/// terminator via [`FunctionBuilder::set_term`] before [`finish`] succeeds.
///
/// [`finish`]: FunctionBuilder::finish
///
/// # Example
///
/// ```
/// use bpfree_ir::{FunctionBuilder, Instr, Terminator, Cond};
///
/// let mut b = FunctionBuilder::new("abs");
/// let x = b.add_param();
/// let entry = b.entry();
/// let neg = b.new_block();
/// let pos = b.new_block();
/// b.set_term(entry, Terminator::Branch { cond: Cond::Ltz(x), taken: neg, fallthru: pos });
/// let r = b.new_reg();
/// b.push(neg, Instr::Bin { op: bpfree_ir::BinOp::Sub, rd: r, rs: bpfree_ir::Reg::ZERO, rt: x });
/// b.set_term(neg, Terminator::Ret { val: Some(r), fval: None });
/// b.set_term(pos, Terminator::Ret { val: Some(x), fval: None });
/// let f = b.finish().unwrap();
/// assert_eq!(f.blocks().len(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
    params: Vec<Reg>,
    fparams: Vec<FReg>,
    next_reg: u32,
    next_freg: u32,
    frame_words: i64,
}

impl FunctionBuilder {
    /// Starts a new function with an empty entry block.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder {
            name: name.into(),
            blocks: vec![(Vec::new(), None)],
            params: Vec::new(),
            fparams: Vec::new(),
            next_reg: Reg::FIRST_TEMP,
            next_freg: 0,
            frame_words: 0,
        }
    }

    /// The entry block id (always 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocates a fresh integer register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh float register.
    pub fn new_freg(&mut self) -> FReg {
        let r = FReg(self.next_freg);
        self.next_freg += 1;
        r
    }

    /// Allocates a fresh register and declares it an integer parameter.
    /// Parameters receive argument values in declaration order.
    pub fn add_param(&mut self) -> Reg {
        let r = self.new_reg();
        self.params.push(r);
        r
    }

    /// Allocates a fresh float register and declares it a float parameter.
    pub fn add_fparam(&mut self) -> FReg {
        let r = self.new_freg();
        self.fparams.push(r);
        r
    }

    /// Creates a new empty, unterminated block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Appends an instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or already terminated.
    pub fn push(&mut self, block: BlockId, instr: Instr) {
        let slot = &mut self.blocks[block.index()];
        assert!(slot.1.is_none(), "pushing into terminated block {block}");
        slot.0.push(instr);
    }

    /// Sets (or replaces) the terminator of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].1 = Some(term);
    }

    /// Reserves `words` of stack frame and returns the `SP`-relative word
    /// offset of the reservation.
    pub fn reserve_frame(&mut self, words: i64) -> i64 {
        let off = self.frame_words;
        self.frame_words += words;
        off
    }

    /// Produces the finished [`Function`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnterminatedBlock`] if any block never
    /// received a terminator.
    pub fn finish(self) -> Result<Function, BuildError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, (instrs, term)) in self.blocks.into_iter().enumerate() {
            match term {
                Some(term) => blocks.push(crate::function::Block { instrs, term }),
                None => {
                    return Err(BuildError::UnterminatedBlock {
                        func: self.name,
                        block: BlockId(i as u32),
                    })
                }
            }
        }
        Ok(Function::assemble(
            self.name,
            blocks,
            self.params,
            self.fparams,
            self.next_reg,
            self.next_freg,
            self.frame_words,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;

    #[test]
    fn unterminated_block_is_an_error() {
        let mut b = FunctionBuilder::new("f");
        let _ = b.new_block();
        b.set_term(
            b.entry(),
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        let err = b.finish().unwrap_err();
        assert_eq!(
            err,
            BuildError::UnterminatedBlock {
                func: "f".into(),
                block: BlockId(1)
            }
        );
        assert!(err.to_string().contains("L1"));
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn push_after_terminate_panics() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        b.set_term(
            e,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        b.push(
            e,
            Instr::Li {
                rd: Reg::temp(0),
                imm: 0,
            },
        );
    }

    #[test]
    fn params_allocate_fresh_registers() {
        let mut b = FunctionBuilder::new("f");
        let p0 = b.add_param();
        let p1 = b.add_param();
        let fp = b.add_fparam();
        assert_ne!(p0, p1);
        assert_eq!(fp, FReg(0));
        let e = b.entry();
        b.set_term(
            e,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        let f = b.finish().unwrap();
        assert_eq!(f.params(), &[p0, p1]);
        assert_eq!(f.fparams(), &[fp]);
    }

    #[test]
    fn frame_reservations_accumulate() {
        let mut b = FunctionBuilder::new("f");
        assert_eq!(b.reserve_frame(10), 0);
        assert_eq!(b.reserve_frame(5), 10);
        let e = b.entry();
        b.set_term(
            e,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        assert_eq!(b.finish().unwrap().frame_words(), 15);
    }

    #[test]
    fn diamond_builds() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let l = b.new_block();
        let r = b.new_block();
        let j = b.new_block();
        let c = b.new_reg();
        b.set_term(
            e,
            Terminator::Branch {
                cond: Cond::Nez(c),
                taken: l,
                fallthru: r,
            },
        );
        b.set_term(l, Terminator::Jump(j));
        b.set_term(r, Terminator::Jump(j));
        b.set_term(
            j,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        let f = b.finish().unwrap();
        assert_eq!(f.blocks().len(), 4);
        assert_eq!(f.block(BlockId(0)).term.successors(), vec![l, r]);
    }
}
