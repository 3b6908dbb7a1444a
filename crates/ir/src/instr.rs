use crate::function::FuncId;
use crate::reg::{FReg, Reg};

/// Identifier of a basic block within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw block index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Integer binary ALU operations.
///
/// The comparison forms (`Slt`, `Sle`, `Seq`, `Sne`) produce 0 or 1, like
/// the MIPS `slt` family; conditional control flow then tests the result
/// against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero yields 0 (the simulator defines
    /// this rather than trapping).
    Div,
    /// Signed remainder. Remainder by zero yields 0.
    Rem,
    And,
    Or,
    Xor,
    /// Shift left logical (shift amount taken modulo 64).
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set if less than (signed): `rd = (rs < rt) as i64`.
    Slt,
    /// Set if less than or equal (signed).
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
}

/// Floating-point binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Floating-point comparison kinds for [`Instr::CmpF`].
///
/// `Eq` matters to the opcode heuristic: the paper predicts that
/// floating-point *equality* tests usually evaluate false.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmp {
    Eq,
    Lt,
    Le,
}

/// A non-terminator instruction.
///
/// Memory is word addressed: offsets and sizes count 64-bit words, not
/// bytes. Floating-point values occupy one word (stored as raw `f64` bits).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `rd <- imm`
    Li { rd: Reg, imm: i64 },
    /// `rd <- rs`
    Move { rd: Reg, rs: Reg },
    /// `rd <- rs <op> rt`
    Bin {
        op: BinOp,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd <- rs <op> imm`
    BinImm {
        op: BinOp,
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    /// `fd <- imm`
    LiF { fd: FReg, imm: f64 },
    /// `fd <- fs`
    MoveF { fd: FReg, fs: FReg },
    /// `fd <- fs <op> ft`
    BinF {
        op: FBinOp,
        fd: FReg,
        fs: FReg,
        ft: FReg,
    },
    /// `fd <- (f64) rs`
    CvtIF { fd: FReg, rs: Reg },
    /// `rd <- (i64) fs` (truncating; saturates at the `i64` range)
    CvtFI { rd: Reg, fs: FReg },
    /// Set the floating-point condition flag: `fflag <- fs <cmp> ft`.
    ///
    /// Consumed by [`Cond::FTrue`] / [`Cond::FFalse`] branches.
    CmpF { cmp: FCmp, fs: FReg, ft: FReg },
    /// `rd <- mem[base + offset]`
    Load { rd: Reg, base: Reg, offset: i64 },
    /// `mem[base + offset] <- rs`
    Store { rs: Reg, base: Reg, offset: i64 },
    /// `fd <- mem[base + offset]` (reinterpreting the word as `f64` bits)
    LoadF { fd: FReg, base: Reg, offset: i64 },
    /// `mem[base + offset] <- fs`
    StoreF { fs: FReg, base: Reg, offset: i64 },
    /// `rd <-` address of a fresh `size`-word heap block (bump allocated,
    /// zero initialised). A `size <= 0` request yields a distinct non-null
    /// address of zero usable words.
    Alloc { rd: Reg, size: Reg },
    /// Direct call. Integer arguments are copied into the callee's integer
    /// parameter registers, float arguments into its float parameter
    /// registers; an optional integer and/or float result is copied back.
    Call {
        callee: FuncId,
        args: Vec<Reg>,
        fargs: Vec<FReg>,
        ret: Option<Reg>,
        fret: Option<FReg>,
    },
}

impl Instr {
    /// Is this a call instruction? (Used by the call heuristic.)
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::Call { .. })
    }

    /// Is this a store to memory? (Used by the store heuristic.)
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::StoreF { .. })
    }

    /// Is this a load from memory?
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::LoadF { .. })
    }

    /// The integer register defined by this instruction, if any.
    ///
    /// Writes to [`Reg::ZERO`] still count as a definition here; the
    /// simulator discards them but dataflow treats the slot as clobbered.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instr::Li { rd, .. }
            | Instr::Move { rd, .. }
            | Instr::Bin { rd, .. }
            | Instr::BinImm { rd, .. }
            | Instr::CvtFI { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Alloc { rd, .. } => Some(rd),
            Instr::Call { ret, .. } => ret,
            _ => None,
        }
    }

    /// The float register defined by this instruction, if any.
    pub fn fdef(&self) -> Option<FReg> {
        match *self {
            Instr::LiF { fd, .. }
            | Instr::MoveF { fd, .. }
            | Instr::BinF { fd, .. }
            | Instr::CvtIF { fd, .. }
            | Instr::LoadF { fd, .. } => Some(fd),
            Instr::Call { fret, .. } => fret,
            _ => None,
        }
    }

    /// Integer registers read by this instruction, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let (fixed, args): ([Option<Reg>; 2], &[Reg]) = match *self {
            Instr::Move { rs, .. } | Instr::BinImm { rs, .. } | Instr::CvtIF { rs, .. } => {
                ([Some(rs), None], &[])
            }
            Instr::Bin { rs, rt, .. } => ([Some(rs), Some(rt)], &[]),
            Instr::Load { base, .. } | Instr::LoadF { base, .. } | Instr::StoreF { base, .. } => {
                ([Some(base), None], &[])
            }
            Instr::Store { rs, base, .. } => ([Some(rs), Some(base)], &[]),
            Instr::Alloc { size, .. } => ([Some(size), None], &[]),
            Instr::Call { ref args, .. } => ([None, None], args),
            Instr::Li { .. }
            | Instr::LiF { .. }
            | Instr::MoveF { .. }
            | Instr::BinF { .. }
            | Instr::CvtFI { .. }
            | Instr::CmpF { .. } => ([None, None], &[]),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// Rewrites the integer destination register, if this instruction has
    /// one. Returns `false` (and changes nothing) otherwise.
    ///
    /// Used by copy propagation: `lw $t, ...; move $q, $t` becomes
    /// `lw $q, ...` when `$t` has no other use.
    pub fn set_def(&mut self, new_rd: Reg) -> bool {
        match self {
            Instr::Li { rd, .. }
            | Instr::Move { rd, .. }
            | Instr::Bin { rd, .. }
            | Instr::BinImm { rd, .. }
            | Instr::CvtFI { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Alloc { rd, .. } => {
                *rd = new_rd;
                true
            }
            Instr::Call { ret, .. } if ret.is_some() => {
                *ret = Some(new_rd);
                true
            }
            _ => false,
        }
    }

    /// Rewrites the float destination register, if any. Returns `false`
    /// (and changes nothing) otherwise.
    pub fn set_fdef(&mut self, new_fd: FReg) -> bool {
        match self {
            Instr::LiF { fd, .. }
            | Instr::MoveF { fd, .. }
            | Instr::BinF { fd, .. }
            | Instr::CvtIF { fd, .. }
            | Instr::LoadF { fd, .. } => {
                *fd = new_fd;
                true
            }
            Instr::Call { fret, .. } if fret.is_some() => {
                *fret = Some(new_fd);
                true
            }
            _ => false,
        }
    }

    /// Float registers read by this instruction, in operand order.
    pub fn fuses(&self) -> impl Iterator<Item = FReg> + '_ {
        let (fixed, fargs): ([Option<FReg>; 2], &[FReg]) = match *self {
            Instr::MoveF { fs, .. } | Instr::CvtFI { fs, .. } | Instr::StoreF { fs, .. } => {
                ([Some(fs), None], &[])
            }
            Instr::BinF { fs, ft, .. } | Instr::CmpF { fs, ft, .. } => ([Some(fs), Some(ft)], &[]),
            Instr::Call { ref fargs, .. } => ([None, None], fargs),
            _ => ([None, None], &[]),
        };
        fixed.into_iter().flatten().chain(fargs.iter().copied())
    }
}

/// The condition of a conditional branch.
///
/// The compare-against-zero forms mirror the MIPS `blez`/`bltz`/`bgez`/
/// `bgtz` opcodes that the opcode heuristic reads; `Eq`/`Ne` mirror
/// `beq`/`bne`; `FTrue`/`FFalse` mirror `bc1t`/`bc1f` and test the flag set
/// by the most recent [`Instr::CmpF`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `rs == 0`
    Eqz(Reg),
    /// `rs != 0`
    Nez(Reg),
    /// `rs <= 0` (MIPS `blez`)
    Lez(Reg),
    /// `rs < 0` (MIPS `bltz`)
    Ltz(Reg),
    /// `rs >= 0` (MIPS `bgez`)
    Gez(Reg),
    /// `rs > 0` (MIPS `bgtz`)
    Gtz(Reg),
    /// `rs == rt` (MIPS `beq`)
    Eq(Reg, Reg),
    /// `rs != rt` (MIPS `bne`)
    Ne(Reg, Reg),
    /// floating-point condition flag is set (MIPS `bc1t`)
    FTrue,
    /// floating-point condition flag is clear (MIPS `bc1f`)
    FFalse,
}

impl Cond {
    /// Integer registers this condition reads, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = Reg> {
        let regs = match *self {
            Cond::Eqz(r)
            | Cond::Nez(r)
            | Cond::Lez(r)
            | Cond::Ltz(r)
            | Cond::Gez(r)
            | Cond::Gtz(r) => [Some(r), None],
            Cond::Eq(a, b) | Cond::Ne(a, b) => [Some(a), Some(b)],
            Cond::FTrue | Cond::FFalse => [None, None],
        };
        regs.into_iter().flatten()
    }

    /// Does this condition read the floating-point flag?
    pub fn uses_fflag(&self) -> bool {
        matches!(self, Cond::FTrue | Cond::FFalse)
    }

    /// The same test with taken/fall-through swapped (`!cond`).
    ///
    /// # Example
    ///
    /// ```
    /// use bpfree_ir::{Cond, Reg};
    /// let r = Reg::temp(0);
    /// assert_eq!(Cond::Ltz(r).negated(), Cond::Gez(r));
    /// ```
    pub fn negated(&self) -> Cond {
        match *self {
            Cond::Eqz(r) => Cond::Nez(r),
            Cond::Nez(r) => Cond::Eqz(r),
            Cond::Lez(r) => Cond::Gtz(r),
            Cond::Ltz(r) => Cond::Gez(r),
            Cond::Gez(r) => Cond::Ltz(r),
            Cond::Gtz(r) => Cond::Lez(r),
            Cond::Eq(a, b) => Cond::Ne(a, b),
            Cond::Ne(a, b) => Cond::Eq(a, b),
            Cond::FTrue => Cond::FFalse,
            Cond::FFalse => Cond::FTrue,
        }
    }
}

/// The control-flow instruction that ends every basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch: to `taken` if `cond` holds, else to
    /// `fallthru`. This is the branch kind the paper predicts.
    Branch {
        cond: Cond,
        taken: BlockId,
        fallthru: BlockId,
    },
    /// Procedure return with an optional integer and/or float result.
    Ret {
        val: Option<Reg>,
        fval: Option<FReg>,
    },
}

impl Terminator {
    /// Successor blocks, in `(taken, fallthru)` order for branches.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                taken, fallthru, ..
            } => vec![*taken, *fallthru],
            Terminator::Ret { .. } => vec![],
        }
    }

    /// Is this a conditional branch?
    pub fn is_branch(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }

    /// Is this a return?
    pub fn is_ret(&self) -> bool {
        matches!(self, Terminator::Ret { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_cover_basic_instrs() {
        let r0 = Reg::temp(0);
        let r1 = Reg::temp(1);
        let i = Instr::Bin {
            op: BinOp::Add,
            rd: r0,
            rs: r1,
            rt: Reg::GP,
        };
        assert_eq!(i.def(), Some(r0));
        assert_eq!(i.uses().collect::<Vec<_>>(), [r1, Reg::GP]);
        assert_eq!(i.fdef(), None);
        assert_eq!(i.fuses().next(), None);
    }

    #[test]
    fn store_has_no_def() {
        let i = Instr::Store {
            rs: Reg::temp(0),
            base: Reg::SP,
            offset: 4,
        };
        assert_eq!(i.def(), None);
        assert!(i.is_store());
        assert!(!i.is_load());
    }

    #[test]
    fn call_defs_and_uses() {
        let i = Instr::Call {
            callee: FuncId(3),
            args: vec![Reg::temp(5)],
            fargs: vec![FReg(1)],
            ret: Some(Reg::temp(6)),
            fret: None,
        };
        assert!(i.is_call());
        assert_eq!(i.def(), Some(Reg::temp(6)));
        assert_eq!(i.uses().collect::<Vec<_>>(), [Reg::temp(5)]);
        assert_eq!(i.fuses().collect::<Vec<_>>(), [FReg(1)]);
    }

    #[test]
    fn cond_negation_is_involutive() {
        let r = Reg::temp(0);
        let s = Reg::temp(1);
        let conds = [
            Cond::Eqz(r),
            Cond::Nez(r),
            Cond::Lez(r),
            Cond::Ltz(r),
            Cond::Gez(r),
            Cond::Gtz(r),
            Cond::Eq(r, s),
            Cond::Ne(r, s),
            Cond::FTrue,
            Cond::FFalse,
        ];
        for c in conds {
            assert_eq!(c.negated().negated(), c);
        }
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Cond::FTrue,
            taken: BlockId(4),
            fallthru: BlockId(5),
        };
        assert_eq!(t.successors(), vec![BlockId(4), BlockId(5)]);
        assert!(t.is_branch());
        assert!(Terminator::Ret {
            val: None,
            fval: None
        }
        .successors()
        .is_empty());
    }
}
