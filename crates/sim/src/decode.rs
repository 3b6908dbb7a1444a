//! Pre-decoding of a [`Program`] into flat bytecode.
//!
//! The tree-walking interpreter re-examines every [`Instr`] operand on
//! every execution: enum-tree matching, `Reg::ZERO` branches on each
//! register access, and block ids resolved through slice indexing at
//! run time. [`BytecodeProgram::compile`] pays those costs **once**,
//! lowering each function into a linear `Vec<Op>` where
//!
//! * operands are raw register-arena slot indices,
//! * jump/branch targets are op-stream offsets,
//! * reads of [`Reg::ZERO`] go to a dedicated always-zero slot (slot 0,
//!   which no op ever writes) and writes to it are redirected to a
//!   write-only sink slot, so the hot loop has **no** zero-register
//!   branch on either side,
//! * fuel is charged on control-flow **edges** instead of by a
//!   per-block op: every jump/branch carries the fuel of its target
//!   block (and each function its entry block's), so block entry costs
//!   zero dispatches while `OutOfFuel` still fires exactly where the
//!   tree walker raises it, and
//! * adjacent instructions fuse into superinstructions: the
//!   instructions that end a block into its branch (`BinBr`,
//!   `BinImmBr`, `LoadBinBr` — the "load global bound, compare, branch"
//!   loop header — and `AluLoadBinBr`, a whole loop latch), two adjacent
//!   ALU ops into `Alu2`, and a `Bin` feeding a `Load`'s address into
//!   `LoadRR` (the array-indexing idiom).
//!
//! Every conditional-branch op is its fused prefix plus one `BrTail`,
//! which decode builds, the offset patch fills in, `validate` checks
//! and the executor runs, each in one place. The tail carries the
//! branch's [`BranchSite`]: the site and its slot, the branch's index
//! in [`Program::branches`] order (function-major, then block), which
//! is also `BranchMap`'s order. Observers index their per-branch state
//! by the slot.
//!
//! Decoding changes nothing observable: the executor in [`crate::exec`]
//! replays the exact [`ExecObserver`](crate::ExecObserver) event stream
//! (`on_instrs` / `on_branch` order, counts, and block-granular fuel
//! accounting) of the tree walker, which the differential and property
//! tests enforce.

use bpfree_ir::{
    BinOp, BlockId, BranchRef, Cond, FBinOp, FCmp, FReg, FuncId, Instr, Program, Reg, Terminator,
};

use crate::observer::BranchSite;

/// Sentinel slot index meaning "no register" (absent `ret`/`fret`/`val`).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A conditional-branch test with operands resolved to arena slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BcCond {
    Eqz(u32),
    Nez(u32),
    Lez(u32),
    Ltz(u32),
    Gez(u32),
    Gtz(u32),
    Eq(u32, u32),
    Ne(u32, u32),
    FTrue,
    FFalse,
}

/// One integer ALU operation, the unit the [`Op::Alu2`] pair fusion
/// glues together. Pure (never traps), so two of them execute back to
/// back with exactly the semantics of the unfused sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AluOp {
    RR {
        op: BinOp,
        rd: u32,
        rs: u32,
        rt: u32,
    },
    RI {
        op: BinOp,
        rd: u32,
        rs: u32,
        imm: i64,
    },
}

/// The tail every conditional-branch op ends in: the condition, both
/// edges as op-stream offsets within the owning function, each carrying
/// its target block's fuel, the branch's [`BranchSite`] (which the
/// executor lends to
/// [`ExecObserver::on_branch`](crate::ExecObserver::on_branch)), and the
/// cost of the block the branch ends.
#[derive(Debug, Clone)]
pub(crate) struct BrTail {
    pub(crate) cond: BcCond,
    pub(crate) taken: u32,
    pub(crate) fallthru: u32,
    pub(crate) taken_fuel: u64,
    pub(crate) fallthru_fuel: u64,
    pub(crate) site: BranchSite,
    pub(crate) cost: u64,
}

/// One flat bytecode operation. Register fields are frame-relative slot
/// indices (reads of `$zero` point at the always-zero slot 0, writes to
/// it at the sink slot). A `Jump` carries its target as an op-stream
/// offset within the owning function plus the target block's fuel;
/// every conditional branch is a fused prefix (possibly empty) plus one
/// [`BrTail`].
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Li {
        rd: u32,
        imm: i64,
    },
    Move {
        rd: u32,
        rs: u32,
    },
    Bin {
        op: BinOp,
        rd: u32,
        rs: u32,
        rt: u32,
    },
    BinImm {
        op: BinOp,
        rd: u32,
        rs: u32,
        imm: i64,
    },
    LiF {
        fd: u32,
        imm: f64,
    },
    MoveF {
        fd: u32,
        fs: u32,
    },
    BinF {
        op: FBinOp,
        fd: u32,
        fs: u32,
        ft: u32,
    },
    CvtIF {
        fd: u32,
        rs: u32,
    },
    CvtFI {
        rd: u32,
        fs: u32,
    },
    CmpF {
        cmp: FCmp,
        fs: u32,
        ft: u32,
    },
    Load {
        rd: u32,
        base: u32,
        offset: i64,
    },
    Store {
        rs: u32,
        base: u32,
        offset: i64,
    },
    LoadF {
        fd: u32,
        base: u32,
        offset: i64,
    },
    StoreF {
        fs: u32,
        base: u32,
        offset: i64,
    },
    /// Superinstruction: a `Bin` whose result is the very next `Load`'s
    /// base address (the array-indexing idiom `t = base + i; v = t[k]`).
    /// The address is still written to `rd_addr` (it may be live
    /// elsewhere) before the load checks it, exactly as the unfused
    /// pair behaves.
    LoadRR {
        op: BinOp,
        rd_addr: u32,
        rs: u32,
        rt: u32,
        rd: u32,
        offset: i64,
    },
    /// Superinstruction: two adjacent integer ALU ops (`Bin`/`BinImm`
    /// in any combination) in one dispatch — the accumulate-and-step
    /// pair at the bottom of every counted loop body.
    Alu2 {
        a: AluOp,
        b: AluOp,
    },
    Alloc {
        rd: u32,
        size: u32,
    },
    /// Direct call. `args`/`fargs` are `(caller slot, callee slot)`
    /// copy pairs precomputed from the callee's parameter list; `ret`/
    /// `fret` are caller slots (or [`NO_SLOT`]). The callee's
    /// [`BcFunc::entry_fuel`] is charged after the overflow checks —
    /// where the tree walker charges it on entering the callee.
    Call {
        callee: u32,
        args: Box<[(u32, u32)]>,
        fargs: Box<[(u32, u32)]>,
        ret: u32,
        fret: u32,
    },
    Jump {
        target: u32,
        cost: u64,
        fuel: u64,
    },
    Br(BrTail),
    /// Superinstruction: `Bin` fused with the branch that ends the same
    /// block. The ALU result is still written to `rd` (it may be live
    /// elsewhere) before the condition is evaluated, exactly as the
    /// unfused pair behaves.
    BinBr {
        op: BinOp,
        rd: u32,
        rs: u32,
        rt: u32,
        br: BrTail,
    },
    /// Superinstruction: `BinImm` fused with the block-ending branch.
    BinImmBr {
        op: BinOp,
        rd: u32,
        rs: u32,
        imm: i64,
        br: BrTail,
    },
    /// Superinstruction: an ALU op, then a `Load` + `Bin` pair, fused
    /// with the block-ending branch — a whole "step the counter, load
    /// the bound, compare, branch" loop latch in one dispatch. Executes
    /// strictly in program order: the ALU write, the load (which may
    /// trap), the compare write, then the branch events.
    AluLoadBinBr {
        pre: AluOp,
        ld_rd: u32,
        ld_base: u32,
        ld_offset: i64,
        op: BinOp,
        rd: u32,
        rs: u32,
        rt: u32,
        br: BrTail,
    },
    /// Superinstruction: a trailing `Load` + `Bin` pair fused with the
    /// block-ending branch — the "load a global bound, compare against
    /// it, branch" shape every counted loop header lowers to. Executes
    /// strictly in sequence: the load (which may trap first), the ALU
    /// write, then the branch events.
    LoadBinBr {
        ld_rd: u32,
        ld_base: u32,
        ld_offset: i64,
        op: BinOp,
        rd: u32,
        rs: u32,
        rt: u32,
        br: BrTail,
    },
    Ret {
        val: u32,
        fval: u32,
        cost: u64,
    },
}

impl Op {
    /// The tail of a conditional-branch op; `None` for every other op.
    fn br_mut(&mut self) -> Option<&mut BrTail> {
        match self {
            Op::Br(br)
            | Op::BinBr { br, .. }
            | Op::BinImmBr { br, .. }
            | Op::AluLoadBinBr { br, .. }
            | Op::LoadBinBr { br, .. } => Some(br),
            _ => None,
        }
    }
}

/// One decoded function: its op stream plus the frame geometry the
/// executor needs to carve a frame out of the shared register arena.
#[derive(Debug)]
pub(crate) struct BcFunc {
    pub(crate) ops: Box<[Op]>,
    /// Integer slots per frame: `max(n_regs, 3)` architectural slots
    /// plus the trailing write sink for `$zero`.
    pub(crate) n_slots: u32,
    pub(crate) n_fslots: u32,
    pub(crate) frame_words: i64,
    /// Fuel of the entry block, charged on function entry (calls and
    /// the program start) since no edge op precedes it.
    pub(crate) entry_fuel: u64,
}

/// A [`Program`] lowered to flat, pre-decoded bytecode — the input of
/// the default interpreter tier.
///
/// Compile once per program (the artifact engine memoizes it per
/// `(benchmark, Options)`), then execute any number of datasets against
/// it via [`Simulator::with_decoded`](crate::Simulator::with_decoded).
/// Execution is observationally identical to the tree-walking tier:
/// same results, same errors, same observer event stream, byte for
/// byte.
///
/// # Example
///
/// ```
/// use bpfree_sim::{BytecodeProgram, NullObserver, Simulator};
/// let p = bpfree_lang::compile("fn main() -> int { return 6 * 7; }").unwrap();
/// let bc = BytecodeProgram::compile(&p);
/// let r = Simulator::with_decoded(&p, &bc).run(&mut NullObserver).unwrap();
/// assert_eq!(r.exit, 42);
/// ```
#[derive(Debug)]
pub struct BytecodeProgram {
    pub(crate) funcs: Vec<BcFunc>,
    pub(crate) entry: u32,
}

impl BytecodeProgram {
    /// Lowers `program` into flat bytecode. Pure decoding — no
    /// execution state is captured, so one `BytecodeProgram` serves any
    /// number of concurrent simulations of the same program.
    pub fn compile(program: &Program) -> BytecodeProgram {
        let mut next_slot = 0;
        let funcs = program
            .func_ids()
            .map(|fid| decode_func(program, fid, &mut next_slot))
            .collect();
        BytecodeProgram {
            funcs,
            entry: program.entry().0,
        }
    }
}

/// Lowers one function. Its conditional branches take the slots from
/// `next_slot` on, in block order.
fn decode_func(program: &Program, fid: FuncId, next_slot: &mut u32) -> BcFunc {
    let func = program.func(fid);
    // Slot layout: [0] = $zero (never written), [1] = $sp, [2] = $gp,
    // [3..] = temporaries, [n_regs_eff] = write sink for $zero.
    let n_regs_eff = func.n_regs().max(Reg::FIRST_TEMP);
    let sink = n_regs_eff;
    let rslot = |r: Reg| r.index();
    let wslot = |r: Reg| if r == Reg::ZERO { sink } else { r.index() };
    let fslot = |f: FReg| f.index();
    let cslot = |c: &Cond| match *c {
        Cond::Eqz(r) => BcCond::Eqz(rslot(r)),
        Cond::Nez(r) => BcCond::Nez(rslot(r)),
        Cond::Lez(r) => BcCond::Lez(rslot(r)),
        Cond::Ltz(r) => BcCond::Ltz(rslot(r)),
        Cond::Gez(r) => BcCond::Gez(rslot(r)),
        Cond::Gtz(r) => BcCond::Gtz(rslot(r)),
        Cond::Eq(a, b) => BcCond::Eq(rslot(a), rslot(b)),
        Cond::Ne(a, b) => BcCond::Ne(rslot(a), rslot(b)),
        Cond::FTrue => BcCond::FTrue,
        Cond::FFalse => BcCond::FFalse,
    };
    let lower = |instr: &Instr| match instr {
        Instr::Li { rd, imm } => Op::Li {
            rd: wslot(*rd),
            imm: *imm,
        },
        Instr::Move { rd, rs } => Op::Move {
            rd: wslot(*rd),
            rs: rslot(*rs),
        },
        Instr::Bin { op, rd, rs, rt } => Op::Bin {
            op: *op,
            rd: wslot(*rd),
            rs: rslot(*rs),
            rt: rslot(*rt),
        },
        Instr::BinImm { op, rd, rs, imm } => Op::BinImm {
            op: *op,
            rd: wslot(*rd),
            rs: rslot(*rs),
            imm: *imm,
        },
        Instr::LiF { fd, imm } => Op::LiF {
            fd: fslot(*fd),
            imm: *imm,
        },
        Instr::MoveF { fd, fs } => Op::MoveF {
            fd: fslot(*fd),
            fs: fslot(*fs),
        },
        Instr::BinF { op, fd, fs, ft } => Op::BinF {
            op: *op,
            fd: fslot(*fd),
            fs: fslot(*fs),
            ft: fslot(*ft),
        },
        Instr::CvtIF { fd, rs } => Op::CvtIF {
            fd: fslot(*fd),
            rs: rslot(*rs),
        },
        Instr::CvtFI { rd, fs } => Op::CvtFI {
            rd: wslot(*rd),
            fs: fslot(*fs),
        },
        Instr::CmpF { cmp, fs, ft } => Op::CmpF {
            cmp: *cmp,
            fs: fslot(*fs),
            ft: fslot(*ft),
        },
        Instr::Load { rd, base, offset } => Op::Load {
            rd: wslot(*rd),
            base: rslot(*base),
            offset: *offset,
        },
        Instr::Store { rs, base, offset } => Op::Store {
            rs: rslot(*rs),
            base: rslot(*base),
            offset: *offset,
        },
        Instr::LoadF { fd, base, offset } => Op::LoadF {
            fd: fslot(*fd),
            base: rslot(*base),
            offset: *offset,
        },
        Instr::StoreF { fs, base, offset } => Op::StoreF {
            fs: fslot(*fs),
            base: rslot(*base),
            offset: *offset,
        },
        Instr::Alloc { rd, size } => Op::Alloc {
            rd: wslot(*rd),
            size: rslot(*size),
        },
        Instr::Call {
            callee,
            args,
            fargs,
            ret,
            fret,
        } => {
            let cf = program.func(*callee);
            let csink = cf.n_regs().max(Reg::FIRST_TEMP);
            let cwslot = |r: Reg| if r == Reg::ZERO { csink } else { r.index() };
            Op::Call {
                callee: callee.0,
                args: args
                    .iter()
                    .zip(cf.params())
                    .map(|(a, p)| (rslot(*a), cwslot(*p)))
                    .collect(),
                fargs: fargs
                    .iter()
                    .zip(cf.fparams())
                    .map(|(a, p)| (fslot(*a), fslot(*p)))
                    .collect(),
                ret: ret.map(wslot).unwrap_or(NO_SLOT),
                fret: fret.map(fslot).unwrap_or(NO_SLOT),
            }
        }
    };

    // The integer ALU ops that fuse into `Alu2` pairs and lead an
    // `AluLoadBinBr`.
    let as_alu = |instr: &Instr| match instr {
        Instr::Bin { op, rd, rs, rt } => Some(AluOp::RR {
            op: *op,
            rd: wslot(*rd),
            rs: rslot(*rs),
            rt: rslot(*rt),
        }),
        Instr::BinImm { op, rd, rs, imm } => Some(AluOp::RI {
            op: *op,
            rd: wslot(*rd),
            rs: rslot(*rs),
            imm: *imm,
        }),
        _ => None,
    };

    let mut ops: Vec<Op> = Vec::with_capacity(func.static_size() as usize + func.blocks().len());
    let mut block_pc = vec![0u32; func.blocks().len()];
    let mut block_cost = vec![0u64; func.blocks().len()];
    for (bi, block) in func.blocks().iter().enumerate() {
        block_pc[bi] = ops.len() as u32;
        let cost = block.len_with_term();
        block_cost[bi] = cost;
        // The terminator's op, and the instructions it leaves to the
        // straight-line lowering. Edge targets hold block ids here; the
        // loop after this one patches them to op-stream offsets and
        // edge fuels once every block is sized. A branch swallows the
        // instructions that end its block: writing ALU results before
        // evaluating the condition matches the unfused order, so any
        // `Bin`/`BinImm` (none of which can trap) fuses with any
        // condition, and a `Load` ahead of the `Bin` fuses too because
        // the fused op still performs (and traps in) program order.
        let (straight, term) = match &block.term {
            Terminator::Jump(t) => (
                &block.instrs[..],
                Op::Jump {
                    target: t.0,
                    cost,
                    fuel: 0,
                },
            ),
            Terminator::Ret { val, fval } => (
                &block.instrs[..],
                Op::Ret {
                    val: val.map(rslot).unwrap_or(NO_SLOT),
                    fval: fval.map(fslot).unwrap_or(NO_SLOT),
                    cost,
                },
            ),
            Terminator::Branch {
                cond,
                taken,
                fallthru,
            } => {
                let br = BrTail {
                    cond: cslot(cond),
                    taken: taken.0,
                    fallthru: fallthru.0,
                    taken_fuel: 0,
                    fallthru_fuel: 0,
                    site: BranchSite {
                        branch: BranchRef {
                            func: fid,
                            block: BlockId(bi as u32),
                        },
                        slot: *next_slot,
                    },
                    cost,
                };
                *next_slot += 1;
                match &block.instrs[..] {
                    [rest @ .., Instr::Load {
                        rd: ld_rd,
                        base,
                        offset,
                    }, Instr::Bin { op, rd, rs, rt }] => {
                        let (ld_rd, ld_base, ld_offset) = (wslot(*ld_rd), rslot(*base), *offset);
                        let (op, rd, rs, rt) = (*op, wslot(*rd), rslot(*rs), rslot(*rt));
                        match rest
                            .split_last()
                            .and_then(|(pre, rest)| Some((as_alu(pre)?, rest)))
                        {
                            Some((pre, rest)) => (
                                rest,
                                Op::AluLoadBinBr {
                                    pre,
                                    ld_rd,
                                    ld_base,
                                    ld_offset,
                                    op,
                                    rd,
                                    rs,
                                    rt,
                                    br,
                                },
                            ),
                            None => (
                                rest,
                                Op::LoadBinBr {
                                    ld_rd,
                                    ld_base,
                                    ld_offset,
                                    op,
                                    rd,
                                    rs,
                                    rt,
                                    br,
                                },
                            ),
                        }
                    }
                    [rest @ .., Instr::Bin { op, rd, rs, rt }] => (
                        rest,
                        Op::BinBr {
                            op: *op,
                            rd: wslot(*rd),
                            rs: rslot(*rs),
                            rt: rslot(*rt),
                            br,
                        },
                    ),
                    [rest @ .., Instr::BinImm { op, rd, rs, imm }] => (
                        rest,
                        Op::BinImmBr {
                            op: *op,
                            rd: wslot(*rd),
                            rs: rslot(*rs),
                            imm: *imm,
                            br,
                        },
                    ),
                    rest => (rest, Op::Br(br)),
                }
            }
        };
        // Straight-line lowering with two peepholes: a `Bin` computing
        // the very next `Load`'s base address fuses into `LoadRR`
        // (array indexing; the address write is kept, so no liveness
        // analysis is needed, and `$zero` destinations are excluded
        // because their write goes to the sink slot while the load
        // would read slot 0), and any two adjacent integer ALU ops fuse
        // into `Alu2`.
        let mut i = 0;
        while i < straight.len() {
            if i + 1 < straight.len() {
                if let Instr::Bin { op, rd, rs, rt } = &straight[i] {
                    if let Instr::Load {
                        rd: ld_rd,
                        base,
                        offset,
                    } = &straight[i + 1]
                    {
                        if base == rd && *rd != Reg::ZERO {
                            ops.push(Op::LoadRR {
                                op: *op,
                                rd_addr: rslot(*rd),
                                rs: rslot(*rs),
                                rt: rslot(*rt),
                                rd: wslot(*ld_rd),
                                offset: *offset,
                            });
                            i += 2;
                            continue;
                        }
                    }
                }
                if let (Some(a), Some(b)) = (as_alu(&straight[i]), as_alu(&straight[i + 1])) {
                    ops.push(Op::Alu2 { a, b });
                    i += 2;
                    continue;
                }
            }
            ops.push(lower(&straight[i]));
            i += 1;
        }
        ops.push(term);
    }
    // Patch block ids into op-stream offsets and stamp each edge with
    // its target block's fuel.
    for op in &mut ops {
        if let Op::Jump { target, fuel, .. } = op {
            *fuel = block_cost[*target as usize];
            *target = block_pc[*target as usize];
        } else if let Some(br) = op.br_mut() {
            br.taken_fuel = block_cost[br.taken as usize];
            br.fallthru_fuel = block_cost[br.fallthru as usize];
            br.taken = block_pc[br.taken as usize];
            br.fallthru = block_pc[br.fallthru as usize];
        }
    }
    let bf = BcFunc {
        ops: ops.into_boxed_slice(),
        n_slots: n_regs_eff + 1,
        n_fslots: func.n_fregs(),
        frame_words: func.frame_words(),
        entry_fuel: block_cost[func.entry().index()],
    };
    validate(&bf, program);
    bf
}

/// Decode-time validation of every slot index and jump target. The
/// executor relies on these bounds to elide per-access checks in its
/// hot loop (see `crate::exec`), so decoding enforces them with a hard
/// assert — once per decode, not per executed op.
fn validate(bf: &BcFunc, program: &Program) {
    let len = bf.ops.len() as u32;
    let n_funcs = program.func_ids().count() as u32;
    let slot = |s: u32| assert!(s < bf.n_slots, "int slot {s} out of {}", bf.n_slots);
    let fslt = |s: u32| assert!(s < bf.n_fslots, "float slot {s} out of {}", bf.n_fslots);
    let oslot = |s: u32| {
        if s != NO_SLOT {
            slot(s)
        }
    };
    let ofslt = |s: u32| {
        if s != NO_SLOT {
            fslt(s)
        }
    };
    let target = |t: u32| assert!(t < len, "target {t} out of {len} ops");
    let alu = |a: &AluOp| match *a {
        AluOp::RR { rd, rs, rt, .. } => {
            slot(rd);
            slot(rs);
            slot(rt)
        }
        AluOp::RI { rd, rs, .. } => {
            slot(rd);
            slot(rs)
        }
    };
    let cond = |c: &BcCond| match *c {
        BcCond::Eqz(a)
        | BcCond::Nez(a)
        | BcCond::Lez(a)
        | BcCond::Ltz(a)
        | BcCond::Gez(a)
        | BcCond::Gtz(a) => slot(a),
        BcCond::Eq(a, b) | BcCond::Ne(a, b) => {
            slot(a);
            slot(b)
        }
        BcCond::FTrue | BcCond::FFalse => {}
    };
    let br = |tail: &BrTail| {
        cond(&tail.cond);
        target(tail.taken);
        target(tail.fallthru);
    };
    for op in bf.ops.iter() {
        match op {
            Op::Li { rd, .. } => slot(*rd),
            Op::Move { rd, rs } => {
                slot(*rd);
                slot(*rs);
            }
            Op::Bin { rd, rs, rt, .. } => {
                slot(*rd);
                slot(*rs);
                slot(*rt);
            }
            Op::BinImm { rd, rs, .. } => {
                slot(*rd);
                slot(*rs);
            }
            Op::LiF { fd, .. } => fslt(*fd),
            Op::MoveF { fd, fs } => {
                fslt(*fd);
                fslt(*fs);
            }
            Op::BinF { fd, fs, ft, .. } => {
                fslt(*fd);
                fslt(*fs);
                fslt(*ft);
            }
            Op::CvtIF { fd, rs } => {
                fslt(*fd);
                slot(*rs);
            }
            Op::CvtFI { rd, fs } => {
                slot(*rd);
                fslt(*fs);
            }
            Op::CmpF { fs, ft, .. } => {
                fslt(*fs);
                fslt(*ft);
            }
            Op::Load { rd, base, .. } => {
                slot(*rd);
                slot(*base);
            }
            Op::Store { rs, base, .. } => {
                slot(*rs);
                slot(*base);
            }
            Op::LoadF { fd, base, .. } => {
                fslt(*fd);
                slot(*base);
            }
            Op::StoreF { fs, base, .. } => {
                fslt(*fs);
                slot(*base);
            }
            Op::LoadRR {
                rd_addr,
                rs,
                rt,
                rd,
                ..
            } => {
                slot(*rd_addr);
                slot(*rs);
                slot(*rt);
                slot(*rd);
            }
            Op::Alu2 { a, b } => {
                alu(a);
                alu(b);
            }
            Op::Alloc { rd, size } => {
                slot(*rd);
                slot(*size);
            }
            Op::Call {
                callee,
                args,
                fargs,
                ret,
                fret,
            } => {
                assert!(
                    *callee < n_funcs,
                    "callee {callee} out of {n_funcs} functions"
                );
                let cf = program.func(FuncId(*callee));
                let c_slots = cf.n_regs().max(Reg::FIRST_TEMP) + 1;
                let c_fslots = cf.n_fregs();
                for &(src, dst) in args.iter() {
                    slot(src);
                    assert!(dst < c_slots, "callee slot {dst} out of {c_slots}");
                }
                for &(src, dst) in fargs.iter() {
                    fslt(src);
                    assert!(dst < c_fslots, "callee fslot {dst} out of {c_fslots}");
                }
                oslot(*ret);
                ofslt(*fret);
            }
            Op::Jump { target: t, .. } => target(*t),
            Op::Br(tail) => br(tail),
            Op::BinBr {
                rd,
                rs,
                rt,
                br: tail,
                ..
            } => {
                slot(*rd);
                slot(*rs);
                slot(*rt);
                br(tail);
            }
            Op::BinImmBr {
                rd, rs, br: tail, ..
            } => {
                slot(*rd);
                slot(*rs);
                br(tail);
            }
            Op::AluLoadBinBr {
                pre,
                ld_rd,
                ld_base,
                rd,
                rs,
                rt,
                br: tail,
                ..
            } => {
                alu(pre);
                slot(*ld_rd);
                slot(*ld_base);
                slot(*rd);
                slot(*rs);
                slot(*rt);
                br(tail);
            }
            Op::LoadBinBr {
                ld_rd,
                ld_base,
                rd,
                rs,
                rt,
                br: tail,
                ..
            } => {
                slot(*ld_rd);
                slot(*ld_base);
                slot(*rd);
                slot(*rs);
                slot(*rt);
                br(tail);
            }
            Op::Ret { val, fval, .. } => {
                oslot(*val);
                ofslt(*fval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_trailing_alu_into_branches() {
        let p = bpfree_lang::compile(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 10; i = i + 1) { s = s + i; }
                return s;
            }",
        )
        .unwrap();
        let bc = BytecodeProgram::compile(&p);
        let fused = bc.funcs[bc.entry as usize]
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::BinBr { .. } | Op::BinImmBr { .. } | Op::LoadBinBr { .. }
                )
            })
            .count();
        assert!(fused > 0, "loop compare+branch should fuse");
    }

    #[test]
    fn fuses_address_computation_into_loads() {
        let p = bpfree_lang::compile(
            "global int table[8];
            fn main() -> int {
                int i; int s;
                for (i = 0; i < 8; i = i + 1) { s = s + table[i]; }
                return s;
            }",
        )
        .unwrap();
        let fused: usize = BytecodeProgram::compile(&p)
            .funcs
            .iter()
            .flat_map(|f| f.ops.iter())
            .filter(|op| matches!(op, Op::LoadRR { .. }))
            .count();
        assert!(fused > 0, "indexed global load should fuse into LoadRR");
    }

    /// Produces all five conditional-branch shapes, so a shape that
    /// fusion stops emitting fails `edges_carry_target_block_fuel`, plus a
    /// call with an argument and a result, and float ops.
    const SHAPES: &str = "global int n; global float w[4];
        fn fact(int k) -> int { if (k < 2) { return 1; } return k * fact(k - 1); }
        fn main() -> int {
            int i; int s; float f;
            n = 10;
            for (i = 0; i < n; i = i + 1) {
                if (i % 3 == 0) { s = s + fact(i); }
                if (w[i % 4] < f) { s = s - 1; }
                f = f + 1.5;
                if (s == i) { s = s + 2; }
            }
            return s;
        }";

    #[test]
    fn edges_carry_target_block_fuel() {
        let p = bpfree_lang::compile(SHAPES).unwrap();
        let bc = BytecodeProgram::compile(&p);
        let mut shapes = [0; 5];
        for (f, bf) in p.funcs().iter().zip(&bc.funcs) {
            assert_eq!(
                bf.entry_fuel,
                f.block(f.entry()).len_with_term(),
                "entry fuel is the entry block's cost"
            );
            let len = bf.ops.len() as u32;
            for op in bf.ops.iter() {
                let (shape, br) = match op {
                    Op::Br(br) => (0, br),
                    Op::BinBr { br, .. } => (1, br),
                    Op::BinImmBr { br, .. } => (2, br),
                    Op::LoadBinBr { br, .. } => (3, br),
                    Op::AluLoadBinBr { br, .. } => (4, br),
                    Op::Jump { target, fuel, .. } => {
                        assert!(*fuel > 0 && *target < len, "jump edge charges its target");
                        continue;
                    }
                    _ => continue,
                };
                shapes[shape] += 1;
                let site = br.site.branch;
                let ir = p.func(site.func);
                let cost = |b: BlockId| ir.block(b).len_with_term();
                let &[taken, fallthru] = &ir.block(site.block).term.successors()[..] else {
                    panic!("{site} does not end in a branch");
                };
                assert_eq!(br.cost, cost(site.block), "{site}: block cost");
                assert_eq!(br.taken_fuel, cost(taken), "{site}: taken edge fuel");
                assert_eq!(
                    br.fallthru_fuel,
                    cost(fallthru),
                    "{site}: fall-through fuel"
                );
                assert!(br.taken < len && br.fallthru < len, "{site}: targets");
            }
        }
        assert!(shapes.iter().all(|&n| n > 0), "shape counts {shapes:?}");
    }

    /// `validate` is the only guard of the executor's unchecked
    /// indexing, so it must refuse any out-of-range operand in what
    /// decode produced: each corruption edits the first op it applies
    /// to.
    #[test]
    fn validate_refuses_out_of_range_operands() {
        let p = bpfree_lang::compile(SHAPES).unwrap();
        let bc = BytecodeProgram::compile(&p);
        let f = &bc.funcs[bc.entry as usize];
        validate(f, &p);
        let (len, n_slots, n_fslots) = (f.ops.len() as u32, f.n_slots, f.n_fslots);
        let corrupt = |what: &str, op: &mut Op| {
            match (what, op) {
                ("jump target", Op::Jump { target, .. }) => *target = len,
                ("ALU slot", Op::Alu2 { a, .. }) => match a {
                    AluOp::RR { rs, .. } | AluOp::RI { rs, .. } => *rs = n_slots,
                },
                ("load slot", Op::Load { base, .. } | Op::LoadF { base, .. }) => *base = n_slots,
                ("fused ALU slot", Op::BinBr { rd, .. } | Op::BinImmBr { rd, .. }) => *rd = n_slots,
                (
                    "fused load slot",
                    Op::LoadBinBr { ld_base, .. } | Op::AluLoadBinBr { ld_base, .. },
                ) => *ld_base = n_slots,
                ("float slot", Op::BinF { fd, .. }) => *fd = n_fslots,
                ("callee", Op::Call { callee, .. }) => *callee = bc.funcs.len() as u32,
                ("callee argument slot", Op::Call { callee, args, .. }) => {
                    args[0].1 = bc.funcs[*callee as usize].n_slots
                }
                ("call result slot", Op::Call { ret, .. }) => *ret = n_slots,
                ("ret slot", Op::Ret { val, .. }) => *val = n_slots,
                (_, op) => {
                    let Some(br) = op.br_mut() else { return false };
                    match what {
                        "taken target" => br.taken = len,
                        "fall-through target" => br.fallthru = len,
                        "condition slot" => br.cond = BcCond::Nez(n_slots),
                        "second condition slot" => br.cond = BcCond::Eq(0, n_slots),
                        _ => return false,
                    }
                }
            }
            true
        };
        for what in [
            "taken target",
            "fall-through target",
            "condition slot",
            "second condition slot",
            "jump target",
            "ALU slot",
            "load slot",
            "fused ALU slot",
            "fused load slot",
            "float slot",
            "callee",
            "callee argument slot",
            "call result slot",
            "ret slot",
        ] {
            let mut ops = f.ops.to_vec();
            assert!(
                ops.iter_mut().any(|op| corrupt(what, op)),
                "no {what} to corrupt"
            );
            let bad = BcFunc {
                ops: ops.into(),
                ..*f
            };
            let refused = std::panic::catch_unwind(|| validate(&bad, &p)).is_err();
            assert!(refused, "validate accepted an out-of-range {what}");
        }
    }

    #[test]
    fn ops_stay_112_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 112);
    }

    #[test]
    fn slot_layout_reserves_zero_and_sink() {
        let p = bpfree_lang::compile("fn main() -> int { return 0; }").unwrap();
        let bc = BytecodeProgram::compile(&p);
        for (f, bf) in p.funcs().iter().zip(&bc.funcs) {
            assert_eq!(bf.n_slots, f.n_regs().max(3) + 1);
        }
    }
}
