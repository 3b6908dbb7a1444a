//! The flat-bytecode execution engine — the default interpreter tier.
//!
//! Executes a [`BytecodeProgram`] over one reusable register arena with
//! an explicit frame stack: a call carves the next frame out of the
//! arena (zeroing it and copying arguments slot-to-slot in place, no
//! per-call `Vec`s) and a return pops back to the suspended caller, so
//! call depth costs no native stack. Fuel is charged block-at-a-time on
//! the control-flow **edge** into each block (every jump/branch carries
//! its target's cost, calls and the program start charge the entry
//! block), and observer events fire in exactly the order the tree
//! walker produces them: the callee's whole event stream lands between
//! the caller block's entry and its `on_instrs`, and `on_branch`
//! follows the `on_instrs` of the block the branch terminates.
//!
//! # Safety
//!
//! The hot loop elides bounds checks on the op stream and the register
//! arenas. This is sound because `decode::validate` asserts, once per
//! decoded function, that every encoded slot index is `< n_slots`
//! (resp. `< n_fslots`) and every jump target is `< ops.len()`, and the
//! executor maintains the matching invariants: the arena always holds
//! at least `base + n_slots` (resp. `fbase + n_fslots`) elements for
//! the active frame and never shrinks, `pc` only takes values that are
//! either validated targets or one past a non-terminator op (every
//! block ends in a terminator, so that successor exists), and saved
//! `Frame` state restores a prefix of the same arena. Memory accesses
//! keep their explicit range check — it *is* the `BadAddress`
//! semantics — and reuse it for the subsequent access.

use bpfree_ir::{FBinOp, FCmp, FuncId};

use crate::decode::{AluOp, BcCond, BytecodeProgram, Op, NO_SLOT};
use crate::error::SimError;
use crate::interp::{eval_bin, Simulator, GP_BASE};
use crate::observer::ExecObserver;

/// A suspended caller: where to resume, where its frame lives in the
/// arena, and which absolute slots receive the callee's results.
struct Frame {
    func: u32,
    pc: u32,
    base: u32,
    fbase: u32,
    sp: i64,
    fflag: bool,
    /// Absolute arena index for the integer result, or [`NO_SLOT`].
    ret: u32,
    /// Absolute arena index for the float result, or [`NO_SLOT`].
    fret: u32,
}

/// Executes one fused ALU op against the current frame.
///
/// # Safety
///
/// `base + slot < regs.len()` must hold for every slot in `alu` — the
/// executor's frame invariant plus `decode::validate`'s slot bounds.
#[inline(always)]
unsafe fn do_alu(alu: AluOp, regs: &mut [i64], base: u32) {
    match alu {
        AluOp::RR { op, rd, rs, rt } => {
            *regs.get_unchecked_mut((base + rd) as usize) = eval_bin(
                op,
                *regs.get_unchecked((base + rs) as usize),
                *regs.get_unchecked((base + rt) as usize),
            );
        }
        AluOp::RI { op, rd, rs, imm } => {
            *regs.get_unchecked_mut((base + rd) as usize) =
                eval_bin(op, *regs.get_unchecked((base + rs) as usize), imm);
        }
    }
}

/// Evaluates a branch condition against the current frame.
///
/// # Safety
///
/// `base + slot < regs.len()` must hold for every slot in `cond`.
#[inline(always)]
unsafe fn eval_cond(cond: BcCond, regs: &[i64], base: u32, fflag: bool) -> bool {
    let r = |slot: u32| *regs.get_unchecked((base + slot) as usize);
    match cond {
        BcCond::Eqz(a) => r(a) == 0,
        BcCond::Nez(a) => r(a) != 0,
        BcCond::Lez(a) => r(a) <= 0,
        BcCond::Ltz(a) => r(a) < 0,
        BcCond::Gez(a) => r(a) >= 0,
        BcCond::Gtz(a) => r(a) > 0,
        BcCond::Eq(a, b) => r(a) == r(b),
        BcCond::Ne(a, b) => r(a) != r(b),
        BcCond::FTrue => fflag,
        BcCond::FFalse => !fflag,
    }
}

/// Runs `bc` to completion against `sim`'s memory/fuel state, returning
/// the entry function's `(int, float)` results. Mirrors the tree
/// walker's observable behaviour exactly (events, errors, counters).
///
/// `#[inline]` gives every codegen unit that calls the loop its own
/// internal copy, which LLVM specializes to its callers. One shared copy
/// runs only as fast as the calling crate's codegen-unit split allows:
/// in the repo benchmark's binary it ran the `programs` workload about
/// 15% slower whenever the loop and its caller landed in different units.
#[inline]
pub(crate) fn run<O: ExecObserver>(
    sim: &mut Simulator<'_>,
    bc: &BytecodeProgram,
    observer: &mut O,
) -> Result<(i64, f64), SimError> {
    let funcs = &bc.funcs;
    let mut frames: Vec<Frame> = Vec::new();

    // Split borrows of the simulator so the hot loop reads memory and
    // fuel without re-chasing the `&mut Simulator` pointer.
    let config = sim.config;
    let total_fuel = config.fuel;
    let mem: &mut [i64] = &mut sim.mem;
    let fuel_left: &mut u64 = &mut sim.fuel_left;
    let heap_next: &mut i64 = &mut sim.heap_next;

    // Charges the fuel of the block being entered, failing with
    // `OutOfFuel` exactly where the tree walker raises it.
    macro_rules! charge {
        ($cost:expr) => {
            if *fuel_left < $cost {
                return Err(SimError::OutOfFuel {
                    executed: total_fuel - *fuel_left,
                });
            }
            *fuel_left -= $cost;
        };
    }

    // Current-frame state, swapped on call/return.
    let mut func = bc.entry;
    let mut ops: &[Op] = &funcs[func as usize].ops;
    let mut n_slots = funcs[func as usize].n_slots;
    let mut n_fslots = funcs[func as usize].n_fslots;
    let mut pc: u32 = 0;
    let mut base: u32 = 0;
    let mut fbase: u32 = 0;
    let mut fflag = false;
    let mut depth: usize = 1;

    if depth > config.max_call_depth {
        return Err(SimError::StackOverflow { depth });
    }
    let mut sp = config.mem_words as i64 - funcs[func as usize].frame_words;
    if sp < *heap_next {
        return Err(SimError::FrameOverflow { func: FuncId(func) });
    }
    charge!(funcs[func as usize].entry_fuel);

    let mut regs: Vec<i64> = vec![0; n_slots as usize];
    let mut fregs: Vec<f64> = vec![0.0; n_fslots as usize];
    regs[1] = sp; // $sp
    regs[2] = GP_BASE; // $gp

    // Frame-relative register access. SAFETY (all four): the slot was
    // validated `< n_slots`/`< n_fslots` by `decode::validate`, and the
    // arena invariant guarantees `base + n_slots <= regs.len()`
    // (resp. fbase/fregs).
    macro_rules! rr {
        ($s:expr) => {{
            let i = (base + $s) as usize;
            unsafe { *regs.get_unchecked(i) }
        }};
    }
    macro_rules! wr {
        ($s:expr, $v:expr) => {{
            let v = $v;
            let i = (base + $s) as usize;
            unsafe { *regs.get_unchecked_mut(i) = v }
        }};
    }
    macro_rules! rf {
        ($s:expr) => {{
            let i = (fbase + $s) as usize;
            unsafe { *fregs.get_unchecked(i) }
        }};
    }
    macro_rules! wf {
        ($s:expr, $v:expr) => {{
            let v = $v;
            let i = (fbase + $s) as usize;
            unsafe { *fregs.get_unchecked_mut(i) = v }
        }};
    }
    // Checked memory address computation shared by loads and stores:
    // evaluates to a valid `usize` index or returns `BadAddress`.
    macro_rules! memaddr {
        ($base:expr, $offset:expr) => {{
            let addr = rr!($base).wrapping_add($offset);
            if addr < GP_BASE || addr as usize >= mem.len() {
                return Err(SimError::BadAddress {
                    addr,
                    func: FuncId(func),
                });
            }
            addr as usize
        }};
    }

    loop {
        // SAFETY: `pc` is 0 on function entry (every function has at
        // least one op), a validated branch target, or one past a
        // non-terminator op; blocks end in terminators, so in-bounds.
        let op = unsafe { ops.get_unchecked(pc as usize) };
        pc += 1;
        match *op {
            Op::Li { rd, imm } => wr!(rd, imm),
            Op::Move { rd, rs } => wr!(rd, rr!(rs)),
            Op::Bin { op, rd, rs, rt } => wr!(rd, eval_bin(op, rr!(rs), rr!(rt))),
            Op::BinImm { op, rd, rs, imm } => wr!(rd, eval_bin(op, rr!(rs), imm)),
            Op::LiF { fd, imm } => wf!(fd, imm),
            Op::MoveF { fd, fs } => wf!(fd, rf!(fs)),
            Op::BinF { op, fd, fs, ft } => {
                let a = rf!(fs);
                let b = rf!(ft);
                wf!(
                    fd,
                    match op {
                        FBinOp::Add => a + b,
                        FBinOp::Sub => a - b,
                        FBinOp::Mul => a * b,
                        FBinOp::Div => a / b,
                    }
                );
            }
            Op::CvtIF { fd, rs } => wf!(fd, rr!(rs) as f64),
            Op::CvtFI { rd, fs } => wr!(rd, rf!(fs) as i64),
            Op::CmpF { cmp, fs, ft } => {
                let a = rf!(fs);
                let b = rf!(ft);
                fflag = match cmp {
                    FCmp::Eq => a == b,
                    FCmp::Lt => a < b,
                    FCmp::Le => a <= b,
                };
            }
            Op::Load {
                rd,
                base: b,
                offset,
            } => {
                let at = memaddr!(b, offset);
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                wr!(rd, unsafe { *mem.get_unchecked(at) });
            }
            Op::Store {
                rs,
                base: b,
                offset,
            } => {
                let at = memaddr!(b, offset);
                let v = rr!(rs);
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                unsafe { *mem.get_unchecked_mut(at) = v };
            }
            Op::LoadF {
                fd,
                base: b,
                offset,
            } => {
                let at = memaddr!(b, offset);
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                wf!(fd, f64::from_bits(unsafe { *mem.get_unchecked(at) } as u64));
            }
            Op::StoreF {
                fs,
                base: b,
                offset,
            } => {
                let at = memaddr!(b, offset);
                let v = rf!(fs).to_bits() as i64;
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                unsafe { *mem.get_unchecked_mut(at) = v };
            }
            Op::LoadRR {
                op,
                rd_addr,
                rs,
                rt,
                rd,
                offset,
            } => {
                let addr_val = eval_bin(op, rr!(rs), rr!(rt));
                wr!(rd_addr, addr_val);
                let addr = addr_val.wrapping_add(offset);
                if addr < GP_BASE || addr as usize >= mem.len() {
                    return Err(SimError::BadAddress {
                        addr,
                        func: FuncId(func),
                    });
                }
                // SAFETY: just checked `addr < mem.len()`.
                wr!(rd, unsafe { *mem.get_unchecked(addr as usize) });
            }
            // SAFETY: frame invariant + validated slots (see above).
            Op::Alu2 { a, b } => unsafe {
                do_alu(a, &mut regs, base);
                do_alu(b, &mut regs, base);
            },
            Op::Alloc { rd, size } => {
                let requested = rr!(size);
                let usable = requested.max(0);
                let bump = requested.max(1);
                let addr = *heap_next;
                if addr + usable >= sp {
                    return Err(SimError::OutOfMemory { requested });
                }
                *heap_next += bump;
                wr!(rd, addr);
            }
            Op::Call {
                callee,
                ref args,
                ref fargs,
                ret,
                fret,
            } => {
                depth += 1;
                if depth > config.max_call_depth {
                    return Err(SimError::StackOverflow { depth });
                }
                let cf = &funcs[callee as usize];
                let new_sp = sp - cf.frame_words;
                if new_sp < *heap_next {
                    return Err(SimError::FrameOverflow {
                        func: FuncId(callee),
                    });
                }
                charge!(cf.entry_fuel);
                let new_base = base + n_slots;
                let new_fbase = fbase + n_fslots;
                let need = (new_base + cf.n_slots) as usize;
                if regs.len() < need {
                    regs.resize(need, 0);
                }
                let fneed = (new_fbase + cf.n_fslots) as usize;
                if fregs.len() < fneed {
                    fregs.resize(fneed, 0.0);
                }
                regs[new_base as usize..need].fill(0);
                fregs[new_fbase as usize..fneed].fill(0.0);
                regs[(new_base + 1) as usize] = new_sp; // $sp
                regs[(new_base + 2) as usize] = GP_BASE; // $gp
                for &(src, dst) in args.iter() {
                    regs[(new_base + dst) as usize] = regs[(base + src) as usize];
                }
                for &(src, dst) in fargs.iter() {
                    fregs[(new_fbase + dst) as usize] = fregs[(fbase + src) as usize];
                }
                frames.push(Frame {
                    func,
                    pc,
                    base,
                    fbase,
                    sp,
                    fflag,
                    ret: if ret == NO_SLOT { NO_SLOT } else { base + ret },
                    fret: if fret == NO_SLOT {
                        NO_SLOT
                    } else {
                        fbase + fret
                    },
                });
                func = callee;
                ops = &cf.ops;
                n_slots = cf.n_slots;
                n_fslots = cf.n_fslots;
                pc = 0;
                base = new_base;
                fbase = new_fbase;
                sp = new_sp;
                fflag = false;
            }
            Op::Jump { target, cost, fuel } => {
                observer.on_instrs(cost);
                charge!(fuel);
                pc = target;
            }
            Op::Br {
                cond,
                taken,
                fallthru,
                taken_fuel,
                fallthru_fuel,
                site,
                cost,
            } => {
                observer.on_instrs(cost);
                // SAFETY: frame invariant + validated slots.
                let is_taken = unsafe { eval_cond(cond, &regs, base, fflag) };
                observer.on_branch(site, is_taken);
                if is_taken {
                    charge!(taken_fuel);
                    pc = taken;
                } else {
                    charge!(fallthru_fuel);
                    pc = fallthru;
                }
            }
            Op::BinBr {
                op,
                rd,
                rs,
                rt,
                cond,
                taken,
                fallthru,
                taken_fuel,
                fallthru_fuel,
                site,
                cost,
            } => {
                wr!(rd, eval_bin(op, rr!(rs), rr!(rt)));
                observer.on_instrs(cost);
                // SAFETY: frame invariant + validated slots.
                let is_taken = unsafe { eval_cond(cond, &regs, base, fflag) };
                observer.on_branch(site, is_taken);
                if is_taken {
                    charge!(taken_fuel);
                    pc = taken;
                } else {
                    charge!(fallthru_fuel);
                    pc = fallthru;
                }
            }
            Op::BinImmBr {
                op,
                rd,
                rs,
                imm,
                cond,
                taken,
                fallthru,
                taken_fuel,
                fallthru_fuel,
                site,
                cost,
            } => {
                wr!(rd, eval_bin(op, rr!(rs), imm));
                observer.on_instrs(cost);
                // SAFETY: frame invariant + validated slots.
                let is_taken = unsafe { eval_cond(cond, &regs, base, fflag) };
                observer.on_branch(site, is_taken);
                if is_taken {
                    charge!(taken_fuel);
                    pc = taken;
                } else {
                    charge!(fallthru_fuel);
                    pc = fallthru;
                }
            }
            Op::AluLoadBinBr {
                pre,
                ld_rd,
                ld_base,
                ld_offset,
                op,
                rd,
                rs,
                rt,
                cond,
                taken,
                fallthru,
                taken_fuel,
                fallthru_fuel,
                site,
                cost,
            } => {
                // SAFETY: frame invariant + validated slots.
                unsafe { do_alu(pre, &mut regs, base) };
                let at = memaddr!(ld_base, ld_offset);
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                wr!(ld_rd, unsafe { *mem.get_unchecked(at) });
                wr!(rd, eval_bin(op, rr!(rs), rr!(rt)));
                observer.on_instrs(cost);
                // SAFETY: frame invariant + validated slots.
                let is_taken = unsafe { eval_cond(cond, &regs, base, fflag) };
                observer.on_branch(site, is_taken);
                if is_taken {
                    charge!(taken_fuel);
                    pc = taken;
                } else {
                    charge!(fallthru_fuel);
                    pc = fallthru;
                }
            }
            Op::LoadBinBr {
                ld_rd,
                ld_base,
                ld_offset,
                op,
                rd,
                rs,
                rt,
                cond,
                taken,
                fallthru,
                taken_fuel,
                fallthru_fuel,
                site,
                cost,
            } => {
                let at = memaddr!(ld_base, ld_offset);
                // SAFETY: `memaddr!` checked `at < mem.len()`.
                wr!(ld_rd, unsafe { *mem.get_unchecked(at) });
                wr!(rd, eval_bin(op, rr!(rs), rr!(rt)));
                observer.on_instrs(cost);
                // SAFETY: frame invariant + validated slots.
                let is_taken = unsafe { eval_cond(cond, &regs, base, fflag) };
                observer.on_branch(site, is_taken);
                if is_taken {
                    charge!(taken_fuel);
                    pc = taken;
                } else {
                    charge!(fallthru_fuel);
                    pc = fallthru;
                }
            }
            Op::Ret { val, fval, cost } => {
                observer.on_instrs(cost);
                let v = if val == NO_SLOT { 0 } else { rr!(val) };
                let fv = if fval == NO_SLOT { 0.0 } else { rf!(fval) };
                depth -= 1;
                match frames.pop() {
                    None => return Ok((v, fv)),
                    Some(f) => {
                        if f.ret != NO_SLOT {
                            regs[f.ret as usize] = v;
                        }
                        if f.fret != NO_SLOT {
                            fregs[f.fret as usize] = fv;
                        }
                        func = f.func;
                        let bf = &funcs[func as usize];
                        ops = &bf.ops;
                        n_slots = bf.n_slots;
                        n_fslots = bf.n_fslots;
                        pc = f.pc;
                        base = f.base;
                        fbase = f.fbase;
                        sp = f.sp;
                        fflag = f.fflag;
                    }
                }
            }
        }
    }
}
