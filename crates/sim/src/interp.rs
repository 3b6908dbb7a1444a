use bpfree_ir::{
    BinOp, BranchRef, Cond, FBinOp, FCmp, FuncId, GlobalValues, Instr, Program, Reg, Terminator,
};

use crate::decode::BytecodeProgram;
use crate::error::SimError;
use crate::observer::{BranchSite, ExecObserver};

/// Which interpreter implementation a [`Simulator`] runs.
///
/// Both tiers give the same results, the same [`SimError`]s and the
/// same [`ExecObserver`] event stream byte for byte, which the
/// differential and property test suites enforce. Every `bpfree`
/// command runs the bytecode tier; the tree walker is those suites'
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterpTier {
    /// Pre-decoded flat bytecode ([`BytecodeProgram`]) executed over an
    /// explicit frame stack. The default: several times faster than the
    /// tree walker on the suite's hot benchmarks.
    #[default]
    Bytecode,
    /// The original tree-walking interpreter over the IR `Instr` enums,
    /// kept as the differential-testing reference. It recurses on the
    /// host stack once per Cmm call, so a recursion deep enough can
    /// overflow that stack before `max_call_depth` is reached.
    Tree,
}

/// Simulator resource limits and tier selection.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Memory size in 64-bit words (globals + heap + stack share it).
    pub mem_words: usize,
    /// Maximum dynamic instruction count before [`SimError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth before [`SimError::StackOverflow`].
    pub max_call_depth: usize,
    /// Interpreter implementation (default [`InterpTier::Bytecode`]).
    pub tier: InterpTier,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            mem_words: 1 << 22,
            fuel: 2_000_000_000,
            max_call_depth: 100_000,
            tier: InterpTier::default(),
        }
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The entry function's integer return value (0 if it returned none).
    pub exit: i64,
    /// Total dynamic instructions executed (terminators included).
    pub instructions: u64,
}

/// Executes a [`Program`], streaming events to an [`ExecObserver`].
///
/// Memory is a flat array of 64-bit words. Address 0 is the null word and
/// traps on access; globals sit at `[1, 1+G)` addressed off `$gp = 1`; the
/// heap bumps upward from `1+G`; the stack grows downward from the top.
/// Floats are stored as raw `f64` bits. A simulator instance runs once —
/// create a fresh one per run.
///
/// # Example
///
/// ```
/// use bpfree_sim::{NullObserver, Simulator};
/// let p = bpfree_lang::compile("fn main() -> int { return 6 * 7; }").unwrap();
/// let r = Simulator::new(&p).run(&mut NullObserver).unwrap();
/// assert_eq!(r.exit, 42);
/// ```
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    pub(crate) config: SimConfig,
    pub(crate) mem: Vec<i64>,
    pub(crate) heap_next: i64,
    pub(crate) fuel_left: u64,
    depth: usize,
    decoded: Option<&'p BytecodeProgram>,
    /// The tree walker's branch slots, `[func][block]`: each branch's
    /// index in [`Program::branches`], the decoder's numbering. Filled
    /// once per tree-walking run.
    slots: Vec<Vec<u32>>,
}

pub(crate) const GP_BASE: i64 = 1;

impl<'p> Simulator<'p> {
    /// Creates a simulator with default limits.
    pub fn new(program: &'p Program) -> Simulator<'p> {
        Simulator::with_config(program, SimConfig::default())
    }

    /// Creates a simulator with explicit limits.
    pub fn with_config(program: &'p Program, config: SimConfig) -> Simulator<'p> {
        let mem = vec![0i64; config.mem_words];
        let heap_next = GP_BASE + program.globals_words();
        Simulator {
            program,
            config,
            mem,
            heap_next,
            fuel_left: config.fuel,
            depth: 0,
            decoded: None,
            slots: Vec::new(),
        }
    }

    /// Creates a simulator that reuses an already-compiled
    /// [`BytecodeProgram`] (default limits). `decoded` must be the
    /// lowering of this same `program`; callers that run many datasets
    /// against one program use this to pay the decode cost once.
    pub fn with_decoded(program: &'p Program, decoded: &'p BytecodeProgram) -> Simulator<'p> {
        Simulator::with_decoded_config(program, decoded, SimConfig::default())
    }

    /// Creates a simulator with explicit limits that reuses an
    /// already-compiled [`BytecodeProgram`] of the same `program`. The
    /// pre-decoded form is only consulted when `config.tier` is
    /// [`InterpTier::Bytecode`].
    pub fn with_decoded_config(
        program: &'p Program,
        decoded: &'p BytecodeProgram,
        config: SimConfig,
    ) -> Simulator<'p> {
        let mut sim = Simulator::with_config(program, config);
        sim.decoded = Some(decoded);
        sim
    }

    /// Pokes initial values into named globals — the "dataset" of a run.
    ///
    /// # Errors
    ///
    /// Fails on unknown global names or value lists longer than the
    /// global's extent.
    pub fn set_globals(&mut self, values: &GlobalValues) -> Result<(), SimError> {
        for (name, ints) in values.ints() {
            let sym = self
                .program
                .symbol(name)
                .ok_or_else(|| SimError::UnknownGlobal { name: name.clone() })?;
            if ints.len() as i64 > sym.len {
                return Err(SimError::GlobalTooSmall {
                    name: name.clone(),
                    len: sym.len,
                    got: ints.len(),
                });
            }
            for (i, &v) in ints.iter().enumerate() {
                self.mem[(GP_BASE + sym.offset) as usize + i] = v;
            }
        }
        for (name, floats) in values.floats() {
            let sym = self
                .program
                .symbol(name)
                .ok_or_else(|| SimError::UnknownGlobal { name: name.clone() })?;
            if floats.len() as i64 > sym.len {
                return Err(SimError::GlobalTooSmall {
                    name: name.clone(),
                    len: sym.len,
                    got: floats.len(),
                });
            }
            for (i, &v) in floats.iter().enumerate() {
                self.mem[(GP_BASE + sym.offset) as usize + i] = v.to_bits() as i64;
            }
        }
        Ok(())
    }

    /// Reads back a global's current contents (after a run).
    ///
    /// # Errors
    ///
    /// Fails on an unknown global name.
    pub fn read_global(&self, name: &str) -> Result<Vec<i64>, SimError> {
        let sym = self
            .program
            .symbol(name)
            .ok_or_else(|| SimError::UnknownGlobal {
                name: name.to_string(),
            })?;
        let base = (GP_BASE + sym.offset) as usize;
        Ok(self.mem[base..base + sym.len as usize].to_vec())
    }

    /// Runs the program from its entry function under the configured
    /// [`InterpTier`]. Under the default bytecode tier a pre-decoded
    /// program attached via [`Simulator::with_decoded`] is reused;
    /// otherwise the program is lowered on the fly.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised during execution (fuel
    /// exhaustion, bad addresses, stack overflow, heap exhaustion).
    pub fn run<O: ExecObserver>(&mut self, observer: &mut O) -> Result<RunResult, SimError> {
        let (val, _fval) = match self.config.tier {
            InterpTier::Bytecode => match self.decoded {
                Some(bc) => crate::exec::run(self, bc, observer)?,
                None => {
                    let bc = BytecodeProgram::compile(self.program);
                    crate::exec::run(self, &bc, observer)?
                }
            },
            InterpTier::Tree => {
                let mut slots: Vec<Vec<u32>> = self
                    .program
                    .funcs()
                    .iter()
                    .map(|f| vec![u32::MAX; f.blocks().len()])
                    .collect();
                for (b, slot) in self.program.branches().into_iter().zip(0..) {
                    slots[b.func.index()][b.block.index()] = slot;
                }
                self.slots = slots;
                let entry = self.program.entry();
                let sp_top = self.config.mem_words as i64;
                self.call(entry, &[], &[], sp_top, observer)?
            }
        };
        Ok(RunResult {
            exit: val,
            instructions: self.config.fuel - self.fuel_left,
        })
    }

    fn call<O: ExecObserver>(
        &mut self,
        func_id: FuncId,
        args: &[i64],
        fargs: &[f64],
        caller_sp: i64,
        observer: &mut O,
    ) -> Result<(i64, f64), SimError> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            return Err(SimError::StackOverflow { depth: self.depth });
        }
        let func = self.program.func(func_id);
        let sp = caller_sp - func.frame_words();
        if sp < self.heap_next {
            return Err(SimError::FrameOverflow { func: func_id });
        }

        let mut regs = vec![0i64; func.n_regs() as usize];
        let mut fregs = vec![0f64; func.n_fregs() as usize];
        let mut fflag = false;
        if (Reg::SP.index() as usize) < regs.len() {
            regs[Reg::SP.index() as usize] = sp;
        }
        if (Reg::GP.index() as usize) < regs.len() {
            regs[Reg::GP.index() as usize] = GP_BASE;
        }
        for (i, &a) in args.iter().enumerate() {
            regs[func.params()[i].index() as usize] = a;
        }
        for (i, &a) in fargs.iter().enumerate() {
            fregs[func.fparams()[i].index() as usize] = a;
        }

        let mut block = func.entry();
        loop {
            let b = func.block(block);
            let cost = b.len_with_term();
            if self.fuel_left < cost {
                return Err(SimError::OutOfFuel {
                    executed: self.config.fuel - self.fuel_left,
                });
            }
            self.fuel_left -= cost;
            for instr in &b.instrs {
                self.exec_instr(
                    func_id, instr, &mut regs, &mut fregs, &mut fflag, sp, observer,
                )?;
            }
            observer.on_instrs(cost);
            match &b.term {
                Terminator::Jump(t) => block = *t,
                Terminator::Branch {
                    cond,
                    taken,
                    fallthru,
                } => {
                    let is_taken = eval_cond(cond, &regs, fflag);
                    let site = BranchSite {
                        branch: BranchRef {
                            func: func_id,
                            block,
                        },
                        slot: self.slots[func_id.index()][block.index()],
                    };
                    observer.on_branch(&site, is_taken);
                    block = if is_taken { *taken } else { *fallthru };
                }
                Terminator::Ret { val, fval } => {
                    let v = val.map(|r| read_reg(&regs, r)).unwrap_or(0);
                    let fv = fval.map(|r| fregs[r.index() as usize]).unwrap_or(0.0);
                    self.depth -= 1;
                    return Ok((v, fv));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // interpreter hot path: frame state is threaded explicitly
    fn exec_instr<O: ExecObserver>(
        &mut self,
        func_id: FuncId,
        instr: &Instr,
        regs: &mut [i64],
        fregs: &mut [f64],
        fflag: &mut bool,
        sp: i64,
        observer: &mut O,
    ) -> Result<(), SimError> {
        match instr {
            Instr::Li { rd, imm } => write_reg(regs, *rd, *imm),
            Instr::Move { rd, rs } => {
                let v = read_reg(regs, *rs);
                write_reg(regs, *rd, v);
            }
            Instr::Bin { op, rd, rs, rt } => {
                let a = read_reg(regs, *rs);
                let b = read_reg(regs, *rt);
                write_reg(regs, *rd, eval_bin(*op, a, b));
            }
            Instr::BinImm { op, rd, rs, imm } => {
                let a = read_reg(regs, *rs);
                write_reg(regs, *rd, eval_bin(*op, a, *imm));
            }
            Instr::LiF { fd, imm } => fregs[fd.index() as usize] = *imm,
            Instr::MoveF { fd, fs } => fregs[fd.index() as usize] = fregs[fs.index() as usize],
            Instr::BinF { op, fd, fs, ft } => {
                let a = fregs[fs.index() as usize];
                let b = fregs[ft.index() as usize];
                fregs[fd.index() as usize] = match op {
                    FBinOp::Add => a + b,
                    FBinOp::Sub => a - b,
                    FBinOp::Mul => a * b,
                    FBinOp::Div => a / b,
                };
            }
            Instr::CvtIF { fd, rs } => {
                fregs[fd.index() as usize] = read_reg(regs, *rs) as f64;
            }
            Instr::CvtFI { rd, fs } => {
                let f = fregs[fs.index() as usize];
                // Saturating truncation; NaN converts to 0 (like Rust's
                // `as` cast).
                write_reg(regs, *rd, f as i64);
            }
            Instr::CmpF { cmp, fs, ft } => {
                let a = fregs[fs.index() as usize];
                let b = fregs[ft.index() as usize];
                *fflag = match cmp {
                    FCmp::Eq => a == b,
                    FCmp::Lt => a < b,
                    FCmp::Le => a <= b,
                };
            }
            Instr::Load { rd, base, offset } => {
                let addr = read_reg(regs, *base).wrapping_add(*offset);
                let v = self.load(addr, func_id)?;
                write_reg(regs, *rd, v);
            }
            Instr::Store { rs, base, offset } => {
                let addr = read_reg(regs, *base).wrapping_add(*offset);
                let v = read_reg(regs, *rs);
                self.store(addr, v, func_id)?;
            }
            Instr::LoadF { fd, base, offset } => {
                let addr = read_reg(regs, *base).wrapping_add(*offset);
                let v = self.load(addr, func_id)?;
                fregs[fd.index() as usize] = f64::from_bits(v as u64);
            }
            Instr::StoreF { fs, base, offset } => {
                let addr = read_reg(regs, *base).wrapping_add(*offset);
                let v = fregs[fs.index() as usize].to_bits() as i64;
                self.store(addr, v, func_id)?;
            }
            Instr::Alloc { rd, size } => {
                let requested = read_reg(regs, *size);
                let usable = requested.max(0);
                let bump = requested.max(1);
                let addr = self.heap_next;
                // The current frame's `sp` is the lowest stack word in
                // use (frames are carved downward at call time), so the
                // heap may grow up to, but not into, `sp`.
                if addr + usable >= sp {
                    return Err(SimError::OutOfMemory { requested });
                }
                self.heap_next += bump;
                write_reg(regs, *rd, addr);
            }
            Instr::Call {
                callee,
                args,
                fargs,
                ret,
                fret,
            } => {
                let a: Vec<i64> = args.iter().map(|r| read_reg(regs, *r)).collect();
                let fa: Vec<f64> = fargs.iter().map(|r| fregs[r.index() as usize]).collect();
                let (v, fv) = self.call(*callee, &a, &fa, sp, observer)?;
                if let Some(r) = ret {
                    write_reg(regs, *r, v);
                }
                if let Some(r) = fret {
                    fregs[r.index() as usize] = fv;
                }
            }
        }
        Ok(())
    }

    fn load(&self, addr: i64, func: FuncId) -> Result<i64, SimError> {
        if addr < GP_BASE || addr as usize >= self.mem.len() {
            return Err(SimError::BadAddress { addr, func });
        }
        Ok(self.mem[addr as usize])
    }

    fn store(&mut self, addr: i64, value: i64, func: FuncId) -> Result<(), SimError> {
        if addr < GP_BASE || addr as usize >= self.mem.len() {
            return Err(SimError::BadAddress { addr, func });
        }
        self.mem[addr as usize] = value;
        Ok(())
    }
}

fn read_reg(regs: &[i64], r: Reg) -> i64 {
    if r == Reg::ZERO {
        0
    } else {
        regs[r.index() as usize]
    }
}

fn write_reg(regs: &mut [i64], r: Reg, v: i64) {
    if r != Reg::ZERO {
        regs[r.index() as usize] = v;
    }
}

#[inline(always)]
pub(crate) fn eval_bin(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
        BinOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
        BinOp::Sra => a >> (b as u64 & 63),
        BinOp::Slt => (a < b) as i64,
        BinOp::Sle => (a <= b) as i64,
        BinOp::Seq => (a == b) as i64,
        BinOp::Sne => (a != b) as i64,
    }
}

fn eval_cond(cond: &Cond, regs: &[i64], fflag: bool) -> bool {
    match *cond {
        Cond::Eqz(r) => read_reg(regs, r) == 0,
        Cond::Nez(r) => read_reg(regs, r) != 0,
        Cond::Lez(r) => read_reg(regs, r) <= 0,
        Cond::Ltz(r) => read_reg(regs, r) < 0,
        Cond::Gez(r) => read_reg(regs, r) >= 0,
        Cond::Gtz(r) => read_reg(regs, r) > 0,
        Cond::Eq(a, b) => read_reg(regs, a) == read_reg(regs, b),
        Cond::Ne(a, b) => read_reg(regs, a) != read_reg(regs, b),
        Cond::FTrue => fflag,
        Cond::FFalse => !fflag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bin_semantics() {
        assert_eq!(eval_bin(BinOp::Add, i64::MAX, 1), i64::MIN); // wrapping
        assert_eq!(eval_bin(BinOp::Div, 7, 0), 0);
        assert_eq!(eval_bin(BinOp::Rem, 7, 0), 0);
        assert_eq!(eval_bin(BinOp::Div, 7, 2), 3);
        assert_eq!(eval_bin(BinOp::Rem, -7, 2), -1);
        assert_eq!(eval_bin(BinOp::Sll, 1, 65), 2); // shift mod 64
        assert_eq!(eval_bin(BinOp::Sra, -8, 1), -4);
        assert_eq!(eval_bin(BinOp::Srl, -8, 1), (-8i64 as u64 >> 1) as i64);
        assert_eq!(eval_bin(BinOp::Slt, 1, 2), 1);
        assert_eq!(eval_bin(BinOp::Sle, 2, 2), 1);
        assert_eq!(eval_bin(BinOp::Seq, 3, 4), 0);
        assert_eq!(eval_bin(BinOp::Sne, 3, 4), 1);
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut regs = vec![7i64; 4];
        assert_eq!(read_reg(&regs, Reg::ZERO), 0);
        write_reg(&mut regs, Reg::ZERO, 42);
        assert_eq!(read_reg(&regs, Reg::ZERO), 0);
    }

    /// Regression test for the `Alloc` bound: the heap must be able to
    /// grow right up to the current frame's `sp` and no further, under
    /// both tiers. (The old check took `sp.min(stack_floor())` where
    /// `stack_floor()` always returned `mem_words` — a no-op.)
    #[test]
    fn alloc_collides_with_stack_not_mem_top() {
        use crate::observer::NullObserver;

        // `alloc n` bumps the heap by n words; mem_words is tiny so a
        // handful of allocations crosses sp.
        let p = bpfree_lang::compile(
            "fn main() -> int {
                int i; int p;
                for (i = 0; i < 100; i = i + 1) { p = alloc(64); }
                return p;
            }",
        )
        .unwrap();
        for tier in [InterpTier::Bytecode, InterpTier::Tree] {
            let config = SimConfig {
                mem_words: 512,
                tier,
                ..SimConfig::default()
            };
            let err = Simulator::with_config(&p, config)
                .run(&mut NullObserver)
                .unwrap_err();
            assert_eq!(err, SimError::OutOfMemory { requested: 64 }, "{tier:?}");

            // A run whose allocations stay below sp succeeds.
            let p_ok = bpfree_lang::compile("fn main() -> int { int p; p = alloc(64); return p; }")
                .unwrap();
            let r = Simulator::with_config(&p_ok, config)
                .run(&mut NullObserver)
                .unwrap();
            assert!(r.exit >= GP_BASE, "{tier:?}");
        }
    }
}
