use std::collections::HashMap;

use crate::dense::{Interner, NameId};
use crate::instr::{BlockId, Instr, Terminator};
use crate::reg::{FReg, Reg};
use crate::validate::ValidateError;

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The raw function index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A reference to a conditional branch: the block whose terminator is the
/// branch. Every block has at most one conditional branch (its terminator),
/// so this pair identifies a static branch site uniquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchRef {
    pub func: FuncId,
    pub block: BlockId,
}

impl std::fmt::Display for BranchRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.func, self.block)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub instrs: Vec<Instr>,
    pub term: Terminator,
}

impl Block {
    /// Number of dynamic instructions this block contributes when executed,
    /// counting the terminator (branches and jumps are real instructions on
    /// the machines the paper measured).
    pub fn len_with_term(&self) -> u64 {
        self.instrs.len() as u64 + 1
    }
}

/// A function: an entry block (always [`BlockId`] 0), basic blocks,
/// parameter registers, and a stack frame size for local arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    blocks: Vec<Block>,
    params: Vec<Reg>,
    fparams: Vec<FReg>,
    n_regs: u32,
    n_fregs: u32,
    frame_words: i64,
}

impl Function {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block. Always block 0.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// All basic blocks, indexable by [`BlockId::index`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this function.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Integer parameter registers, in argument order.
    pub fn params(&self) -> &[Reg] {
        &self.params
    }

    /// Float parameter registers, in argument order.
    pub fn fparams(&self) -> &[FReg] {
        &self.fparams
    }

    /// Number of integer registers this function names (including the
    /// specials).
    pub fn n_regs(&self) -> u32 {
        self.n_regs
    }

    /// Number of float registers this function names.
    pub fn n_fregs(&self) -> u32 {
        self.n_fregs
    }

    /// Stack frame size in words (local array storage addressed off `SP`).
    pub fn frame_words(&self) -> i64 {
        self.frame_words
    }

    /// Iterator over block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Replaces this function's blocks, keeping name, parameters,
    /// register counts, and frame size. Used by CFG simplification
    /// passes; the result is re-validated when assembled into a
    /// [`Program`].
    pub fn with_blocks(self, blocks: Vec<Block>) -> Function {
        Function { blocks, ..self }
    }

    /// Assembles a function from raw parts — the constructor used by
    /// transformation passes (e.g. inlining) that change register counts
    /// or frame sizes. The result is validated when it joins a
    /// [`Program`].
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        name: String,
        blocks: Vec<Block>,
        params: Vec<Reg>,
        fparams: Vec<FReg>,
        n_regs: u32,
        n_fregs: u32,
        frame_words: i64,
    ) -> Function {
        Function {
            name,
            blocks,
            params,
            fparams,
            n_regs,
            n_fregs,
            frame_words,
        }
    }

    /// An owned copy of the blocks (for transformation passes).
    pub fn blocks_vec(&self) -> Vec<Block> {
        self.blocks.clone()
    }

    /// Total static instruction count, terminators included.
    pub fn static_size(&self) -> u64 {
        self.blocks.iter().map(|b| b.len_with_term()).sum()
    }
}

/// A named global array's location in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSym {
    /// Word offset from the global pointer base.
    pub offset: i64,
    /// Extent in words.
    pub len: i64,
    /// `true` if the array holds `f64` bit patterns.
    pub is_float: bool,
}

/// Initial values to poke into a program's global region before running —
/// the "dataset" in the paper's sense.
///
/// # Example
///
/// ```
/// use bpfree_ir::GlobalValues;
/// let mut g = GlobalValues::default();
/// g.set_int("n", vec![100]);
/// g.set_float("tol", vec![1e-9]);
/// assert_eq!(g.ints().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalValues {
    ints: Vec<(String, Vec<i64>)>,
    floats: Vec<(String, Vec<f64>)>,
}

impl GlobalValues {
    /// Creates an empty value set.
    pub fn new() -> GlobalValues {
        GlobalValues::default()
    }

    /// Sets the initial contents of an integer global (scalar = 1 element).
    pub fn set_int(&mut self, name: impl Into<String>, values: Vec<i64>) -> &mut Self {
        self.ints.push((name.into(), values));
        self
    }

    /// Sets the initial contents of a float global.
    pub fn set_float(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Self {
        self.floats.push((name.into(), values));
        self
    }

    /// Integer initialisations in insertion order.
    pub fn ints(&self) -> &[(String, Vec<i64>)] {
        &self.ints
    }

    /// Float initialisations in insertion order.
    pub fn floats(&self) -> &[(String, Vec<f64>)] {
        &self.floats
    }
}

/// A whole program: functions, an entry point, and a global data layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    funcs: Vec<Function>,
    entry: FuncId,
    globals_words: i64,
    symbols: HashMap<String, GlobalSym>,
    /// Function names interned in function order (first occurrence
    /// wins for duplicates), so name lookups are index-based.
    fn_names: Interner,
    /// Per-function interned name id, parallel to `funcs`.
    fn_name_ids: Vec<NameId>,
}

impl Program {
    /// Builds a program whose entry point is the function named `main`
    /// (or function 0 when no function is named `main`), then validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if any block target, callee, register
    /// index, or global extent is malformed. See [`Program::validate`].
    pub fn new(funcs: Vec<Function>, globals_words: i64) -> Result<Program, ValidateError> {
        let entry = funcs
            .iter()
            .position(|f| f.name() == "main")
            .map(|i| FuncId(i as u32))
            .unwrap_or(FuncId(0));
        let mut fn_names = Interner::new();
        let fn_name_ids = funcs.iter().map(|f| fn_names.intern(f.name())).collect();
        let p = Program {
            funcs,
            entry,
            globals_words,
            symbols: HashMap::new(),
            fn_names,
            fn_name_ids,
        };
        p.validate()?;
        Ok(p)
    }

    /// All functions, indexable by [`FuncId::index`].
    pub fn funcs(&self) -> &[Function] {
        &self.funcs
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Looks up a function by name via the interned-name index. With
    /// duplicate names the first function wins, matching a linear scan.
    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        let id = self.fn_names.lookup(name)?;
        let i = self.fn_name_ids.iter().position(|&n| n == id)?;
        Some((FuncId(i as u32), &self.funcs[i]))
    }

    /// The program's function-name interner.
    pub fn fn_names(&self) -> &Interner {
        &self.fn_names
    }

    /// The entry function id.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Size of the global data region in words.
    pub fn globals_words(&self) -> i64 {
        self.globals_words
    }

    /// The symbol table for named globals.
    pub fn symbols(&self) -> &HashMap<String, GlobalSym> {
        &self.symbols
    }

    /// Looks up a global symbol by name.
    pub fn symbol(&self, name: &str) -> Option<GlobalSym> {
        self.symbols.get(name).copied()
    }

    /// The program with `symbols` as its symbol table, each checked to
    /// lie inside the global region.
    pub(crate) fn with_symbols(
        self,
        symbols: HashMap<String, GlobalSym>,
    ) -> Result<Program, ValidateError> {
        for (name, sym) in &symbols {
            let end = sym.offset.checked_add(sym.len);
            if sym.offset < 0 || sym.len < 0 || end.is_none_or(|end| end > self.globals_words) {
                return Err(ValidateError::GlobalOutOfRange {
                    name: name.clone(),
                    offset: sym.offset,
                    len: sym.len,
                    globals_words: self.globals_words,
                });
            }
        }
        Ok(Program { symbols, ..self })
    }

    /// Iterator over function ids in index order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Total static instruction count across all functions.
    pub fn static_size(&self) -> u64 {
        self.funcs.iter().map(|f| f.static_size()).sum()
    }

    /// All conditional branch sites in the program.
    pub fn branches(&self) -> Vec<BranchRef> {
        let mut out = Vec::new();
        for fid in self.func_ids() {
            for bid in self.func(fid).block_ids() {
                if self.func(fid).block(bid).term.is_branch() {
                    out.push(BranchRef {
                        func: fid,
                        block: bid,
                    });
                }
            }
        }
        out
    }
}

/// Assembles a [`Program`] from finished functions plus a symbol table.
///
/// Used by the Cmm lowering pass, which knows global names and offsets.
///
/// # Example
///
/// ```
/// use bpfree_ir::{FunctionBuilder, ProgramBuilder, Terminator, GlobalSym};
///
/// let mut fb = FunctionBuilder::new("main");
/// let e = fb.entry();
/// fb.set_term(e, Terminator::Ret { val: None, fval: None });
///
/// let mut pb = ProgramBuilder::new();
/// pb.add_function(fb.finish().unwrap());
/// pb.add_global("n", GlobalSym { offset: 0, len: 1, is_float: false });
/// let program = pb.finish(1).unwrap();
/// assert!(program.symbol("n").is_some());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Function>,
    symbols: HashMap<String, GlobalSym>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Appends a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Registers a named global symbol.
    pub fn add_global(&mut self, name: impl Into<String>, sym: GlobalSym) {
        self.symbols.insert(name.into(), sym);
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] on any malformed function or symbol.
    pub fn finish(self, globals_words: i64) -> Result<Program, ValidateError> {
        Program::new(self.funcs, globals_words)?.with_symbols(self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn trivial(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name);
        let e = b.entry();
        b.set_term(
            e,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        b.finish().unwrap()
    }

    #[test]
    fn entry_prefers_main() {
        let p = Program::new(vec![trivial("helper"), trivial("main")], 0).unwrap();
        assert_eq!(p.entry(), FuncId(1));
        assert_eq!(p.func(p.entry()).name(), "main");
    }

    #[test]
    fn entry_defaults_to_first() {
        let p = Program::new(vec![trivial("start")], 0).unwrap();
        assert_eq!(p.entry(), FuncId(0));
    }

    #[test]
    fn func_by_name_finds_functions() {
        let p = Program::new(vec![trivial("a"), trivial("b")], 0).unwrap();
        assert_eq!(p.func_by_name("b").unwrap().0, FuncId(1));
        assert!(p.func_by_name("nope").is_none());
    }

    #[test]
    fn global_out_of_range_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_function(trivial("main"));
        pb.add_global(
            "g",
            GlobalSym {
                offset: 5,
                len: 10,
                is_float: false,
            },
        );
        assert!(matches!(
            pb.finish(8),
            Err(ValidateError::GlobalOutOfRange { .. })
        ));
    }

    #[test]
    fn branches_enumerates_branch_sites() {
        use crate::instr::Cond;
        let mut b = FunctionBuilder::new("main");
        let e = b.entry();
        let t = b.new_block();
        let f = b.new_block();
        let r = b.new_reg();
        b.push(e, Instr::Li { rd: r, imm: 1 });
        b.set_term(
            e,
            Terminator::Branch {
                cond: Cond::Gtz(r),
                taken: t,
                fallthru: f,
            },
        );
        b.set_term(
            t,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        b.set_term(
            f,
            Terminator::Ret {
                val: None,
                fval: None,
            },
        );
        let p = Program::new(vec![b.finish().unwrap()], 0).unwrap();
        let brs = p.branches();
        assert_eq!(brs.len(), 1);
        assert_eq!(
            brs[0],
            BranchRef {
                func: FuncId(0),
                block: BlockId(0)
            }
        );
    }

    #[test]
    fn static_size_counts_terminators() {
        let p = Program::new(vec![trivial("main")], 0).unwrap();
        assert_eq!(p.static_size(), 1);
    }
}
