//! Control-flow analysis for the Ball–Larus heuristics.
//!
//! The paper's branch predictor needs four pieces of control-flow
//! information per procedure, all of which this crate provides:
//!
//! * the control-flow graph itself ([`Cfg`]), with the taken/fall-through
//!   edge distinction preserved;
//! * the **domination** and **postdomination** relations ([`Dominators`],
//!   [`PostDominators`]) — several heuristics only fire when a successor
//!   does *not* postdominate the branch;
//! * **natural loops** ([`Loops`]): backedges, loop heads, the `nat_loop`
//!   sets, and exit edges, which drive the loop/non-loop branch
//!   classification of Section 3;
//! * depth-first orderings ([`DfsOrder`]) used by the iterative dominator
//!   solver and by reducibility checking.
//!
//! # Example
//!
//! ```
//! use bpfree_ir::{FunctionBuilder, Instr, Terminator, Cond, BinOp};
//! use bpfree_cfg::FunctionAnalysis;
//!
//! // while (i < 10) { i = i + 1 }
//! let mut b = FunctionBuilder::new("count");
//! let entry = b.entry();
//! let head = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! let i = b.new_reg();
//! let t = b.new_reg();
//! b.push(entry, Instr::Li { rd: i, imm: 0 });
//! b.set_term(entry, Terminator::Jump(head));
//! b.push(head, Instr::BinImm { op: BinOp::Slt, rd: t, rs: i, imm: 10 });
//! b.set_term(head, Terminator::Branch { cond: Cond::Nez(t), taken: body, fallthru: exit });
//! b.push(body, Instr::BinImm { op: BinOp::Add, rd: i, rs: i, imm: 1 });
//! b.set_term(body, Terminator::Jump(head));
//! b.set_term(exit, Terminator::Ret { val: Some(i), fval: None });
//! let f = b.finish().unwrap();
//!
//! let analysis = FunctionAnalysis::new(&f);
//! assert!(analysis.loops.is_backedge(body, head));
//! assert!(analysis.loops.is_exit_edge(head, exit));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bitset;
mod dfs;
mod dom;
mod graph;
mod loops;

pub use bitset::BlockSet;
pub use dfs::DfsOrder;
pub use dom::{Dominators, PostDominators};
pub use graph::{Cfg, EdgeKind};
pub use loops::{Loops, NaturalLoop};

use bpfree_ir::Function;

/// Bundles every analysis the heuristics need for one function.
///
/// Construction runs DFS, dominators, postdominators, and loop analysis.
#[derive(Debug)]
pub struct FunctionAnalysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Depth-first orderings over the CFG.
    pub dfs: DfsOrder,
    /// The domination relation.
    pub doms: Dominators,
    /// The postdomination relation.
    pub pdoms: PostDominators,
    /// Natural-loop analysis results.
    pub loops: Loops,
}

impl FunctionAnalysis {
    /// Analyzes one function.
    ///
    /// # Example
    ///
    /// ```
    /// use bpfree_ir::{FunctionBuilder, Terminator};
    /// use bpfree_cfg::FunctionAnalysis;
    /// let mut b = FunctionBuilder::new("f");
    /// let e = b.entry();
    /// b.set_term(e, Terminator::Ret { val: None, fval: None });
    /// let f = b.finish().unwrap();
    /// let a = FunctionAnalysis::new(&f);
    /// assert_eq!(a.cfg.n_blocks(), 1);
    /// ```
    pub fn new(func: &Function) -> FunctionAnalysis {
        let cfg = Cfg::new(func);
        let dfs = DfsOrder::compute(&cfg);
        let doms = Dominators::compute(&cfg, &dfs);
        let pdoms = PostDominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &doms);
        FunctionAnalysis {
            cfg,
            dfs,
            doms,
            pdoms,
            loops,
        }
    }
}
