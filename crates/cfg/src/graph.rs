use bpfree_ir::{BlockId, Function, Terminator};

/// How control flows along a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The taken side of a conditional branch.
    Taken,
    /// The fall-through side of a conditional branch.
    FallThru,
    /// An unconditional jump.
    Jump,
}

/// A per-function control-flow graph.
///
/// Vertices are the function's basic blocks; each conditional branch
/// contributes a [`EdgeKind::Taken`] and a [`EdgeKind::FallThru`] edge, and
/// each jump a [`EdgeKind::Jump`] edge. Return blocks have no successors.
///
/// # Example
///
/// ```
/// use bpfree_ir::{FunctionBuilder, Terminator};
/// use bpfree_cfg::Cfg;
/// let mut b = FunctionBuilder::new("f");
/// let e = b.entry();
/// let x = b.new_block();
/// b.set_term(e, Terminator::Jump(x));
/// b.set_term(x, Terminator::Ret { val: None, fval: None });
/// let cfg = Cfg::new(&b.finish().unwrap());
/// assert_eq!(cfg.successors(e), &[x]);
/// assert_eq!(cfg.predecessors(x), &[e]);
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    kinds: Vec<Vec<EdgeKind>>,
    entry: BlockId,
    exits: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.blocks().len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut kinds = vec![Vec::new(); n];
        let mut exits = Vec::new();
        for bid in func.block_ids() {
            match &func.block(bid).term {
                Terminator::Jump(t) => {
                    succs[bid.index()].push(*t);
                    kinds[bid.index()].push(EdgeKind::Jump);
                    preds[t.index()].push(bid);
                }
                Terminator::Branch {
                    taken, fallthru, ..
                } => {
                    succs[bid.index()].push(*taken);
                    kinds[bid.index()].push(EdgeKind::Taken);
                    preds[taken.index()].push(bid);
                    succs[bid.index()].push(*fallthru);
                    kinds[bid.index()].push(EdgeKind::FallThru);
                    preds[fallthru.index()].push(bid);
                }
                Terminator::Ret { .. } => exits.push(bid),
            }
        }
        Cfg {
            succs,
            preds,
            kinds,
            entry: func.entry(),
            exits,
        }
    }

    /// Number of blocks (vertices).
    pub fn n_blocks(&self) -> usize {
        self.succs.len()
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Blocks with no successors (procedure exits).
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// Successors of `b`, in `(taken, fallthru)` order for branches.
    pub fn successors(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b` (with duplicates if two edges share endpoints).
    pub fn predecessors(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Iterator over all edges as `(src, dst, kind)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId, EdgeKind)> + '_ {
        (0..self.n_blocks() as u32).flat_map(move |i| {
            let b = BlockId(i);
            self.succs[b.index()]
                .iter()
                .zip(&self.kinds[b.index()])
                .map(move |(&dst, &kind)| (b, dst, kind))
        })
    }

    /// Iterator over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.n_blocks() as u32).map(BlockId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_ir::{Cond, FunctionBuilder};

    fn ret() -> Terminator {
        Terminator::Ret {
            val: None,
            fval: None,
        }
    }

    #[test]
    fn branch_edges_keep_taken_fallthru_order() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let t = b.new_block();
        let f = b.new_block();
        let r = b.new_reg();
        b.set_term(
            e,
            Terminator::Branch {
                cond: Cond::Nez(r),
                taken: t,
                fallthru: f,
            },
        );
        b.set_term(t, ret());
        b.set_term(f, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        assert_eq!(cfg.successors(e), &[t, f]);
        assert_eq!(cfg.kinds[e.index()], &[EdgeKind::Taken, EdgeKind::FallThru]);
        assert_eq!(cfg.exits(), &[t, f]);
    }

    #[test]
    fn edges_iterator_matches_successors() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let x = b.new_block();
        b.set_term(e, Terminator::Jump(x));
        b.set_term(x, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        let edges: Vec<_> = cfg.edges().collect();
        assert_eq!(edges, vec![(e, x, EdgeKind::Jump)]);
    }

    #[test]
    fn self_loop_records_both_directions() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let l = b.new_block();
        let done = b.new_block();
        let r = b.new_reg();
        b.set_term(e, Terminator::Jump(l));
        b.set_term(
            l,
            Terminator::Branch {
                cond: Cond::Gtz(r),
                taken: l,
                fallthru: done,
            },
        );
        b.set_term(done, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        assert!(cfg.successors(l).contains(&l));
        assert!(cfg.predecessors(l).contains(&l));
    }
}
