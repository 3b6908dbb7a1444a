use bpfree_ir::BlockId;

use crate::graph::Cfg;

/// Depth-first orderings of a [`Cfg`] from its entry block.
///
/// Provides reverse postorder (the iteration order for the dominator
/// solver), reachability, and DFS edge classification used by the
/// reducibility check.
#[derive(Debug, Clone)]
pub struct DfsOrder {
    /// Blocks in reverse postorder; unreachable blocks are absent.
    rpo: Vec<BlockId>,
    /// `rpo_index[b] = Some(i)` iff `rpo[i] == b`.
    rpo_index: Vec<Option<usize>>,
    /// Preorder (discovery) number per reachable block.
    pre: Vec<Option<usize>>,
    /// Postorder (finish) number per reachable block.
    post: Vec<Option<usize>>,
}

impl DfsOrder {
    /// Runs an iterative DFS from the entry block.
    pub fn compute(cfg: &Cfg) -> DfsOrder {
        let n = cfg.n_blocks();
        let mut pre = vec![None; n];
        let mut post = vec![None; n];
        let mut postorder = Vec::with_capacity(n);
        let mut pre_counter = 0usize;
        let mut post_counter = 0usize;
        // Explicit stack of (block, next-successor-index) to avoid recursion
        // on deep CFGs.
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        pre[cfg.entry().index()] = Some(pre_counter);
        pre_counter += 1;
        stack.push((cfg.entry(), 0));
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = cfg.successors(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if pre[s.index()].is_none() {
                    pre[s.index()] = Some(pre_counter);
                    pre_counter += 1;
                    stack.push((s, 0));
                }
            } else {
                post[b.index()] = Some(post_counter);
                post_counter += 1;
                postorder.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.into_iter().rev().collect();
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i);
        }
        DfsOrder {
            rpo,
            rpo_index,
            pre,
            post,
        }
    }

    /// Blocks in reverse postorder (entry first). Unreachable blocks are
    /// not included.
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The reverse-postorder index of `b`, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index[b.index()]
    }

    /// Is `b` reachable from the entry block?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.index()].is_some()
    }

    /// Is `src -> dst` a retreating edge (dst visited but not finished when
    /// src's edges were explored)? In a DFS tree this means `dst` is an
    /// ancestor of `src`, i.e. the edge goes "backwards".
    ///
    /// For reducible CFGs the retreating edges are exactly the natural-loop
    /// backedges.
    pub fn is_retreating(&self, src: BlockId, dst: BlockId) -> bool {
        match (
            self.pre[src.index()],
            self.pre[dst.index()],
            self.post[src.index()],
            self.post[dst.index()],
        ) {
            (Some(ps), Some(pd), Some(fs), Some(fd)) => pd <= ps && fd >= fs,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_ir::{Cond, FunctionBuilder, Terminator};

    fn ret() -> Terminator {
        Terminator::Ret {
            val: None,
            fval: None,
        }
    }

    #[test]
    fn rpo_starts_at_entry() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let x = b.new_block();
        let y = b.new_block();
        b.set_term(e, Terminator::Jump(x));
        b.set_term(x, Terminator::Jump(y));
        b.set_term(y, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        let dfs = DfsOrder::compute(&cfg);
        assert_eq!(dfs.reverse_postorder(), &[e, x, y]);
        assert_eq!(dfs.rpo_index(e), Some(0));
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let dead = b.new_block();
        b.set_term(e, ret());
        b.set_term(dead, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        let dfs = DfsOrder::compute(&cfg);
        assert!(dfs.is_reachable(e));
        assert!(!dfs.is_reachable(dead));
        assert_eq!(dfs.rpo.len(), 1);
    }

    #[test]
    fn loop_backedge_is_retreating() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let r = b.new_reg();
        b.set_term(e, Terminator::Jump(head));
        b.set_term(
            head,
            Terminator::Branch {
                cond: Cond::Gtz(r),
                taken: body,
                fallthru: exit,
            },
        );
        b.set_term(body, Terminator::Jump(head));
        b.set_term(exit, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        let dfs = DfsOrder::compute(&cfg);
        assert!(dfs.is_retreating(body, head));
        assert!(!dfs.is_retreating(head, body));
        assert!(!dfs.is_retreating(e, head));
    }

    #[test]
    fn rpo_respects_topological_order_on_dag() {
        // Diamond: rpo index of entry < both arms < join.
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
        b.set_term(j, ret());
        let cfg = Cfg::new(&b.finish().unwrap());
        let dfs = DfsOrder::compute(&cfg);
        let idx = |b| dfs.rpo_index(b).unwrap();
        assert!(idx(e) < idx(l));
        assert!(idx(e) < idx(r));
        assert!(idx(l) < idx(j));
        assert!(idx(r) < idx(j));
    }
}
