use bpfree_ir::BranchRef;

/// Receives execution events from the simulator.
///
/// This is the trace stream of the paper in streaming form: straight-line
/// instruction counts plus one event per conditional branch execution. The
/// branch instruction itself is included in the immediately preceding
/// [`ExecObserver::on_instrs`] count, so summing `on_instrs` gives the
/// total dynamic instruction count and a sequence "up to and including a
/// branch" is exactly the instructions reported since the previous branch
/// event.
pub trait ExecObserver {
    /// `count` straight-line instructions executed (a basic block,
    /// terminator included).
    fn on_instrs(&mut self, count: u64) {
        let _ = count;
    }

    /// A conditional branch at `branch` executed and went `taken`.
    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        let _ = (branch, taken);
    }
}

/// An observer that ignores everything (pure execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Counts instructions and branch executions.
///
/// # Example
///
/// ```
/// use bpfree_sim::{CountingObserver, Simulator};
/// let p = bpfree_lang::compile("fn main() -> int { return 1; }").unwrap();
/// let mut c = CountingObserver::default();
/// Simulator::new(&p).run(&mut c).unwrap();
/// assert!(c.instructions > 0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingObserver {
    /// Total dynamic instructions (terminators included).
    pub instructions: u64,
    /// Total conditional branch executions.
    pub branches: u64,
    /// How many of those were taken.
    pub taken: u64,
}

impl ExecObserver for CountingObserver {
    fn on_instrs(&mut self, count: u64) {
        self.instructions += count;
    }

    fn on_branch(&mut self, _branch: BranchRef, taken: bool) {
        self.branches += 1;
        if taken {
            self.taken += 1;
        }
    }
}

impl<T: ExecObserver + ?Sized> ExecObserver for &mut T {
    fn on_instrs(&mut self, count: u64) {
        (**self).on_instrs(count);
    }

    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        (**self).on_branch(branch, taken);
    }
}

/// Fans one event stream out to a pair of observers, `.0` first. Nest
/// pairs for more.
///
/// This is how the engine derives several artifacts — edge profile, run
/// statistics, branch trace — from a *single* simulation instead of
/// re-executing the program once per consumer. The fan-out is static,
/// so both observers' hooks inline into the interpreter loop.
///
/// # Example
///
/// ```
/// use bpfree_sim::{CountingObserver, EdgeProfiler, Pair, Simulator};
/// let p = bpfree_lang::compile("fn main() -> int { return 1; }").unwrap();
/// let mut pair = Pair(CountingObserver::default(), EdgeProfiler::new());
/// Simulator::new(&p).run(&mut pair).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: ExecObserver, B: ExecObserver> ExecObserver for Pair<A, B> {
    fn on_instrs(&mut self, count: u64) {
        self.0.on_instrs(count);
        self.1.on_instrs(count);
    }

    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        self.0.on_branch(branch, taken);
        self.1.on_branch(branch, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_ir::{BlockId, FuncId};

    #[test]
    fn counting_observer_accumulates() {
        let mut c = CountingObserver::default();
        c.on_instrs(5);
        c.on_instrs(3);
        let b = BranchRef {
            func: FuncId(0),
            block: BlockId(0),
        };
        c.on_branch(b, true);
        c.on_branch(b, false);
        assert_eq!(c.instructions, 8);
        assert_eq!(c.branches, 2);
        assert_eq!(c.taken, 1);
    }

    #[test]
    fn pair_fans_out() {
        let mut p = Pair(CountingObserver::default(), CountingObserver::default());
        p.on_instrs(4);
        assert_eq!(p.0.instructions, 4);
        assert_eq!(p.1.instructions, 4);
    }

    #[test]
    fn nested_pairs_fan_out_to_all() {
        let mut fan = Pair(
            CountingObserver::default(),
            Pair(CountingObserver::default(), CountingObserver::default()),
        );
        fan.on_instrs(7);
        fan.on_branch(
            BranchRef {
                func: FuncId(0),
                block: BlockId(1),
            },
            true,
        );
        let Pair(a, Pair(b, c)) = fan;
        for obs in [&a, &b, &c] {
            assert_eq!(obs.instructions, 7);
            assert_eq!(obs.branches, 1);
            assert_eq!(obs.taken, 1);
        }
    }
}
