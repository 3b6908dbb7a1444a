//! The process-wide work-stealing executor.
//!
//! Every parallel call site — a parallel map, a segmented trace replay,
//! the engine's warm-up plan, the batch of experiments — runs on one
//! persistent [`Pool`], so nested call sites (a replay inside an
//! experiment inside a batch) share a fixed set of threads instead of
//! multiplying them:
//!
//! * **Workers** are spawned once (capped at the machine's available
//!   parallelism via [`clamp_workers`](crate::clamp_workers)) and
//!   *parked* on a condvar between bursts — an idle pool costs nothing
//!   but resident stacks.
//! * **Queues** follow the classic work-stealing shape: each worker
//!   owns a deque it pushes and pops from the back (LIFO keeps the
//!   working set warm and biases towards finishing spawned subtrees),
//!   plus a global *injector* queue fed by non-worker threads. A worker
//!   with an empty deque takes from the injector, then steals from the
//!   *front* of sibling deques (FIFO stealing takes the oldest, and
//!   therefore usually largest, pending task).
//! * **Structure** comes from [`Pool::scope`]: tasks spawned on a scope
//!   may borrow from the caller's stack, the scope does not return until
//!   every transitively spawned task finished, and a panicking task is
//!   re-raised on the caller — the same contract as
//!   [`std::thread::scope`], minus the per-call thread spawn.
//!
//! # Nesting without oversubscription
//!
//! The thread whose scope is still waiting *helps*: it pops and runs
//! pool tasks (its own or anyone else's) instead of blocking. A task
//! may therefore open its own scope — replay inside an experiment
//! inside `exp all` — and the whole tree executes on the same fixed
//! worker set. Deadlock cannot arise from waiting: every queued task is
//! eventually claimed by a worker or a helping waiter, and the chain of
//! helpers bottoms out at tasks that spawn nothing.
//!
//! # Determinism
//!
//! The pool schedules; it never decides *values*. Callers that need
//! bit-identical results at any `--jobs` keep the discipline from the
//! earlier PRs: outputs written into index-addressed slots, folds over
//! contiguous ranges merged in range order. Scheduling order is
//! deliberately unobservable.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A lifetime-erased queued task. Construction sites guarantee the
/// borrow the erasure hides outlives the task (see [`Scope::spawn`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Everything the workers and scopes share.
struct Shared {
    /// Tasks pushed from threads that are not pool workers.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker; the owner pushes/pops the back, thieves
    /// steal the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Push epoch: bumped (under `lock`) on every push so parking
    /// workers can detect work that arrived between their last scan and
    /// going to sleep.
    epoch: Mutex<u64>,
    /// Workers park here between bursts.
    wake: Condvar,
    /// Set by [`Pool`]'s `Drop`; parked workers exit.
    shutdown: AtomicBool,
}

impl Shared {
    /// Bumps the push epoch and wakes parked workers.
    fn notify(&self) {
        let mut epoch = self.epoch.lock().expect("pool epoch poisoned");
        *epoch += 1;
        drop(epoch);
        self.wake.notify_all();
    }

    /// Queues `job` on the current worker's own deque when called from
    /// a pool thread, else on the global injector.
    fn push(self: &Arc<Self>, job: Job) {
        let mine = WORKER.with(|w| {
            w.borrow().as_ref().and_then(|ctx| {
                if Arc::ptr_eq(&ctx.shared, self) {
                    Some(ctx.index)
                } else {
                    None
                }
            })
        });
        match mine {
            Some(i) => self.deques[i]
                .lock()
                .expect("pool deque poisoned")
                .push_back(job),
            None => self
                .injector
                .lock()
                .expect("pool injector poisoned")
                .push_back(job),
        }
        self.notify();
    }

    /// Claims one task: own deque back (workers only), then injector
    /// front, then steal the front of sibling deques.
    fn find(&self, own: Option<usize>) -> Option<Job> {
        if let Some(i) = own {
            if let Some(job) = self.deques[i]
                .lock()
                .expect("pool deque poisoned")
                .pop_back()
            {
                return Some(job);
            }
        }
        if let Some(job) = self
            .injector
            .lock()
            .expect("pool injector poisoned")
            .pop_front()
        {
            return Some(job);
        }
        let n = self.deques.len();
        let start = own.map_or(0, |i| i + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("pool deque poisoned")
                .pop_front()
            {
                return Some(job);
            }
        }
        None
    }
}

/// What a pool thread knows about itself (thread-local).
struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
}

thread_local! {
    static WORKER: std::cell::RefCell<Option<WorkerCtx>> =
        const { std::cell::RefCell::new(None) };
}

/// The current thread's pool worker index, or `None` off the pool
/// (the main thread, a test thread, a helping scope caller). Feeds the
/// `worker` column of the `--timings` report.
pub fn current_worker() -> Option<usize> {
    WORKER.with(|w| w.borrow().as_ref().map(|ctx| ctx.index))
}

fn worker_main(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerCtx {
            shared: shared.clone(),
            index,
        })
    });
    loop {
        if let Some(job) = shared.find(Some(index)) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park: snapshot the push epoch, re-scan, and only then sleep —
        // a push between scan and sleep bumps the epoch and is caught by
        // the recheck under the lock. The timeout is a belt-and-braces
        // backstop, not load-bearing.
        let seen = *shared.epoch.lock().expect("pool epoch poisoned");
        if let Some(job) = shared.find(Some(index)) {
            job();
            continue;
        }
        let guard = shared.epoch.lock().expect("pool epoch poisoned");
        if *guard == seen && !shared.shutdown.load(Ordering::Acquire) {
            let _ = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(50))
                .expect("pool epoch poisoned");
        }
    }
}

/// A persistent work-stealing thread pool. Most code wants the
/// process-wide instance from [`Pool::global`]; tests build private
/// pools with [`Pool::new`] (worker threads exit when the pool drops).
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// A pool with exactly `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for index in 0..workers {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("bpfree-pool-{index}"))
                .spawn(move || worker_main(shared, index))
                .expect("spawning pool worker");
        }
        Pool { shared, workers }
    }

    /// The process-wide pool, created on first use with
    /// [`clamp_workers`](crate::clamp_workers)`(`[`jobs`](crate::jobs)`())`
    /// workers: `--jobs` sizes it, the machine's available parallelism
    /// caps it. It lives for the rest of the process.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(crate::clamp_workers(crate::jobs())))
    }

    /// This pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a [`Scope`] on which tasks can be spawned, then
    /// waits for every transitively spawned task — *helping to execute
    /// queued tasks while it waits*, so scopes nest freely on the fixed
    /// worker set. If `f` or any task panicked, the panic resumes here
    /// (after all tasks finished, like [`std::thread::scope`]).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let scope = Scope {
            shared: self.shared.clone(),
            state: Arc::new(ScopeState::new()),
            _marker: std::marker::PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain, even when `f` itself panicked: spawned tasks
        // borrow the caller's stack and MUST finish before we unwind
        // past it (this wait is what makes the lifetime erasure in
        // `spawn` sound).
        scope.wait();
        let task_panic = scope
            .state
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        match result {
            Err(p) => panic::resume_unwind(p),
            Ok(value) => {
                if let Some(p) = task_panic {
                    panic::resume_unwind(p);
                }
                value
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify();
    }
}

/// Completion tracking for one [`Pool::scope`] call.
struct ScopeState {
    /// Spawned-but-unfinished task count.
    pending: AtomicUsize,
    /// First panic payload from any task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// The scope caller parks here when no queued work is available.
    done_lock: Mutex<()>,
    done: Condvar,
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        }
    }
}

/// A spawn handle tied to one [`Pool::scope`] call. Tasks receive a
/// fresh `&Scope` so they can spawn siblings (the task-graph planner
/// releases dependents this way).
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant over `'env` (the `&mut` makes it so): keeps callers
    /// from shrinking the scope lifetime and sneaking in shorter-lived
    /// borrows.
    _marker: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns `f` onto the pool. `f` may borrow anything that outlives
    /// the `scope` call and may itself spawn onto the scope it is
    /// handed. Panics in `f` are captured and re-raised by
    /// [`Pool::scope`] after the whole scope drains.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let shared = self.shared.clone();
        let state = self.state.clone();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let scope = Scope {
                shared: shared.clone(),
                state: state.clone(),
                _marker: std::marker::PhantomData,
            };
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                scope
                    .state
                    .panic
                    .lock()
                    .expect("scope panic slot poisoned")
                    .get_or_insert(p);
            }
            drop(scope);
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task out: wake the scope caller. Taking the lock
                // orders this notify after the caller's pending recheck.
                let _guard = state.done_lock.lock().expect("scope lock poisoned");
                state.done.notify_all();
            }
        });
        // SAFETY: the only lifetime-erased escape hatch in this crate.
        // `Pool::scope` does not return (not even by panic) until
        // `pending` hits zero, i.e. until this closure has run and been
        // dropped, so every `'env` borrow it captures strictly outlives
        // it. The transmute only erases that lifetime; `Send` and the
        // vtable are unchanged.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        self.shared.push(job);
    }

    /// Blocks until this scope's pending count is zero, executing queued
    /// pool tasks (anyone's) while there are any.
    fn wait(&self) {
        let own = WORKER.with(|w| {
            w.borrow().as_ref().and_then(|ctx| {
                if Arc::ptr_eq(&ctx.shared, &self.shared) {
                    Some(ctx.index)
                } else {
                    None
                }
            })
        });
        loop {
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = self.shared.find(own) {
                job();
                continue;
            }
            // Nothing runnable: our remaining tasks are mid-flight on
            // other threads. Park until the last one signals (with a
            // short timeout so a task spawned elsewhere re-opens the
            // help loop promptly).
            let guard = self.state.done_lock.lock().expect("scope lock poisoned");
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            let _ = self
                .state
                .done
                .wait_timeout(guard, Duration::from_micros(500))
                .expect("scope lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = Pool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(7) {
                let sum = &sum;
                s.spawn(move |_| {
                    let local: u64 = chunk.iter().sum();
                    sum.fetch_add(local as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn nested_scopes_complete_on_fixed_workers() {
        let pool = Pool::new(1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let hits = &hits;
                let pool = &pool;
                s.spawn(move |_| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn tasks_can_spawn_siblings_through_their_scope_handle() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            let hits = &hits;
            s.spawn(move |s| {
                hits.fetch_add(1, Ordering::Relaxed);
                s.spawn(move |s| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    s.spawn(move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_task_propagates_after_scope_drains() {
        let pool = Pool::new(2);
        let survivors = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let survivors = &survivors;
                s.spawn(|_| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(move |_| {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
        // The scope drained before unwinding: every sibling ran.
        assert_eq!(survivors.load(Ordering::Relaxed), 8);
        // The pool is still usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            let ok = &ok;
            s.spawn(move |_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn global_pool_is_shared_and_clamped() {
        let p1 = Pool::global();
        let p2 = Pool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.workers() >= 1);
        assert!(p1.workers() <= crate::available_parallelism());
    }
}
