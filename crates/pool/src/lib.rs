//! # spinning-pool — a persistent worker pool with one task queue
//!
//! The iteration runtimes of this workspace execute many very small parallel
//! regions: one per operator local phase, one per superstep.  On long-tail
//! workloads (the paper's Webbase Connected Components needs 700+ supersteps,
//! most of which process a tiny working set) the dominant cost of a late
//! superstep is not the work but the `std::thread::spawn` round per
//! partition.  This crate replaces those per-region spawns with a pool of
//! persistent workers: scheduling a partition task becomes a queue push
//! plus, at worst, one unpark.
//!
//! The design is hand-rolled on `std` only (the workspace builds offline
//! with no external dependencies):
//!
//! * **one FIFO queue** of tasks, shared by every worker and every thread
//!   that submits work;
//! * **help-while-wait** — a thread waiting for its tasks runs queued tasks
//!   itself, which makes nested regions deadlock-free even on a
//!   single-worker pool, and means a region over `N` partitions always has
//!   `N + 1` threads available to run them;
//! * **parking/unparking** — workers with nothing to do park on a condvar;
//!   submitting a task unparks one worker iff any are sleeping, with a
//!   SeqCst pending-counter handshake that makes lost wakeups impossible.
//!
//! Every partition-parallel region of the engine is one call of
//! [`ThreadPool::map`]: it runs a task once per input and returns the
//! outputs in input order.
//!
//! ```
//! let pool = spinning_pool::ThreadPool::new(4);
//! let doubled = pool.map(0..8u64, |i| i * 2).expect("no task panics");
//! assert_eq!(doubled[7], 14);
//! ```
//!
//! A lone input runs on the calling thread: it has nothing to run beside.
//! A panicking task is caught and returned as a [`ScopePanic`] once every
//! other task has finished, so the caller can report it as a typed error or
//! re-raise it ([`ScopePanic::resume`]).
//!
//! [`ThreadPool::scope`], modelled on `std::thread::scope`, is the general
//! form `map` is built on, for a region whose tasks spawn further tasks on
//! it: no task blocks, so a task that would wait for more input returns
//! instead, and whoever produces the input spawns it again on the same
//! scope — a task may capture its [`Scope`] and spawn on it.  A task panic
//! is re-raised from `scope` on the calling thread (the first panic wins,
//! all other tasks still run to completion).
//!
//! Every caller in the workspace uses [`global`], the shared process-wide
//! pool sized to the available hardware parallelism.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased, lifetime-erased task.  Tasks are truly `'scope`-bounded;
/// [`Scope::spawn`] erases the lifetime, which is sound because
/// [`ThreadPool::scope`] never returns before every task of the scope has
/// completed.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Defensive upper bound on a worker's park time.  Neither correctness nor
/// liveness relies on it: the SeqCst handshake in [`Shared::push`] /
/// [`Shared::worker_loop`] prevents lost wakeups, and even a worker that
/// never woke could not stall a scope (the scope owner's help loop runs
/// queued tasks itself).  The long timeout only bounds the throughput damage
/// of a hypothetical protocol bug while keeping idle workers cheap
/// (2 wakes/second each).
const PARK_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a helping thread waits for scope completion before re-checking
/// the queue for newly spawned tasks it could run itself.
const HELP_POLL: Duration = Duration::from_micros(200);

/// Why the queue lock cannot be poisoned: it is held only for one push or
/// pop, and tasks run after it is released.
const QUEUE_LOCK: &str = "the pool queue lock is held only to push or pop a task";

/// State shared between the pool handle and its workers.
struct Shared {
    /// Tasks submitted and not yet picked up, oldest first.
    queue: Mutex<VecDeque<Job>>,
    /// Tasks queued but not yet popped.  Incremented *before* the task is
    /// pushed, decremented when it is popped, so `pending == 0` while a
    /// worker holds the park lock proves there is nothing to pick up.
    pending: AtomicUsize,
    /// Workers currently inside (or committed to) a condvar wait.
    sleepers: AtomicUsize,
    /// Lock of the parking protocol; guards the condvar and brackets the
    /// sleepers/pending handshake on the worker side.
    park: Mutex<()>,
    /// Parked workers wait here.
    unpark: Condvar,
    /// Set by `Drop`; parked workers exit when they observe it.
    shutdown: AtomicBool,
}

impl Shared {
    /// Submits a task, unparking one worker if any are asleep.
    fn push(&self, job: Job) {
        // Increment before pushing: a worker that observes `pending == 0`
        // under the park lock can safely sleep, because this increment is
        // SeqCst-ordered against its `sleepers` increment (see worker_loop).
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().expect(QUEUE_LOCK).push_back(job);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock before notifying closes the window in which the
            // worker has advertised itself as a sleeper but has not entered
            // the condvar wait yet.
            let _guard = self.park.lock().unwrap();
            self.unpark.notify_one();
        }
    }

    /// Pops the oldest queued task.
    fn pop(&self) -> Option<Job> {
        let job = self.queue.lock().expect(QUEUE_LOCK).pop_front()?;
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(job)
    }

    /// The main loop of one pool worker.
    fn worker_loop(&self) {
        loop {
            if let Some(job) = self.pop() {
                job();
                continue;
            }
            let guard = self.park.lock().unwrap();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Advertise the sleep *before* re-checking for work: push()
            // increments `pending` before reading `sleepers`, so under the
            // SeqCst total order either this worker sees the new task and
            // skips the wait, or the pusher sees the sleeper and notifies.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) == 0 {
                let (guard, _timeout) = self.unpark.wait_timeout(guard, PARK_TIMEOUT).unwrap();
                drop(guard);
            } else {
                drop(guard);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A caught task panic, returned by [`ThreadPool::map`] so the caller can
/// turn a worker crash into a typed error instead of an opaque unwind.
pub struct ScopePanic {
    payload: Box<dyn Any + Send>,
}

impl ScopePanic {
    /// The panic message, when the payload was a string (the overwhelmingly
    /// common case: `panic!("...")` or a failed `expect`).
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// Re-raises the panic on the calling thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for ScopePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopePanic")
            .field("message", &self.message())
            .finish()
    }
}

/// Book-keeping of one [`ThreadPool::scope`]: the number of unfinished tasks
/// and the first panic payload, if any.
struct ScopeState {
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<ScopePanic>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            remaining: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }

    /// Called by the wrapper of every task when it finishes (normally or by
    /// panic).  The AcqRel RMW chain makes every task's writes visible to the
    /// scope owner once it observes `remaining == 0`.
    fn complete(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock().unwrap();
            self.done.notify_all();
        }
    }

    /// Briefly waits for the scope to complete; wakes early when the last
    /// task finishes, or after [`HELP_POLL`] to look for newly spawned tasks.
    fn wait_brief(&self) {
        let guard = self.done_lock.lock().unwrap();
        if !self.is_done() {
            let _ = self.done.wait_timeout(guard, HELP_POLL).unwrap();
        }
    }

    /// Records the first panic of the scope; later panics are dropped (they
    /// would otherwise abort the process during the unwind of the first).
    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(ScopePanic { payload });
        }
    }
}

/// A persistent pool of worker threads executing scoped tasks.
///
/// Create one with [`ThreadPool::new`] or use the shared [`global`] pool.
/// Dropping the pool parks no new work, wakes all workers and joins them.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            unpark: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spinning-pool-{index}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `task` once per input and returns the outputs in input order.
    ///
    /// A single input runs inline on the calling thread; otherwise each
    /// input is one task on the pool, and the calling thread helps run
    /// queued tasks while it waits.  A panicking task is caught and returned
    /// as a [`ScopePanic`] after every other task has finished (the first
    /// panic wins); the pool keeps working afterwards.
    pub fn map<I, T, F>(
        &self,
        inputs: impl IntoIterator<Item = I>,
        task: F,
    ) -> Result<Vec<T>, ScopePanic>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let inputs: Vec<I> = inputs.into_iter().collect();
        if inputs.len() <= 1 {
            return inputs
                .into_iter()
                .map(|input| {
                    catch_unwind(AssertUnwindSafe(|| task(input)))
                        .map_err(|payload| ScopePanic { payload })
                })
                .collect();
        }
        let mut outputs: Vec<Option<T>> = inputs.iter().map(|_| None).collect();
        self.try_scope(|scope| {
            for (input, output) in inputs.into_iter().zip(outputs.iter_mut()) {
                let task = &task;
                scope.spawn(move || *output = Some(task(input)));
            }
        })?;
        Ok(outputs
            .into_iter()
            .map(|output| output.expect("every task of a finished scope wrote its output"))
            .collect())
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing `'env` data can be
    /// spawned, and blocks until every spawned task has completed.
    ///
    /// Mirrors [`std::thread::scope`]: tasks may borrow anything that
    /// outlives the call, and the calling thread participates in executing
    /// queued tasks while it waits (which makes nested scopes deadlock-free).
    /// If a task panics, the panic is re-raised here after all tasks of the
    /// scope have finished.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        match self.try_scope(f) {
            Ok(value) => value,
            Err(panic) => panic.resume(),
        }
    }

    /// [`ThreadPool::scope`], with a task panic returned instead of
    /// re-raised.  All tasks of the scope still run to completion first, and
    /// a panic in the scope *body* (the caller's own code) is re-raised.
    fn try_scope<'env, F, R>(&'env self, f: F) -> Result<R, ScopePanic>
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: &state,
            scope: PhantomData,
            env: PhantomData,
        };
        // Run the scope body, but even if it panics, wait for the tasks it
        // already spawned — they borrow stack data of this frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        while !state.is_done() {
            match self.shared.pop() {
                Some(job) => job(),
                None => state.wait_brief(),
            }
        }

        let task_panic = state.panic.lock().unwrap().take();
        match result {
            // The body's own panic takes precedence: it is the caller's
            // unwind, not a worker failure, and must not be swallowed.
            Err(payload) => resume_unwind(payload),
            Ok(value) => match task_panic {
                Some(panic) => Err(panic),
                None => Ok(value),
            },
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.park.lock().unwrap();
            self.shared.unpark.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The shared process-wide pool, created on first use and sized to the
/// available hardware parallelism.
///
/// Every parallel region (operator local phases, superstep partitions,
/// baseline-engine partitions) runs
/// here, so its dispatch cost is a queue push regardless of how many
/// drivers are active.  Tasks must not block waiting for one another: a
/// task blocked on a sibling occupies a worker the sibling may need.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(threads)
    })
}

/// Handle for spawning tasks inside one [`ThreadPool::scope`] call.
///
/// The two lifetimes mirror [`std::thread::Scope`]: `'scope` is the duration
/// of the scope itself, `'env` the environment the tasks may borrow.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: &'scope Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the pool.  The task may borrow `'env` data (e.g.
    /// `&mut` slots of a result vector, one per task); the surrounding
    /// [`ThreadPool::scope`] call returns only after the task has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.remaining.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(payload);
            }
            state.complete();
        });
        // SAFETY: the job only borrows data that outlives 'env ⊇ 'scope, and
        // `ThreadPool::scope` does not return (normally or by unwind) before
        // `state.remaining` has dropped to zero — i.e. before this job has
        // run to completion and been dropped.  The erased box therefore never
        // outlives the borrows it captures.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.shared.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_more_tasks_than_workers() {
        let pool = ThreadPool::new(2);
        let mut results = vec![0usize; 64];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn tasks_borrow_the_environment_mutably() {
        let pool = ThreadPool::new(3);
        let mut data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&mut [u64]> = data.chunks_mut(17).collect();
        pool.scope(|s| {
            for chunk in chunks {
                s.spawn(move || {
                    for x in chunk.iter_mut() {
                        *x *= 3;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == 3 * i as u64));
    }

    #[test]
    fn scope_returns_the_closure_result() {
        let pool = ThreadPool::new(1);
        let n = pool.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(n, 42);
    }

    #[test]
    fn zero_thread_request_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut hit = false;
        pool.scope(|s| s.spawn(|| hit = true));
        assert!(hit);
    }

    #[test]
    fn nested_scopes_complete_even_on_a_single_worker() {
        // A task opening its own scope must not deadlock: the worker running
        // it helps execute the nested tasks, and the driver thread helps too.
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_scope_opened_on_a_worker_runs_all_its_tasks() {
        // The scope body waits until a worker has started the outer task,
        // so the caller cannot run it: the inner scope is opened and waited
        // for on a pool thread, and its tasks go through the one queue.
        let pool = ThreadPool::new(4);
        let started = AtomicBool::new(false);
        let outer_thread = Mutex::new(None);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                started.store(true, Ordering::SeqCst);
                *outer_thread.lock().unwrap() = std::thread::current().name().map(str::to_owned);
                pool.scope(|inner| {
                    for _ in 0..64 {
                        inner.spawn(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        let outer = outer_thread
            .into_inner()
            .unwrap()
            .expect("pool threads are named");
        assert!(
            outer.starts_with("spinning-pool-"),
            "outer task ran on {outer}"
        );
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panics_propagate_to_the_scope_caller() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is the original message");
        assert_eq!(message, "task exploded");
        // The panic does not cancel the scope's other tasks.
        assert_eq!(finished.load(Ordering::Relaxed), 8);

        // The pool survives a panicked scope.
        let mut ok = false;
        pool.scope(|s| s.spawn(|| ok = true));
        assert!(ok);
    }

    #[test]
    fn panic_in_the_scope_body_still_waits_for_tasks() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..16 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("scope body exploded");
            });
        }));
        assert!(result.is_err());
        // All tasks ran before the panic resumed (they borrow this frame).
        assert_eq!(finished.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn many_tiny_sequential_scopes_reuse_the_workers() {
        // The superstep pattern: hundreds of scopes, each with a handful of
        // sub-millisecond tasks.  This is the dispatch path the pool exists
        // to make cheap; here we only assert it stays correct.
        let pool = ThreadPool::new(2);
        let mut total = 0u64;
        for round in 0..500u64 {
            let mut slots = [0u64; 4];
            pool.scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = round + i as u64);
                }
            });
            total += slots.iter().sum::<u64>();
        }
        assert_eq!(total, (0..500u64).map(|r| 4 * r + 6).sum::<u64>());
    }

    #[test]
    fn concurrent_scopes_from_external_threads_share_the_pool() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|ts| {
            for _ in 0..4 {
                ts.spawn(|| {
                    for _ in 0..50 {
                        pool.scope(|s| {
                            for _ in 0..4 {
                                s.spawn(|| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 50 * 4);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
        let mut x = 0;
        global().scope(|s| s.spawn(|| x = 7));
        assert_eq!(x, 7);
    }

    /// Spawns the next link of a chain of `remaining` tasks on `scope`.
    fn respawn<'s>(scope: &'s Scope<'s, '_>, remaining: usize, ran: &'s AtomicUsize) {
        ran.fetch_add(1, Ordering::SeqCst);
        if remaining > 0 {
            scope.spawn(move || respawn(scope, remaining - 1, ran));
        }
    }

    #[test]
    fn a_task_spawns_its_successor_on_its_own_scope() {
        // The scope returns only once the whole chain has run, however
        // often a task hands on to one it spawned itself.
        let ran = AtomicUsize::new(0);
        global().scope(|s| s.spawn(|| respawn(s, 100, &ran)));
        assert_eq!(ran.load(Ordering::SeqCst), 101);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.scope(|_| 5), 5);
    }

    #[test]
    fn map_returns_a_task_panic_after_every_other_task_finished() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = pool.map(0..9, |i| {
            if i == 0 {
                panic!("worker {} died", 3);
            }
            finished.fetch_add(1, Ordering::Relaxed);
        });
        let panic = result.expect_err("map must surface the task panic");
        assert_eq!(panic.message(), "worker 3 died");
        // A task panic does not cancel the other tasks.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
        // And the pool keeps working afterwards.
        assert_eq!(pool.map(0..3, |i| i).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn map_returns_the_outputs_in_input_order() {
        let pool = ThreadPool::new(2);
        let outputs = pool.map((0..100u64).map(|i| i * 3), |x| x + 1).unwrap();
        assert_eq!(outputs, (0..100).map(|i| i * 3 + 1).collect::<Vec<_>>());
        assert!(pool.map(Vec::<u8>::new(), |x| x).unwrap().is_empty());
        // A lone input runs on the calling thread.
        let caller = std::thread::current().id();
        let ran_on = pool.map([()], |()| std::thread::current().id()).unwrap();
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn unlabeled_panics_have_no_label_but_keep_the_message() {
        // The panic of a lone input, which runs on the calling thread, is
        // caught there and keeps its message.
        let pool = ThreadPool::new(1);
        let panic = pool
            .map([()], |()| panic!("plain"))
            .expect_err("panic expected");
        assert_eq!(panic.message(), "plain");
        // resume() re-raises the original payload.
        let raised = catch_unwind(AssertUnwindSafe(|| panic.resume())).unwrap_err();
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"plain"));
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = ThreadPool::new(3);
        let mut slots = [0usize; 8];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        drop(pool);
        assert!(slots.iter().all(|&s| s > 0));
    }
}
