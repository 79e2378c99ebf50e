//! Execution backends for per-limb parallelism.
//!
//! Every evaluation-path operation in the full-RNS scheme is independent
//! per RNS component (Section 2 of the paper) — HEAX exploits that by
//! running NTT cores and key-switching pipeline stages concurrently
//! across residues. This module is the software analogue: an
//! [`Executor`] abstraction that dispatches a closure over limb indices,
//! with a [`Sequential`] backend (the deterministic default) and a
//! hand-rolled scoped [`ThreadPool`] built on `std::thread` only (the
//! build is offline; no external thread-pool crates).
//!
//! Both backends produce **bit-identical** results: every parallel
//! region in this workspace writes disjoint per-limb outputs whose
//! values do not depend on execution order, and the property suites
//! assert `ThreadPool(k) == Sequential` for NTT round-trips, dyadic
//! multiplication, and key switching.
//!
//! The process-wide backend is chosen by the `HEAX_THREADS` environment
//! variable (read once, on first use): unset, `0`, or `1` selects
//! [`Sequential`]; `k > 1` selects a shared [`ThreadPool`] with `k`
//! lanes. Structs with a hot path ([`Evaluator`], [`HeaxAccelerator`])
//! also accept an explicit executor through a builder option.
//!
//! [`Evaluator`]: ../../heax_ckks/eval/struct.Evaluator.html
//! [`HeaxAccelerator`]: ../../heax_core/accel/struct.HeaxAccelerator.html

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A backend that executes an indexed task over `0..count`.
///
/// # Contract
///
/// An implementation must invoke `task(i)` **exactly once** for every
/// `i ∈ [0, count)` before `dispatch` returns, and must not let any
/// invocation outlive the call ("scoped" semantics — the task may borrow
/// from the caller's stack). Invocations may run concurrently on any
/// thread. The mutable-slice helpers ([`for_each_limb`] and friends)
/// additionally guard against a misbehaving implementation dispatching
/// an index twice, turning what would be aliasing into a panic.
pub trait Executor: Send + Sync + fmt::Debug {
    /// Number of parallel lanes this executor can use (1 for
    /// [`Sequential`]).
    fn threads(&self) -> usize;

    /// Runs `task(i)` for every `i` in `0..count`; returns once all
    /// invocations have completed.
    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync));
}

/// The deterministic default backend: runs every index inline, in order,
/// on the calling thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl Executor for Sequential {
    fn threads(&self) -> usize {
        1
    }

    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..count {
            task(i);
        }
    }
}

thread_local! {
    /// Set while a thread is executing inside a `dispatch` region; nested
    /// dispatches run inline to keep the pool deadlock-free.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

type Task = dyn Fn(usize) + Sync;

/// A raw, lifetime-erased pointer to the submitter's task closure.
///
/// The pointer is only dereferenced while the submitting
/// [`ThreadPool::dispatch`] call is blocked waiting for completion, so
/// the referent is always alive when used.
#[derive(Clone, Copy)]
struct Job {
    task: *const Task,
    count: usize,
}

// SAFETY: the fat pointer itself is plain data; `dispatch` guarantees the
// pointee (a `Sync` closure) outlives every worker that dereferences it.
unsafe impl Send for Job {}

struct State {
    /// Monotonically increasing job counter; workers use it to tell a
    /// fresh job from one they already ran.
    epoch: u64,
    /// The currently published job, if any.
    job: Option<Job>,
    /// Workers currently executing the published job.
    active: usize,
    /// Set by `Drop`; workers exit on observing it.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for a job.
    work_cv: Condvar,
    /// Submitters park here waiting for completion (or for the slot).
    done_cv: Condvar,
    /// Next index to claim for the current job.
    next: AtomicUsize,
    /// Indices fully executed for the current job.
    finished: AtomicUsize,
    /// Whether any invocation of the current job panicked.
    panicked: AtomicBool,
    /// The first caught panic payload of the current job, re-raised on
    /// the submitting thread so `dispatch` panics with the original
    /// message rather than a generic wrapper.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared {
    /// Locks the shared state, shrugging off poisoning: the state is a
    /// plain job/epoch counter protected against torn updates by the
    /// lock itself, with no multi-step invariant a panicking thread
    /// could leave half-applied — so a panic elsewhere must not turn
    /// every later dispatch into a confusing poisoned-lock panic.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Waits on a condvar, recovering a poisoned guard the same way as
/// [`Shared::lock_state`].
fn wait<'m>(cv: &Condvar, guard: MutexGuard<'m, State>) -> MutexGuard<'m, State> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A persistent, hand-rolled scoped thread pool over `std::thread`.
///
/// `ThreadPool::new(k)` spawns `k - 1` worker threads; the thread calling
/// [`Executor::dispatch`] participates as the `k`-th lane, so a pool with
/// `k = 1` degenerates to [`Sequential`] with zero spawned threads.
/// Workers park on a condvar between jobs (no busy waiting). Indices are
/// claimed from a shared atomic counter, so lanes load-balance uneven
/// limbs automatically.
///
/// The pool is *scoped*: dispatched closures may borrow from the
/// submitting stack frame, because `dispatch` does not return until every
/// worker has left the job. Panics inside the task are caught on the
/// worker and the first original payload is re-raised on the submitting
/// thread once the dispatch completes; the pool's internal locks recover
/// from poisoning (the guarded state is a plain job counter), so one
/// panicking closure never turns later dispatches into poisoned-lock
/// panics.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes (the caller counts as
    /// one; `threads - 1` OS threads are spawned). `threads` is clamped
    /// to at least 1.
    pub fn new(threads: usize) -> Self {
        let lanes = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        });
        let workers = (1..lanes)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("heax-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn heax-exec worker")
            })
            .collect();
        Self {
            shared,
            workers,
            lanes,
        }
    }
}

/// Claims indices from the shared counter and runs them until the job is
/// drained.
fn run_indices(shared: &Shared, task: &(dyn Fn(usize) + Sync + '_), count: usize) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
            // Keep the first payload; concurrent lanes may panic too, but
            // only one original cause is re-raised on the submitter.
            let mut slot = shared
                .payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(p);
            }
            drop(slot);
            shared.panicked.store(true, Ordering::Relaxed);
        }
        if shared.finished.fetch_add(1, Ordering::AcqRel) + 1 == count {
            // Wake the submitter; take the lock so the notification cannot
            // slip between its condition check and its wait.
            let _guard = shared.lock_state();
            shared.done_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = st.job {
                        st.active += 1;
                        break job;
                    }
                    // The job was already retired by the submitter; keep
                    // waiting for the next epoch.
                }
                st = wait(&shared.work_cv, st);
            }
        };
        // SAFETY: the submitter blocks until `active` drops back to zero,
        // so the closure behind this pointer is alive for the whole run.
        let task = unsafe { &*job.task };
        IN_DISPATCH.with(|f| f.set(true));
        run_indices(shared, task, job.count);
        IN_DISPATCH.with(|f| f.set(false));
        let mut st = shared.lock_state();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Executor for ThreadPool {
    fn threads(&self) -> usize {
        self.lanes
    }

    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        // Inline when there is nothing to fan out, no workers to fan out
        // to, or when called from inside another dispatch (nested
        // parallelism would deadlock on the single job slot).
        if count <= 1 || self.workers.is_empty() || IN_DISPATCH.with(Cell::get) {
            for i in 0..count {
                task(i);
            }
            return;
        }
        let shared = &*self.shared;
        {
            let mut st = shared.lock_state();
            while st.job.is_some() {
                // Another thread's job is in flight; queue behind it.
                st = wait(&shared.done_cv, st);
            }
            shared.next.store(0, Ordering::Relaxed);
            shared.finished.store(0, Ordering::Relaxed);
            shared.panicked.store(false, Ordering::Relaxed);
            *shared
                .payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
            // SAFETY: lifetime erasure only; this `dispatch` call blocks
            // until no worker holds the pointer, so the closure outlives
            // every dereference.
            let erased: *const Task =
                unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
            st.job = Some(Job {
                task: erased,
                count,
            });
            st.epoch += 1;
            shared.work_cv.notify_all();
        }
        // The submitting thread is a lane too.
        IN_DISPATCH.with(|f| f.set(true));
        run_indices(shared, task, count);
        IN_DISPATCH.with(|f| f.set(false));
        // Wait until every index ran *and* every worker has left the job
        // (a worker may still hold the job's task pointer after the last
        // index completes).
        let mut st = shared.lock_state();
        while shared.finished.load(Ordering::Acquire) < count || st.active > 0 {
            st = wait(&shared.done_cv, st);
        }
        // Read the panic flag and take the payload before releasing the
        // job slot: a queued submitter resets both as soon as it
        // publishes the next job.
        let panicked = shared.panicked.load(Ordering::Relaxed);
        let payload = shared
            .payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        st.job = None;
        shared.done_cv.notify_all(); // release the slot to queued submitters
        drop(st);
        if panicked {
            // Re-raise the original panic (once, on the submitter) so the
            // caller sees the real cause, not a pool-internal wrapper.
            match payload {
                Some(p) => panic::resume_unwind(p),
                None => panic!("heax exec: task panicked during parallel dispatch"),
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Builds an executor with `threads` lanes: [`Sequential`] for `threads
/// <= 1`, a [`ThreadPool`] otherwise.
pub fn with_threads(threads: usize) -> Arc<dyn Executor> {
    if threads <= 1 {
        Arc::new(Sequential)
    } else {
        Arc::new(ThreadPool::new(threads))
    }
}

/// Lane count requested by the `HEAX_THREADS` environment variable
/// (`1` when unset, empty, zero, or unparseable).
pub fn env_threads() -> usize {
    std::env::var("HEAX_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Arc<dyn Executor>> = OnceLock::new();

/// The process-wide executor, built from `HEAX_THREADS` on first use
/// ([`Sequential`] unless `HEAX_THREADS > 1`). All default-constructed
/// hot paths route through this.
pub fn global() -> &'static Arc<dyn Executor> {
    GLOBAL.get_or_init(|| with_threads(env_threads()))
}

/// Runs `f(i, &mut items[i])` for every index through the executor.
///
/// This is the bridge from the index-based [`Executor::dispatch`] to
/// disjoint mutable borrows: each item is handed to exactly one
/// invocation. A broken executor that dispatches an index twice panics
/// instead of aliasing.
pub fn for_each_mut<T, F>(exec: &dyn Executor, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let count = items.len();
    if count == 0 {
        return;
    }
    // Fast path for single-lane backends (the default): iterate borrows
    // directly, with no claim flags and no pointer erasure. This keeps
    // `Sequential` allocation-free on the hot paths.
    if exec.threads() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    struct ItemsPtr<T>(*mut T);
    // SAFETY: shared across lanes, but each element is accessed by
    // exactly one invocation (enforced by `taken` below).
    unsafe impl<T: Send> Sync for ItemsPtr<T> {}
    impl<T> ItemsPtr<T> {
        fn at(&self, i: usize) -> *mut T {
            self.0.wrapping_add(i)
        }
    }
    let base = ItemsPtr(items.as_mut_ptr());
    let taken: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
    exec.dispatch(count, &|i| {
        assert!(
            i < count && !taken[i].swap(true, Ordering::AcqRel),
            "executor dispatched index {i} out of range or more than once"
        );
        // SAFETY: index `i` is in range and claimed exactly once, so this
        // is the only live reference to `items[i]`.
        let item: &mut T = unsafe { &mut *base.at(i) };
        f(i, item);
    });
}

/// Splits `data` into contiguous limbs of `limb_len` words and runs
/// `f(limb_index, limb)` for each through the executor.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `limb_len`.
pub fn for_each_limb<F>(exec: &dyn Executor, data: &mut [u64], limb_len: usize, f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    assert_eq!(data.len() % limb_len, 0, "data is not whole limbs");
    if exec.threads() <= 1 {
        for (i, limb) in data.chunks_mut(limb_len).enumerate() {
            f(i, limb);
        }
        return;
    }
    let mut limbs: Vec<&mut [u64]> = data.chunks_mut(limb_len).collect();
    for_each_mut(exec, &mut limbs, |i, limb| f(i, limb));
}

/// Runs `f(limb_index, limb_a, limb_b)` over the matching limbs of two
/// equally shaped buffers (e.g. the two key-switch accumulators).
///
/// # Panics
///
/// Panics if the buffers differ in length or are not whole limbs.
pub fn for_each_limb2<F>(exec: &dyn Executor, a: &mut [u64], b: &mut [u64], limb_len: usize, f: F)
where
    F: Fn(usize, &mut [u64], &mut [u64]) + Sync,
{
    assert_eq!(a.len(), b.len(), "limb buffers differ in length");
    assert_eq!(a.len() % limb_len, 0, "data is not whole limbs");
    if exec.threads() <= 1 {
        for (i, (la, lb)) in a
            .chunks_mut(limb_len)
            .zip(b.chunks_mut(limb_len))
            .enumerate()
        {
            f(i, la, lb);
        }
        return;
    }
    let mut pairs: Vec<(&mut [u64], &mut [u64])> =
        a.chunks_mut(limb_len).zip(b.chunks_mut(limb_len)).collect();
    for_each_mut(exec, &mut pairs, |i, (la, lb)| f(i, la, lb));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_runs_all_indices_in_order() {
        let order = Mutex::new(Vec::new());
        Sequential.dispatch(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        for count in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
            pool.dispatch(count, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "count={count}"
            );
        }
    }

    #[test]
    fn pool_reuses_workers_across_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.dispatch(16, &|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * (0..16).sum::<u64>());
    }

    #[test]
    fn pool_of_one_lane_is_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        pool.dispatch(8, &|_| assert_eq!(std::thread::current().id(), main_id));
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        pool.dispatch(4, &|_| {
            pool.dispatch(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_mutates_borrowed_stack_data() {
        let pool = ThreadPool::new(4);
        let mut data: Vec<u64> = (0..256).collect();
        for_each_limb(&pool, &mut data, 16, |i, limb| {
            for (j, x) in limb.iter_mut().enumerate() {
                *x = *x * 2 + i as u64 + j as u64;
            }
        });
        let expect: Vec<u64> = (0..256u64).map(|v| v * 2 + v / 16 + v % 16).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn for_each_limb2_pairs_match() {
        let exec = ThreadPool::new(3);
        let mut a = vec![1u64; 32];
        let mut b = vec![2u64; 32];
        for_each_limb2(&exec, &mut a, &mut b, 8, |i, la, lb| {
            for (x, y) in la.iter_mut().zip(lb.iter_mut()) {
                *x += i as u64;
                *y += *x;
            }
        });
        for i in 0..4 {
            assert!(a[i * 8..(i + 1) * 8].iter().all(|&x| x == 1 + i as u64));
            assert!(b[i * 8..(i + 1) * 8].iter().all(|&y| y == 3 + i as u64));
        }
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a task panic.
        let hits = AtomicU64::new(0);
        pool.dispatch(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panic_payload_is_propagated_verbatim() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(8, &|i| {
                if i == 2 {
                    panic::panic_any("original-cause");
                }
            });
        }));
        let payload = result.expect_err("dispatch must re-raise");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("original-cause"),
            "the submitter must see the task's own payload, not a wrapper"
        );
        // A later job is clean: no stale payload, no poisoned locks.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(8, &|i| {
                if i == 5 {
                    panic::panic_any(format!("second cause: {i}"));
                }
            });
        }));
        let payload = result.expect_err("second dispatch must re-raise too");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("second cause: 5")
        );
        let hits = AtomicU64::new(0);
        pool.dispatch(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.dispatch(8, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 8);
    }

    #[test]
    fn with_threads_picks_backend() {
        assert_eq!(with_threads(0).threads(), 1);
        assert_eq!(with_threads(1).threads(), 1);
        assert_eq!(with_threads(4).threads(), 4);
        assert_eq!(global().threads(), env_threads());
    }
}
