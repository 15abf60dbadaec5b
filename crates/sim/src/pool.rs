//! Fixed worker pool the engine runs its lane windows on.
//!
//! Lanes are the simulator's only parallel work: each window, the
//! engine submits its lanes as a batch of closures and blocks until all
//! of them have run; results come back in submission order, so the
//! merged output is independent of scheduling. Combined with per-lane
//! RNG streams split *before* submission (see
//! [`crate::rng::SimRng::split`]) this makes an N-worker run
//! byte-identical to the 1-worker run: the pool only changes *when* a
//! job executes, never *what* it computes or the order its result is
//! observed in. Nodes never reach the pool.
//!
//! Two details matter for the engine built on top:
//!
//! - **Help-while-waiting:** a thread blocked in [`WorkerPool::run`]
//!   executes queued jobs itself while its batch is incomplete, so the
//!   engine's own thread runs lanes alongside the workers.
//! - **Serial mode:** `workers <= 1` spawns no threads at all and runs
//!   jobs inline, so the 1-worker configuration exercises the *same*
//!   job-granular code path as the N-worker one — the determinism
//!   contract is "same jobs, same per-job RNG", not "same thread".

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// A queued unit of work: runs, and records completion in its batch.
type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Notified on every job enqueue, batch completion, and shutdown.
    cv: Condvar,
}

impl PoolInner {
    /// Pop and run one queued job. Returns false if the queue was empty.
    fn run_one(&self) -> bool {
        let job = {
            let mut state = self.state.lock().unwrap();
            state.queue.pop_front()
        };
        match job {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }
}

/// Shared completion tracker for one `run()` batch.
struct Batch<T> {
    results: Mutex<Vec<Option<thread::Result<T>>>>,
    remaining: AtomicUsize,
}

/// A fixed pool of compute workers (or an inline serial executor when
/// built with `workers <= 1`). Cheap to clone — clones share the same
/// threads.
#[derive(Clone)]
pub struct WorkerPool {
    /// `None` means serial mode: `run()` executes jobs inline.
    inner: Option<Arc<PoolInner>>,
    workers: usize,
    /// Join handles, owned by the first handle only (drop semantics).
    _threads: Arc<ThreadSet>,
}

struct ThreadSet {
    inner: Option<Arc<PoolInner>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Drop for ThreadSet {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            {
                let mut state = inner.state.lock().unwrap();
                state.shutdown = true;
            }
            inner.cv.notify_all();
            for h in self.handles.lock().unwrap().drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl WorkerPool {
    /// A pool with `n` worker threads. `n <= 1` spawns no threads and
    /// executes jobs inline in `run()` (still job-granular, so the code
    /// path is identical to the threaded one).
    ///
    /// `n` is clamped to the machine's available parallelism:
    /// oversubscribing real cores turns the pool into a context-switch
    /// mill (measured ~8% slower than serial on a 1-core host). The
    /// clamp cannot change any result — every job split in the system
    /// is worker-count independent by the determinism contract, and
    /// the parallel-determinism battery verifies it. Tests that need
    /// real threads regardless of the host use
    /// [`WorkerPool::with_threads`].
    pub fn new(n: usize) -> WorkerPool {
        let cores = thread::available_parallelism().map_or(1, |c| c.get());
        WorkerPool::with_threads(n.min(cores))
    }

    /// A pool with exactly `n` worker threads, bypassing the available-
    /// parallelism clamp of [`WorkerPool::new`] — for tests and
    /// benchmarks that must exercise the threaded path even on small
    /// hosts.
    pub fn with_threads(n: usize) -> WorkerPool {
        if n <= 1 {
            return WorkerPool::serial();
        }
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let inner = Arc::clone(&inner);
            let h = thread::Builder::new()
                .name(format!("slot-worker-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut state = inner.state.lock().unwrap();
                        loop {
                            if let Some(job) = state.queue.pop_front() {
                                break Some(job);
                            }
                            if state.shutdown {
                                break None;
                            }
                            state = inner.cv.wait(state).unwrap();
                        }
                    };
                    match job {
                        Some(job) => job(),
                        None => return,
                    }
                })
                .expect("spawn slot worker");
            handles.push(h);
        }
        WorkerPool {
            inner: Some(Arc::clone(&inner)),
            workers: n,
            _threads: Arc::new(ThreadSet {
                inner: Some(inner),
                handles: Mutex::new(handles),
            }),
        }
    }

    /// The inline serial executor (one logical worker, zero threads).
    pub fn serial() -> WorkerPool {
        WorkerPool {
            inner: None,
            workers: 1,
            _threads: Arc::new(ThreadSet {
                inner: None,
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Logical worker count (1 for the serial pool).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when `run()` executes inline on the calling thread.
    pub(crate) fn is_serial(&self) -> bool {
        self.inner.is_none()
    }

    /// Execute a batch of jobs and return their results in submission
    /// order. Blocks until the whole batch is complete; the calling
    /// thread helps drain the queue while it waits. A panicking job
    /// re-panics here on the caller.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let inner = match &self.inner {
            None => {
                // Serial mode: inline, in order.
                return jobs.into_iter().map(|f| f()).collect();
            }
            Some(inner) => inner,
        };
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // A single job gains nothing from a round-trip through the
            // queue; run it inline (identical result, same code).
            let mut it = jobs.into_iter();
            return vec![it.next().unwrap()()];
        }

        let batch = Arc::new(Batch::<T> {
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
        });

        {
            let mut state = inner.state.lock().unwrap();
            for (idx, f) in jobs.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let inner2 = Arc::clone(inner);
                state.queue.push_back(Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(f));
                    batch.results.lock().unwrap()[idx] = Some(out);
                    if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last job: wake the batch's waiter. Taking the
                        // state lock orders this notify after the
                        // waiter's re-check, preventing lost wakeups.
                        let _guard = inner2.state.lock().unwrap();
                        inner2.cv.notify_all();
                    }
                }));
            }
            drop(state);
            inner.cv.notify_all();
        }

        // Help drain the queue while the batch is incomplete. Once the
        // queue is empty but jobs are still in flight on other workers,
        // sleep on the condvar (woken by completion or new enqueues).
        while batch.remaining.load(Ordering::Acquire) > 0 {
            if !inner.run_one() {
                let state = inner.state.lock().unwrap();
                if batch.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                if !state.queue.is_empty() {
                    continue;
                }
                let _unused = inner.cv.wait(state).unwrap();
            }
        }

        let mut results = batch.results.lock().unwrap();
        results
            .drain(..)
            .map(|slot| match slot.expect("batch job completed") {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("serial", &self.is_serial())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = WorkerPool::serial();
        assert_eq!(pool.workers(), 1);
        assert!(pool.is_serial());
        let out = pool.run((0..16).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_pool_preserves_submission_order() {
        let pool = WorkerPool::with_threads(4);
        assert_eq!(pool.workers(), 4);
        let out = pool.run(
            (0..64)
                .map(|i| {
                    move || {
                        // Stagger finish times so completion order differs
                        // from submission order.
                        std::thread::sleep(std::time::Duration::from_micros(64 - i));
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn one_and_n_workers_agree() {
        let serial = WorkerPool::new(1);
        let par = WorkerPool::with_threads(4);
        let mk = || {
            (0..32)
                .map(|i: u64| move || i.wrapping_mul(0x9E37_79B9).rotate_left(13))
                .collect::<Vec<_>>()
        };
        assert_eq!(serial.run(mk()), par.run(mk()));
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = WorkerPool::with_threads(2);
        // Outer jobs outnumber workers and each submits an inner batch;
        // without help-while-waiting this wedges every worker.
        let out = pool.run(
            (0..8u64)
                .map(|i| {
                    let pool = pool.clone();
                    move || {
                        let inner =
                            pool.run((0..8u64).map(|j| move || i * 100 + j).collect::<Vec<_>>());
                        inner.iter().sum::<u64>()
                    }
                })
                .collect::<Vec<_>>(),
        );
        let expect: Vec<u64> = (0..8u64)
            .map(|i| (0..8).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::with_threads(3);
        let out: Vec<u64> = pool.run(Vec::<fn() -> u64>::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "job boom")]
    fn panics_propagate_to_caller() {
        let pool = WorkerPool::with_threads(2);
        let _ = pool.run(
            (0..4)
                .map(|i| {
                    move || {
                        if i == 2 {
                            panic!("job boom");
                        }
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn empty_batches_are_fine_everywhere() {
        // Serial mode.
        let serial = WorkerPool::serial();
        let out: Vec<u64> = serial.run(Vec::<fn() -> u64>::new());
        assert!(out.is_empty());
        // Threaded mode, nested: jobs that themselves submit zero-job
        // batches (the n == 0 early-return must not touch the queue or
        // the condvar while the outer batch is draining).
        let pool = WorkerPool::with_threads(2);
        let out = pool.run(
            (0..8u64)
                .map(|i| {
                    let pool = pool.clone();
                    move || i + pool.run(Vec::<fn() -> u64>::new()).len() as u64
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "inner boom")]
    fn panic_propagates_from_nested_batch() {
        // A panic two levels down — inside an inner batch submitted by
        // an outer job running on a worker thread — must resurface on
        // the original caller with its payload intact, not wedge the
        // pool or vanish into a worker.
        let pool = WorkerPool::with_threads(2);
        let _ = pool.run(
            (0..4u64)
                .map(|i| {
                    let pool = pool.clone();
                    move || {
                        let inner = pool.run(
                            (0..4u64)
                                .map(|j| {
                                    move || {
                                        if i == 1 && j == 2 {
                                            panic!("inner boom");
                                        }
                                        i * 10 + j
                                    }
                                })
                                .collect::<Vec<_>>(),
                        );
                        inner.iter().sum::<u64>()
                    }
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn single_job_batch_runs_inline_on_caller() {
        // The n == 1 fast path skips the queue entirely: the job runs
        // on the submitting thread, with a result identical to serial.
        let pool = WorkerPool::with_threads(4);
        let caller = std::thread::current().id();
        let out = pool.run(vec![move || std::thread::current().id() == caller]);
        assert_eq!(out, vec![true]);

        let serial = WorkerPool::serial();
        let job = |x: u64| move || x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        assert_eq!(pool.run(vec![job(5)]), serial.run(vec![job(5)]));
    }

    #[test]
    #[should_panic(expected = "solo boom")]
    fn single_job_panic_propagates_from_inline_path() {
        let pool = WorkerPool::with_threads(2);
        let _ = pool.run(vec![|| -> u64 { panic!("solo boom") }]);
    }

    #[test]
    fn pool_survives_clone_and_drop() {
        let pool = WorkerPool::with_threads(2);
        let clone = pool.clone();
        drop(pool);
        let out = clone.run((0..4).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
