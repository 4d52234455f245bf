//! Deterministic worker-pool data parallelism.
//!
//! The container builds offline with no third-party crates, so this
//! module provides the tiny slice of rayon the workspace needs: the
//! [`WorkerPool`] and its index-preserving [`WorkerPool::map`],
//! [`parallel_map`] (the same map on a pool built for one call), and
//! [`num_jobs`], which resolves the `jobs` settings
//! (`SearchOptions::jobs`, `EstimatorConfig::jobs`, the router's and
//! the CLIs' `--jobs`, `HDX_JOBS`) to a worker count.
//!
//! One search builds one pool and lends it to every phase that fans
//! out: the task-branch replay, the hardware searches, the final-net
//! retrain and its evaluation. Sessions own no threads; a replayed
//! session runs its row-partitioned kernels on whatever pool its
//! caller passes to [`crate::Session::forward_with`].
//!
//! Determinism is the contract that matters here: every consumer of
//! this module (the exhaustive accelerator search, estimator pair
//! labelling, sharded pre-training) must produce **bit-identical**
//! results at any worker count. `parallel_map` guarantees that by
//! construction — each element's closure sees only its own input, and
//! results are written to the element's own output slot, so the merge
//! order is the input order regardless of which thread ran what.
//!
//! # Example
//!
//! ```
//! use hdx_tensor::par::parallel_map;
//!
//! let squares = parallel_map(&[1u64, 2, 3, 4], 2, |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

/// Resolves a `jobs` knob to a concrete worker count.
///
/// `0` means "auto": the `HDX_JOBS` environment variable if set,
/// otherwise [`std::thread::available_parallelism`]. Any positive
/// value is taken as-is.
///
/// # Panics
///
/// Panics if `HDX_JOBS` is set but is not a positive integer (see
/// [`parse_jobs_env`]) — a mistyped knob must not silently masquerade
/// as "auto".
pub fn num_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    let env = crate::knobs::raw("HDX_JOBS");
    match parse_jobs_env(env.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        Err(msg) => panic!("{msg}"),
    }
}

/// Parses the `HDX_JOBS` environment value: `None` when the variable is
/// unset (auto), `Some(n)` for a positive integer, and an error message
/// for anything else (including `0` — use an unset variable for auto,
/// so a broken shell expansion can't pass silently).
///
/// # Errors
///
/// See [`crate::knobs::parse_positive`], which owns the error style.
pub fn parse_jobs_env(value: Option<&str>) -> Result<Option<usize>, String> {
    crate::knobs::parse_positive("HDX_JOBS", "worker count", "unset it for auto", value)
}

/// Minimum multiply-accumulate count before the compiled executor's
/// row-partitioned kernels dispatch to the [`WorkerPool`] instead of
/// running on the calling thread: [`default_par_threshold`] for the
/// host's core count, resolved once and cached. The threshold only
/// selects *which* code path runs — both paths partition rows
/// identically and every row's arithmetic is partition-independent, so
/// it can never change results.
pub fn par_threshold() -> usize {
    static PAR_THRESHOLD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAR_THRESHOLD.get_or_init(|| {
        default_par_threshold(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    })
}

/// Default parallel-dispatch threshold for a host with `cores` logical
/// CPUs.
///
/// On a single-core host every extra worker is pure oversubscription —
/// the OS time-slices them over the one core and the channel
/// round-trips are dead weight — so the default disables parallel
/// kernel dispatch outright (`usize::MAX`). With real parallelism
/// available, 64Ki MACs is the measured break-even region for the
/// blocked kernels: they run ~2–3× faster than the scalar loops the
/// old fixed 32Ki-MAC gate was tuned against, so the fixed dispatch
/// cost (two channel round-trips per worker) amortizes later.
pub fn default_par_threshold(cores: usize) -> usize {
    if cores <= 1 {
        usize::MAX
    } else {
        64 * 1024
    }
}

/// Records one parallel map over `items` units of work, whichever
/// workers end up running them — the counts (and therefore the
/// `metrics` verb snapshot) are identical at every `HDX_JOBS`.
pub(crate) fn observe_map(items: usize) {
    static OBS_CALLS: hdx_obs::Counter = hdx_obs::Counter::new("par.map.calls");
    static OBS_ITEMS: hdx_obs::Counter = hdx_obs::Counter::new("par.map.items");
    OBS_CALLS.incr();
    OBS_ITEMS.add(items as u64);
}

/// Maps `f(index, &item)` over `items` on up to `jobs` worker threads
/// (resolved through [`num_jobs`]), returning outputs in input order.
///
/// This is [`WorkerPool::map`] on a pool built for this one call and
/// joined before it returns: the items are split into contiguous
/// chunks, one per worker, and with one worker (or few items)
/// everything runs on the calling thread. Because each element is
/// evaluated independently and lands in its own output slot, the
/// result is bit-identical for every worker count.
///
/// # Panics
///
/// Propagates a panic from `f` after every worker has finished.
pub fn parallel_map<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    WorkerPool::new(num_jobs(jobs).min(items.len().max(1))).map(items, f)
}

/// A persistent pool of worker threads: one per search (or per
/// set-up training call), borrowed by every phase that fans out.
///
/// [`parallel_map`] builds and joins a pool per call, which is fine
/// for one-off coarse work (set-up pair labelling, a router batch) but
/// too slow for the inner kernels of a replayed training step, which
/// run tens of thousands of times per search. A `WorkerPool` keeps its
/// threads parked on channels between calls, so dispatch costs two
/// channel round-trips per worker instead of a thread spawn. It is not
/// `Sync`: a closure running on the pool cannot dispatch to it again.
///
/// [`WorkerPool::run`] executes `f(t)` for every worker index
/// `t ∈ 0..workers` — the calling thread participates as worker 0 —
/// and returns when all have finished. Determinism is the caller's
/// contract exactly as with [`parallel_map`]: each worker must write
/// only to its own disjoint output partition, with per-element
/// arithmetic independent of the partitioning.
pub struct WorkerPool {
    size: usize,
    txs: Vec<std::sync::mpsc::Sender<Job>>,
    done_rx: std::sync::mpsc::Receiver<bool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// A borrowed job closure, lifetime-erased for the channel hop. Sound
/// because [`WorkerPool::run`] blocks until every worker has reported
/// completion (via its drain guard, even while unwinding), so the
/// borrow outlives all uses.
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared by every worker) and `run`
// keeps it alive for the whole dispatch, so sending the pointer to
// another thread is safe.
unsafe impl Send for Job {}

impl WorkerPool {
    /// Spawns a pool of `size.max(1)` workers (`size - 1` threads; the
    /// caller of [`WorkerPool::run`] is worker 0).
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut txs = Vec::with_capacity(size - 1);
        let mut handles = Vec::with_capacity(size - 1);
        for t in 1..size {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                for job in rx.iter() {
                    // SAFETY: `run` keeps the closure alive until every
                    // worker has sent its completion message.
                    let f = unsafe { &*job.0 };
                    // A panicking job must still report completion, or
                    // run() would wait forever for this worker (and its
                    // borrow of the closure). The payload is dropped —
                    // the default panic hook has already printed it —
                    // and run() re-raises on the caller.
                    let ok =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t))).is_ok();
                    if done.send(ok).is_err() {
                        break;
                    }
                }
            }));
            txs.push(tx);
        }
        WorkerPool {
            size,
            txs,
            done_rx,
            handles,
        }
    }

    /// Total worker count (including the calling thread).
    pub fn workers(&self) -> usize {
        self.size
    }

    /// Maps `f(index, &item)` over `items` on this pool's workers and
    /// returns the outputs in input order: one contiguous chunk per
    /// worker (at most [`WorkerPool::workers`]), so the result is
    /// bit-identical at every pool size. With one worker (or one item)
    /// everything runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` after every worker has finished.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        observe_map(items.len());
        let workers = self.size.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let chunk = items.len().div_ceil(workers);
        // One slot per worker; each is locked only by its own worker.
        let slots: Vec<std::sync::Mutex<Vec<U>>> = (0..workers)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        self.run(&|t| {
            let lo = t * chunk;
            if lo >= items.len() {
                return;
            }
            let hi = (lo + chunk).min(items.len());
            let out = items[lo..hi]
                .iter()
                .enumerate()
                .map(|(off, x)| f(lo + off, x))
                .collect();
            *slots[t].lock().expect("map slot poisoned") = out;
        });
        slots
            .into_iter()
            .flat_map(|slot| slot.into_inner().expect("map slot poisoned"))
            .collect()
    }

    /// Runs `f(t)` for every worker index `t ∈ 0..workers()` and blocks
    /// until all are done.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked on any worker (the caller's own panic
    /// unwinds as usual; worker panics are re-raised here after every
    /// worker has finished) or if a worker thread died.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        /// Blocks until every dispatched worker has reported in. Runs
        /// on the normal path *and* from Drop while `f(0)`'s panic
        /// unwinds — the borrow of `f` must not die before the workers
        /// are done with it.
        struct Drain<'a> {
            rx: &'a std::sync::mpsc::Receiver<bool>,
            pending: usize,
            worker_panicked: bool,
        }
        impl Drain<'_> {
            fn drain(&mut self) {
                while self.pending > 0 {
                    self.pending -= 1;
                    match self.rx.recv() {
                        Ok(ok) => self.worker_panicked |= !ok,
                        // A disconnected channel means the worker
                        // thread exited entirely — borrow released.
                        Err(_) => self.worker_panicked = true,
                    }
                }
            }
        }
        impl Drop for Drain<'_> {
            fn drop(&mut self) {
                self.drain();
            }
        }

        // SAFETY: only the lifetime is erased; the drain guard keeps
        // this frame — and thus the borrow — alive until every worker
        // has finished with it, even if `f(0)` panics.
        let ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &_>(f) };
        let mut drain = Drain {
            rx: &self.done_rx,
            pending: 0,
            worker_panicked: false,
        };
        for tx in &self.txs {
            tx.send(Job(ptr)).expect("worker thread alive");
            drain.pending += 1;
        }
        f(0);
        drain.drain();
        assert!(
            !drain.worker_panicked,
            "WorkerPool job panicked on a worker thread"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.txs.clear(); // closing the channels ends each worker loop
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn maps_in_order_at_every_worker_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map(&items, jobs, |_, x| x * 3 + 1),
                expect,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn passes_true_indices() {
        let items = vec![10u32; 40];
        let got = parallel_map(&items, 4, |i, _| i);
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = parallel_map(&[] as &[u8], 4, |_, x| *x);
        assert!(got.is_empty());
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, 4, |_, _| {
            seen.lock()
                .expect("no poison")
                .insert(std::thread::current().id());
            // Keep workers alive long enough to overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(
            seen.lock().expect("no poison").len() > 1,
            "expected >1 worker thread"
        );
    }

    #[test]
    fn jobs_one_stays_on_caller_thread() {
        let caller = std::thread::current().id();
        let items = [1u8, 2, 3];
        let ids = parallel_map(&items, 1, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn num_jobs_policy() {
        assert_eq!(num_jobs(3), 3);
        assert!(num_jobs(0) >= 1);
    }

    #[test]
    fn jobs_env_parsing_rejects_bad_values() {
        assert_eq!(parse_jobs_env(None), Ok(None));
        assert_eq!(parse_jobs_env(Some("4")), Ok(Some(4)));
        assert_eq!(parse_jobs_env(Some(" 2 ")), Ok(Some(2)));
        assert!(parse_jobs_env(Some("0")).is_err());
        assert!(parse_jobs_env(Some("frsh")).is_err());
        assert!(parse_jobs_env(Some("-1")).is_err());
        assert!(parse_jobs_env(Some("")).is_err());
    }

    #[test]
    fn par_threshold_default_disables_dispatch_on_one_core() {
        assert_eq!(default_par_threshold(0), usize::MAX);
        assert_eq!(default_par_threshold(1), usize::MAX);
        assert_eq!(default_par_threshold(2), 64 * 1024);
        assert_eq!(default_par_threshold(96), 64 * 1024);
    }

    #[test]
    fn par_threshold_resolves_positive() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(par_threshold(), default_par_threshold(cores));
        assert!(par_threshold() > 0);
    }

    #[test]
    fn worker_pool_runs_every_index_and_uses_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits = Mutex::new(Vec::new());
        let threads = Mutex::new(HashSet::new());
        for _ in 0..3 {
            hits.lock().expect("no poison").clear();
            pool.run(&|t| {
                hits.lock().expect("no poison").push(t);
                threads
                    .lock()
                    .expect("no poison")
                    .insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            let mut seen = hits.lock().expect("no poison").clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
        assert!(
            threads.lock().expect("no poison").len() > 1,
            "expected >1 distinct worker thread"
        );
    }

    #[test]
    fn worker_pool_propagates_job_panics_and_survives() {
        let pool = WorkerPool::new(3);
        for panicking_worker in [1, 0] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(&|t| {
                    if t == panicking_worker {
                        panic!("boom on worker {t}");
                    }
                });
            }));
            assert!(result.is_err(), "panic on worker {panicking_worker} lost");
            // The pool must stay fully usable after a job panic.
            let hits = Mutex::new(0usize);
            pool.run(&|_| {
                *hits.lock().expect("no poison") += 1;
            });
            assert_eq!(*hits.lock().expect("no poison"), 3);
        }
    }

    #[test]
    fn worker_pool_map_keeps_input_order_across_reuse() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 5 + 2)).collect();
        for size in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(size);
            for _ in 0..2 {
                assert_eq!(
                    pool.map(&items, |i, &x| (i, x * 5 + 2)),
                    expect,
                    "size={size}"
                );
            }
            assert!(pool.map(&[] as &[u8], |_, &x| x).is_empty());
        }
    }

    #[test]
    fn worker_pool_of_one_runs_on_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        pool.run(&|t| {
            assert_eq!(t, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }
}
