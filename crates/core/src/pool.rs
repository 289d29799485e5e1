//! A small scoped worker pool for query fan-out.
//!
//! §5.2 contacts ranked peers "in groups of m simultaneously"; the live
//! runtime dispatches each group's RPCs onto this pool so one slow peer
//! delays only its own slot, not the whole group. The pool is std +
//! parking_lot only (no new dependencies) and deliberately tiny: a
//! locked FIFO of boxed jobs, a condvar, and a fixed set of worker
//! threads shared by every search a node runs.
//!
//! [`WorkerPool::run_all`] is *scoped*: jobs may borrow from the
//! caller's stack, because the call blocks until every submitted job
//! has finished (panicked jobs included — a drop guard counts them
//! down). While blocked, the caller helps drain the queue, so progress
//! is guaranteed even when all workers are busy with other searches and
//! concurrent `run_all` calls cannot deadlock waiting on each other.

use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use planetp_obs::{names, Counter, Gauge, Registry};

type RawJob = Box<dyn FnOnce() + Send + 'static>;

/// A boxed job for [`WorkerPool::run_all`]; may borrow from the
/// caller's stack for the `'scope` of the call.
pub type ScopedJob<'scope, T> = Box<dyn FnOnce() -> T + Send + 'scope>;

struct Shared {
    queue: Mutex<VecDeque<RawJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_depth: Gauge,
    jobs_executed: Counter,
}

impl Shared {
    fn try_pop(&self) -> Option<RawJob> {
        let mut q = self.queue.lock();
        let job = q.pop_front();
        if job.is_some() {
            self.queue_depth.set(q.len() as i64);
        }
        job
    }

    fn run_job(&self, job: RawJob) {
        // A panicking job must not take down a worker (or the searching
        // thread, when the caller is helping). The wrapper's drop guard
        // still counts the job as finished during unwind.
        let _ = catch_unwind(AssertUnwindSafe(job));
        self.jobs_executed.inc();
    }
}

/// Completion latch for one `run_all` scope.
struct Latch {
    done: Mutex<usize>,
    all_done: Condvar,
}

/// Counts a job finished even if it panicked.
struct CompletionGuard<'a> {
    latch: &'a Latch,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut done = self.latch.done.lock();
        *done += 1;
        self.latch.all_done.notify_all();
    }
}

/// A fixed-size pool of worker threads executing boxed jobs from a
/// shared FIFO. See the [module docs](self).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Pool with `threads` workers and detached (invisible) metrics.
    pub fn new(threads: usize) -> Self {
        Self::build(threads, Gauge::detached(), Counter::detached())
    }

    /// Pool with `threads` workers recording queue depth and job counts
    /// into `registry` under the shared `pool.*` names.
    pub fn in_registry(threads: usize, registry: &Registry) -> Self {
        Self::build(
            threads,
            registry.gauge(names::POOL_QUEUE_DEPTH),
            registry.counter(names::POOL_JOBS),
        )
    }

    fn build(threads: usize, queue_depth: Gauge, jobs_executed: Counter) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth,
            jobs_executed,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("planetp-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads (0 means `run_all` runs everything on
    /// the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run every job, in parallel across the workers and the calling
    /// thread, and return their results in submission order. Blocks
    /// until all jobs have finished — which is what lets jobs borrow
    /// from the caller's stack. A slot is `None` only if its job
    /// panicked.
    pub fn run_all<'scope, T: Send + 'scope>(
        &self,
        jobs: Vec<ScopedJob<'scope, T>>,
    ) -> Vec<Option<T>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let latch = Latch {
            done: Mutex::new(0),
            all_done: Condvar::new(),
        };
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        {
            let mut q = self.shared.queue.lock();
            for (i, job) in jobs.into_iter().enumerate() {
                let slot = &results[i];
                let latch = &latch;
                let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let _guard = CompletionGuard { latch };
                    let out = job();
                    *slot.lock() = Some(out);
                });
                // SAFETY: the job may borrow caller-stack data (`jobs`'
                // 'scope, plus `results` and `latch` above), so it is
                // not really 'static. It never outlives those borrows:
                // this function does not return until the latch has
                // counted all `n` wrappers finished, each wrapper
                // counts itself finished only as it is dropped (drop
                // guard, panic included), and a queued-but-never-run
                // wrapper is impossible while we wait — the pool cannot
                // be dropped mid-call (`&self` is borrowed) and the
                // caller-help loop below keeps draining the queue for
                // as long as this scope's jobs are outstanding. This
                // is the same erasure crossbeam's scoped threads rely
                // on.
                let raw = unsafe {
                    mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(wrapped)
                };
                q.push_back(raw);
            }
            self.shared.queue_depth.set(q.len() as i64);
            self.shared.available.notify_all();
        }
        // Help while waiting: run queued jobs (ours or other scopes')
        // on this thread, but only for as long as this scope's own
        // jobs are outstanding. Helping exists so queued jobs of this
        // call cannot deadlock behind busy workers — once our latch is
        // full, draining other searches' RPCs here would only tie this
        // search's wall-clock to theirs.
        loop {
            if *latch.done.lock() >= n {
                break;
            }
            match self.shared.try_pop() {
                Some(job) => self.shared.run_job(job),
                None => break,
            }
        }
        // Wait for stragglers still running on workers.
        let mut done = latch.done.lock();
        while *done < n {
            latch.all_done.wait(&mut done);
        }
        drop(done);
        results.into_iter().map(|m| m.into_inner()).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.available.notify_all();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    shared.queue_depth.set(q.len() as i64);
                    break job;
                }
                shared.available.wait(&mut q);
            }
        };
        shared.run_job(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    fn jobs_from<'a, T: Send, F: FnOnce() -> T + Send + 'a>(fns: Vec<F>) -> Vec<ScopedJob<'a, T>> {
        fns.into_iter()
            .map(|f| Box::new(f) as ScopedJob<'a, T>)
            .collect()
    }

    #[test]
    fn results_in_submission_order() {
        let pool = WorkerPool::new(3);
        let jobs = jobs_from((0..20).map(|i| move || i * 2).collect());
        let out = pool.run_all(jobs);
        let got: Vec<i32> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_caller_stack() {
        let pool = WorkerPool::new(2);
        let data: Vec<usize> = (0..100).collect();
        let total = AtomicUsize::new(0);
        let jobs = jobs_from(
            data.chunks(10)
                .map(|chunk| {
                    let total = &total;
                    move || {
                        total.fetch_add(chunk.iter().sum(), Ordering::Relaxed);
                    }
                })
                .collect(),
        );
        pool.run_all(jobs);
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum());
    }

    #[test]
    fn sleeping_jobs_overlap() {
        let pool = WorkerPool::new(4);
        let started = Instant::now();
        let jobs = jobs_from(
            (0..4)
                .map(|_| move || std::thread::sleep(Duration::from_millis(100)))
                .collect(),
        );
        pool.run_all(jobs);
        // 4×100 ms serialized would take 400 ms; overlapped, well less.
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "jobs did not overlap: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn panicking_job_yields_none_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<ScopedJob<'_, usize>> = vec![
            Box::new(|| 1usize),
            Box::new(|| panic!("job panic (expected in test)")),
            Box::new(|| 3usize),
        ];
        let out = pool.run_all(jobs);
        assert_eq!(out[0], Some(1));
        assert_eq!(out[1], None);
        assert_eq!(out[2], Some(3));
        // The pool still works afterwards.
        let out = pool.run_all(jobs_from(vec![|| 7usize]));
        assert_eq!(out, vec![Some(7)]);
    }

    #[test]
    fn zero_workers_runs_on_caller() {
        let pool = WorkerPool::new(0);
        let jobs: Vec<ScopedJob<'_, i32>> = vec![Box::new(|| 1), Box::new(|| 2), Box::new(|| 3)];
        let out = pool.run_all(jobs);
        assert_eq!(out, vec![Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn empty_job_list() {
        let pool = WorkerPool::new(2);
        let out: Vec<Option<()>> = pool.run_all(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn helper_stops_stealing_once_own_scope_is_done() {
        use std::sync::mpsc;
        use std::thread::ThreadId;

        // No workers: each run_all caller is its own only executor, so
        // any cross-scope execution can only come from the help loop.
        let pool = Arc::new(WorkerPool::new(0));
        let (start_tx, start_rx) = mpsc::channel::<()>();
        let (queued_tx, queued_rx) = mpsc::channel::<()>();
        let pool_b = Arc::clone(&pool);
        let b = std::thread::spawn(move || {
            let b_id = std::thread::current().id();
            start_rx.recv().expect("scope A started its job");
            let jobs: Vec<ScopedJob<'_, ThreadId>> = vec![
                Box::new(move || {
                    // Both of this scope's jobs were enqueued before
                    // this one ran; tell scope A, then keep this thread
                    // busy so the second job stays queued.
                    queued_tx.send(()).expect("A is waiting");
                    std::thread::sleep(Duration::from_millis(200));
                    std::thread::current().id()
                }),
                Box::new(|| std::thread::current().id()),
            ];
            let out = pool_b.run_all(jobs);
            (b_id, out[1].expect("no panic"))
        });
        // Scope A: its one job finishes while scope B's second job is
        // still queued. A's help loop must then exit, not steal it.
        let jobs: Vec<ScopedJob<'_, ()>> = vec![Box::new(move || {
            start_tx.send(()).expect("B is waiting");
            queued_rx.recv().expect("B enqueued its jobs");
        })];
        pool.run_all(jobs);
        let (b_id, second_ran_on) = b.join().expect("no panic");
        assert_eq!(
            second_ran_on, b_id,
            "helper stole a foreign job after its own scope completed"
        );
    }

    #[test]
    fn concurrent_run_all_from_many_threads() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let jobs = jobs_from((0..8).map(|i| move || t * 100 + i).collect());
                let out = pool.run_all(jobs);
                for (i, r) in out.into_iter().enumerate() {
                    assert_eq!(r, Some(t * 100 + i as u64));
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
    }
}
