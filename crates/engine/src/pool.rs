//! A persistent worker pool for per-cycle parallel phases.
//!
//! [`sweep::run_parallel`](crate::sweep::run_parallel) spawns fresh
//! scoped threads on every call, which is fine for a handful of sweep
//! points but ruinous inside a simulation cycle: a network stepping a
//! million cycles would pay thread creation and teardown a million
//! times. [`WorkerPool`] keeps its workers alive across calls — threads
//! are spawned once and each [`WorkerPool::run`] call costs one atomic
//! round publish plus one atomic completion count per worker.
//!
//! A round is published by bumping an atomic round counter, and each
//! worker counts its completion into an atomic. A waiting thread (an idle
//! worker, or the caller after its own share) polls those atomics in
//! bursts of 64 spin-loop hints, yields its CPU between bursts, and
//! parks on a condvar only after 100 µs. A sharded
//! simulation publishes its next round long before that bound, so its
//! barriers cost a few cache-line transfers and no system call; a
//! notifier takes the mutex and signals a condvar only when it sees a
//! thread parked there. The yield keeps the spin cheap when there are
//! more runnable threads than CPUs (several pools in one test binary,
//! or a process pinned to one CPU): the thread it waits for gets the CPU
//! instead of a full scheduler slice of polling.
//!
//! The calling thread participates as worker 0, so a pool of `n` threads
//! spawns only `n - 1` OS threads and a single-threaded pool runs the job
//! inline with no synchronisation at all. `run` is a barrier: it returns
//! only after every worker has finished the round, which is exactly the
//! determinism point the sharded stepping engine hands flits across shard
//! boundaries at.
//!
//! # Examples
//!
//! ```
//! use noc_engine::pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let hits = AtomicU64::new(0);
//! pool.run(&|worker| {
//!     hits.fetch_add(worker as u64 + 1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Polls of a waited-on atomic per spin burst.
const SPIN_POLLS: u32 = 64;

/// How long a waiting thread spins and yields before it parks.
const SPIN_BOUND: Duration = Duration::from_micros(100);

/// Type-erased borrow of the round's job. The pointer is only
/// dereferenced between the round being published and the worker's
/// completion being counted, and [`WorkerPool::run`] does not return
/// until every completion is in, so the borrow never outlives the
/// closure it points at.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

/// A worker panic's payload.
type Payload = Box<dyn std::any::Any + Send>;

/// State shared by the caller and the spawned workers. The hot path
/// touches only the atomics; the mutex guards parking and panics.
struct Shared {
    /// Rounds published so far; a bump publishes `job`.
    round: AtomicU64,
    /// Completions counted by the spawned workers over all rounds: round
    /// `r` is finished when it reaches `r * (threads - 1)`.
    done: AtomicU64,
    /// The published round's job, on the stack of the `run` call that
    /// published it.
    job: AtomicPtr<JobPtr>,
    /// Set by drop: workers exit instead of waiting for another round.
    shutdown: AtomicBool,
    /// Set when `lock` holds a worker's panic payload.
    panicked: AtomicBool,
    /// Workers parked on `work_cv`, and the caller parked on `done_cv`
    /// (0 or 1). Changed only under `lock`, read without it by the
    /// notifier, so a run whose waits all end while spinning never locks.
    parked_workers: AtomicUsize,
    parked_caller: AtomicUsize,
    /// The condvars' mutex, holding the first panic payload a worker
    /// raised this round.
    lock: Mutex<Option<Payload>>,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// The caller parks here until every worker has finished the round.
    done_cv: Condvar,
    /// Opt-in wall-clock accounting. Every timer is a thread-local
    /// `Instant` whose elapsed duration is `fetch_add`ed into these cells,
    /// so no cross-thread clock values are ever compared — the counters
    /// are barrier-safe by construction. Off by default; the hot path pays
    /// one relaxed load per round when off.
    prof: Profiling,
}

/// Accumulated pool timing, all in nanoseconds.
struct Profiling {
    enabled: AtomicBool,
    /// Per-worker time spent inside the round's job.
    busy_ns: Vec<AtomicU64>,
    /// Caller time spent waiting (spinning, yielding or parked) for the
    /// workers after finishing its own share.
    barrier_wait_ns: AtomicU64,
    /// Caller wall time per `run` call, publish to barrier release.
    round_wall_ns: AtomicU64,
    /// Number of profiled rounds.
    rounds: AtomicU64,
}

/// Snapshot of a pool's accumulated timing, taken via
/// [`WorkerPool::profile`]. All durations are nanoseconds summed since
/// profiling was enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Rounds executed while profiling was on.
    pub rounds: u64,
    /// Caller wall-clock across those rounds (publish to barrier release).
    pub round_wall_ns: u64,
    /// Caller time spent waiting on the barrier after its own share,
    /// spinning, yielding and parked alike.
    pub barrier_wait_ns: u64,
    /// Per-worker busy time inside the job, indexed by worker id.
    pub busy_ns: Vec<u64>,
}

/// A pool of persistent worker threads driving identical per-round jobs.
///
/// Created once, reused every cycle. See the [module docs](self) for the
/// protocol and an example.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` logical workers (the caller counts as
    /// worker 0, so `threads - 1` OS threads are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        let shared = Arc::new(Shared {
            round: AtomicU64::new(0),
            done: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            parked_workers: AtomicUsize::new(0),
            parked_caller: AtomicUsize::new(0),
            lock: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            prof: Profiling {
                enabled: AtomicBool::new(false),
                busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
                barrier_wait_ns: AtomicU64::new(0),
                round_wall_ns: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
            },
        });
        let handles = (1..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noc-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of logical workers (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Turns wall-clock profiling on or off. Enabling does not clear
    /// previously accumulated timing.
    pub fn set_profiling(&self, on: bool) {
        self.shared.prof.enabled.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the timing accumulated since profiling was enabled.
    /// Call between rounds (outside `run`) for consistent numbers.
    pub fn profile(&self) -> PoolProfile {
        let prof = &self.shared.prof;
        PoolProfile {
            rounds: prof.rounds.load(Ordering::Relaxed),
            round_wall_ns: prof.round_wall_ns.load(Ordering::Relaxed),
            barrier_wait_ns: prof.barrier_wait_ns.load(Ordering::Relaxed),
            busy_ns: prof
                .busy_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Runs `job(worker)` once for every `worker` in `0..threads()`,
    /// worker 0 on the calling thread, and returns after **all** workers
    /// have finished — the call is a barrier.
    ///
    /// # Panics
    ///
    /// A panic in any worker (or in the caller's own share) is re-raised
    /// here with its original payload, after every other worker has
    /// finished the round.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        let prof = &shared.prof;
        let profiling = prof.enabled.load(Ordering::Relaxed);
        let round_start = profiling.then(Instant::now);
        if self.threads == 1 {
            job(0);
            if let Some(t0) = round_start {
                let ns = t0.elapsed().as_nanos() as u64;
                prof.busy_ns[0].fetch_add(ns, Ordering::Relaxed);
                prof.round_wall_ns.fetch_add(ns, Ordering::Relaxed);
                prof.rounds.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // SAFETY: erases the borrow's lifetime so the pointer can sit in
        // the shared state; the barrier below keeps every dereference
        // inside this call's lifetime.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(job as *const (dyn Fn(usize) + Sync)) };
        let erased = JobPtr(erased);
        // Every worker finished the previous round before the last `run`
        // returned, so no worker reads `job` while it is replaced.
        shared
            .job
            .store(&erased as *const JobPtr as *mut JobPtr, Ordering::SeqCst);
        let round = shared.round.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.parked_workers.load(Ordering::SeqCst) > 0 {
            let _guard = shared.lock.lock().unwrap();
            shared.work_cv.notify_all();
        }
        // The caller takes its own share while the workers run theirs. A
        // caller panic must still wait for the round to finish (workers
        // hold the job borrow), so it is caught and re-raised after the
        // barrier.
        let own_start = profiling.then(Instant::now);
        let own = catch_unwind(AssertUnwindSafe(|| job(0)));
        let wait_start = own_start.map(|t0| {
            prof.busy_ns[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Instant::now()
        });
        let target = round * (self.threads as u64 - 1);
        wait_until(shared, &shared.done_cv, &shared.parked_caller, || {
            shared.done.load(Ordering::SeqCst) == target
        });
        let worker_panic = if shared.panicked.load(Ordering::SeqCst) {
            shared.panicked.store(false, Ordering::SeqCst);
            shared.lock.lock().unwrap().take()
        } else {
            None
        };
        if let Some(t0) = wait_start {
            prof.barrier_wait_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if let Some(t0) = round_start {
            prof.round_wall_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            prof.rounds.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = own {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.lock.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked already recorded its payload; the
            // join error itself carries nothing new.
            let _ = handle.join();
        }
    }
}

/// Waits until `ready()` holds: spins in bursts of [`SPIN_POLLS`] polls,
/// yielding the CPU between bursts, then after [`SPIN_BOUND`] parks on
/// `cv`, counted in `parked` so the notifier knows to signal it.
///
/// No wake-up is lost: the notifier makes `ready()` true before it reads
/// `parked`, and a parking thread counts itself in `parked` before its
/// last check of `ready()`, all sequentially consistent. So either the
/// notifier sees the count and signals under the mutex (which the parker
/// holds from its count until it sleeps), or the parker sees `ready()`.
fn wait_until(shared: &Shared, cv: &Condvar, parked: &AtomicUsize, ready: impl Fn() -> bool) {
    let mut spin_start = None;
    loop {
        for _ in 0..SPIN_POLLS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        if spin_start.get_or_insert_with(Instant::now).elapsed() >= SPIN_BOUND {
            break;
        }
        std::thread::yield_now();
    }
    let mut guard = shared.lock.lock().unwrap();
    parked.fetch_add(1, Ordering::SeqCst);
    while !ready() {
        guard = cv.wait(guard).unwrap();
    }
    parked.fetch_sub(1, Ordering::SeqCst);
}

/// Body of each spawned worker: wait for a round, run the job, count the
/// completion, repeat until shutdown.
fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen_round = 0u64;
    loop {
        wait_until(shared, &shared.work_cv, &shared.parked_workers, || {
            shared.shutdown.load(Ordering::SeqCst)
                || shared.round.load(Ordering::SeqCst) != seen_round
        });
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        seen_round += 1;
        let busy_start = shared
            .prof
            .enabled
            .load(Ordering::Relaxed)
            .then(Instant::now);
        // SAFETY: the caller stored `job` before publishing this round and
        // blocks in `run` until this worker counts its completion below,
        // so both the `JobPtr` on its stack and the closure behind it are
        // alive for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            let job = *shared.job.load(Ordering::SeqCst);
            (*job.0)(worker)
        }));
        if let Some(t0) = busy_start {
            shared.prof.busy_ns[worker]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if let Err(payload) = result {
            shared.lock.lock().unwrap().get_or_insert(payload);
            shared.panicked.store(true, Ordering::SeqCst);
        }
        shared.done.fetch_add(1, Ordering::SeqCst);
        if shared.parked_caller.load(Ordering::SeqCst) > 0 {
            let _guard = shared.lock.lock().unwrap();
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_exactly_once_per_round() {
        let pool = WorkerPool::new(4);
        let per_worker: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|w| {
                per_worker[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for counter in &per_worker {
            assert_eq!(counter.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicU64::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_is_a_barrier() {
        // Disjoint writes from all workers must be visible right after
        // `run` returns, round after round.
        let pool = WorkerPool::new(3);
        let slots: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..50usize {
            pool.run(&|w| slots[w].store(round, Ordering::Release));
            for slot in &slots {
                assert_eq!(slot.load(Ordering::Acquire), round);
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker 2 exploded")]
    fn worker_panic_propagates_with_payload() {
        let pool = WorkerPool::new(4);
        pool.run(&|w| {
            if w == 2 {
                panic!("worker 2 exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "caller share exploded")]
    fn caller_panic_propagates() {
        let pool = WorkerPool::new(2);
        pool.run(&|w| {
            if w == 0 {
                panic!("caller share exploded");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 3 {
                    panic!("boom");
                }
            })
        }));
        assert!(result.is_err());
        // The pool still works after the failed round.
        let hits = AtomicU64::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    /// A pause far longer than any spin bound, so every waiting thread
    /// parks before the next round is published.
    const PARK_PAUSE: std::time::Duration = std::time::Duration::from_millis(20);

    #[test]
    fn parked_workers_wake_for_every_round() {
        let pool = WorkerPool::new(3);
        let per_worker: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        for round in 1..=4 {
            std::thread::sleep(PARK_PAUSE);
            pool.run(&|w| {
                per_worker[w].fetch_add(1, Ordering::Relaxed);
            });
            for counter in &per_worker {
                assert_eq!(counter.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn back_to_back_rounds_publish_their_writes() {
        let pool = WorkerPool::new(2);
        let slots: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..=10_000usize {
            pool.run(&|w| slots[w].store(round, Ordering::Relaxed));
            for slot in &slots {
                assert_eq!(slot.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn oversubscribed_pool_runs_every_round() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = 4 * cpus;
        let pool = WorkerPool::new(threads);
        let per_worker: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..200 {
            pool.run(&|w| {
                per_worker[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for counter in &per_worker {
            assert_eq!(counter.load(Ordering::Relaxed), 200);
        }
    }

    #[test]
    #[should_panic(expected = "worker 1 exploded after a pause")]
    fn worker_panic_after_a_parked_pause_propagates() {
        let pool = WorkerPool::new(3);
        pool.run(&|_| {});
        std::thread::sleep(PARK_PAUSE);
        pool.run(&|w| {
            if w == 1 {
                panic!("worker 1 exploded after a pause");
            }
        });
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        WorkerPool::new(0);
    }

    #[test]
    fn profiling_off_accumulates_nothing() {
        let pool = WorkerPool::new(2);
        pool.run(&|_| {});
        assert_eq!(pool.profile(), PoolProfile::default_for(2));
    }

    #[test]
    fn profiling_counts_rounds_and_busy_time() {
        let pool = WorkerPool::new(3);
        pool.set_profiling(true);
        for _ in 0..5 {
            pool.run(&|_| {
                std::hint::black_box((0..2000).sum::<u64>());
            });
        }
        let prof = pool.profile();
        assert_eq!(prof.rounds, 5);
        assert_eq!(prof.busy_ns.len(), 3);
        assert!(prof.round_wall_ns > 0);
        // Every worker ran every round, so each accumulated some time.
        assert!(prof.busy_ns.iter().all(|&ns| ns > 0), "{prof:?}");
    }

    #[test]
    fn profiling_single_thread_pool_attributes_all_to_worker_zero() {
        let pool = WorkerPool::new(1);
        pool.set_profiling(true);
        pool.run(&|_| {
            std::hint::black_box((0..2000).sum::<u64>());
        });
        let prof = pool.profile();
        assert_eq!(prof.rounds, 1);
        assert_eq!(prof.barrier_wait_ns, 0);
        assert!(prof.busy_ns[0] > 0);
        assert_eq!(prof.round_wall_ns, prof.busy_ns[0]);
    }

    impl PoolProfile {
        fn default_for(threads: usize) -> PoolProfile {
            PoolProfile {
                busy_ns: vec![0; threads],
                ..PoolProfile::default()
            }
        }
    }
}
