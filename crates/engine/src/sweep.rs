//! Parameter sweeps across threads.
//!
//! Reproducing a latency-throughput figure means running the same
//! simulation at many offered loads. Each point is independent, so
//! [`run_parallel`] fans the points out over `std::thread` scoped threads
//! and returns results in input order. No external dependency is needed:
//! scoped threads plus a shared atomic work index implement a simple
//! work-stealing pool.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job` once per input across up to `threads` worker threads and
/// returns the outputs in the same order as `inputs`.
///
/// `job` receives `(index, &input)` so callers can derive per-point seeds
/// from the index. A panic in a worker stops the sweep and is re-raised
/// on the calling thread with its original payload; remaining inputs are
/// abandoned.
///
/// # Examples
///
/// ```
/// use noc_engine::sweep::run_parallel;
///
/// let loads = vec![0.1, 0.2, 0.3];
/// let squares = run_parallel(&loads, 2, |i, &x| (i, x * x));
/// assert_eq!(squares, vec![(0, 0.010000000000000002), (1, 0.04000000000000001), (2, 0.09)]);
/// ```
///
/// # Panics
///
/// Panics if `threads` is zero or if any job panics.
pub fn run_parallel<I, O, F>(inputs: &[I], threads: usize, job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    assert!(threads > 0, "thread count must be positive");
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n);
    if workers == 1 {
        return inputs.iter().enumerate().map(|(i, x)| job(i, x)).collect();
    }

    let next = AtomicUsize::new(0);
    // A worker panic is caught, stashed here, and re-raised with its
    // original payload on the caller's thread (`std::thread::scope` alone
    // would replace it with a generic "a scoped thread panicked").
    let panicked = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let slot_ptrs: Vec<_> = slots
        .iter_mut()
        .map(|s| SendPtr(s as *mut Option<O>))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let job = &job;
            let slot_ptrs = &slot_ptrs;
            let panicked = &panicked;
            let payload = &payload;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || panicked.load(Ordering::Relaxed) {
                    break;
                }
                match std::panic::catch_unwind(AssertUnwindSafe(|| job(i, &inputs[i]))) {
                    Ok(out) => {
                        // SAFETY: each index is claimed by exactly one
                        // worker via the atomic counter, so each slot is
                        // written once with no aliasing; the scope
                        // guarantees the writes complete before `slots`
                        // is read again.
                        unsafe { slot_ptrs[i].0.write(Some(out)) };
                    }
                    Err(cause) => {
                        panicked.store(true, Ordering::Relaxed);
                        payload.lock().unwrap().get_or_insert(cause);
                        break;
                    }
                }
            });
        }
    });

    if let Some(cause) = payload.into_inner().unwrap() {
        std::panic::resume_unwind(cause);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every sweep slot must be filled"))
        .collect()
}

/// Raw pointer wrapper that asserts cross-thread sendability for the
/// disjoint-slot write pattern used by [`run_parallel`].
struct SendPtr<T>(*mut T);

// SAFETY: each pointer targets a distinct slot written by exactly one
// worker thread while the owning scope is alive.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Returns `count` evenly spaced values covering `[lo, hi]` inclusive.
///
/// # Examples
///
/// ```
/// let pts = noc_engine::sweep::linspace(0.1, 0.5, 5);
/// assert_eq!(pts, vec![0.1, 0.2, 0.30000000000000004, 0.4, 0.5]);
/// ```
///
/// # Panics
///
/// Panics if `count` is zero, or if `count == 1` while `lo != hi`.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count > 0, "linspace needs at least one point");
    if count == 1 {
        assert!(lo == hi, "a single point requires lo == hi");
        return vec![lo];
    }
    let step = (hi - lo) / (count - 1) as f64;
    (0..count).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_results_in_order() {
        let inputs: Vec<u64> = (0..97).collect();
        let out = run_parallel(&inputs, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let inputs = vec![1, 2, 3];
        let out = run_parallel(&inputs, 1, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_inputs() {
        let out: Vec<i32> = run_parallel(&Vec::<i32>::new(), 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_inputs() {
        let inputs = vec![5];
        let out = run_parallel(&inputs, 64, |_, &x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        run_parallel(&[1], 0, |_, &x| x);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn worker_panic_propagates_across_threads() {
        let inputs: Vec<usize> = (0..16).collect();
        run_parallel(&inputs, 4, |i, &x| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "job 0 exploded")]
    fn worker_panic_propagates_on_single_thread_path() {
        run_parallel(&[1], 1, |_, _: &i32| -> i32 { panic!("job 0 exploded") });
    }

    #[test]
    fn parallel_matches_serial_with_state() {
        // Each job derives output purely from the index, so parallel and
        // serial execution must agree exactly.
        let inputs: Vec<usize> = (0..50).collect();
        let serial: Vec<u64> = inputs
            .iter()
            .map(|&i| (i as u64).wrapping_mul(0x9E3779B9))
            .collect();
        let parallel = run_parallel(&inputs, 7, |_, &i| (i as u64).wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn linspace_endpoints() {
        let pts = linspace(1.0, 2.0, 3);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], 1.0);
        assert_eq!(pts[2], 2.0);
    }

    #[test]
    fn linspace_single_point() {
        assert_eq!(linspace(0.5, 0.5, 1), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_zero_points_panics() {
        linspace(0.0, 1.0, 0);
    }
}
