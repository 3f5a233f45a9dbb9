//! Parameter sweeps across threads.
//!
//! Reproducing a latency-throughput figure means running the same
//! simulation at many offered loads. Each point is independent, so
//! [`run_parallel`] runs the points as one [`WorkerPool`] round whose
//! workers claim them through a shared atomic index, and returns the
//! results in input order.

use crate::pool::WorkerPool;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job` once per input across up to `threads` workers, the calling
/// thread among them, and returns the outputs in the same order as
/// `inputs`.
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
    let workers = threads.min(inputs.len());
    if workers <= 1 {
        return inputs.iter().enumerate().map(|(i, x)| job(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    WorkerPool::new(workers).run(&|_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= inputs.len() || stop.load(Ordering::Relaxed) {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| job(i, &inputs[i]))) {
            Ok(out) => *slots[i].lock().expect("no job runs under a slot lock") = Some(out),
            // No new point starts; the pool re-raises the payload once
            // every worker has left the round.
            Err(payload) => {
                stop.store(true, Ordering::Relaxed);
                resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect("no job runs under a slot lock");
            out.expect("every sweep slot must be filled")
        })
        .collect()
}

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
