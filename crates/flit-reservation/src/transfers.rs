//! Buffer-binding ablation (paper Section 5, Figure 10).
//!
//! The paper's router *reserves* a buffer when the input reservation is
//! made but binds a *specific* buffer only just before the flit arrives;
//! binding at reservation time can force a flit to be transferred between
//! buffers mid-residency, because reservations arrive out of arrival-time
//! order and a single buffer may not be free for the whole stay.
//!
//! [`TransferCounter`] replays the reservation stream of one input channel
//! under the bind-at-reservation policy and counts the buffer-to-buffer
//! transfers that the deferred policy avoids entirely.

use noc_engine::Cycle;

/// Books residency intervals `[t_a, t_d)` onto concrete buffers in
/// reservation order and counts the transfers needed when no single
/// buffer can host an entire stay.
///
/// # Examples
///
/// ```
/// use flit_reservation::transfers::TransferCounter;
/// use noc_engine::Cycle;
///
/// let mut counter = TransferCounter::new(2);
/// // Earlier reservations pin down the two buffers at different times...
/// counter.book(Cycle::new(0), Cycle::new(13));  // buffer 0
/// counter.book(Cycle::new(21), Cycle::new(25)); // buffer 0 again
/// counter.book(Cycle::new(13), Cycle::new(20)); // buffer 1
/// // ...so a stay spanning cycle 13 must hop between buffers once.
/// assert_eq!(counter.book(Cycle::new(11), Cycle::new(14)), 1);
/// assert_eq!(counter.transfers(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TransferCounter {
    /// Reserved intervals per buffer, kept unsorted (small sets).
    buffers: Vec<Vec<(u64, u64)>>,
    transfers: u64,
    booked: u64,
}

impl TransferCounter {
    /// Creates a counter for a pool of `capacity` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool must have at least one buffer");
        TransferCounter {
            buffers: vec![Vec::new(); capacity],
            transfers: 0,
            booked: 0,
        }
    }

    /// Total transfers counted so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total residencies booked.
    pub fn booked(&self) -> u64 {
        self.booked
    }

    /// How long buffer `b` stays free from time `t`: `None` if occupied at
    /// `t`, otherwise the start of the next reservation (or `u64::MAX`).
    fn free_until(&self, b: usize, t: u64) -> Option<u64> {
        let mut next_start = u64::MAX;
        for &(s, e) in &self.buffers[b] {
            if s <= t && t < e {
                return None;
            }
            if s > t && s < next_start {
                next_start = s;
            }
        }
        Some(next_start)
    }

    /// Books the residency `[t_a, t_d)` and returns the number of
    /// transfers this flit needs under bind-at-reservation.
    ///
    /// # Panics
    ///
    /// Panics if `t_d <= t_a`, or if no buffer is free at some instant of
    /// the stay — the output scheduler's accounting must prevent that, so
    /// it indicates a protocol bug in the caller.
    pub fn book(&mut self, t_a: Cycle, t_d: Cycle) -> u64 {
        let (start, end) = (t_a.raw(), t_d.raw());
        assert!(end > start, "residency must be non-empty");
        self.booked += 1;
        let mut t = start;
        let mut segments = 0u64;
        while t < end {
            // Greedy: pick the buffer that stays free the longest from t.
            let mut best: Option<(usize, u64)> = None;
            for b in 0..self.buffers.len() {
                if let Some(until) = self.free_until(b, t) {
                    if best.map(|(_, u)| until > u).unwrap_or(true) {
                        best = Some((b, until));
                    }
                }
            }
            let (b, until) = best.unwrap_or_else(|| {
                panic!("no buffer free at cycle {t} despite advance reservation")
            });
            let seg_end = end.min(until);
            self.buffers[b].push((t, seg_end));
            segments += 1;
            t = seg_end;
        }
        let transfers = segments - 1;
        self.transfers += transfers;
        transfers
    }

    /// Drops interval history ending at or before `now` to bound memory.
    pub fn collect_garbage(&mut self, now: Cycle) {
        for b in &mut self.buffers {
            b.retain(|&(_, e)| e > now.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_buffer_sequential_stays() {
        let mut c = TransferCounter::new(1);
        assert_eq!(c.book(Cycle::new(0), Cycle::new(5)), 0);
        assert_eq!(c.book(Cycle::new(5), Cycle::new(9)), 0);
        assert_eq!(c.transfers(), 0);
        assert_eq!(c.booked(), 2);
    }

    #[test]
    fn fitting_stay_needs_no_transfer() {
        let mut c = TransferCounter::new(2);
        c.book(Cycle::new(0), Cycle::new(10));
        assert_eq!(c.book(Cycle::new(3), Cycle::new(7)), 0);
    }

    #[test]
    fn figure10_style_transfer() {
        // Buffer 0 pinned for [0,13) and again [21,25); buffer 1 pinned
        // for [13,20) — all booked before the victim, exactly the
        // "allocated without knowledge of future reservations" situation
        // of Figure 10. A stay [11,14) fits no single buffer: during
        // [11,13) only buffer 1 is free, during [13,14) only buffer 0.
        let mut c = TransferCounter::new(2);
        c.book(Cycle::new(0), Cycle::new(13)); // buffer 0
        c.book(Cycle::new(21), Cycle::new(25)); // buffer 0 (earliest-tie)
        c.book(Cycle::new(13), Cycle::new(20)); // buffer 1 (longest-free)
        assert_eq!(c.book(Cycle::new(11), Cycle::new(14)), 1);
        assert_eq!((c.transfers(), c.booked()), (1, 4));
    }

    #[test]
    #[should_panic(expected = "no buffer free")]
    fn overcommitted_pool_panics() {
        let mut c = TransferCounter::new(1);
        c.book(Cycle::new(0), Cycle::new(10));
        c.book(Cycle::new(5), Cycle::new(8));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_residency_panics() {
        TransferCounter::new(1).book(Cycle::new(4), Cycle::new(4));
    }

    #[test]
    fn garbage_collection_keeps_live_intervals() {
        let mut c = TransferCounter::new(2);
        c.book(Cycle::new(0), Cycle::new(5));
        c.book(Cycle::new(2), Cycle::new(30));
        c.collect_garbage(Cycle::new(10));
        // The expired stay is gone: its buffer is bookable again.
        assert_eq!(c.book(Cycle::new(11), Cycle::new(20)), 0);
    }

    #[test]
    fn greedy_prefers_longest_free_buffer() {
        let mut c = TransferCounter::new(2);
        // A buffer booked [8,..) forces the greedy to prefer the other
        // one for a stay starting at 5.
        c.book(Cycle::new(8), Cycle::new(12));
        assert_eq!(c.book(Cycle::new(5), Cycle::new(11)), 0);
    }
}
