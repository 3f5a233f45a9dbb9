//! The output reservation table (paper Figure 4a/4b).
//!
//! One table per output channel records, for every cycle within a sliding
//! window from the present to the scheduling horizon:
//!
//! * whether the channel is already reserved ("busy") that cycle, and
//! * how many buffers will be free at the far end of the channel.
//!
//! Scheduling a data flit that arrives at `t_a` finds the earliest
//! departure `t_d > t_a` where the channel is free and a downstream buffer
//! is available *from `t_d + t_p` onwards* (the flit holds the buffer until
//! its own onward departure, which is unknown until the downstream node's
//! credit arrives — so availability must be conservative through the
//! horizon). Reserving marks the channel busy at `t_d` and decrements the
//! free-buffer count for all `t ≥ t_d + t_p`; an advance credit carrying
//! `frees_at` restores the count for all `t ≥ frees_at`.

use crate::ring;
use noc_engine::Cycle;

/// Sliding-window bookkeeping for one output channel.
///
/// # Examples
///
/// ```
/// use flit_reservation::OutputReservationTable;
/// use noc_engine::Cycle;
///
/// // Horizon 32, 6 downstream buffers, 4-cycle propagation delay.
/// let mut table = OutputReservationTable::new(32, Some(6), 4);
/// let now = Cycle::ZERO;
/// table.advance_to(now);
/// let t_d = table.find_departure(Cycle::new(9), now, |_| true).unwrap();
/// assert_eq!(t_d, Cycle::new(10));
/// table.reserve(t_d);
/// // Cycle 10 is now busy; the next flit arriving at 9 departs at 11.
/// assert_eq!(
///     table.find_departure(Cycle::new(9), now, |_| true),
///     Some(Cycle::new(11))
/// );
/// ```
#[derive(Clone, Debug)]
pub struct OutputReservationTable {
    horizon: u64,
    prop_delay: u64,
    window: usize,
    base: Cycle,
    busy: Vec<bool>,
    free: Vec<i64>,
    /// Free-buffer count for every cycle at or beyond `base + window`.
    tail_free: i64,
    /// Downstream buffer capacity, for invariant checking (`None` =
    /// unbounded, used for the ejection channel whose "far end" is the
    /// reassembly buffer space).
    capacity: Option<i64>,
    /// Credits whose release cycle lies at or beyond the window's far
    /// edge (possible when a synchronization margin pushes the release
    /// past `base + window`); held back and applied by
    /// [`Self::advance_to`] once the window reaches them. Until then the
    /// buffer conservatively counts as occupied.
    pending_credits: Vec<Cycle>,
}

impl OutputReservationTable {
    /// Creates a table with scheduling horizon `horizon`, `capacity`
    /// downstream buffers (`None` for unbounded) and channel propagation
    /// delay `prop_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(horizon: u64, capacity: Option<usize>, prop_delay: u64) -> Self {
        assert!(horizon > 0, "scheduling horizon must be positive");
        // The window covers every cycle a reservation can touch:
        // departures up to `now + horizon` plus the propagation to the
        // next node, with one slack slot so strict inequalities stay easy.
        let window = (horizon + prop_delay + 2) as usize;
        let initial = capacity.map(|c| c as i64).unwrap_or(i64::MAX / 2);
        OutputReservationTable {
            horizon,
            prop_delay,
            window,
            base: Cycle::ZERO,
            busy: vec![false; window],
            free: vec![initial; window],
            tail_free: initial,
            capacity: capacity.map(|c| c as i64),
            pending_credits: Vec::new(),
        }
    }

    /// The scheduling horizon in cycles.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The channel propagation delay in cycles.
    pub fn prop_delay(&self) -> u64 {
        self.prop_delay
    }

    /// The cycle the sliding window currently starts at.
    pub fn base(&self) -> Cycle {
        self.base
    }

    /// The window length in cycles (slots tracked ahead of `base`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The ring slot of cycle `t`. Costs a division, so a call takes it
    /// once and walks on with [`ring`] arithmetic.
    fn slot(&self, t: Cycle) -> usize {
        (t.raw() % self.window as u64) as usize
    }

    /// The window offset of cycle `t`, clamped to `0..=window`.
    fn offset(&self, t: Cycle) -> usize {
        (t.raw().saturating_sub(self.base.raw()) as usize).min(self.window)
    }

    fn in_window(&self, t: Cycle) -> bool {
        t >= self.base && t.raw() < self.base.raw() + self.window as u64
    }

    /// Slides the window forward so it starts at `now`. Must be called
    /// once at the start of every cycle (idempotent within a cycle).
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards.
    pub fn advance_to(&mut self, now: Cycle) {
        assert!(now >= self.base, "output table time went backwards");
        if now == self.base {
            // Idempotent repeat within a cycle: no slot recycles and no
            // pending credit can have entered the (unmoved) window.
            return;
        }
        let steps = (now - self.base).min(self.window as u64);
        // Recycle the slots that fell out of the window: they now
        // represent cycles just past the previous far edge and inherit the
        // steady-state (beyond-horizon) buffer count. Usually one slot,
        // so walk slot by slot rather than fill runs.
        let mut s = self.slot(self.base);
        for _ in 0..steps {
            self.busy[s] = false;
            self.free[s] = self.tail_free;
            s = ring::slot_after(s, self.window, 1);
        }
        self.base = now;
        // Deferred credits whose release cycle the window now reaches.
        if !self.pending_credits.is_empty() {
            let end = self.base + self.window as u64;
            let mut i = 0;
            while i < self.pending_credits.len() {
                if self.pending_credits[i] < end {
                    let from = self.pending_credits.swap_remove(i);
                    self.apply_credit(from);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// `true` if the channel is already reserved for cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the window.
    pub fn is_busy(&self, t: Cycle) -> bool {
        assert!(self.in_window(t), "busy query outside window");
        self.busy[self.slot(t)]
    }

    /// Free downstream buffers at cycle `t` (clamped to the steady-state
    /// value beyond the window).
    pub fn free_at(&self, t: Cycle) -> i64 {
        if t < self.base {
            panic!("free-buffer query in the past");
        }
        if self.in_window(t) {
            self.free[self.slot(t)]
        } else {
            self.tail_free
        }
    }

    /// Finds the earliest departure time `t_d` for a data flit arriving at
    /// `t_a`, searching `max(t_a, now) + 1 ..= now + horizon`.
    ///
    /// A candidate cycle qualifies when the channel is not busy, a
    /// downstream buffer is free for every cycle from `t_d + t_p` through
    /// the window (and beyond), and `extra_ok(t_d)` holds — the router
    /// passes a closure rejecting cycles where the originating input port
    /// already has a departure booked (single-read-port input buffers,
    /// paper footnote 7).
    pub fn find_departure(
        &self,
        t_a: Cycle,
        now: Cycle,
        extra_ok: impl FnMut(Cycle) -> bool,
    ) -> Option<Cycle> {
        self.find_departure_min(t_a, now, 1, extra_ok)
    }

    /// Like [`Self::find_departure`], but demands `min_free` buffers free
    /// downstream throughout the hold. Used when a control flit leads
    /// several data flits (`d > 1`): booking one of `m` remaining flits
    /// with `min_free = m` guarantees the control flit can always finish
    /// its schedule, so partially-scheduled data flits parked at the next
    /// node can never deadlock the pool (see DESIGN.md).
    pub fn find_departure_min(
        &self,
        t_a: Cycle,
        now: Cycle,
        min_free: i64,
        extra_ok: impl FnMut(Cycle) -> bool,
    ) -> Option<Cycle> {
        self.schedule_search(t_a, now, min_free, false, extra_ok)
    }

    /// Full-control search. With `allow_same_cycle` (and a reservation
    /// being made ahead of the arrival, `t_a > now`), the arrival cycle
    /// itself is a candidate departure: the flit is bypassed directly to
    /// the output port, spending zero cycles in the router — the source of
    /// flit-reservation flow control's low data latency.
    ///
    /// The whole search costs O(window + horizon) instead of the naive
    /// O(window × horizon): a candidate qualifies only when *no* window
    /// slot from its buffer hold onward is short of `min_free` buffers,
    /// so one backwards scan locating the **last deficient slot** (often
    /// O(1) — a saturated table exits on its first probe) answers every
    /// candidate's availability check with a single index comparison.
    pub fn schedule_search(
        &self,
        t_a: Cycle,
        now: Cycle,
        min_free: i64,
        allow_same_cycle: bool,
        mut extra_ok: impl FnMut(Cycle) -> bool,
    ) -> Option<Cycle> {
        if self.tail_free < min_free {
            return None;
        }
        let start = if allow_same_cycle && t_a > now {
            t_a
        } else {
            t_a.max(now) + 1
        };
        let last = now + self.horizon;
        if start > last {
            return None;
        }
        // Earliest window offset any candidate's hold can touch: a
        // departure at `t` holds buffers from `t + prop_delay` on, and
        // `t >= start`. Offsets below it are never queried.
        let floor = self.offset(start + self.prop_delay);
        // Largest window offset at or above `floor` with fewer than
        // `min_free` buffers free; `floor as isize - 1` when none. The
        // search never reserves, so this is invariant across candidates.
        // The later (wrapped) run is scanned first.
        let [near, far] = ring::runs(self.slot(self.base), self.window, floor, self.window);
        let near_len = near.len();
        let deficient = |f: &i64| *f < min_free;
        let last_deficient = match self.free[far].iter().rposition(deficient) {
            Some(i) => (floor + near_len + i) as isize,
            None => match self.free[near].iter().rposition(deficient) {
                Some(i) => (floor + i) as isize,
                None => floor as isize - 1,
            },
        };
        let mut t = start;
        let mut s = self.slot(start);
        while t <= last {
            if !self.busy[s] {
                // Buffers are free for the whole hold iff the hold
                // starts strictly past the last deficient slot (the
                // beyond-window tail was vetted up front).
                let from = self.offset(t + self.prop_delay);
                if from as isize > last_deficient && extra_ok(t) {
                    return Some(t);
                }
            }
            t = t.next();
            s = ring::slot_after(s, self.window, 1);
        }
        None
    }

    /// Reference implementation of the availability check: a literal scan
    /// of the free-buffer ring, kept to pin the last-deficient-slot
    /// search's equivalence in tests.
    #[cfg(test)]
    fn buffers_from(&self, from: Cycle, min_free: i64) -> bool {
        if self.tail_free < min_free {
            return false;
        }
        let end = self.base + self.window as u64;
        let mut t = from.max(self.base);
        while t < end {
            if self.free[self.slot(t)] < min_free {
                return false;
            }
            t = t.next();
        }
        true
    }

    /// Commits a reservation: the channel is busy at `t_d` and the
    /// downstream buffer is held from `t_d + t_p` until a credit restores
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `t_d` is outside the window, already busy, or no buffer
    /// is available.
    pub fn reserve(&mut self, t_d: Cycle) {
        assert!(self.in_window(t_d), "reservation outside window");
        let start = self.slot(self.base);
        let s = ring::slot_after(start, self.window, self.offset(t_d));
        assert!(!self.busy[s], "channel double-booked at {t_d}");
        self.busy[s] = true;
        let from = t_d + self.prop_delay;
        assert!(
            self.in_window(from),
            "buffer hold starts outside window (window too small)"
        );
        let mut t = from;
        for run in ring::runs(start, self.window, self.offset(from), self.window) {
            for free in &mut self.free[run] {
                *free -= 1;
                assert!(*free >= 0, "buffer count went negative at {t}");
                t = t.next();
            }
        }
        self.tail_free -= 1;
        assert!(self.tail_free >= 0, "steady-state buffer count negative");
    }

    /// Withdraws a reservation at `t_d`: the exact inverse of
    /// [`Self::reserve`], clearing the busy bit and giving the buffer
    /// hold back.
    ///
    /// # Panics
    ///
    /// Panics if `t_d` is outside the window or not reserved.
    pub(crate) fn unreserve(&mut self, t_d: Cycle) {
        assert!(self.in_window(t_d), "withdrawal outside window");
        let s = self.slot(t_d);
        assert!(self.busy[s], "withdrawing an unbooked cycle {t_d}");
        self.busy[s] = false;
        self.apply_credit(t_d + self.prop_delay);
    }

    /// Applies an advance credit: the downstream buffer frees again at
    /// `frees_at` (clamped to `now` if the credit arrives late). A
    /// release cycle at or beyond the window's far edge — reachable when
    /// a synchronization margin extends the hold — is deferred until the
    /// window slides up to it.
    ///
    /// # Panics
    ///
    /// Panics if the credit would raise a count above the configured
    /// capacity.
    pub fn credit(&mut self, frees_at: Cycle, now: Cycle) {
        let from = frees_at.max(now).max(self.base);
        if !self.in_window(from) {
            self.pending_credits.push(from);
            return;
        }
        self.apply_credit(from);
    }

    /// Restores one free buffer from `from` (in or before the window)
    /// through the window's end and the steady-state tail.
    fn apply_credit(&mut self, from: Cycle) {
        let from = from.max(self.base);
        let start = self.slot(self.base);
        let mut t = from;
        for run in ring::runs(start, self.window, self.offset(from), self.window) {
            for free in &mut self.free[run] {
                *free += 1;
                if let Some(cap) = self.capacity {
                    assert!(*free <= cap, "credit overflow at {t}");
                }
                t = t.next();
            }
        }
        self.tail_free += 1;
        if let Some(cap) = self.capacity {
            assert!(self.tail_free <= cap, "steady-state credit overflow");
        }
    }
}

impl noc_metrics::Snapshot for OutputReservationTable {
    /// Unrolls the slot ring into time order from `base`: `busy` renders
    /// as one character per window slot (`X` reserved, `.` free) — the
    /// ASCII timeline `frfc-inspect` prints — and `free` as the
    /// per-slot free-buffer counts. Pending credits are sorted (their
    /// internal order is a `swap_remove` artefact, not state).
    fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        let mut busy = String::with_capacity(self.window);
        let mut free = Vec::with_capacity(self.window);
        let [near, far] = ring::runs(self.slot(self.base), self.window, 0, self.window);
        for s in near.chain(far) {
            busy.push(if self.busy[s] { 'X' } else { '.' });
            free.push(Json::Num(self.free[s] as f64));
        }
        let mut pending: Vec<u64> = self.pending_credits.iter().map(|c| c.raw()).collect();
        pending.sort_unstable();
        Json::obj(vec![
            ("base".into(), Json::Num(self.base.raw() as f64)),
            ("horizon".into(), Json::Num(self.horizon as f64)),
            ("prop_delay".into(), Json::Num(self.prop_delay as f64)),
            (
                "capacity".into(),
                match self.capacity {
                    Some(c) => Json::Num(c as f64),
                    None => Json::Null,
                },
            ),
            ("tail_free".into(), Json::Num(self.tail_free as f64)),
            ("busy".into(), Json::str(busy)),
            ("free".into(), Json::Arr(free)),
            (
                "pending_credits".into(),
                Json::Arr(pending.into_iter().map(|c| Json::Num(c as f64)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OutputReservationTable {
        OutputReservationTable::new(32, Some(6), 4)
    }

    #[test]
    fn credit_beyond_window_defers_until_window_reaches_it() {
        let mut t = table();
        let now = Cycle::ZERO;
        t.advance_to(now);
        // Drain the pool: 6 reservations consume every downstream buffer.
        for i in 1..=6u64 {
            let t_d = t
                .find_departure(Cycle::ZERO, now, |_| true)
                .expect("buffer available");
            assert_eq!(t_d, Cycle::new(i));
            t.reserve(t_d);
        }
        assert_eq!(t.free_at(Cycle::new(20)), 0);
        assert!(t.find_departure(Cycle::ZERO, now, |_| true).is_none());
        // A release cycle past the window's far edge (window = 32+4+2)
        // must not apply yet — the buffer stays conservatively held.
        let far = Cycle::new(60);
        t.credit(far, now);
        assert_eq!(t.free_at(Cycle::new(20)), 0);
        assert!(t.find_departure(Cycle::ZERO, now, |_| true).is_none());
        // Once the window slides up to contain it, the credit lands.
        let later = Cycle::new(30);
        t.advance_to(later);
        assert_eq!(t.free_at(far), 1);
        assert_eq!(
            t.find_departure(Cycle::new(55), later, |_| true),
            Some(Cycle::new(56))
        );
    }

    #[test]
    fn schedules_earliest_free_cycle() {
        let mut t = table();
        let now = Cycle::ZERO;
        t.advance_to(now);
        // Arrival in the past of `now` still departs after `now`.
        assert_eq!(
            t.find_departure(Cycle::ZERO, now, |_| true),
            Some(Cycle::new(1))
        );
        t.reserve(Cycle::new(1));
        assert_eq!(
            t.find_departure(Cycle::ZERO, now, |_| true),
            Some(Cycle::new(2))
        );
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: flit arrives at cycle 9; channel busy at 10; no
        // buffers at 11; departs at 12.
        let mut t = OutputReservationTable::new(32, Some(2), 0);
        t.advance_to(Cycle::ZERO);
        // Make cycle 10 busy.
        t.reserve(Cycle::new(10));
        // Exhaust buffers at exactly cycle 11 by reserving departures at
        // 11 with prop 0... instead simulate "no free buffers during 11":
        // hold both buffers from 11, then credit one back from 12.
        t.reserve(Cycle::new(11));
        t.credit(Cycle::new(12), Cycle::ZERO);
        assert_eq!(
            t.find_departure(Cycle::new(9), Cycle::ZERO, |_| true),
            Some(Cycle::new(12))
        );
    }

    #[test]
    fn respects_extra_constraint() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        // Input port conflict at cycle 1 and 2 pushes the departure to 3.
        let got = t.find_departure(Cycle::ZERO, Cycle::ZERO, |c| c.raw() > 2);
        assert_eq!(got, Some(Cycle::new(3)));
    }

    #[test]
    fn horizon_bounds_search() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        for c in 1..=32u64 {
            t.reserve(Cycle::new(c));
            // The downstream flit departs one cycle after it lands, so the
            // buffer frees again and availability never blocks.
            t.credit(Cycle::new(c + 5), Cycle::ZERO);
        }
        // Every cycle in the horizon is busy: no reservation possible.
        assert_eq!(t.find_departure(Cycle::ZERO, Cycle::ZERO, |_| true), None);
        // Advancing opens the next cycle.
        t.advance_to(Cycle::new(1));
        assert_eq!(
            t.find_departure(Cycle::ZERO, Cycle::new(1), |_| true),
            Some(Cycle::new(33))
        );
    }

    #[test]
    fn buffer_exhaustion_blocks_scheduling() {
        let mut t = OutputReservationTable::new(8, Some(2), 1);
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(1));
        t.reserve(Cycle::new(2));
        // Both downstream buffers held from cycles 2 and 3 onward.
        assert_eq!(t.find_departure(Cycle::ZERO, Cycle::ZERO, |_| true), None);
        // A credit that frees one buffer at cycle 5 lets a flit depart at
        // 5 - prop = 4.
        t.credit(Cycle::new(5), Cycle::ZERO);
        assert_eq!(
            t.find_departure(Cycle::ZERO, Cycle::ZERO, |_| true),
            Some(Cycle::new(4))
        );
    }

    #[test]
    fn advance_recycles_slots() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(3));
        assert!(t.is_busy(Cycle::new(3)));
        // Slide far enough that cycle 3's slot is reused.
        let far = Cycle::new(3 + 38);
        t.advance_to(far);
        assert!(!t.is_busy(far.max(Cycle::new(41))));
        // The recycled slot inherited the steady-state count (6 - 1 held).
        assert_eq!(t.free_at(far), 5);
    }

    #[test]
    fn credit_restores_counts() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(2));
        assert_eq!(t.free_at(Cycle::new(6)), 5);
        assert_eq!(t.free_at(Cycle::new(5)), 6, "hold starts at t_d + t_p");
        t.credit(Cycle::new(9), Cycle::ZERO);
        assert_eq!(t.free_at(Cycle::new(8)), 5);
        assert_eq!(t.free_at(Cycle::new(9)), 6);
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_reserve_panics() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(2));
        t.reserve(Cycle::new(2));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn spurious_credit_panics() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.credit(Cycle::new(1), Cycle::ZERO);
    }

    #[test]
    fn unbounded_capacity_for_ejection() {
        let mut t = OutputReservationTable::new(32, None, 0);
        t.advance_to(Cycle::ZERO);
        for c in 1..=30u64 {
            t.reserve(Cycle::new(c));
        }
        // Buffers never run out; only channel-busy limits.
        assert_eq!(
            t.find_departure(Cycle::ZERO, Cycle::ZERO, |_| true),
            Some(Cycle::new(31))
        );
    }

    /// A literal re-implementation of the search loop on top of the
    /// reference `buffers_from` scan; the production search must agree
    /// with it on every table state.
    fn reference_search(
        t: &OutputReservationTable,
        t_a: Cycle,
        now: Cycle,
        min_free: i64,
        allow_same_cycle: bool,
    ) -> Option<Cycle> {
        if t.tail_free < min_free {
            return None;
        }
        let start = if allow_same_cycle && t_a > now {
            t_a
        } else {
            t_a.max(now) + 1
        };
        let last = now + t.horizon;
        let mut c = start;
        while c <= last {
            if !t.busy[t.slot(c)] && t.buffers_from(c + t.prop_delay, min_free) {
                return Some(c);
            }
            c = c.next();
        }
        None
    }

    /// A naive model of an output table keyed by absolute cycle: the
    /// booked departures, the first cycle of every buffer hold, the
    /// release cycle of every applied credit and the deferred credits.
    /// The free count at `t` is capacity less the holds begun by `t`
    /// plus the credits released by `t`.
    #[derive(Default)]
    struct NaiveOutput {
        busy: Vec<Cycle>,
        holds: Vec<Cycle>,
        credits: Vec<Cycle>,
        deferred: Vec<Cycle>,
    }

    impl NaiveOutput {
        fn free_at(&self, capacity: i64, t: Cycle) -> i64 {
            let begun = self.holds.iter().filter(|&&h| h <= t).count() as i64;
            let released = self.credits.iter().filter(|&&c| c <= t).count() as i64;
            capacity - begun + released
        }

        fn reserve(&mut self, t_d: Cycle, prop_delay: u64) {
            self.busy.push(t_d);
            self.holds.push(t_d + prop_delay);
        }

        fn credit(&mut self, frees_at: Cycle, now: Cycle, table: &OutputReservationTable) {
            let from = frees_at.max(now).max(table.base());
            if from < table.base() + table.window() as u64 {
                self.credits.push(from);
            } else {
                self.deferred.push(from);
            }
        }

        fn advance(&mut self, now: Cycle, window: usize) {
            let end = now + window as u64;
            let credits = &mut self.credits;
            self.deferred.retain(|&c| {
                let due = c < end;
                if due {
                    credits.push(c);
                }
                !due
            });
        }

        /// Every window slot and the beyond-window tail must agree.
        fn check(&self, t: &OutputReservationTable, capacity: i64, step: u64) {
            for i in 0..=t.window() as u64 {
                let c = t.base() + i;
                if i < t.window() as u64 {
                    assert_eq!(
                        t.is_busy(c),
                        self.busy.contains(&c),
                        "step {step}: busy {c}"
                    );
                }
                assert_eq!(
                    t.free_at(c),
                    self.free_at(capacity, c),
                    "step {step}: free {c}"
                );
            }
        }
    }

    #[test]
    fn fast_search_matches_reference_scan() {
        // A deterministic mix of reservations, credits, window slides
        // and idle-skip jumps past the whole window. At every search the
        // last-deficient-slot fast path must return exactly what the
        // literal ring scan returns, and after every step the ring must
        // agree with the naive model keyed by absolute cycle.
        let capacity = 3;
        let mut t = OutputReservationTable::new(16, Some(3), 2);
        let window = t.window() as u64;
        let mut model = NaiveOutput::default();
        let mut now = Cycle::ZERO;
        t.advance_to(now);
        // Buffer holds outstanding, by hold-start cycle, so credits never
        // overflow a slot the matching reservation did not decrement.
        let mut holds: Vec<Cycle> = Vec::new();
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut searches = 0u32;
        let mut jumps = 0u32;
        for step in 0..1200u64 {
            let r = next();
            match r % 6 {
                0 => {
                    let min_free = (r / 7 % 3) as i64 + 1;
                    let t_a = now + r / 11 % 8;
                    let allow = r / 5 % 2 == 0;
                    let want = reference_search(&t, t_a, now, min_free, allow);
                    let got = t.schedule_search(t_a, now, min_free, allow, |_| true);
                    assert_eq!(got, want, "step {step}: search diverged");
                    searches += 1;
                    if let Some(t_d) = got {
                        t.reserve(t_d);
                        model.reserve(t_d, t.prop_delay);
                        holds.push(t_d + t.prop_delay);
                    }
                }
                1 => {
                    if let Some(h) = holds.pop() {
                        model.credit(h + r % 4, now, &t);
                        t.credit(h + r % 4, now);
                    }
                }
                2 => {
                    now += r % 3;
                    t.advance_to(now);
                    model.advance(now, t.window());
                }
                3 => {
                    let min_free = (r / 7 % 3) as i64 + 1;
                    let t_a = now + r / 11 % 12;
                    let want = reference_search(&t, t_a, now, min_free, false);
                    let got = t.schedule_search(t_a, now, min_free, false, |_| true);
                    assert_eq!(got, want, "step {step}: probe diverged");
                    searches += 1;
                }
                4 => {
                    // The idle-skip jump: every slot recycles at once.
                    now += window + r / 5 % window;
                    t.advance_to(now);
                    model.advance(now, t.window());
                    jumps += 1;
                }
                _ => {
                    // A late credit for a hold already begun applies from
                    // `now`, the window's first slot, whatever the ring
                    // offset of the window start.
                    if let Some(i) = holds.iter().position(|&h| h <= now) {
                        let h = holds.swap_remove(i);
                        model.credit(h, now, &t);
                        t.credit(h, now);
                    }
                }
            }
            model.check(&t, capacity, step);
        }
        assert!(searches > 100, "the op mix must actually exercise searches");
        assert!(jumps > 50, "the op mix must actually jump the window");

        // One slide at a time through two turns of the ring: at every
        // start offset, book a departure whose hold runs to the window's
        // far edge and credit one outstanding hold, then check the ring.
        for step in 0..2 * window {
            now += 1;
            t.advance_to(now);
            model.advance(now, t.window());
            if let Some(t_d) = t.find_departure(now, now, |_| true) {
                t.reserve(t_d);
                model.reserve(t_d, t.prop_delay);
                holds.push(t_d + t.prop_delay);
            }
            model.check(&t, capacity, step);
            if let Some(h) = holds.pop() {
                model.credit(h, now, &t);
                t.credit(h, now);
            }
            model.check(&t, capacity, step);
        }
    }

    #[test]
    fn late_credit_clamps_to_now() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(1));
        t.advance_to(Cycle::new(10));
        // Credit whose frees_at is already past: applies from now.
        t.credit(Cycle::new(5), Cycle::new(10));
        assert_eq!(t.free_at(Cycle::new(10)), 6);
    }
}
