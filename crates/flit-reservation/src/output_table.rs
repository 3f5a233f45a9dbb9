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
//!
//! # Layout
//!
//! The window is kept as bit rows in time order: bit `i` of a row stands
//! for cycle `origin + i`, and each row spans `window / 64 + 1` words.
//! The `busy` row holds one bit per cycle. A bounded table bit-slices
//! its free-buffer counts into `ceil(log2(capacity + 1))` planes: bit `i`
//! of plane `p` is bit `p` of the count at offset `i`. Every bit past the
//! window's far edge holds `tail_free`. A row has at least one bit more
//! than the window, so its top bit always lies past the far edge and
//! holds the row's fill.
//!
//! Sliding the window moves `base`; the rows shift toward offset 0,
//! copying the fill in at the far end, only once the far edge would
//! reach the top bit. Until then `origin` lags `base` and the bits below
//! `base` are stale, never read. The search compares the planes with
//! `min_free` a word at a time, then walks the set bits of `!busy`;
//! `reserve` and `apply_credit` ripple a borrow or a carry through the
//! planes over the suffix the hold or the credit covers.
//!
//! The unbounded ejection table keeps one hold-start row instead of
//! count planes: bit `i` is set when a buffer hold begins at
//! `origin + i`, and the count at offset `i` is `tail_free` plus the
//! holds that begin after `i`. Its counts start at `i64::MAX / 2` and
//! would need 63 planes, all shifted with the window. The ejection
//! channel never receives a credit, so its counts only ever drop at hold
//! starts, and one bit per cycle records them exactly.

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
    /// The cycle bit 0 of every row stands for, at or before `base`.
    origin: Cycle,
    /// The bit rows, interleaved word by word: word `k` of row `r` is
    /// `rows[k * stride + r]`. Row 0 is `busy`; the rows after it are
    /// the count planes (bounded) or the hold-start row (unbounded).
    rows: Vec<u64>,
    /// Words per row.
    words: usize,
    /// Rows per table: 1 + planes (bounded) or 2 (unbounded).
    stride: usize,
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

/// The bits of word `k` that stand for row offsets `lo..hi`.
fn span(k: usize, lo: usize, hi: usize) -> u64 {
    // The bits of word `k` below offset `n`.
    let below = |n: usize| {
        !u64::MAX
            .checked_shl(n.saturating_sub(64 * k).min(64) as u32)
            .unwrap_or(0)
    };
    below(hi) & !below(lo)
}

/// The bits of a word whose bit-sliced count in `planes` is below `c`
/// (`c < 2^planes`).
fn below(planes: &[u64], c: u64) -> u64 {
    let (mut lt, mut eq) = (0, !0);
    for (p, &x) in planes.iter().enumerate().rev() {
        if c >> p & 1 == 1 {
            lt |= eq & !x;
            eq &= x;
        } else {
            eq &= !x;
        }
    }
    lt
}

/// The bits of a word whose bit-sliced count in `planes` equals `c`.
fn equal(planes: &[u64], c: u64) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(!0, |eq, (p, &x)| eq & if c >> p & 1 == 1 { x } else { !x })
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
        let stride = 1 + capacity.map_or(1, |c| (usize::BITS - c.leading_zeros()) as usize);
        let words = window / 64 + 1;
        let mut rows = vec![0; words * stride];
        if let Some(c) = capacity {
            // Every count starts at the capacity.
            for word in rows.chunks_exact_mut(stride) {
                for (p, x) in word[1..].iter_mut().enumerate() {
                    *x = (c as u64 >> p & 1).wrapping_neg();
                }
            }
        }
        OutputReservationTable {
            horizon,
            prop_delay,
            window,
            base: Cycle::ZERO,
            origin: Cycle::ZERO,
            rows,
            words,
            stride,
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

    /// The row offset of the window's far edge, `base + window`.
    fn edge(&self) -> usize {
        (self.base - self.origin) as usize + self.window
    }

    /// The row offset of cycle `t`, clamped to `0..=edge`.
    fn offset(&self, t: Cycle) -> usize {
        (t.raw().saturating_sub(self.origin.raw()) as usize).min(self.edge())
    }

    fn in_window(&self, t: Cycle) -> bool {
        t >= self.base && t.raw() < self.base.raw() + self.window as u64
    }

    /// The count planes (or the hold-start row) of word `k`.
    fn planes(&self, k: usize) -> &[u64] {
        &self.rows[k * self.stride + 1..(k + 1) * self.stride]
    }

    /// Bit `o % 64` of row `r`'s word holding row offset `o`.
    fn bit(&self, r: usize, o: usize) -> bool {
        self.rows[o / 64 * self.stride + r] >> (o % 64) & 1 == 1
    }

    fn flip(&mut self, r: usize, o: usize) {
        self.rows[o / 64 * self.stride + r] ^= 1 << (o % 64);
    }

    /// The free-buffer count at row offset `o`.
    fn count(&self, o: usize) -> i64 {
        let (k, b) = (o / 64, o % 64);
        match self.capacity {
            Some(_) => self
                .planes(k)
                .iter()
                .enumerate()
                .map(|(p, &x)| ((x >> b & 1) as i64) << p)
                .sum(),
            // The holds that begin after offset `o`.
            None => {
                let later = (k..self.words)
                    .map(|j| {
                        (self.rows[j * self.stride + 1] & span(j, o + 1, usize::MAX)).count_ones()
                    })
                    .sum::<u32>();
                self.tail_free + later as i64
            }
        }
    }

    /// Adds (`up`) or subtracts one from every bit-sliced count at row
    /// offsets `from..`, the beyond-window bits included. Returns the
    /// lowest offset whose count wrapped below zero, if any.
    fn ripple(&mut self, from: usize, up: bool) -> Option<usize> {
        for k in from / 64..self.words {
            let mut c = span(k, from, usize::MAX);
            for x in &mut self.rows[k * self.stride + 1..(k + 1) * self.stride] {
                let old = *x;
                *x = old ^ c;
                c &= if up { old } else { !old };
                if c == 0 {
                    break;
                }
            }
            if c != 0 && !up {
                return Some(64 * k + c.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Shifts every row `s` offsets toward offset 0 (`s < 64 * words`),
    /// copying each row's top bit, its fill, in at the far end.
    fn shift_rows(&mut self, s: usize) {
        let (q, b) = (s / 64, s % 64);
        let (words, stride) = (self.words, self.stride);
        for r in 0..stride {
            let fill = (self.rows[(words - 1) * stride + r] as i64 >> 63) as u64;
            for k in 0..words {
                // Word `j` of row `r`, or the fill past the last word.
                let word = |j: usize| self.rows.get(j * stride + r).copied().unwrap_or(fill);
                // A funnel shift of the word pair: a plain `hi << (64 -
                // b)` would shift by 64 when `b` is 0.
                let pair = (word(k + q + 1) as u128) << 64 | word(k + q) as u128;
                self.rows[k * stride + r] = (pair >> b) as u64;
            }
        }
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
        self.base = now;
        // The cycles entering at the far edge are free and inherit the
        // steady-state (beyond-horizon) buffer count, which the bits past
        // the edge already hold. Shift once the edge would reach the top
        // bit; a lag of a whole row leaves every bit a copy of the fill.
        let lag = now - self.origin;
        let bits = 64 * self.words;
        if lag + self.window as u64 >= bits as u64 {
            self.shift_rows(lag.min(bits as u64 - 1) as usize);
            self.origin = now;
        }
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
        self.bit(0, self.offset(t))
    }

    /// Free downstream buffers at cycle `t` (clamped to the steady-state
    /// value beyond the window).
    pub fn free_at(&self, t: Cycle) -> i64 {
        if t < self.base {
            panic!("free-buffer query in the past");
        }
        if self.in_window(t) {
            self.count(self.offset(t))
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
    /// A candidate qualifies only when *no* window slot from its buffer
    /// hold onward is short of `min_free` buffers, so one bit-sliced
    /// compare, scanned from the far end, locates the **last deficient
    /// slot** and answers every candidate's availability check at once.
    /// The candidates are then the set bits of `!busy` from there on.
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
        debug_assert!(
            start >= self.base && self.in_window(last),
            "search outside window"
        );
        let (first, end) = (self.offset(start), self.offset(last) + 1);
        // Earliest row offset any candidate's hold can touch: a
        // departure at `t` holds buffers from `t + prop_delay` on, and
        // `t >= start`. Offsets below it are never queried.
        let floor = self.offset(start + self.prop_delay);
        // Largest offset at or above `floor` with fewer than `min_free`
        // buffers free. Unbounded counts never drop below `tail_free`,
        // and the bits past the window hold `tail_free`, which the
        // check above vetted. The search never reserves, so this is
        // invariant across candidates.
        let last_deficient = match self.capacity {
            Some(_) if min_free > 0 => (floor / 64..self.words).rev().find_map(|k| {
                let d = below(self.planes(k), min_free as u64) & span(k, floor, usize::MAX);
                (d != 0).then(|| 64 * k + 63 - d.leading_zeros() as usize)
            }),
            _ => None,
        };
        // Buffers are free for the whole hold iff the hold starts
        // strictly past the last deficient slot.
        let lo = last_deficient.map_or(first, |d| {
            first.max((d + 1).saturating_sub(self.prop_delay as usize))
        });
        for k in lo / 64..end.div_ceil(64) {
            let mut free = !self.rows[k * self.stride] & span(k, lo, end);
            while free != 0 {
                let t = self.origin + (64 * k) as u64 + free.trailing_zeros() as u64;
                if extra_ok(t) {
                    return Some(t);
                }
                free &= free - 1;
            }
        }
        None
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
        let o = self.offset(t_d);
        assert!(!self.bit(0, o), "channel double-booked at {t_d}");
        self.flip(0, o);
        let from = t_d + self.prop_delay;
        assert!(
            self.in_window(from),
            "buffer hold starts outside window (window too small)"
        );
        let o = self.offset(from);
        if self.capacity.is_some() {
            if let Some(neg) = self.ripple(o, false).filter(|&n| n < self.edge()) {
                panic!("buffer count went negative at {}", self.origin + neg as u64);
            }
        } else {
            debug_assert!(!self.bit(1, o), "two holds begin at {from}");
            self.flip(1, o);
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
        let o = self.offset(t_d);
        assert!(self.bit(0, o), "withdrawing an unbooked cycle {t_d}");
        self.flip(0, o);
        let from = t_d + self.prop_delay;
        if self.capacity.is_some() {
            self.apply_credit(from);
        } else {
            // The hold began at `from`, which the window still holds: it
            // was in the window when booked and `from >= t_d >= base`.
            self.flip(1, self.offset(from));
            self.tail_free += 1;
        }
    }

    /// Applies an advance credit: the downstream buffer frees again at
    /// `frees_at` (clamped to `now` if the credit arrives late). A
    /// release cycle at or beyond the window's far edge — reachable when
    /// a synchronization margin extends the hold — is deferred until the
    /// window slides up to it.
    ///
    /// # Panics
    ///
    /// Panics if the table is unbounded (the ejection channel has no
    /// downstream buffers to credit), or if the credit would raise a
    /// count above the configured capacity.
    pub fn credit(&mut self, frees_at: Cycle, now: Cycle) {
        assert!(
            self.capacity.is_some(),
            "an unbounded output table takes no credits: the ejection channel frees no downstream buffer"
        );
        let from = frees_at.max(now).max(self.base);
        if !self.in_window(from) {
            self.pending_credits.push(from);
            return;
        }
        self.apply_credit(from);
    }

    /// Restores one free buffer of a bounded table from `from` (in or
    /// before the window) through the window's end and the steady-state
    /// tail.
    fn apply_credit(&mut self, from: Cycle) {
        let cap = self.capacity.expect("only bounded tables take credits");
        let o = self.offset(from.max(self.base));
        // The first slot of the credit's span already at capacity.
        let full = (o / 64..self.words).find_map(|k| {
            let m = equal(self.planes(k), cap as u64) & span(k, o, usize::MAX);
            (m != 0).then(|| 64 * k + m.trailing_zeros() as usize)
        });
        if let Some(full) = full.filter(|&f| f < self.edge()) {
            panic!("credit overflow at {}", self.origin + full as u64);
        }
        self.ripple(o, true);
        self.tail_free += 1;
        assert!(self.tail_free <= cap, "steady-state credit overflow");
    }

    /// Renders the window in time order from `base`: `busy` renders
    /// as one character per window slot (`X` reserved, `.` free) — the
    /// ASCII timeline `frfc-inspect` prints — and `free` as the
    /// per-slot free-buffer counts. Pending credits are sorted (their
    /// internal order is a `swap_remove` artefact, not state).
    pub fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        let window = self.offset(self.base)..self.edge();
        let busy: String = window
            .clone()
            .map(|o| if self.bit(0, o) { 'X' } else { '.' })
            .collect();
        let free = window.map(|o| Json::Num(self.count(o) as f64)).collect();
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
    #[should_panic(expected = "takes no credits")]
    fn unbounded_table_rejects_credits() {
        let mut t = OutputReservationTable::new(32, None, 0);
        t.advance_to(Cycle::ZERO);
        t.reserve(Cycle::new(1));
        t.credit(Cycle::new(2), Cycle::ZERO);
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

    /// Reference availability check: every cycle from `from` through
    /// the window and its beyond-window tail keeps `min_free` buffers.
    fn buffers_from(t: &OutputReservationTable, from: Cycle, min_free: i64) -> bool {
        let end = t.base() + t.window() as u64;
        let mut c = from.max(t.base());
        while c <= end {
            if t.free_at(c) < min_free {
                return false;
            }
            c = c.next();
        }
        true
    }

    /// A literal re-implementation of the search loop on top of the
    /// reference `buffers_from` scan, reading the table only through
    /// `is_busy` and `free_at`; the production search must agree with it
    /// on every table state.
    fn reference_search(
        t: &OutputReservationTable,
        t_a: Cycle,
        now: Cycle,
        min_free: i64,
        allow_same_cycle: bool,
    ) -> Option<Cycle> {
        let start = if allow_same_cycle && t_a > now {
            t_a
        } else {
            t_a.max(now) + 1
        };
        let last = now + t.horizon();
        let mut c = start;
        while c <= last {
            if !t.is_busy(c) && buffers_from(t, c + t.prop_delay(), min_free) {
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

        fn unreserve(&mut self, t_d: Cycle, prop_delay: u64) {
            let i = self.busy.iter().position(|&b| b == t_d).expect("booked");
            self.busy.swap_remove(i);
            let i = self.holds.iter().position(|&h| h == t_d + prop_delay);
            self.holds.swap_remove(i.expect("held"));
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

    /// Drives one table through a deterministic mix of reservations,
    /// credits (withdrawals on an unbounded table, which takes no
    /// credits), window slides, word-aligned slides and idle-skip jumps
    /// past the whole window. At every search the production search must
    /// return exactly what the literal scan returns, and after every step
    /// the table must agree with the naive model keyed by absolute cycle.
    fn search_matches_reference(horizon: u64, prop_delay: u64, capacity: Option<usize>) {
        let cap = capacity.map_or(i64::MAX / 2, |c| c as i64);
        // The demands span every count a bounded table can hold, and
        // one more.
        let demands = capacity.map_or(3, |c| c as u64 + 1);
        let mut t = OutputReservationTable::new(horizon, capacity, prop_delay);
        let window = t.window() as u64;
        let mut model = NaiveOutput::default();
        let mut now = Cycle::ZERO;
        t.advance_to(now);
        // Bookings still outstanding, by departure cycle, so credits
        // never overflow a slot the matching reservation did not
        // decrement.
        let mut booked: Vec<Cycle> = Vec::new();
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let book = |t: &mut OutputReservationTable,
                    model: &mut NaiveOutput,
                    booked: &mut Vec<Cycle>,
                    t_d: Cycle| {
            t.reserve(t_d);
            model.reserve(t_d, prop_delay);
            booked.push(t_d);
        };
        // Gives one booking back: a credit for its hold on a bounded
        // table (`late` ones only for holds already begun, applied from
        // `now`), a withdrawal of a departure still ahead on an
        // unbounded one.
        let give_back = |t: &mut OutputReservationTable,
                         model: &mut NaiveOutput,
                         booked: &mut Vec<Cycle>,
                         now: Cycle,
                         delay: u64,
                         late: bool| {
            if capacity.is_none() {
                if let Some(i) = booked.iter().rposition(|&d| d >= now) {
                    let t_d = booked.swap_remove(i);
                    t.unreserve(t_d);
                    model.unreserve(t_d, prop_delay);
                }
            } else if late {
                if let Some(i) = booked.iter().position(|&d| d + prop_delay <= now) {
                    let h = booked.swap_remove(i) + prop_delay;
                    model.credit(h, now, t);
                    t.credit(h, now);
                }
            } else if let Some(d) = booked.pop() {
                let frees_at = d + prop_delay + delay;
                model.credit(frees_at, now, t);
                t.credit(frees_at, now);
            }
        };
        let mut searches = 0u32;
        let mut jumps = 0u32;
        for step in 0..1200u64 {
            let r = next();
            match r % 6 {
                0 => {
                    let min_free = (r / 7 % demands) as i64 + 1;
                    let t_a = now + r / 11 % 8;
                    let allow = r / 5 % 2 == 0;
                    let want = reference_search(&t, t_a, now, min_free, allow);
                    let got = t.schedule_search(t_a, now, min_free, allow, |_| true);
                    assert_eq!(got, want, "step {step}: search diverged");
                    searches += 1;
                    if let Some(t_d) = got {
                        book(&mut t, &mut model, &mut booked, t_d);
                    }
                }
                1 => give_back(&mut t, &mut model, &mut booked, now, r % 4, false),
                2 => {
                    // Now and then a slide by whole words.
                    now += if r / 3 % 8 == 0 {
                        64 * (1 + r / 24 % 2)
                    } else {
                        r % 3
                    };
                    t.advance_to(now);
                    model.advance(now, t.window());
                }
                3 => {
                    let min_free = (r / 7 % demands) as i64 + 1;
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
                _ => give_back(&mut t, &mut model, &mut booked, now, 0, true),
            }
            model.check(&t, cap, step);
        }
        assert!(searches > 100, "the op mix must actually exercise searches");
        assert!(jumps > 50, "the op mix must actually jump the window");

        // One slide at a time through two window lengths: at every start
        // offset, book a departure whose hold runs to the window's far
        // edge and give one booking back, then check the table.
        for step in 0..2 * window {
            now += 1;
            t.advance_to(now);
            model.advance(now, t.window());
            if let Some(t_d) = t.find_departure(now, now, |_| true) {
                book(&mut t, &mut model, &mut booked, t_d);
            }
            model.check(&t, cap, step);
            give_back(&mut t, &mut model, &mut booked, now, 0, false);
            model.check(&t, cap, step);
        }
    }

    #[test]
    fn fast_search_matches_reference_scan() {
        // Windows of one, two and three words (20, 106 and 134 cycles)
        // at one, two and four count planes, and the unbounded table.
        for (horizon, prop_delay) in [(16, 2), (100, 4), (128, 4)] {
            for capacity in [Some(1), Some(3), Some(13), None] {
                search_matches_reference(horizon, prop_delay, capacity);
            }
        }
    }

    #[test]
    fn slides_keep_every_slot() {
        // Slides that shift 1-, 2- and 3-word rows by part of a word, by
        // whole words and past the window, each from a table whose
        // counts differ from `tail_free` across the window: every cycle
        // the window keeps reads as before, and every cycle entering it
        // is free with the steady-state count.
        for (horizon, prop_delay) in [(16, 2), (100, 4), (128, 4)] {
            for slide in [1, 2, 63, 64, 65, 127, 128, 129] {
                let mut t = OutputReservationTable::new(horizon, Some(13), prop_delay);
                t.advance_to(Cycle::ZERO);
                // Two-cycle holds every third cycle dip the count from 13
                // (0b1101) to 12: plane 0 differs from its fill there.
                for c in (1..horizon - 2).step_by(3).map(Cycle::new) {
                    t.reserve(c);
                    t.credit(c + prop_delay + 2, Cycle::ZERO);
                }
                let (end, window) = (t.window() as u64, slide..slide + t.window() as u64);
                let want: Vec<_> = window
                    .clone()
                    .map(Cycle::new)
                    .map(|c| (c.raw() < end && t.is_busy(c), t.free_at(c)))
                    .collect();
                t.advance_to(Cycle::new(slide));
                let got: Vec<_> = window
                    .map(Cycle::new)
                    .map(|c| (t.is_busy(c), t.free_at(c)))
                    .collect();
                assert_eq!(got, want, "horizon {horizon}, slide {slide}");
            }
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
