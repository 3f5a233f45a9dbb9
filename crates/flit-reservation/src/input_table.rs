//! The input reservation table and schedule list (paper Figure 4c).
//!
//! One table per input channel orchestrates every data flit's movement
//! through the router: which buffer an arriving flit is written to, and
//! which buffer is driven onto which output channel each cycle. The
//! reservation (departure time + output channel) is filled in by the input
//! scheduler when the output scheduler reports success; the concrete
//! buffer is bound only when the flit actually arrives (the paper binds it
//! one cycle earlier; both choices avoid the buffer-interchange problem of
//! Figure 10 — the `AtReservation` ablation in `transfers.rs` quantifies
//! the alternative).
//!
//! Data flits that arrive before their control flit has completed
//! scheduling ("a data flit arrives at a node before its control flit has
//! completed its schedule") are parked in the buffer pool and tracked in a
//! logical *schedule list* keyed by arrival time; at most one flit arrives
//! per cycle per input channel, so the arrival time identifies the flit
//! unambiguously.

use noc_engine::Cycle;
use noc_flow::{BufferId, BufferPool, DataFlit};
use noc_topology::Port;

/// A reservation produced by the output scheduler for one data flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Cycle the flit departs this router.
    pub depart: Cycle,
    /// Output channel it departs by (`Port::Local` = ejection).
    pub out_port: Port,
}

/// Arrival-row entry: a reservation made before its flit arrived, as the
/// cycles from arrival to departure and the output channel. It takes 8
/// bytes to a `Reservation`'s 16, so the ring, rounded up to a power of
/// two, takes no more memory to build than an exact-size ring of
/// `Reservation`s.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    wait: u32,
    out_port: Port,
}

/// Departure-row entry: output channel plus the buffer bound at arrival.
#[derive(Clone, Copy, Debug)]
struct Departure {
    out_port: Port,
    buffer: Option<BufferId>,
    /// Same-cycle bypass: the flit never enters the pool; the arrival
    /// logic forwards it straight to the output.
    bypass: bool,
}

/// What happened when a data flit arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// The reservation was already in the table; the flit was written to
    /// the returned buffer and will leave at the recorded departure time.
    Scheduled(Reservation, BufferId),
    /// The reservation departs *this* cycle: the flit bypasses the buffer
    /// pool and the caller must forward it to `out_port` immediately.
    Bypass {
        /// Output channel the flit leaves by right now.
        out_port: Port,
    },
    /// No reservation yet: the flit was parked in the returned buffer and
    /// appended to the schedule list.
    Parked(BufferId),
}

/// Input reservation table, buffer pool and schedule list for one input
/// channel.
///
/// # Examples
///
/// ```
/// use flit_reservation::{ArrivalOutcome, InputReservationTable};
/// use noc_engine::Cycle;
/// use noc_flow::DataFlit;
/// use noc_topology::{NodeId, Port};
/// use noc_traffic::PacketId;
///
/// let mut table = InputReservationTable::new(32, 6, 4);
/// let now = Cycle::ZERO;
/// table.advance_to(now);
/// // The input scheduler records: arrives at 9, departs east at 12.
/// table.apply_reservation(Cycle::new(9), Cycle::new(12), Port::East, now);
/// // ... the flit arrives at cycle 9 ...
/// let flit = DataFlit {
///     packet: PacketId::new(0), seq: 0, length: 1,
///     dest: NodeId::new(5), created_at: Cycle::ZERO, crc_ok: true,
/// };
/// table.advance_to(Cycle::new(9));
/// assert!(matches!(
///     table.on_data_arrival(flit, Cycle::new(9)),
///     ArrivalOutcome::Scheduled(..)
/// ));
/// // ... and leaves at cycle 12.
/// table.advance_to(Cycle::new(12));
/// let (departed, port, _buffer) = table.take_departure(Cycle::new(12)).unwrap();
/// assert_eq!(port, Port::East);
/// assert_eq!(departed.seq, 0);
/// ```
#[derive(Clone, Debug)]
pub struct InputReservationTable {
    window: usize,
    base: Cycle,
    /// Keyed by arrival time: reservations made before the flit arrived.
    /// Both rings hold `window` rounded up to a power of two slots, so
    /// cycle `t` sits at slot `t & (len - 1)`.
    incoming: Vec<Option<Arrival>>,
    /// Keyed by departure time: what leaves and where to.
    outgoing: Vec<Option<Departure>>,
    pool: BufferPool,
    /// Schedule list: (arrival time, buffer) of parked, unscheduled flits.
    early: Vec<(Cycle, BufferId)>,
    /// Outstanding departure bookings (`outgoing` rows still set), kept as
    /// a counter so the router's quiescence query is O(1) instead of a
    /// scan of the window.
    booked: usize,
}

impl InputReservationTable {
    /// Creates a table for an input channel with `pool_size` data buffers,
    /// scheduling horizon `horizon` and downstream propagation delay
    /// `prop_delay` (which bounds how far ahead reservations can land).
    pub fn new(horizon: u64, pool_size: usize, prop_delay: u64) -> Self {
        let window = (horizon + prop_delay + 2) as usize;
        let ring = window.next_power_of_two();
        InputReservationTable {
            window,
            base: Cycle::ZERO,
            incoming: vec![None; ring],
            outgoing: vec![None; ring],
            pool: BufferPool::new(pool_size),
            early: Vec::new(),
            booked: 0,
        }
    }

    /// The ring slot of cycle `t`.
    fn slot(&self, t: Cycle) -> usize {
        t.raw() as usize & (self.outgoing.len() - 1)
    }

    fn in_window(&self, t: Cycle) -> bool {
        t >= self.base && t.raw() < self.base.raw() + self.window as u64
    }

    /// Slides the window start to `now`.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards or if an expired slot still holds a
    /// reservation (a scheduled flit that never arrived / never departed —
    /// a conservation violation).
    pub fn advance_to(&mut self, now: Cycle) {
        assert!(now >= self.base, "input table time went backwards");
        let steps = (now - self.base).min(self.window as u64);
        for i in 0..steps {
            let t = self.base + i;
            let s = self.slot(t);
            assert!(
                self.incoming[s].is_none(),
                "reserved arrival at {t} never materialised"
            );
            assert!(
                self.outgoing[s].is_none(),
                "scheduled departure at {t} never executed"
            );
        }
        self.base = now;
    }

    /// `true` if a departure is already booked for cycle `t` — the
    /// single-read-port constraint the output scheduler consults.
    pub fn departure_booked(&self, t: Cycle) -> bool {
        self.in_window(t) && self.outgoing[self.slot(t)].is_some()
    }

    /// Records a reservation `(t_a, t_d, out_port)` from the output
    /// scheduler. If the data flit already arrived (schedule list), binds
    /// its buffer immediately.
    ///
    /// # Panics
    ///
    /// Panics if the departure row at `t_d` is already booked, `t_d` is
    /// not in the future window, or a duplicate reservation exists for
    /// `t_a`.
    pub fn apply_reservation(&mut self, t_a: Cycle, t_d: Cycle, out_port: Port, now: Cycle) {
        assert!(self.in_window(t_d), "departure {t_d} outside window");
        assert!(t_d > now, "departure must be in the future");
        assert!(t_d >= t_a, "departure cannot precede arrival");
        let ds = self.slot(t_d);
        assert!(
            self.outgoing[ds].is_none(),
            "input read port double-booked at {t_d}"
        );
        self.booked += 1;
        // Has the flit already arrived? (Arrivals happen before control
        // processing within a cycle, so `t_a <= now` means it is parked.)
        if t_a <= now {
            let pos = self
                .early
                .iter()
                .position(|&(a, _)| a == t_a)
                .unwrap_or_else(|| panic!("no parked flit with arrival time {t_a}"));
            let (_, buffer) = self.early.swap_remove(pos);
            self.outgoing[ds] = Some(Departure {
                out_port,
                buffer: Some(buffer),
                bypass: false,
            });
        } else {
            assert!(self.in_window(t_a), "arrival {t_a} outside window");
            let s = self.slot(t_a);
            assert!(
                self.incoming[s].is_none(),
                "duplicate arrival reservation at {t_a}"
            );
            // `t_d - t_a` is below the window, which fits a `u32`.
            self.incoming[s] = Some(Arrival {
                wait: (t_d - t_a) as u32,
                out_port,
            });
            self.outgoing[ds] = Some(Departure {
                out_port,
                buffer: None,
                bypass: t_d == t_a,
            });
        }
    }

    /// Handles a data flit arriving on this input channel at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer pool is full — the upstream output scheduler's
    /// accounting guarantees a buffer, so exhaustion is a protocol bug.
    pub fn on_data_arrival(&mut self, flit: DataFlit, now: Cycle) -> ArrivalOutcome {
        let s = self.slot(now);
        let reserved = self.incoming[s].take().map(|a| Reservation {
            depart: now + u64::from(a.wait),
            out_port: a.out_port,
        });
        // Same-cycle bypass: consume the departure row and never touch
        // the pool.
        if reserved.is_some_and(|res| res.depart == now) {
            let dep = self.outgoing[s]
                .take()
                .expect("bypass reservation without departure row");
            debug_assert!(dep.bypass, "same-cycle departure must be a bypass");
            self.booked -= 1;
            return ArrivalOutcome::Bypass {
                out_port: dep.out_port,
            };
        }
        let buffer = self
            .pool
            .insert(flit)
            .expect("buffer pool exhausted despite advance reservation");
        match reserved {
            Some(res) => {
                let ds = self.slot(res.depart);
                let dep = self.outgoing[ds]
                    .as_mut()
                    .expect("incoming reservation without departure row");
                debug_assert!(dep.buffer.is_none(), "departure buffer already bound");
                dep.buffer = Some(buffer);
                ArrivalOutcome::Scheduled(res, buffer)
            }
            None => {
                self.early.push((now, buffer));
                ArrivalOutcome::Parked(buffer)
            }
        }
    }

    /// Executes the departure booked for cycle `now`, if any, returning
    /// the flit, its output channel and the buffer it vacated.
    ///
    /// # Panics
    ///
    /// Panics if a departure is booked but its buffer was never bound
    /// (the data flit did not arrive in time — a protocol bug).
    pub fn take_departure(&mut self, now: Cycle) -> Option<(DataFlit, Port, BufferId)> {
        let s = self.slot(now);
        // Bypass departures are executed by the arrival logic, not here.
        if self.outgoing[s].map(|d| d.bypass).unwrap_or(false) {
            return None;
        }
        let dep = self.outgoing[s].take()?;
        self.booked -= 1;
        let buffer = dep
            .buffer
            .expect("departure due but data flit never arrived");
        let flit = self.pool.take(buffer);
        Some((flit, dep.out_port, buffer))
    }

    /// Buffers currently occupied.
    pub fn occupied(&self) -> usize {
        self.pool.occupied_count()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// `true` when every buffer is occupied (the Section 4.2 probe).
    pub fn is_full(&self) -> bool {
        self.pool.is_full()
    }

    /// Number of parked (arrived-but-unscheduled) flits.
    pub fn parked(&self) -> usize {
        self.early.len()
    }

    /// Outstanding departure bookings (reservations applied but not yet
    /// executed), including bookings whose data flit has not arrived yet.
    pub fn pending_departures(&self) -> usize {
        self.booked
    }

    /// `true` when the table holds no state that obligates future work:
    /// no buffered flits, no parked flits and no outstanding bookings.
    /// In this state [`Self::advance_to`] may jump any number of cycles
    /// without tripping its expired-slot assertions, which is what lets
    /// the network skip stepping an idle router.
    pub fn is_quiet(&self) -> bool {
        self.booked == 0 && self.early.is_empty() && self.pool.occupied_count() == 0
    }

    /// Unrolls both rings into time order from `base`. `incoming`
    /// lists pending arrival reservations as `(arrival, depart,
    /// out_port)`; `outgoing` lists booked departures as `(depart,
    /// out_port, buffer, bypass)`. The schedule list is sorted by
    /// arrival time (its internal order is a `swap_remove` artefact).
    pub fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        for i in 0..self.window as u64 {
            let t = self.base + i;
            let s = self.slot(t);
            if let Some(a) = self.incoming[s] {
                let depart = t + u64::from(a.wait);
                incoming.push(Json::obj(vec![
                    ("arrival".into(), Json::Num(t.raw() as f64)),
                    ("depart".into(), Json::Num(depart.raw() as f64)),
                    ("out_port".into(), Json::str(format!("{:?}", a.out_port))),
                ]));
            }
            if let Some(dep) = self.outgoing[s] {
                outgoing.push(Json::obj(vec![
                    ("depart".into(), Json::Num(t.raw() as f64)),
                    ("out_port".into(), Json::str(format!("{:?}", dep.out_port))),
                    (
                        "buffer".into(),
                        match dep.buffer {
                            Some(b) => Json::Num(b.index() as f64),
                            None => Json::Null,
                        },
                    ),
                    ("bypass".into(), Json::Bool(dep.bypass)),
                ]));
            }
        }
        let mut early: Vec<(u64, u8)> = self
            .early
            .iter()
            .map(|&(at, buf)| (at.raw(), buf.raw()))
            .collect();
        early.sort_unstable();
        let parked: Vec<Json> = early
            .into_iter()
            .map(|(at, buf)| {
                Json::obj(vec![
                    ("arrived".into(), Json::Num(at as f64)),
                    ("buffer".into(), Json::Num(buf as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("base".into(), Json::Num(self.base.raw() as f64)),
            ("booked".into(), Json::Num(self.booked as f64)),
            ("incoming".into(), Json::Arr(incoming)),
            ("outgoing".into(), Json::Arr(outgoing)),
            ("parked".into(), Json::Arr(parked)),
            ("pool".into(), self.pool.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::NodeId;
    use noc_traffic::PacketId;
    use std::collections::BTreeMap;

    fn flit(seq: u32) -> DataFlit {
        DataFlit {
            packet: PacketId::new(3),
            seq,
            length: 5,
            dest: NodeId::new(0),
            created_at: Cycle::ZERO,
            crc_ok: true,
        }
    }

    fn table() -> InputReservationTable {
        InputReservationTable::new(32, 6, 4)
    }

    #[test]
    fn reservation_then_arrival_then_departure() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(5), Cycle::new(8), Port::East, Cycle::ZERO);
        assert!(t.departure_booked(Cycle::new(8)));
        assert!(!t.departure_booked(Cycle::new(7)));
        t.advance_to(Cycle::new(5));
        let outcome = t.on_data_arrival(flit(0), Cycle::new(5));
        let ArrivalOutcome::Scheduled(res, buffer) = outcome else {
            panic!("expected a scheduled arrival, got {outcome:?}");
        };
        assert_eq!(
            res,
            Reservation {
                depart: Cycle::new(8),
                out_port: Port::East
            }
        );
        assert_eq!(t.occupied(), 1);
        t.advance_to(Cycle::new(8));
        let (f, port, freed) = t.take_departure(Cycle::new(8)).unwrap();
        assert_eq!(f.seq, 0);
        assert_eq!(port, Port::East);
        assert_eq!(freed, buffer, "departure vacates the arrival's buffer");
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    fn early_arrival_parks_then_matches() {
        let mut t = table();
        t.advance_to(Cycle::new(4));
        assert!(matches!(
            t.on_data_arrival(flit(1), Cycle::new(4)),
            ArrivalOutcome::Parked(_)
        ));
        assert_eq!(t.parked(), 1);
        t.advance_to(Cycle::new(6));
        // Control flit catches up two cycles later.
        t.apply_reservation(Cycle::new(4), Cycle::new(9), Port::South, Cycle::new(6));
        assert_eq!(t.parked(), 0);
        t.advance_to(Cycle::new(9));
        let (f, port, _) = t.take_departure(Cycle::new(9)).unwrap();
        assert_eq!(f.seq, 1);
        assert_eq!(port, Port::South);
    }

    #[test]
    fn quiescence_tracks_bookings_parked_and_occupancy() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        assert!(t.is_quiet());
        assert_eq!(t.pending_departures(), 0);
        // A booking alone (flit not yet arrived) is not quiet.
        t.apply_reservation(Cycle::new(5), Cycle::new(8), Port::East, Cycle::ZERO);
        assert!(!t.is_quiet());
        assert_eq!(t.pending_departures(), 1);
        t.advance_to(Cycle::new(5));
        t.on_data_arrival(flit(0), Cycle::new(5));
        assert!(!t.is_quiet());
        t.advance_to(Cycle::new(8));
        t.take_departure(Cycle::new(8)).unwrap();
        assert!(t.is_quiet());
        // A parked flit alone is not quiet either.
        t.advance_to(Cycle::new(9));
        t.on_data_arrival(flit(1), Cycle::new(9));
        assert!(!t.is_quiet());
        assert_eq!(t.pending_departures(), 0);
    }

    #[test]
    fn bypass_consumes_its_booking() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(4), Cycle::new(4), Port::East, Cycle::ZERO);
        assert_eq!(t.pending_departures(), 1);
        t.advance_to(Cycle::new(4));
        assert!(matches!(
            t.on_data_arrival(flit(0), Cycle::new(4)),
            ArrivalOutcome::Bypass { .. }
        ));
        assert!(t.is_quiet());
    }

    #[test]
    fn no_departure_when_nothing_booked() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        assert_eq!(t.take_departure(Cycle::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn conflicting_departures_panic() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(2), Cycle::new(6), Port::East, Cycle::ZERO);
        t.apply_reservation(Cycle::new(3), Cycle::new(6), Port::West, Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "no parked flit")]
    fn reservation_for_missing_parked_flit_panics() {
        let mut t = table();
        t.advance_to(Cycle::new(5));
        t.apply_reservation(Cycle::new(3), Cycle::new(8), Port::East, Cycle::new(5));
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn pool_overflow_panics() {
        let mut t = InputReservationTable::new(32, 2, 4);
        t.advance_to(Cycle::ZERO);
        t.on_data_arrival(flit(0), Cycle::ZERO);
        t.advance_to(Cycle::new(1));
        t.on_data_arrival(flit(1), Cycle::new(1));
        t.advance_to(Cycle::new(2));
        t.on_data_arrival(flit(2), Cycle::new(2));
    }

    #[test]
    fn occupancy_probe() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        assert!(!t.is_full());
        for i in 0..6u64 {
            t.advance_to(Cycle::new(i));
            t.on_data_arrival(flit(i as u32), Cycle::new(i));
        }
        assert!(t.is_full());
        assert_eq!(t.capacity(), 6);
    }

    #[test]
    #[should_panic(expected = "never executed")]
    fn expired_departure_panics() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(2), Cycle::new(3), Port::East, Cycle::ZERO);
        t.advance_to(Cycle::new(2));
        t.on_data_arrival(flit(0), Cycle::new(2));
        // Skip past the departure without executing it.
        t.advance_to(Cycle::new(10));
    }

    #[test]
    fn multiple_parked_flits_match_by_arrival_time() {
        let mut t = table();
        for i in 0..3u64 {
            t.advance_to(Cycle::new(i));
            t.on_data_arrival(flit(i as u32), Cycle::new(i));
        }
        t.advance_to(Cycle::new(3));
        // Schedule the middle one first.
        t.apply_reservation(Cycle::new(1), Cycle::new(5), Port::North, Cycle::new(3));
        t.apply_reservation(Cycle::new(0), Cycle::new(4), Port::East, Cycle::new(3));
        t.apply_reservation(Cycle::new(2), Cycle::new(6), Port::West, Cycle::new(3));
        t.advance_to(Cycle::new(4));
        assert_eq!(t.take_departure(Cycle::new(4)).unwrap().0.seq, 0);
        t.advance_to(Cycle::new(5));
        assert_eq!(t.take_departure(Cycle::new(5)).unwrap().0.seq, 1);
        t.advance_to(Cycle::new(6));
        assert_eq!(t.take_departure(Cycle::new(6)).unwrap().0.seq, 2);
    }

    /// A departure booked in the naive model: output channel, the
    /// buffered flit's `(seq, buffer)` once it is bound, and bypass.
    type NaiveDeparture = (Port, Option<(u32, BufferId)>, bool);

    #[test]
    fn matches_naive_model_across_the_ring_seam() {
        // Windows of 12, 64 and 65 cycles: rings of 16 slots, of exactly
        // the window, and of nearly twice it.
        for (horizon, prop_delay) in [(8, 2), (60, 2), (61, 2)] {
            naive_model_walk(horizon, prop_delay);
        }
    }

    /// Random reservations (for parked and for future flits, bypasses
    /// included), arrivals, departures and window slides, with jumps
    /// past the whole window while no booking is due, checked every
    /// cycle against a naive model keyed by absolute cycle.
    fn naive_model_walk(horizon: u64, prop_delay: u64) {
        let window = horizon + prop_delay + 2;
        let mut t = InputReservationTable::new(horizon, window as usize + 8, prop_delay);
        // Reserved arrivals: arrival cycle -> (departure, port, seq).
        let mut incoming: BTreeMap<u64, (u64, Port, u32)> = BTreeMap::new();
        let mut outgoing: BTreeMap<u64, NaiveDeparture> = BTreeMap::new();
        // Parked flits: (arrival cycle, seq, buffer).
        let mut parked: Vec<(u64, u32, BufferId)> = Vec::new();
        let ports = [Port::East, Port::West, Port::North, Port::Local];
        let mut lcg: u64 = 0x1319_8A2E_0370_7344;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let (mut now, mut seq, mut jumps, mut bypasses) = (0u64, 0u32, 0u32, 0u32);
        t.advance_to(Cycle::ZERO);
        for step in 0..3000 {
            let r = next();
            let at = Cycle::new(now);
            // The data path runs first: the departure due now, if any.
            let want = match outgoing.get(&now) {
                Some(&(port, Some((s, buffer)), false)) => Some((s, port, buffer)),
                _ => None,
            };
            let got = t.take_departure(at).map(|(f, port, b)| (f.seq, port, b));
            assert_eq!(got, want, "step {step}: departure at {now}");
            if want.is_some() {
                outgoing.remove(&now);
            }
            // Then this cycle's arrival: the reserved flit, or now and
            // then an unannounced one that parks.
            if let Some((depart, port, s)) = incoming.remove(&now) {
                let outcome = t.on_data_arrival(flit(s), at);
                if depart == now {
                    assert_eq!(outcome, ArrivalOutcome::Bypass { out_port: port });
                    assert_eq!(outgoing.remove(&now), Some((port, None, true)));
                    bypasses += 1;
                } else {
                    let ArrivalOutcome::Scheduled(res, buffer) = outcome else {
                        panic!("step {step}: expected a scheduled arrival, got {outcome:?}");
                    };
                    assert_eq!((res.depart, res.out_port), (Cycle::new(depart), port));
                    outgoing.insert(depart, (port, Some((s, buffer)), false));
                }
            } else if r % 3 == 0 && parked.len() < 4 {
                seq += 1;
                let outcome = t.on_data_arrival(flit(seq), at);
                let ArrivalOutcome::Parked(buffer) = outcome else {
                    panic!("step {step}: expected a parked arrival, got {outcome:?}");
                };
                parked.push((now, seq, buffer));
            }
            // Then control: up to two reservations, each departing at a
            // free cycle of the window for a parked or a future flit.
            // After every 48 steps, control pauses for `window + 4`
            // steps, long enough for bookings a window ahead to drain
            // and for the window to jump.
            let quiet = step % (52 + window) >= 48;
            for k in 0..if quiet { 0 } else { r / 3 % 3 } {
                let r = next();
                let t_d = now + 1 + r % (window - 1);
                if outgoing.contains_key(&t_d) {
                    continue;
                }
                let port = ports[(r / 16 % 4) as usize];
                if !parked.is_empty() && r / 64 % 2 == 0 {
                    let (t_a, s, buffer) = parked.swap_remove((r / 128) as usize % parked.len());
                    t.apply_reservation(Cycle::new(t_a), Cycle::new(t_d), port, at);
                    outgoing.insert(t_d, (port, Some((s, buffer)), false));
                } else {
                    // One in four is a bypass, however wide the window.
                    let t_a = if r >> 20 & 3 == 0 {
                        t_d
                    } else {
                        now + 1 + r / 128 % (t_d - now)
                    };
                    if incoming.contains_key(&t_a) {
                        continue;
                    }
                    seq += 1;
                    t.apply_reservation(Cycle::new(t_a), Cycle::new(t_d), port, at);
                    incoming.insert(t_a, (t_d, port, seq));
                    outgoing.insert(t_d, (port, None, t_d == t_a));
                }
                assert!(t.departure_booked(Cycle::new(t_d)), "step {step}.{k}");
            }
            // The queries and the time-ordered snapshot agree with the model.
            let buffered = outgoing.values().filter(|d| d.1.is_some()).count();
            assert_eq!(t.pending_departures(), outgoing.len(), "step {step}");
            assert_eq!(t.parked(), parked.len(), "step {step}");
            assert_eq!(t.occupied(), buffered + parked.len(), "step {step}");
            assert_eq!(
                t.is_quiet(),
                outgoing.is_empty() && parked.is_empty(),
                "step {step}"
            );
            for c in now.saturating_sub(2)..now + window + 2 {
                let booked = t.departure_booked(Cycle::new(c));
                assert_eq!(booked, outgoing.contains_key(&c), "step {step}: cycle {c}");
            }
            let snap = t.snapshot();
            let cycles = |key: &str, field: &str| -> Vec<u64> {
                let rows = snap.get(key).and_then(|v| v.as_array()).expect(key);
                let num = |row: &noc_metrics::Json| row.get(field).and_then(|v| v.as_f64());
                rows.iter()
                    .map(|row| num(row).expect(field) as u64)
                    .collect()
            };
            assert_eq!(
                cycles("incoming", "arrival"),
                incoming.keys().copied().collect::<Vec<_>>()
            );
            let departs: Vec<u64> = incoming.values().map(|d| d.0).collect();
            assert_eq!(cycles("incoming", "depart"), departs, "step {step}");
            assert_eq!(
                cycles("outgoing", "depart"),
                outgoing.keys().copied().collect::<Vec<_>>()
            );
            // Slide on: a cycle, a few, or, with nothing booked in
            // between, a jump past the whole window.
            let due = incoming.keys().chain(outgoing.keys()).min().copied();
            let target = if r % 5 == 0 {
                now + window + r / 8 % window
            } else {
                now + 1 + r / 8 % 3
            };
            let target = due.map_or(target, |d| target.min(d));
            if target >= now + window {
                jumps += 1;
            }
            now = target;
            t.advance_to(Cycle::new(now));
        }
        assert!(jumps > 50, "the walk must jump the window");
        assert!(bypasses > 100, "the walk must bypass");
    }

    #[test]
    fn departure_reports_the_vacated_buffer() {
        let mut t = table();
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(1), Cycle::new(4), Port::East, Cycle::ZERO);
        t.advance_to(Cycle::new(1));
        let ArrivalOutcome::Scheduled(_, allocated) = t.on_data_arrival(flit(0), Cycle::new(1))
        else {
            panic!("arrival must be scheduled");
        };
        t.advance_to(Cycle::new(4));
        let (_, _, freed) = t.take_departure(Cycle::new(4)).unwrap();
        assert_eq!(freed, allocated);
    }
}

#[cfg(test)]
mod bypass_tests {
    use super::*;
    use noc_topology::NodeId;
    use noc_traffic::PacketId;

    fn flit(seq: u32) -> DataFlit {
        DataFlit {
            packet: PacketId::new(7),
            seq,
            length: 2,
            dest: NodeId::new(1),
            created_at: Cycle::ZERO,
            crc_ok: true,
        }
    }

    #[test]
    fn same_cycle_reservation_bypasses_the_pool() {
        let mut t = InputReservationTable::new(32, 6, 4);
        t.advance_to(Cycle::ZERO);
        // Reservation made ahead of time with t_d == t_a.
        t.apply_reservation(Cycle::new(5), Cycle::new(5), Port::East, Cycle::ZERO);
        assert!(t.departure_booked(Cycle::new(5)));
        // The data path must not try to read the pool at cycle 5.
        t.advance_to(Cycle::new(5));
        assert_eq!(t.take_departure(Cycle::new(5)), None);
        // The arrival consumes both rows and never touches a buffer.
        let outcome = t.on_data_arrival(flit(0), Cycle::new(5));
        assert_eq!(
            outcome,
            ArrivalOutcome::Bypass {
                out_port: Port::East
            }
        );
        assert_eq!(t.occupied(), 0);
        assert!(!t.departure_booked(Cycle::new(5)));
        // The table is clean: advancing past cycle 5 does not panic.
        t.advance_to(Cycle::new(10));
    }

    #[test]
    fn bypass_and_buffered_flits_coexist() {
        let mut t = InputReservationTable::new(32, 6, 4);
        t.advance_to(Cycle::ZERO);
        // Flit A: buffered stay [3, 7); flit B: bypass at 5.
        t.apply_reservation(Cycle::new(3), Cycle::new(7), Port::North, Cycle::ZERO);
        t.apply_reservation(Cycle::new(5), Cycle::new(5), Port::East, Cycle::ZERO);
        t.advance_to(Cycle::new(3));
        assert!(matches!(
            t.on_data_arrival(flit(0), Cycle::new(3)),
            ArrivalOutcome::Scheduled(..)
        ));
        assert_eq!(t.occupied(), 1);
        t.advance_to(Cycle::new(5));
        assert!(matches!(
            t.on_data_arrival(flit(1), Cycle::new(5)),
            ArrivalOutcome::Bypass { .. }
        ));
        assert_eq!(t.occupied(), 1, "bypass leaves the buffered flit alone");
        t.advance_to(Cycle::new(7));
        let (f, port, _) = t.take_departure(Cycle::new(7)).unwrap();
        assert_eq!(f.seq, 0);
        assert_eq!(port, Port::North);
        assert_eq!(t.occupied(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot precede arrival")]
    fn departure_before_arrival_panics() {
        let mut t = InputReservationTable::new(32, 6, 4);
        t.advance_to(Cycle::ZERO);
        t.apply_reservation(Cycle::new(6), Cycle::new(5), Port::East, Cycle::ZERO);
    }
}
