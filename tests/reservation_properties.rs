//! Property-based tests of the reservation tables against independent
//! reference models.
//!
//! The output reservation table is the heart of flit-reservation flow
//! control: if its window arithmetic drifts (off-by-one slots, wrong
//! steady-state inheritance, credit mis-application), the router either
//! deadlocks or silently overbooks buffers. We drive it with arbitrary
//! operation sequences and compare every observable against a brute-force
//! interval model. Generation runs on the repo's own
//! [`frfc::engine::propcheck`] harness, so the suite needs no external
//! crates and replays deterministically.

use frfc::engine::propcheck::{check, vec_of, AnyBool};
use frfc::engine::Cycle;
use frfc::fr::{InputReservationTable, OutputReservationTable};
use frfc::topology::{NodeId, Port};
use frfc::traffic::PacketId;

/// Brute-force reference: a list of buffer holds and busy cycles.
#[derive(Default)]
struct RefModel {
    capacity: i64,
    /// (hold_from, Option<frees_at>) — `None` until the credit arrives.
    holds: Vec<(u64, Option<u64>)>,
    busy: Vec<u64>,
}

impl RefModel {
    fn free_at(&self, t: u64) -> i64 {
        let held = self
            .holds
            .iter()
            .filter(|(from, until)| *from <= t && until.map(|u| t < u).unwrap_or(true))
            .count() as i64;
        self.capacity - held
    }
}

/// Random schedule/credit/advance sequences: the table's free counts
/// always match the reference interval model, and `find_departure`
/// never returns a cycle that is busy, out of horizon, or that would
/// overbook a downstream buffer. Capacities span one to four count
/// planes; horizon 62 gives windows of 64 to 68 cycles, which fill a
/// row's first word and end in its second.
#[test]
fn output_table_matches_reference() {
    let strategy = (1usize..15, 0u64..5, AnyBool, vec_of(0u8..10, 1..120));
    check(128, strategy, |(capacity, prop_delay, wide, ops)| {
        let horizon = if wide { 62 } else { 24 };
        let mut table = OutputReservationTable::new(horizon, Some(capacity), prop_delay);
        let mut reference = RefModel {
            capacity: capacity as i64,
            ..Default::default()
        };
        let mut now = Cycle::ZERO;
        table.advance_to(now);
        // Reservations whose credit has not been sent yet.
        let mut uncredited: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                // Advance time 1-3 cycles.
                0..=3 => {
                    now = now + 1 + (op as u64 % 3);
                    table.advance_to(now);
                }
                // Try to schedule a flit arriving "now-ish".
                4..=7 => {
                    let t_a = now.saturating_sub(1);
                    if let Some(t_d) = table.find_departure(t_a, now, |_| true) {
                        assert!(t_d > t_a && t_d > now);
                        assert!(t_d <= now + horizon);
                        assert!(!reference.busy.contains(&t_d.raw()));
                        // A buffer must be free for the entire hold.
                        for t in (t_d.raw() + prop_delay)..(now.raw() + horizon + prop_delay + 2) {
                            assert!(reference.free_at(t) >= 1, "overbooked at {t}");
                        }
                        table.reserve(t_d);
                        reference.busy.push(t_d.raw());
                        reference.holds.push((t_d.raw() + prop_delay, None));
                        uncredited.push(t_d.raw());
                    }
                }
                // Deliver a credit for the oldest uncredited reservation.
                _ => {
                    if !uncredited.is_empty() {
                        let t_d = uncredited.remove(0);
                        // Downstream forwards the flit a few cycles after
                        // it lands; the wire keeps frees_at within the
                        // horizon of the upstream node's current time.
                        let frees_at =
                            (t_d + prop_delay + 1 + (op as u64 % 6)).min(now.raw() + horizon);
                        table.credit(Cycle::new(frees_at), now);
                        let hold = reference
                            .holds
                            .iter_mut()
                            .find(|(from, until)| *from == t_d + prop_delay && until.is_none())
                            .expect("uncredited hold exists");
                        hold.1 = Some(frees_at.max(now.raw()));
                    }
                }
            }
            // Compare free counts across the whole window and the first
            // cycle past it.
            for t in now.raw()..=now.raw() + horizon + prop_delay + 2 {
                assert_eq!(
                    table.free_at(Cycle::new(t)),
                    reference.free_at(t),
                    "free count diverged at cycle {t} (now {now})"
                );
            }
        }
    });
}

/// Advances to `target` inclusive, draining (and checking) any departure
/// that falls due along the way.
fn advance(
    table: &mut InputReservationTable,
    now: &mut Cycle,
    target: Cycle,
    expected: &mut Vec<(u64, u32)>,
) {
    while *now < target {
        *now = now.next();
        table.advance_to(*now);
        if let Some((f, port, _buffer)) = table.take_departure(*now) {
            assert_eq!(port, Port::East);
            let pos = expected.iter().position(|&(d, _)| d == now.raw());
            let pos = pos.unwrap_or_else(|| panic!("unexpected departure at {now}"));
            let (_, seq) = expected.remove(pos);
            assert_eq!(f.seq, seq);
        }
    }
}

/// The input reservation table delivers exactly the reserved flits at
/// exactly the reserved cycles, regardless of arrival/reservation
/// interleaving (early data flits go through the schedule list).
#[test]
fn input_table_delivers_reservations() {
    let strategy = vec_of((2u64..5, 1u64..8, AnyBool), 1..20);
    check(64, strategy, |flits| {
        let mut table = InputReservationTable::new(64, 32, 4);
        let mut now = Cycle::ZERO;
        table.advance_to(now);
        // (departure cycle, expected seq) of booked flits.
        let mut expected: Vec<(u64, u32)> = Vec::new();

        let mut t_a = Cycle::ZERO;
        let mut last_depart = 0u64;
        for (i, &(gap, extra, reservation_first)) in flits.iter().enumerate() {
            t_a += gap;
            let t_d = (t_a.raw() + extra).max(last_depart + 1);
            last_depart = t_d;
            let flit = frfc::flow::DataFlit {
                packet: PacketId::new(i as u64),
                seq: i as u32,
                length: flits.len() as u32,
                dest: NodeId::new(0),
                created_at: Cycle::ZERO,
                crc_ok: true,
            };
            if reservation_first {
                // Book while the arrival is still in the future...
                advance(&mut table, &mut now, t_a - 1, &mut expected);
                table.apply_reservation(t_a, Cycle::new(t_d), Port::East, now);
                // ...then the flit arrives on time.
                advance(&mut table, &mut now, t_a, &mut expected);
                table.on_data_arrival(flit, now);
            } else {
                // The flit arrives early and parks in the schedule list;
                // the reservation catches up afterwards.
                advance(&mut table, &mut now, t_a, &mut expected);
                table.on_data_arrival(flit, now);
                table.apply_reservation(t_a, Cycle::new(t_d), Port::East, now);
            }
            expected.push((t_d, i as u32));
        }
        // Drain every remaining departure.
        advance(
            &mut table,
            &mut now,
            Cycle::new(last_depart + 1),
            &mut expected,
        );
        assert!(
            expected.is_empty(),
            "undelivered reservations: {expected:?}"
        );
        assert_eq!(table.occupied(), 0);
        assert_eq!(table.parked(), 0);
    });
}
