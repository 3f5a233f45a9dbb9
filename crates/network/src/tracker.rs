//! End-to-end delivery tracking and latency accounting.
//!
//! Latency "spans the instant when the first flit of the packet is
//! created, to the time when its last flit is ejected at the destination
//! node, including source queuing time and assuming immediate ejection"
//! (paper Section 4). The tracker also cross-checks conservation: every
//! flit is delivered exactly once, to the right node.

use noc_engine::stats::{Histogram, RunningStats};
use noc_engine::Cycle;
use noc_metrics::{Json, JsonSink};
use noc_topology::NodeId;
use noc_traffic::{Packet, PacketId};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A delivery-accounting error the caller can recover from.
///
/// Under fault injection, retransmission legitimately produces duplicate
/// copies of already-delivered flits; the tracker reports them as typed
/// errors so the network can discard the copy (and trace it) instead of
/// double-counting latency. Without faults a duplicate is a conservation
/// bug and the network escalates the error to a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryError {
    /// A flit copy arrived for a `(packet, seq)` that was already
    /// accepted — either the packet is still in flight and the bitmap
    /// has the seq marked, or the whole packet already completed.
    DuplicateDelivery {
        /// The packet the duplicate copy belongs to.
        packet: PacketId,
        /// Sequence number of the duplicate flit.
        seq: u32,
    },
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryError::DuplicateDelivery { packet, seq } => {
                write!(f, "duplicate delivery of flit {seq} of {packet}")
            }
        }
    }
}

/// The longest packet whose duplicate flits the tracker tells apart:
/// one bit of `Inflight::seen` per flit.
pub(crate) const EXACT_DUPLICATE_FLITS: u32 = u64::BITS;

/// In-flight bookkeeping for one packet.
#[derive(Clone, Debug)]
struct Inflight {
    dest: NodeId,
    created_at: Cycle,
    length: u32,
    seen: u64,
    seen_count: u32,
    measured: bool,
}

/// One packet id's slot in the tracker's window.
#[derive(Clone, Debug)]
enum Slot {
    /// An id the window spans that was never registered.
    Unregistered,
    /// A registered packet whose last flit has not ejected yet.
    InFlight(Inflight),
    /// A packet whose last flit already ejected, kept so a late
    /// duplicate copy is distinguishable from an unknown packet.
    Completed,
}

/// Tracks every injected packet until its last flit ejects.
///
/// Packet ids from `noc_traffic::TrafficGenerator` are dense from 0 and
/// registered in order, so the tracker keeps a window of slots indexed
/// by `id - base` and pops completed slots off its front: it spans the
/// oldest undelivered packet to the newest registered one. Every id
/// below the window was registered and completed, except the ones in
/// `skipped`, which the window passed without their registration.
///
/// # Examples
///
/// ```
/// use noc_engine::Cycle;
/// use noc_network::DeliveryTracker;
/// use noc_topology::NodeId;
/// use noc_traffic::{Packet, PacketId};
///
/// let mut tracker = DeliveryTracker::new(200);
/// tracker.on_inject(&Packet {
///     id: PacketId::new(0), src: NodeId::new(1), dest: NodeId::new(2),
///     length_flits: 1, created_at: Cycle::ZERO,
/// }, true);
/// tracker.on_eject(PacketId::new(0), 0, NodeId::new(2), Cycle::new(27)).unwrap();
/// assert_eq!(tracker.measured_delivered(), 1);
/// assert_eq!(tracker.latency().mean(), 27.0);
/// ```
#[derive(Clone, Debug)]
pub struct DeliveryTracker {
    /// Id of `window[0]`.
    base: u64,
    /// Slots for ids `base..base + window.len()`.
    window: VecDeque<Slot>,
    /// Ids below `base` that were never registered.
    skipped: BTreeSet<u64>,
    /// `InFlight` slots in the window.
    in_flight: usize,
    latency: RunningStats,
    latency_hist: Histogram,
    measured_delivered: u64,
    measured_outstanding: u64,
    delivered_flits: u64,
    delivered_packets: u64,
}

impl DeliveryTracker {
    /// Creates a tracker; `hist_max` caps the exact latency histogram.
    pub fn new(hist_max: usize) -> Self {
        DeliveryTracker {
            base: 0,
            window: VecDeque::new(),
            skipped: BTreeSet::new(),
            in_flight: 0,
            latency: RunningStats::new(),
            latency_hist: Histogram::new(hist_max),
            measured_delivered: 0,
            measured_outstanding: 0,
            delivered_flits: 0,
            delivered_packets: 0,
        }
    }

    /// Registers an injected packet; `measured` marks it as part of the
    /// sample whose latency is reported.
    ///
    /// # Panics
    ///
    /// Panics on duplicate packet ids.
    pub fn on_inject(&mut self, packet: &Packet, measured: bool) {
        let id = packet.id.raw();
        if id < self.base {
            // Out-of-order registration below the window: only an id the
            // window skipped is new. Grow the window back down to it.
            assert!(
                self.skipped.contains(&id),
                "duplicate packet id {}",
                packet.id
            );
            while self.base > id {
                self.base -= 1;
                let slot = if self.skipped.remove(&self.base) {
                    Slot::Unregistered
                } else {
                    Slot::Completed
                };
                self.window.push_front(slot);
            }
        }
        let index = (id - self.base) as usize;
        if index >= self.window.len() {
            self.window.resize(index + 1, Slot::Unregistered);
        }
        let slot = &mut self.window[index];
        assert!(
            matches!(slot, Slot::Unregistered),
            "duplicate packet id {}",
            packet.id
        );
        *slot = Slot::InFlight(Inflight {
            dest: packet.dest,
            created_at: packet.created_at,
            length: packet.length_flits,
            seen: 0,
            seen_count: 0,
            measured,
        });
        self.in_flight += 1;
        if measured {
            self.measured_outstanding += 1;
        }
    }

    /// Records the ejection of flit `seq` of `packet` at node `at`.
    ///
    /// Returns `Ok(Some(latency))` when this was the packet's last flit,
    /// so the caller can emit a delivery event without re-deriving it,
    /// and `Ok(None)` for earlier flits. A copy of an already-accepted
    /// flit — legitimate under fault-injected retransmission, a bug
    /// otherwise — returns [`DeliveryError::DuplicateDelivery`] and
    /// changes no counter, so latency is never double-counted. Duplicate
    /// detection is exact for packets up to 64 flits (the bitmap width);
    /// `RunSpec::validate` refuses fault plans with longer packets.
    ///
    /// # Panics
    ///
    /// Panics on genuinely unknown packets, wrong destinations and
    /// out-of-range flits — conservation violations no fault model of
    /// this stack can legitimately produce.
    pub fn on_eject(
        &mut self,
        packet: PacketId,
        seq: u32,
        at: NodeId,
        now: Cycle,
    ) -> Result<Option<u64>, DeliveryError> {
        let id = packet.raw();
        let index = match id.checked_sub(self.base) {
            Some(index) => index as usize,
            None if self.skipped.contains(&id) => panic!("ejected unknown packet {packet}"),
            None => return Err(DeliveryError::DuplicateDelivery { packet, seq }),
        };
        let entry = match self.window.get_mut(index) {
            Some(Slot::InFlight(entry)) => entry,
            Some(Slot::Completed) => return Err(DeliveryError::DuplicateDelivery { packet, seq }),
            Some(Slot::Unregistered) | None => panic!("ejected unknown packet {packet}"),
        };
        assert_eq!(entry.dest, at, "packet {packet} ejected at wrong node");
        assert!(seq < entry.length, "flit seq out of range for {packet}");
        if entry.length <= EXACT_DUPLICATE_FLITS {
            let bit = 1u64 << seq;
            if entry.seen & bit != 0 {
                return Err(DeliveryError::DuplicateDelivery { packet, seq });
            }
            entry.seen |= bit;
        }
        entry.seen_count += 1;
        self.delivered_flits += 1;
        if entry.seen_count == entry.length {
            let latency = now - entry.created_at;
            if entry.measured {
                self.latency.record(latency as f64);
                self.latency_hist.record(latency);
                self.measured_delivered += 1;
                self.measured_outstanding -= 1;
            }
            self.delivered_packets += 1;
            self.window[index] = Slot::Completed;
            self.in_flight -= 1;
            self.pop_retired();
            Ok(Some(latency))
        } else {
            Ok(None)
        }
    }

    /// Pops completed slots off the window's front, and skipped ones,
    /// whose ids move to `skipped`.
    fn pop_retired(&mut self) {
        while let Some(front) = self.window.front() {
            match front {
                Slot::InFlight(_) => break,
                Slot::Unregistered => {
                    self.skipped.insert(self.base);
                }
                Slot::Completed => {}
            }
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Latency statistics over delivered measured packets.
    pub fn latency(&self) -> &RunningStats {
        &self.latency
    }

    /// Latency histogram over delivered measured packets.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Measured packets fully delivered.
    pub fn measured_delivered(&self) -> u64 {
        self.measured_delivered
    }

    /// Measured packets still in flight (or queued).
    pub fn measured_outstanding(&self) -> u64 {
        self.measured_outstanding
    }

    /// All flits delivered so far (measured or not).
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// All packets fully delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets injected but not yet fully delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Streams the tracker's canonical dump: in-flight packets by id
    /// (window order), completed count and the delivery/latency
    /// aggregates.
    pub(crate) fn write_state(&self, out: &mut impl JsonSink) {
        out.begin_object();
        out.key("in_flight");
        out.begin_array();
        let in_flight = (self.base..)
            .zip(&self.window)
            .filter_map(|(id, slot)| match slot {
                Slot::InFlight(e) => Some((id, e)),
                _ => None,
            });
        for (id, e) in in_flight {
            out.begin_object();
            out.field("packet", Json::Num(id as f64));
            out.field("dest", Json::Num(e.dest.raw() as f64));
            out.field("created_at", Json::Num(e.created_at.raw() as f64));
            out.field("length", Json::Num(e.length as f64));
            out.field("seen_count", Json::Num(e.seen_count as f64));
            out.key("seen_bits");
            out.str_fmt(format_args!("{:016x}", e.seen));
            out.field("measured", Json::Bool(e.measured));
            out.end();
        }
        out.end();
        for (key, value) in [
            ("completed", self.delivered_packets),
            ("delivered_flits", self.delivered_flits),
            ("delivered_packets", self.delivered_packets),
            ("measured_delivered", self.measured_delivered),
            ("measured_outstanding", self.measured_outstanding),
            ("latency_count", self.latency.count()),
        ] {
            out.field(key, Json::Num(value as f64));
        }
        out.field("latency_mean", Json::Num(self.latency.mean()));
        out.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64, len: u32, created: u64) -> Packet {
        Packet {
            id: PacketId::new(id),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            length_flits: len,
            created_at: Cycle::new(created),
        }
    }

    #[test]
    fn tracks_multi_flit_delivery() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 3, 10), true);
        t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(30))
            .unwrap();
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(31))
            .unwrap();
        assert_eq!(t.measured_delivered(), 0);
        assert_eq!(t.in_flight(), 1);
        t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(35))
            .unwrap();
        assert_eq!(t.measured_delivered(), 1);
        assert_eq!(t.latency().mean(), 25.0);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.delivered_flits(), 3);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    fn unmeasured_packets_do_not_affect_latency() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), false);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(99))
            .unwrap();
        assert_eq!(t.latency().count(), 0);
        assert_eq!(t.measured_delivered(), 0);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    fn outstanding_counts() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        t.on_inject(&packet(2, 1, 0), true);
        assert_eq!(t.measured_outstanding(), 2);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20))
            .unwrap();
        assert_eq!(t.measured_outstanding(), 1);
    }

    #[test]
    fn single_flit_packet_has_pure_queue_latency() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 10), true);
        let done = t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10));
        // Created and ejected in the same cycle: latency 0 is legal.
        assert_eq!(done, Ok(Some(0)));
        assert_eq!(t.latency().mean(), 0.0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn on_eject_reports_completion_exactly_once() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 3, 10), true);
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20)),
            Ok(None)
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(21)),
            Ok(None)
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(25)),
            Ok(Some(15))
        );
    }

    #[test]
    fn long_packets_complete_via_the_count_path() {
        // Beyond 64 flits the duplicate bitmap no longer fits in a u64;
        // completion falls back to counting (by design, duplicates of
        // such packets are only caught by the flit count).
        let len = 70;
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, len, 0), true);
        for seq in 0..len {
            let done = t.on_eject(PacketId::new(1), seq, NodeId::new(5), Cycle::new(100));
            assert_eq!(done.unwrap().is_some(), seq == len - 1);
        }
        assert_eq!(t.delivered_flits(), len as u64);
        assert_eq!(t.delivered_packets(), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn eject_after_completion_is_a_duplicate_delivery_error() {
        // Once the last flit lands the packet stops being in flight; its
        // completed slot still recognises a late retransmitted copy as a
        // duplicate rather than an unknown packet.
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), false);
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(9)),
            Ok(Some(9))
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(1),
                seq: 0
            })
        );
        // Nothing was double-counted.
        assert_eq!(t.delivered_flits(), 1);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seq_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 2, 0), true);
        let _ = t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(20));
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn wrong_destination_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        let _ = t.on_eject(PacketId::new(1), 0, NodeId::new(4), Cycle::new(20));
    }

    #[test]
    fn duplicate_flit_in_flight_is_a_duplicate_delivery_error() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 2, 0), true);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20))
            .unwrap();
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(21)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(1),
                seq: 0
            })
        );
        // The rejected copy changed nothing: the packet still completes
        // normally with its real latency.
        assert_eq!(t.delivered_flits(), 1);
        assert_eq!(
            t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(30)),
            Ok(Some(30))
        );
        assert_eq!(t.latency().mean(), 30.0);
    }

    #[test]
    #[should_panic(expected = "unknown packet")]
    fn unknown_packet_panics() {
        let mut t = DeliveryTracker::new(100);
        let _ = t.on_eject(PacketId::new(7), 0, NodeId::new(5), Cycle::new(20));
    }

    /// Registers packets `0..n` of one flit each and delivers them in
    /// `order`.
    fn deliver_in_order(n: u64, order: &[u64]) -> DeliveryTracker {
        let mut t = DeliveryTracker::new(100);
        for id in 0..n {
            t.on_inject(&packet(id, 1, 0), id % 2 == 0);
        }
        for &id in order {
            assert_eq!(
                t.on_eject(PacketId::new(id), 0, NodeId::new(5), Cycle::new(9)),
                Ok(Some(9))
            );
        }
        t
    }

    #[test]
    fn window_empties_once_every_packet_completes() {
        let mut t = deliver_in_order(6, &[3, 1, 0, 5, 2]);
        assert_eq!((t.base, t.window.len(), t.in_flight()), (4, 2, 1));
        t.on_eject(PacketId::new(4), 0, NodeId::new(5), Cycle::new(9))
            .unwrap();
        assert_eq!((t.base, t.window.len(), t.in_flight()), (6, 0, 0));
        assert_eq!(t.delivered_packets(), 6);
        assert_eq!(t.measured_outstanding(), 0);
    }

    #[test]
    fn completed_id_below_the_window_is_a_duplicate_delivery_error() {
        let mut t = deliver_in_order(4, &[0, 1, 2]);
        assert_eq!(t.base, 3);
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(1),
                seq: 0
            })
        );
        assert_eq!(t.delivered_flits(), 3);
    }

    #[test]
    #[should_panic(expected = "ejected unknown packet p1")]
    fn unknown_id_below_the_window_panics() {
        // Ids 1 and 2 are skipped; completing 0 and 3 moves the window
        // past them.
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(0, 1, 0), true);
        t.on_inject(&packet(3, 1, 0), true);
        for id in [3, 0] {
            t.on_eject(PacketId::new(id), 0, NodeId::new(5), Cycle::new(9))
                .unwrap();
        }
        assert_eq!((t.base, t.window.len()), (4, 0));
        let _ = t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10));
    }

    #[test]
    fn a_skipped_id_registers_below_the_window() {
        let mut t = deliver_in_order(0, &[]);
        t.on_inject(&packet(2, 1, 0), true);
        t.on_eject(PacketId::new(2), 0, NodeId::new(5), Cycle::new(9))
            .unwrap();
        assert_eq!(t.base, 3);
        t.on_inject(&packet(1, 1, 4), true);
        assert_eq!(t.in_flight(), 1);
        // The regrown window still knows 2 completed and 0 was skipped.
        assert_eq!(
            t.on_eject(PacketId::new(2), 0, NodeId::new(5), Cycle::new(10)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(2),
                seq: 0
            })
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10)),
            Ok(Some(6))
        );
        assert_eq!((t.base, t.window.len(), t.in_flight()), (3, 0, 0));
        assert!(t.skipped.contains(&0));
    }

    #[test]
    #[should_panic(expected = "duplicate packet id p1")]
    fn re_registering_a_completed_id_below_the_window_panics() {
        let mut t = deliver_in_order(3, &[0, 1]);
        t.on_inject(&packet(1, 1, 0), true);
    }

    #[test]
    #[should_panic(expected = "duplicate packet id")]
    fn duplicate_inject_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        t.on_inject(&packet(1, 1, 0), true);
    }
}
