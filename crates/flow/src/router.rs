//! The interface between routers and the network fabric.
//!
//! `noc-network` owns the links and drives every router through the same
//! three-phase cycle:
//!
//! 1. **receive** — all link arrivals for cycle `t` are delivered;
//! 2. **inject** — pending source packets are offered to the router;
//! 3. **step** — the router advances one cycle, emitting link sends and
//!    ejected flits through [`StepOutputs`].
//!
//! Everything a router can put on a wire is a [`LinkEvent`]; which wire it
//! travels on (data, control or credit, each with its own delay and
//! bandwidth) is decided by the event's class.

use crate::{ControlFlit, DataFlit, VcTag};
use noc_engine::Cycle;
use noc_topology::{NodeId, Port};

/// Anything that can travel between two adjacent routers.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkEvent {
    /// A bare data flit on the FR data network.
    Data(DataFlit),
    /// A data flit tagged with VC id and type on the VC network.
    VcData(VcTag, DataFlit),
    /// A per-VC credit of the VC network (one buffer slot freed).
    VcCredit {
        /// Virtual channel whose downstream buffer was freed.
        vc: u8,
    },
    /// A control flit on the FR control network.
    Control(ControlFlit),
    /// A per-VC credit of the FR *control* network.
    ControlCredit {
        /// Control virtual channel whose downstream buffer was freed.
        vc: u8,
    },
    /// An advance credit of the FR *data* network: the downstream buffer
    /// will be free from `frees_at` onwards (the scheduled departure time
    /// of the flit occupying it).
    FrCredit {
        /// Cycle from which the buffer counts as free again.
        frees_at: Cycle,
    },
}

/// Which physical wire class an event travels on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireClass {
    /// Wide data wires.
    Data,
    /// Narrow, fast control wires.
    Control,
    /// Credit wires.
    Credit,
}

impl LinkEvent {
    /// The wire class this event travels on.
    pub fn wire_class(&self) -> WireClass {
        match self {
            LinkEvent::Data(_) | LinkEvent::VcData(..) => WireClass::Data,
            LinkEvent::Control(_) => WireClass::Control,
            LinkEvent::VcCredit { .. }
            | LinkEvent::ControlCredit { .. }
            | LinkEvent::FrCredit { .. } => WireClass::Credit,
        }
    }
}

/// A flit delivered to its destination's network interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ejection {
    /// The ejected flit.
    pub flit: DataFlit,
    /// Cycle at which the flit left the network.
    pub at: Cycle,
}

/// Collector for everything a router produces in one cycle.
#[derive(Clone, Debug, Default)]
pub struct StepOutputs {
    /// Events to place on outgoing links, with the port they leave by.
    pub sends: Vec<(Port, LinkEvent)>,
    /// Flits delivered to the local network interface this cycle.
    pub ejections: Vec<Ejection>,
}

impl StepOutputs {
    /// Creates an empty collector.
    pub fn new() -> Self {
        StepOutputs::default()
    }

    /// Queues an event for transmission out of `port`.
    pub fn send(&mut self, port: Port, event: LinkEvent) {
        self.sends.push((port, event));
    }

    /// Records a flit ejection.
    pub fn eject(&mut self, flit: DataFlit, at: Cycle) {
        self.ejections.push(Ejection { flit, at });
    }

    /// Clears both queues, keeping allocations.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.ejections.clear();
    }
}

/// Event counts a router can report to the metrics layer.
///
/// One flat struct shared by every flow-control discipline keeps the
/// `Router` trait object-safe-ish and the network's collection loop free of
/// downcasts; fields that do not apply to a discipline simply stay zero and
/// are omitted from exports. All fields are cumulative since construction
/// except `bookings_in_flight`, which is an instantaneous gauge sampled at
/// collection time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Flits that could not traverse the switch for lack of downstream
    /// credit (virtual-channel disciplines).
    pub credit_stalls: u64,
    /// Packets that requested an output VC in a cycle where every candidate
    /// VC was already held (virtual-channel disciplines).
    pub vc_alloc_conflicts: u64,
    /// Losing requests in switch output arbitration: contenders that had a
    /// flit ready but were not picked this cycle and must retry.
    pub switch_arb_retries: u64,
    /// Control flits whose reservation schedule was fully booked
    /// (flit-reservation: scheduling attempts that failed and stalled).
    pub reservation_misses: u64,
    /// Data flits successfully scheduled into reservation tables
    /// (flit-reservation: table hits).
    pub reservation_hits: u64,
    /// Control flits forwarded onto control links (flit-reservation).
    pub control_flits_sent: u64,
    /// Data flits that departed on their arrival cycle without being
    /// buffered — the paper's zero-turnaround signature (flit-reservation).
    pub zero_turnaround_departures: u64,
    /// Data flits that arrived without a booked departure and had to park
    /// in the reservation table (flit-reservation).
    pub parked_arrivals: u64,
    /// Data flits forwarded onto data links (any discipline).
    pub data_flits_sent: u64,
    /// Reservations currently booked but not yet departed, summed over all
    /// input tables; an instantaneous gauge (flit-reservation).
    pub bookings_in_flight: u64,
    /// Route computations that detoured around a permanently dead output
    /// link (any discipline; zero while no link has been masked).
    pub masked_routes: u64,
}

impl RouterCounters {
    /// Every counter by name, in export order: the one list of the
    /// fields, which [`RouterCounters::absorb`],
    /// [`RouterCounters::delta`] and the network's metric exports walk.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, value)| (name, *value))
    }

    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 11] {
        [
            ("credit_stalls", &mut self.credit_stalls),
            ("vc_alloc_conflicts", &mut self.vc_alloc_conflicts),
            ("switch_arb_retries", &mut self.switch_arb_retries),
            ("reservation_hits", &mut self.reservation_hits),
            ("reservation_misses", &mut self.reservation_misses),
            ("control_flits_sent", &mut self.control_flits_sent),
            (
                "zero_turnaround_departures",
                &mut self.zero_turnaround_departures,
            ),
            ("parked_arrivals", &mut self.parked_arrivals),
            ("data_flits_sent", &mut self.data_flits_sent),
            ("bookings_in_flight", &mut self.bookings_in_flight),
            ("masked_routes", &mut self.masked_routes),
        ]
    }

    /// Adds every cumulative field of `other` into `self` (including the
    /// `bookings_in_flight` gauge, which sums into a network-wide total).
    pub fn absorb(&mut self, other: &RouterCounters) {
        for ((_, value), (_, more)) in self.fields_mut().into_iter().zip(other.fields()) {
            *value += more;
        }
    }

    /// Per-window delta against an earlier snapshot of the same counters.
    /// Every monotonic field subtracts; `bookings_in_flight` is an
    /// instantaneous gauge, so the current value passes through unchanged.
    pub fn delta(&self, prev: &RouterCounters) -> RouterCounters {
        let mut delta = *self;
        for ((name, value), (_, before)) in delta.fields_mut().into_iter().zip(prev.fields()) {
            if name != "bookings_in_flight" {
                *value -= before;
            }
        }
        delta
    }
}

/// A flow-control router that can be wired into a `Network`.
pub trait Router {
    /// The node this router serves.
    fn node(&self) -> NodeId;

    /// Delivers one event arriving on `port` at the start of cycle `now`.
    fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle);

    /// Offers a packet from the node's source queue. Returns `true` if the
    /// router accepted it (took ownership); `false` leaves it queued and
    /// the network retries next cycle.
    fn try_inject(&mut self, packet: noc_traffic::Packet, now: Cycle) -> bool;

    /// Advances the router by one cycle, appending link sends and
    /// ejections to `out`.
    fn step(&mut self, now: Cycle, out: &mut StepOutputs);

    /// Data buffers currently occupied at input `port` (for the paper's
    /// Section 4.2 occupancy probe).
    fn occupied_data_buffers(&self, port: Port) -> usize;

    /// Data buffer capacity at input `port`.
    fn data_buffer_capacity(&self, port: Port) -> usize;

    /// Flits currently queued anywhere inside the router (including its
    /// network-interface queues); used by warm-up detection.
    fn queued_flits(&self) -> usize;

    /// `true` when the router is quiescent: no buffered flits, no pending
    /// reservations anywhere in the horizon window, no queued control
    /// state. The network uses this to skip stepping the router entirely.
    ///
    /// # Contract
    ///
    /// If `is_idle()` returns `true`, then [`Router::step`] — called with
    /// any `now` and no intervening [`Router::receive`] or
    /// [`Router::try_inject`] — must be a pure no-op: it emits nothing
    /// into its [`StepOutputs`], emits no trace events, draws nothing
    /// from any internal RNG, and leaves the router in a state
    /// observationally identical to not having been stepped at all
    /// (sliding windows may advance, but only in ways that make a jumped
    /// advance indistinguishable from repeated single-cycle advances).
    /// Skipping idle routers must therefore be bit-exactly trace-neutral.
    ///
    /// The default is conservatively `false`, which disables idle
    /// skipping for routers that have not audited their `step` path.
    fn is_idle(&self) -> bool {
        false
    }

    /// Writes this router's event counts into `out` for the metrics layer.
    ///
    /// Implementations overwrite the fields they track and leave the rest
    /// untouched. The default reports nothing, so routers without
    /// instrumentation keep working unchanged. Collection must not mutate
    /// simulation state: it is only ever called from metrics flushes, never
    /// from the cycle loop.
    fn collect_counters(&self, out: &mut RouterCounters) {
        let _ = out;
    }

    /// Emits one stall-provenance trace event for every flit that was
    /// eligible to make progress this cycle but did not, classified by
    /// what blocked it (VC allocation, credit, switch arbitration, or —
    /// for FR control flits — the control plane).
    ///
    /// Called by the network at the end of every cycle, after
    /// `step`/`apply_outputs` and before the clock advances, identically
    /// in all stepping modes. Implementations must be read-only over
    /// simulation state (no RNG draws, no mutation beyond the trace sink)
    /// and must early-return when their sink is disabled so the default
    /// `NullSink` configuration compiles the scan away. A quiescent
    /// router emits nothing, preserving idle-skip trace neutrality.
    ///
    /// The default is a no-op for routers without stall instrumentation.
    fn emit_stall_provenance(&mut self, now: Cycle) {
        let _ = now;
    }

    /// Informs the router that its outgoing link on `port` has failed
    /// permanently. From this call onwards the router must stop routing
    /// *new* traffic through `port` (typically by masking it out of the
    /// routing function); traffic already committed to the link — booked
    /// reservations, flits mid-switch — is still allowed to drain, which
    /// models a link taken out of service rather than severed mid-flight.
    ///
    /// The default ignores the notification, which is correct for test
    /// routers that never route.
    fn on_link_dead(&mut self, port: Port) {
        let _ = port;
    }

    /// Reservations currently booked but not yet departed (the
    /// `bookings_in_flight` gauge of [`RouterCounters`]), exposed
    /// directly so the network can track its high-water mark every
    /// cycle without collecting the full counter struct. Disciplines
    /// without reservation state report zero.
    fn bookings_in_flight(&self) -> u64 {
        0
    }

    /// Dumps the router's complete deterministic state for post-mortem
    /// inspection (see [`noc_metrics::snapshot`] for the contract). The
    /// default reports `null`, which keeps test routers working; both
    /// shipped router families override it.
    fn state_snapshot(&self) -> noc_metrics::Json {
        noc_metrics::Json::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::PacketId;

    fn flit() -> DataFlit {
        DataFlit {
            packet: PacketId::new(0),
            seq: 0,
            length: 1,
            dest: NodeId::new(0),
            created_at: Cycle::ZERO,
            crc_ok: true,
        }
    }

    #[test]
    fn wire_classes() {
        assert_eq!(LinkEvent::Data(flit()).wire_class(), WireClass::Data);
        assert_eq!(
            LinkEvent::VcData(
                VcTag {
                    vc: 0,
                    ty: crate::FlitType::HeadTail
                },
                flit()
            )
            .wire_class(),
            WireClass::Data
        );
        assert_eq!(
            LinkEvent::VcCredit { vc: 1 }.wire_class(),
            WireClass::Credit
        );
        assert_eq!(
            LinkEvent::FrCredit {
                frees_at: Cycle::ZERO
            }
            .wire_class(),
            WireClass::Credit
        );
        assert_eq!(
            LinkEvent::ControlCredit { vc: 0 }.wire_class(),
            WireClass::Credit
        );
    }

    #[test]
    fn step_outputs_collects_and_clears() {
        let mut out = StepOutputs::new();
        out.send(Port::East, LinkEvent::VcCredit { vc: 0 });
        out.eject(flit(), Cycle::new(9));
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.ejections.len(), 1);
        assert_eq!(out.ejections[0].at, Cycle::new(9));
        out.clear();
        assert!(out.sends.is_empty());
        assert!(out.ejections.is_empty());
    }
}
