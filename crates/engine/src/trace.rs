//! Cycle-level event tracing and online invariant checking.
//!
//! Every router and the network harness can emit a stream of
//! cycle-stamped [`TraceEvent`]s describing what the hardware did:
//! injections, reservations, buffer allocations, channel grants, flit
//! transfers and deliveries. The stream is consumed by a [`TraceSink`],
//! chosen statically so that *disabled* tracing compiles away:
//!
//! * [`NullSink`] (the default everywhere) has `ENABLED = false`, so
//!   every emit site folds to nothing — the traced and untraced router
//!   are the same machine code;
//! * [`VecSink`] records everything, for golden/differential tests;
//! * [`RingSink`] keeps the last *N* events, for flight-recorder style
//!   debugging of long runs;
//! * [`InvariantChecker`] replays the stream online and cross-checks the
//!   conservation and reservation-consistency invariants of the
//!   simulated flow control;
//! * [`SharedSink`] lets many routers in one network feed a single sink.
//!
//! Events carry raw integer identifiers (`u16` nodes, `u8` ports, `u64`
//! packet ids) because this crate sits at the bottom of the workspace
//! and cannot name the typed ids of `noc-topology`/`noc-traffic`; the
//! `noc-flow` crate layers a typed emit API on top.
//!
//! # Examples
//!
//! ```
//! use noc_engine::trace::{TraceEvent, TraceKind, TraceSink, VecSink};
//! use noc_engine::Cycle;
//!
//! let mut sink = VecSink::new();
//! sink.record(|| TraceEvent {
//!     cycle: Cycle::new(3),
//!     node: 7,
//!     kind: TraceKind::FlitInjected { packet: 42, seq: 0 },
//! });
//! assert_eq!(sink.events().len(), 1);
//! ```

use crate::Cycle;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// One cycle-stamped event observed at one router (or the network
/// harness acting for that router's node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Simulation time at which the event happened.
    pub cycle: Cycle,
    /// Raw id of the node the event happened at.
    pub node: u16,
    /// What happened.
    pub kind: TraceKind,
}

/// The kind of a [`TraceEvent`], with raw-integer payloads.
///
/// Port numbers are `Port::index()` values (0..5 on the mesh), virtual
/// channels and control lanes are small indices, packet ids are the raw
/// `PacketId` and `seq` is the flit's position within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A packet entered the source queue at its origin node.
    PacketInjected {
        /// Raw packet id.
        packet: u64,
        /// Source node.
        src: u16,
        /// Destination node.
        dest: u16,
        /// Packet length in flits.
        length: u32,
    },
    /// A data flit left the network interface into the router proper.
    FlitInjected {
        /// Raw packet id.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A control flit was sent on an outgoing control wire (FR only).
    ControlSent {
        /// Output port the control flit left on.
        out_port: u8,
        /// Downstream control VC carrying the flit.
        vc: u8,
        /// Packet the control flit reserves for.
        packet: u64,
    },
    /// A control flit suffered a wire error and will be retransmitted.
    ControlRetried {
        /// Output port the control flit was on.
        out_port: u8,
    },
    /// A reservation was written into the input/output tables (FR only):
    /// buffer from `arrival` and channel cycle `departure` on `out_port`.
    ReservationMade {
        /// Packet being reserved for.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
        /// Input port the data flit will arrive on.
        in_port: u8,
        /// Output port the data flit will depart on.
        out_port: u8,
        /// Scheduled arrival cycle.
        arrival: u64,
        /// Scheduled departure cycle.
        departure: u64,
    },
    /// One cycle of an output channel's bandwidth was reserved.
    ChannelGrant {
        /// Output port whose channel was granted.
        out_port: u8,
        /// The granted departure cycle.
        at: u64,
    },
    /// A data flit was written into a buffer.
    BufferAlloc {
        /// Input port owning the buffer pool.
        port: u8,
        /// Buffer slot index within the pool.
        buffer: u16,
        /// Packet occupying the slot.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A buffer slot was released.
    BufferFree {
        /// Input port owning the buffer pool.
        port: u8,
        /// Buffer slot index within the pool.
        buffer: u16,
        /// Packet that occupied the slot.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A data flit departed on a reserved channel cycle (FR only): it
    /// must consume a matching [`TraceKind::ChannelGrant`].
    DataSent {
        /// Output port the flit left on.
        out_port: u8,
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A data flit departed on a virtual channel (VC baseline; no
    /// advance reservation exists to consume).
    VcDataSent {
        /// Output port the flit left on.
        out_port: u8,
        /// Virtual channel carrying the flit.
        vc: u8,
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit entered a per-VC input queue (VC baseline).
    QueueEnq {
        /// Input port of the queue.
        port: u8,
        /// Virtual channel of the queue.
        vc: u8,
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit left a per-VC input queue; must match the queue's head.
    QueueDeq {
        /// Input port of the queue.
        port: u8,
        /// Virtual channel of the queue.
        vc: u8,
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A credit was returned upstream.
    CreditSent {
        /// Port the credit left on (towards the upstream router).
        port: u8,
        /// Credit class: the virtual channel (VC) or 0 (FR).
        class: u8,
    },
    /// A data flit reached its destination and left the network.
    FlitEjected {
        /// Packet the flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// The last flit of a packet was ejected; the packet is complete.
    PacketDelivered {
        /// The completed packet.
        packet: u64,
        /// Head-injection-to-tail-ejection latency in cycles.
        latency: u64,
    },
    /// A head flit spent this cycle waiting for a downstream virtual
    /// channel grant (VC baseline; emitted by the stall-provenance hook).
    VcAllocStall {
        /// Packet the blocked head flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A routed, VC-holding flit spent this cycle blocked on downstream
    /// credit — the buffer-turnaround wait the paper's reservation scheme
    /// eliminates (emitted by the stall-provenance hook).
    CreditStall {
        /// Packet the blocked flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit that held route, VC and credit spent this cycle losing (or
    /// not being nominated for) switch arbitration (emitted by the
    /// stall-provenance hook).
    SwitchStall {
        /// Packet the blocked flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A control flit spent this cycle blocked in a control input queue
    /// (FR only: control-VC conflict, exhausted control credit or a
    /// reservation-table miss; emitted by the stall-provenance hook).
    ControlStall {
        /// Packet the blocked control flit reserves for.
        packet: u64,
    },
    /// A transient link fault corrupted a data flit in transit: its CRC
    /// bit was cleared but the flit keeps travelling and consuming its
    /// reserved resources (fault injection).
    DataCorrupted {
        /// Packet the corrupted flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A transient link fault dropped a control flit; the link-level
    /// repair re-drives it after the repair timeout, re-issuing the
    /// bookings it carries instead of stalling forever (fault injection).
    ControlDropped {
        /// Output port whose control wire dropped the flit.
        out_port: u8,
    },
    /// The destination network interface discarded a CRC-failed data
    /// flit instead of ejecting it, and will NACK the source.
    CorruptDiscarded {
        /// Packet the discarded flit belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// The destination network interface discarded a retransmitted copy
    /// of a flit it had already accepted (exactly-once filtering).
    DuplicateDiscarded {
        /// Packet the discarded copy belongs to.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// The destination network interface issued a NACK towards the
    /// packet's source after discarding a corrupted flit.
    NackIssued {
        /// Packet being NACKed.
        packet: u64,
    },
    /// The destination network interface acknowledged the complete,
    /// exactly-once delivery of a packet; the source retires its
    /// retransmit-buffer entry when the ACK lands.
    AckIssued {
        /// Packet being acknowledged.
        packet: u64,
    },
    /// The source network interface re-injected a packet from its
    /// retransmit buffer (NACK- or timeout-triggered).
    PacketRetransmitted {
        /// Packet being re-sent.
        packet: u64,
        /// Retransmission attempt number (1 for the first re-send).
        attempt: u32,
    },
    /// A retransmit timer fired with the packet still unacknowledged;
    /// the follow-up copy is traced as [`TraceKind::PacketRetransmitted`].
    RetransmitTimeout {
        /// Packet whose timer expired.
        packet: u64,
    },
    /// A permanently failed outgoing link was masked out of this node's
    /// routing function; new traffic detours around it.
    LinkMasked {
        /// Output port of the dead link.
        port: u8,
    },
    /// A pipeline-stage contract was violated inside a router (a grant
    /// without a matching request, two traversals of one output in one
    /// cycle, ...). Emitted by the stage-contract checker the routers
    /// can enable; the invariant checker treats every occurrence as a
    /// violation, so contract breaches fail `assert_clean`.
    StageContractViolation {
        /// Dense code identifying the broken contract (see the
        /// `pipeline::contract` module of `noc-flow`).
        code: u8,
    },
}

/// A consumer of [`TraceEvent`]s.
///
/// The associated `ENABLED` constant is the whole trick: emit sites are
/// written as `sink.record(|| event)`, and when `ENABLED` is `false`
/// (the [`NullSink`] default) the closure is never built, so the
/// compiler deletes the site entirely.
pub trait TraceSink {
    /// Whether emit sites should construct and deliver events at all.
    const ENABLED: bool = true;

    /// Delivers one event. Only called when [`Self::ENABLED`] is true
    /// (via [`TraceSink::record`]); direct calls always deliver.
    fn emit(&mut self, event: TraceEvent);

    /// Builds and delivers an event only if this sink is enabled.
    #[inline(always)]
    fn record(&mut self, event: impl FnOnce() -> TraceEvent) {
        if Self::ENABLED {
            self.emit(event());
        }
    }
}

/// The default sink: tracing disabled, zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// Records every event in order. The workhorse of the determinism and
/// differential tests: two runs are identical iff their `VecSink`
/// contents are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// All events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Discards all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A bounded flight recorder: keeps the most recent `capacity` events
/// and counts how many older ones were dropped.
#[derive(Clone, Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The retained (most recent) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events (at most the capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Feeds every event to two sinks in order: `a` first, then `b`.
///
/// The composition is enabled if either half is, and each half still
/// honours its own `ENABLED` flag — so `TeeSink<VecSink, RingSink>` arms
/// a flight recorder *next to* a full recording without touching the
/// emit sites, which is how the zero-perturbation proof compares a
/// ring-armed run's full stream against the golden fingerprints.
#[derive(Clone, Debug, Default)]
pub struct TeeSink<A, B> {
    /// The first sink; receives each event before `b`.
    pub a: A,
    /// The second sink.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Combines two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn emit(&mut self, event: TraceEvent) {
        if A::ENABLED {
            self.a.emit(event);
        }
        if B::ENABLED {
            self.b.emit(event);
        }
    }
}

/// A cloneable handle to one shared sink, so every router in a network
/// can feed the same [`InvariantChecker`] or [`VecSink`].
///
/// Networks are built and stepped on a single thread (the sweep
/// parallelism is across networks, not within one), so a plain
/// `Rc<RefCell<..>>` suffices.
pub struct SharedSink<S>(Rc<RefCell<S>>);

impl<S> SharedSink<S> {
    /// Wraps `sink` in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// Runs `f` with shared access to the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Unwraps the inner sink.
    ///
    /// # Panics
    ///
    /// Panics if other handles to the same sink are still alive.
    pub fn into_inner(self) -> S {
        Rc::try_unwrap(self.0)
            .map(RefCell::into_inner)
            .unwrap_or_else(|_| panic!("SharedSink still has other live handles"))
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Rc::clone(&self.0))
    }
}

impl<S: fmt::Debug> fmt::Debug for SharedSink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedSink").field(&self.0.borrow()).finish()
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, event: TraceEvent) {
        self.0.borrow_mut().emit(event);
    }
}

/// Cap on the number of violation messages the checker keeps verbatim;
/// further violations are still counted.
const MAX_KEPT_VIOLATIONS: usize = 32;

/// An online auditor of the event stream.
///
/// Replays events as they are emitted and cross-checks the flow-control
/// invariants that both routers must uphold:
///
/// * **conservation** — a buffer slot is allocated at most once until
///   freed, frees match their allocs, and every flit is ejected at most
///   once (and exactly `length` flits per delivered packet);
/// * **reservation consistency** — an output channel cycle is granted
///   at most once, and every FR data-flit departure consumes a grant
///   made for exactly that `(node, port, cycle)` — i.e. no data flit
///   ever uses unreserved bandwidth;
/// * **FIFO order** — VC per-virtual-channel queues pop in push order;
/// * **monotone time** — each node's events are stamped in
///   non-decreasing cycle order.
///
/// Violations are collected (not panicked) so a test can run a whole
/// simulation and then [`InvariantChecker::assert_clean`].
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    events_seen: u64,
    violations: Vec<String>,
    violation_count: u64,
    last_cycle: HashMap<u16, u64>,
    /// `(node, port, buffer)` → `(packet, seq)` currently held.
    occupied: HashMap<(u16, u8, u16), (u64, u32)>,
    /// Outstanding channel grants `(node, out_port, cycle)`.
    grants: HashSet<(u16, u8, u64)>,
    grants_made: u64,
    grants_consumed: u64,
    /// Packet id → declared length in flits.
    packet_length: HashMap<u64, u32>,
    /// Per-packet count of ejected flits.
    ejected_per_packet: HashMap<u64, u32>,
    ejected_flits: HashSet<(u64, u32)>,
    delivered_packets: HashSet<u64>,
    injected_flits: u64,
    /// Flit copies discarded at a destination NI (CRC failure or
    /// duplicate filtering); only nonzero under fault injection.
    discarded_flits: u64,
    /// Shadow of each VC input queue: `(node, port, vc)` → flits.
    fifos: HashMap<(u16, u8, u8), VecDeque<(u64, u32)>>,
}

impl InvariantChecker {
    /// Creates a checker with no history.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Total events audited.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total violations detected (may exceed the kept messages).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// The first few violation messages, verbatim.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True if no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    /// Channel-bandwidth reservations that were made but never used by
    /// a data flit — wasted bandwidth, legal but worth watching.
    pub fn unused_grants(&self) -> u64 {
        self.grants_made - self.grants_consumed
    }

    /// Number of flits ejected so far.
    pub fn ejected_flits(&self) -> u64 {
        self.ejected_flits.len() as u64
    }

    /// Number of flits injected so far.
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Number of flit copies discarded at destination NIs (corrupt or
    /// duplicate); zero unless fault injection is active.
    pub fn discarded_flits(&self) -> u64 {
        self.discarded_flits
    }

    /// Panics with the collected messages if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "{} invariant violation(s) after {} events; first {}:\n{}",
            self.violation_count,
            self.events_seen,
            self.violations.len(),
            self.violations.join("\n")
        );
    }

    /// Panics unless the network is fully drained: every injected flit
    /// ejected, every buffer freed, every VC queue empty. Call only
    /// after a run that is known to deliver all of its traffic.
    pub fn assert_drained(&self) {
        self.assert_clean();
        assert_eq!(
            self.injected_flits,
            self.ejected_flits.len() as u64,
            "flit conservation: {} injected but {} ejected",
            self.injected_flits,
            self.ejected_flits.len()
        );
        assert!(
            self.occupied.is_empty(),
            "{} buffer slot(s) still occupied after drain: {:?}",
            self.occupied.len(),
            self.occupied.iter().take(4).collect::<Vec<_>>()
        );
        let queued: usize = self.fifos.values().map(VecDeque::len).sum();
        assert_eq!(
            queued, 0,
            "{queued} flit(s) still sitting in VC queues after drain"
        );
    }

    /// The fault-tolerant drain check: every injected flit copy was
    /// either ejected exactly once or explicitly discarded (corrupt or
    /// duplicate), every buffer was freed and every VC queue emptied.
    /// With fault injection off this degrades to [`Self::assert_drained`]
    /// because `discarded_flits` stays zero.
    pub fn assert_drained_under_faults(&self) {
        self.assert_clean();
        assert_eq!(
            self.injected_flits,
            self.ejected_flits.len() as u64 + self.discarded_flits,
            "flit conservation under faults: {} copies injected but {} ejected + {} discarded",
            self.injected_flits,
            self.ejected_flits.len(),
            self.discarded_flits
        );
        assert!(
            self.occupied.is_empty(),
            "{} buffer slot(s) still occupied after drain: {:?}",
            self.occupied.len(),
            self.occupied.iter().take(4).collect::<Vec<_>>()
        );
        let queued: usize = self.fifos.values().map(VecDeque::len).sum();
        assert_eq!(
            queued, 0,
            "{queued} flit(s) still sitting in VC queues after drain"
        );
    }

    fn violate(&mut self, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_KEPT_VIOLATIONS {
            self.violations.push(message);
        }
    }
}

impl TraceSink for InvariantChecker {
    fn emit(&mut self, event: TraceEvent) {
        self.events_seen += 1;
        let TraceEvent { cycle, node, kind } = event;
        let now = cycle.raw();

        let last = self.last_cycle.entry(node).or_insert(now);
        if now < *last {
            let prev = *last;
            self.violate(format!(
                "node {node}: time ran backwards ({now} after {prev}) on {kind:?}"
            ));
        } else {
            *last = now;
        }

        match kind {
            TraceKind::PacketInjected { packet, length, .. } => {
                if self.packet_length.insert(packet, length).is_some() {
                    self.violate(format!(
                        "packet {packet} injected twice (node {node}, {cycle})"
                    ));
                }
            }
            TraceKind::FlitInjected { .. } => self.injected_flits += 1,
            TraceKind::ControlSent { .. } | TraceKind::ControlRetried { .. } => {}
            TraceKind::ReservationMade {
                packet,
                seq,
                arrival,
                departure,
                ..
            } => {
                if departure < arrival {
                    self.violate(format!(
                        "node {node}: reservation for {packet}.{seq} departs ({departure}) \
                         before it arrives ({arrival})"
                    ));
                }
                // `arrival < now` is legal: an early data flit parks in
                // the buffer pool before its control flit is processed,
                // and the reservation then records the actual (past)
                // arrival. Departures, however, cannot be in the past.
                if departure < now {
                    self.violate(format!(
                        "node {node}: reservation for {packet}.{seq} departs in the past \
                         ({departure} < {now})"
                    ));
                }
            }
            TraceKind::ChannelGrant { out_port, at } => {
                self.grants_made += 1;
                if at < now {
                    self.violate(format!(
                        "node {node} port {out_port}: channel granted in the past ({at} < {now})"
                    ));
                }
                if !self.grants.insert((node, out_port, at)) {
                    self.violate(format!(
                        "node {node} port {out_port}: channel cycle {at} granted twice"
                    ));
                }
            }
            TraceKind::BufferAlloc {
                port,
                buffer,
                packet,
                seq,
            } => {
                if let Some((p, s)) = self.occupied.insert((node, port, buffer), (packet, seq)) {
                    self.violate(format!(
                        "node {node} port {port} buffer {buffer}: alloc for {packet}.{seq} \
                         but still held by {p}.{s}"
                    ));
                }
            }
            TraceKind::BufferFree {
                port,
                buffer,
                packet,
                seq,
            } => match self.occupied.remove(&(node, port, buffer)) {
                None => self.violate(format!(
                    "node {node} port {port} buffer {buffer}: freed while empty \
                         (claimed {packet}.{seq})"
                )),
                Some((p, s)) if (p, s) != (packet, seq) => self.violate(format!(
                    "node {node} port {port} buffer {buffer}: freed as {packet}.{seq} \
                         but holds {p}.{s}"
                )),
                Some(_) => {}
            },
            TraceKind::DataSent {
                out_port,
                packet,
                seq,
            } => {
                if self.grants.remove(&(node, out_port, now)) {
                    self.grants_consumed += 1;
                } else {
                    self.violate(format!(
                        "node {node} port {out_port}: data flit {packet}.{seq} sent at \
                         {cycle} without a channel reservation"
                    ));
                }
            }
            TraceKind::VcDataSent { .. } => {}
            TraceKind::QueueEnq {
                port,
                vc,
                packet,
                seq,
            } => {
                self.fifos
                    .entry((node, port, vc))
                    .or_default()
                    .push_back((packet, seq));
            }
            TraceKind::QueueDeq {
                port,
                vc,
                packet,
                seq,
            } => match self.fifos.entry((node, port, vc)).or_default().pop_front() {
                None => self.violate(format!(
                    "node {node} port {port} vc {vc}: dequeue of {packet}.{seq} \
                         from an empty queue"
                )),
                Some((p, s)) if (p, s) != (packet, seq) => self.violate(format!(
                    "node {node} port {port} vc {vc}: dequeued {packet}.{seq} but \
                         head of queue is {p}.{s} (FIFO order broken)"
                )),
                Some(_) => {}
            },
            TraceKind::CreditSent { .. } => {}
            TraceKind::FlitEjected { packet, seq } => {
                if !self.ejected_flits.insert((packet, seq)) {
                    self.violate(format!(
                        "flit {packet}.{seq} ejected twice (node {node}, {cycle})"
                    ));
                }
                *self.ejected_per_packet.entry(packet).or_insert(0) += 1;
            }
            TraceKind::PacketDelivered { packet, .. } => {
                if !self.delivered_packets.insert(packet) {
                    self.violate(format!("packet {packet} delivered twice (node {node})"));
                }
                let got = self.ejected_per_packet.get(&packet).copied().unwrap_or(0);
                if let Some(&len) = self.packet_length.get(&packet) {
                    if got != len {
                        self.violate(format!(
                            "packet {packet} delivered after {got} of {len} flits ejected"
                        ));
                    }
                }
            }
            // Stall-provenance markers carry no state the checker tracks;
            // the monotone-time check above already covers them.
            TraceKind::VcAllocStall { .. }
            | TraceKind::CreditStall { .. }
            | TraceKind::SwitchStall { .. }
            | TraceKind::ControlStall { .. } => {}
            TraceKind::CorruptDiscarded { .. } => self.discarded_flits += 1,
            TraceKind::DuplicateDiscarded { packet, seq } => {
                self.discarded_flits += 1;
                // A duplicate discard asserts the destination already
                // accepted this flit; if it never was, the dedup filter
                // just dropped live traffic.
                if !self.ejected_flits.contains(&(packet, seq)) {
                    self.violate(format!(
                        "flit {packet}.{seq} discarded as duplicate but never ejected \
                         (node {node}, {cycle})"
                    ));
                }
            }
            TraceKind::PacketRetransmitted { packet, .. } => {
                if !self.packet_length.contains_key(&packet) {
                    self.violate(format!(
                        "packet {packet} retransmitted but never injected (node {node})"
                    ));
                }
            }
            // Fault-injection and reliability markers with no tracked
            // state; monotone time still applies.
            TraceKind::DataCorrupted { .. }
            | TraceKind::ControlDropped { .. }
            | TraceKind::NackIssued { .. }
            | TraceKind::AckIssued { .. }
            | TraceKind::RetransmitTimeout { .. }
            | TraceKind::LinkMasked { .. } => {}
            // A stage-contract breach is by definition an invariant
            // violation: the router's own checker found a grant or
            // traversal that its pipeline interfaces forbid.
            TraceKind::StageContractViolation { code } => {
                self.violate(format!(
                    "node {node}: stage contract violation (code {code}) at {cycle}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycle: u64, node: u16, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle: Cycle::new(cycle),
            node,
            kind,
        }
    }

    #[test]
    fn null_sink_never_builds_the_event() {
        let mut sink = NullSink;
        // If the closure ran, this test would panic.
        sink.record(|| unreachable!("NullSink must not evaluate events"));
        const { assert!(!NullSink::ENABLED) };
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::new();
        for c in 0..4 {
            sink.record(|| at(c, 0, TraceKind::FlitInjected { packet: c, seq: 0 }));
        }
        assert_eq!(sink.events().len(), 4);
        assert_eq!(
            sink.events()[2],
            at(2, 0, TraceKind::FlitInjected { packet: 2, seq: 0 })
        );
        let mut other = sink.clone();
        assert_eq!(sink, other);
        other.clear();
        assert!(other.events().is_empty());
    }

    #[test]
    fn ring_sink_keeps_only_the_tail() {
        let mut sink = RingSink::new(3);
        for c in 0..10 {
            sink.emit(at(c, 0, TraceKind::CreditSent { port: 0, class: 0 }));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 7);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle.raw()).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_sink_rejects_zero_capacity() {
        RingSink::new(0);
    }

    #[test]
    fn ring_sink_preserves_emission_order_across_many_wraparounds() {
        // The retained window must always be the exact tail of the full
        // stream, oldest first, no matter how many times the ring wraps
        // or whether capacity divides the stream length evenly.
        for capacity in [1usize, 3, 4, 7] {
            for total in [0u64, 1, 3, 4, 5, 11, 29] {
                let mut ring = RingSink::new(capacity);
                let mut full = VecSink::new();
                for c in 0..total {
                    let event = at(
                        c,
                        (c % 5) as u16,
                        TraceKind::CreditSent { port: 0, class: 0 },
                    );
                    ring.emit(event);
                    full.emit(event);
                }
                let kept = total.min(capacity as u64) as usize;
                assert_eq!(ring.len(), kept, "cap={capacity} total={total}");
                assert_eq!(ring.dropped(), total - kept as u64);
                assert_eq!(ring.capacity(), capacity);
                let tail = &full.events()[full.events().len() - kept..];
                let ringed: Vec<TraceEvent> = ring.events().copied().collect();
                assert_eq!(ringed, tail, "cap={capacity} total={total}");
            }
        }
    }

    #[test]
    fn tee_sink_feeds_both_halves_in_order() {
        let mut tee = TeeSink::new(VecSink::new(), RingSink::new(2));
        for c in 0..5 {
            tee.record(|| at(c, 0, TraceKind::FlitEjected { packet: c, seq: 0 }));
        }
        assert_eq!(tee.a.events().len(), 5);
        assert_eq!(tee.b.len(), 2);
        let ring_tail: Vec<TraceEvent> = tee.b.events().copied().collect();
        assert_eq!(ring_tail, tee.a.events()[3..]);
    }

    #[test]
    fn tee_sink_with_a_null_half_still_enables_the_other() {
        const { assert!(<TeeSink<NullSink, RingSink> as TraceSink>::ENABLED) };
        const { assert!(!<TeeSink<NullSink, NullSink> as TraceSink>::ENABLED) };
        let mut tee = TeeSink::new(NullSink, RingSink::new(4));
        tee.record(|| at(1, 0, TraceKind::CreditSent { port: 1, class: 0 }));
        assert_eq!(tee.b.len(), 1);
    }

    #[test]
    fn shared_sink_feeds_one_underlying_sink() {
        let shared = SharedSink::new(VecSink::new());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.emit(at(0, 1, TraceKind::FlitInjected { packet: 1, seq: 0 }));
        b.emit(at(0, 2, TraceKind::FlitInjected { packet: 2, seq: 0 }));
        assert_eq!(shared.with(|s| s.events().len()), 2);
        drop(a);
        drop(b);
        assert_eq!(shared.into_inner().into_events().len(), 2);
    }

    #[test]
    fn checker_accepts_a_clean_flit_lifetime() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::PacketInjected {
                packet: 7,
                src: 0,
                dest: 1,
                length: 1,
            },
        ));
        c.emit(at(1, 0, TraceKind::FlitInjected { packet: 7, seq: 0 }));
        c.emit(at(1, 0, TraceKind::ChannelGrant { out_port: 1, at: 2 }));
        c.emit(at(
            2,
            0,
            TraceKind::DataSent {
                out_port: 1,
                packet: 7,
                seq: 0,
            },
        ));
        c.emit(at(
            3,
            1,
            TraceKind::BufferAlloc {
                port: 3,
                buffer: 0,
                packet: 7,
                seq: 0,
            },
        ));
        c.emit(at(
            4,
            1,
            TraceKind::BufferFree {
                port: 3,
                buffer: 0,
                packet: 7,
                seq: 0,
            },
        ));
        c.emit(at(4, 1, TraceKind::FlitEjected { packet: 7, seq: 0 }));
        c.emit(at(
            4,
            1,
            TraceKind::PacketDelivered {
                packet: 7,
                latency: 4,
            },
        ));
        c.assert_clean();
        c.assert_drained();
        assert_eq!(c.events_seen(), 8);
        assert_eq!(c.unused_grants(), 0);
    }

    #[test]
    fn checker_flags_double_buffer_alloc() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::BufferAlloc {
                port: 1,
                buffer: 2,
                packet: 1,
                seq: 0,
            },
        ));
        c.emit(at(
            1,
            0,
            TraceKind::BufferAlloc {
                port: 1,
                buffer: 2,
                packet: 2,
                seq: 0,
            },
        ));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("still held"));
    }

    #[test]
    fn checker_flags_mismatched_free() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::BufferFree {
                port: 0,
                buffer: 0,
                packet: 9,
                seq: 0,
            },
        ));
        c.emit(at(
            0,
            0,
            TraceKind::BufferAlloc {
                port: 0,
                buffer: 1,
                packet: 1,
                seq: 0,
            },
        ));
        c.emit(at(
            1,
            0,
            TraceKind::BufferFree {
                port: 0,
                buffer: 1,
                packet: 1,
                seq: 5,
            },
        ));
        assert_eq!(c.violation_count(), 2);
        assert!(c.violations()[0].contains("freed while empty"));
        assert!(c.violations()[1].contains("holds 1.0"));
    }

    #[test]
    fn checker_flags_unreserved_channel_use() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            5,
            3,
            TraceKind::DataSent {
                out_port: 2,
                packet: 4,
                seq: 1,
            },
        ));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("without a channel reservation"));
    }

    #[test]
    fn checker_flags_double_grant_and_counts_unused() {
        let mut c = InvariantChecker::new();
        c.emit(at(0, 0, TraceKind::ChannelGrant { out_port: 1, at: 4 }));
        c.emit(at(0, 0, TraceKind::ChannelGrant { out_port: 1, at: 4 }));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("granted twice"));
        assert_eq!(c.unused_grants(), 2);
    }

    #[test]
    fn checker_flags_duplicate_ejection_and_delivery() {
        let mut c = InvariantChecker::new();
        c.emit(at(0, 0, TraceKind::FlitEjected { packet: 3, seq: 0 }));
        c.emit(at(1, 0, TraceKind::FlitEjected { packet: 3, seq: 0 }));
        c.emit(at(
            1,
            0,
            TraceKind::PacketDelivered {
                packet: 3,
                latency: 1,
            },
        ));
        c.emit(at(
            2,
            0,
            TraceKind::PacketDelivered {
                packet: 3,
                latency: 2,
            },
        ));
        assert_eq!(c.violation_count(), 2);
    }

    #[test]
    fn checker_flags_fifo_violation() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::QueueEnq {
                port: 1,
                vc: 0,
                packet: 1,
                seq: 0,
            },
        ));
        c.emit(at(
            0,
            0,
            TraceKind::QueueEnq {
                port: 1,
                vc: 0,
                packet: 1,
                seq: 1,
            },
        ));
        c.emit(at(
            1,
            0,
            TraceKind::QueueDeq {
                port: 1,
                vc: 0,
                packet: 1,
                seq: 1,
            },
        ));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("FIFO order broken"));
    }

    #[test]
    fn checker_flags_backwards_time_per_node() {
        let mut c = InvariantChecker::new();
        c.emit(at(5, 0, TraceKind::CreditSent { port: 0, class: 0 }));
        c.emit(at(5, 1, TraceKind::CreditSent { port: 0, class: 0 }));
        c.emit(at(4, 1, TraceKind::CreditSent { port: 0, class: 0 }));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("time ran backwards"));
    }

    #[test]
    fn checker_flags_short_delivery() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::PacketInjected {
                packet: 1,
                src: 0,
                dest: 1,
                length: 5,
            },
        ));
        c.emit(at(9, 1, TraceKind::FlitEjected { packet: 1, seq: 0 }));
        c.emit(at(
            9,
            1,
            TraceKind::PacketDelivered {
                packet: 1,
                latency: 9,
            },
        ));
        assert_eq!(c.violation_count(), 1);
        assert!(c.violations()[0].contains("1 of 5 flits"));
    }

    #[test]
    #[should_panic(expected = "still occupied")]
    fn assert_drained_demands_empty_buffers() {
        let mut c = InvariantChecker::new();
        c.emit(at(
            0,
            0,
            TraceKind::BufferAlloc {
                port: 0,
                buffer: 0,
                packet: 1,
                seq: 0,
            },
        ));
        c.assert_drained();
    }

    #[test]
    fn violation_messages_are_capped_but_counted() {
        let mut c = InvariantChecker::new();
        for i in 0..(MAX_KEPT_VIOLATIONS as u64 + 10) {
            c.emit(at(
                i,
                0,
                TraceKind::DataSent {
                    out_port: 0,
                    packet: i,
                    seq: 0,
                },
            ));
        }
        assert_eq!(c.violations().len(), MAX_KEPT_VIOLATIONS);
        assert_eq!(c.violation_count(), MAX_KEPT_VIOLATIONS as u64 + 10);
    }
}
