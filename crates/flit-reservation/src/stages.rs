//! Concrete pipeline stages of the flit-reservation router.
//!
//! Each stage owns one slice of the router's state and answers typed
//! requests from the driver ([`crate::FrRouter`]'s `step`); no stage
//! reaches into another's fields. The stage chain mirrors the paper's
//! Figure 3 split between the control and data networks:
//!
//! * route compute — `noc_flow::pipeline::RouteCompute`, shared with
//!   the VC baseline;
//! * control plane — [`ControlStage`], owning the per-VC control
//!   queues, downstream control-VC ownership and control credits (the
//!   FR analogue of VC allocation), the virtual-channel port of
//!   `noc_flow::pipeline` that the VC baseline runs on its data lanes;
//! * reservation match — [`ReservationStage`], owning the output
//!   reservation tables that answer `ReservationRequest`s;
//! * data path — [`DataPathStage`], owning the input reservation
//!   tables, buffer pools and the arrival staging area (traversal is
//!   table-directed: "there are no decisions to be made");
//! * injection — [`FrNiStage`], the network interface with its own
//!   injection reservation table.

#![deny(private_interfaces, private_bounds)]

use crate::transfers::TransferCounter;
use crate::{ArrivalOutcome, FrConfig, InputReservationTable, OutputReservationTable};
use noc_engine::stats::RunningStats;
use noc_engine::{Cycle, Rng};
use noc_flow::pipeline::{
    Credits, Front, InputLanes, LaneFlit, LocalVc, ReservationGrant, ReservationRequest, VcOwners,
};
use noc_flow::{BufferId, ControlFlit, ControlKind, DataFlit, LedFlit};
use noc_metrics::Json;
use noc_topology::{NodeId, Port, PortMap};
use noc_traffic::{Packet, PacketId};
use std::collections::VecDeque;

/// A control flit waiting in an input control-VC queue.
#[derive(Clone, Debug)]
struct QueuedControl {
    flit: ControlFlit,
    arrived: Cycle,
}

impl LaneFlit for QueuedControl {
    fn front(&self) -> Front {
        let head_dest = match self.flit.kind {
            ControlKind::Head { dest } => Some(dest),
            ControlKind::Body => None,
        };
        Front {
            arrived: self.arrived,
            head_dest,
        }
    }

    fn render(&self) -> String {
        format!("{:?} arrived={}", self.flit, self.arrived.raw())
    }
}

/// The control-plane stage: the control network's virtual-channel
/// input port (the shared lanes, downstream control-VC owners and
/// control credits) and the per-output ready lists. Its VC allocation
/// is the FR counterpart of the baseline's `VcAllocStage`, driven by
/// the same typed request/grant contract.
#[derive(Clone, Debug)]
pub(crate) struct ControlStage {
    lanes: InputLanes<QueuedControl>,
    /// Per output port, one slot per lane: the lanes
    /// [`Self::gather_ready`] found ready for that output, ascending.
    ready: Vec<(Port, u8)>,
    /// How many of each output's `ready` slots are filled.
    ready_len: [usize; Port::COUNT],
    credits: Credits,
    owners: VcOwners,
    control_flits_sent: u64,
}

impl ControlStage {
    pub(crate) fn new(config: &FrConfig) -> Self {
        let vcs = config.control_vcs;
        ControlStage {
            lanes: InputLanes::new(vcs),
            ready: vec![(Port::Local, 0); Port::COUNT * Port::COUNT * vcs],
            ready_len: [0; Port::COUNT],
            credits: Credits::new(vcs, config.control_queue_depth),
            owners: VcOwners::new(vcs),
            control_flits_sent: 0,
        }
    }

    /// Slots per output in the ready lists: one per lane.
    fn stride(&self) -> usize {
        Port::COUNT * self.lanes.vcs()
    }

    /// The route and readiness pass, over the occupied lanes in
    /// ascending (port, VC) order: each unrouted head whose front
    /// arrived before `now` takes its output from `route`, and each
    /// routed lane whose front arrived before `now` joins its output's
    /// ready list. Returns the outputs with a ready lane, bit
    /// `port.index()` each.
    ///
    /// Processing a lane touches only that lane and its own output's
    /// credits and VCs, and a lane's route only clears, so lists taken
    /// before any lane is processed match per-output rescans made
    /// between the outputs.
    pub(crate) fn gather_ready(&mut self, now: Cycle, mut route: impl FnMut(NodeId) -> Port) -> u8 {
        let n = self.stride();
        self.ready_len = [0; Port::COUNT];
        let mut outputs = 0u8;
        let mut walk = self.lanes.walk();
        while let Some(i) = walk.next(&self.lanes) {
            let l = self.lanes.lane_mut(i);
            let front = l.front();
            if front.arrived >= now {
                continue;
            }
            let out = match (l.route, front.head_dest) {
                (Some(out), _) => out.index(),
                (None, Some(dest)) => l.route.insert(route(dest)).index(),
                (None, None) => continue,
            };
            let (port, vc) = self.lanes.id(i);
            self.ready[out * n + self.ready_len[out]] = (port, vc as u8);
            self.ready_len[out] += 1;
            outputs |= 1 << out;
        }
        outputs
    }

    /// Shuffles `out`'s ready list with `rng`, drawing as a shuffle of
    /// the ascending list does, and returns how many of its lanes, at
    /// most `limit`, to process: [`Self::ready_lane`] `0..` that count.
    pub(crate) fn pick_ready(&mut self, out: Port, rng: &mut Rng, limit: usize) -> usize {
        let start = out.index() * self.stride();
        let len = self.ready_len[out.index()];
        rng.shuffle(&mut self.ready[start..start + len]);
        len.min(limit)
    }

    /// The (input port, VC) of entry `i` of `out`'s ready list.
    pub(crate) fn ready_lane(&self, out: Port, i: usize) -> (Port, usize) {
        debug_assert!(i < self.ready_len[out.index()], "past the ready list");
        let (port, vc) = self.ready[out.index() * self.stride() + i];
        (port, vc as usize)
    }

    /// The downstream control VC held by the lane's packet, if any.
    pub(crate) fn out_vc(&self, port: Port, vc: usize) -> Option<u8> {
        self.lanes.lane(self.lanes.index(port, vc)).out_vc
    }

    /// Allocates a free downstream control VC on `out_port` to the
    /// packet in lane (`port`, `vc`), uniformly at random; `None` when
    /// every VC is owned (the lane stalls and retries).
    pub(crate) fn try_alloc_out_vc(
        &mut self,
        port: Port,
        vc: usize,
        out_port: Port,
        rng: &mut Rng,
    ) -> Option<u8> {
        let granted = self.owners.grant(out_port, rng)?;
        let i = self.lanes.index(port, vc);
        self.lanes.lane_mut(i).out_vc = Some(granted);
        Some(granted)
    }

    /// True if a forwarded control flit has a downstream queue slot on
    /// (`out_port`, `out_vc`).
    pub(crate) fn has_credit(&self, out_port: Port, out_vc: u8) -> bool {
        self.credits.available(out_port, out_vc) > 0
    }

    /// Spends one downstream control-queue slot for a forwarded flit.
    pub(crate) fn consume_credit(&mut self, out_port: Port, out_vc: u8) {
        self.credits.consume(out_port, out_vc);
    }

    /// Applies a control credit arriving on output `port` for `vc`.
    pub(crate) fn credit_returned(&mut self, port: Port, vc: u8) {
        self.credits.returned(port, vc);
    }

    /// The lane's front control flit, if any.
    pub(crate) fn front_flit(&self, port: Port, vc: usize) -> Option<&ControlFlit> {
        let lane = self.lanes.lane(self.lanes.index(port, vc));
        lane.queue().front().map(|qc| &qc.flit)
    }

    /// The packet id and arrival cycle of every routed lane's front
    /// control flit, in ascending (port, VC) order, for the
    /// stall-provenance scan.
    pub(crate) fn routed_fronts(&self, mut f: impl FnMut(PacketId, Cycle)) {
        let mut walk = self.lanes.walk();
        while let Some(i) = walk.next(&self.lanes) {
            let l = self.lanes.lane(i);
            if l.route.is_some() {
                f(l.queue()[0].flit.packet, l.front().arrived);
            }
        }
    }

    /// Records a booked departure into the front control flit's led
    /// entry `idx`: the carried arrival time becomes the next-hop
    /// arrival and the entry stops requesting reservations here.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty.
    pub(crate) fn mark_scheduled(&mut self, port: Port, vc: usize, idx: usize, arrival: Cycle) {
        let i = self.lanes.index(port, vc);
        let front = self.lanes.lane_mut(i).front_flit_mut();
        let led = &mut front.expect("front still present").flit.led[idx];
        led.arrival = arrival;
        led.scheduled = true;
    }

    /// Pops the fully scheduled front control flit of the lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty: only fully scheduled fronts pop.
    pub(crate) fn pop_front(&mut self, port: Port, vc: usize) -> ControlFlit {
        self.lanes.pop(self.lanes.index(port, vc)).flit
    }

    /// Buffers a control flit at the back of lane (`port`, `vc`). The
    /// driver checks queue depth first (its assertion names the node).
    pub(crate) fn push(&mut self, port: Port, vc: usize, flit: ControlFlit, arrived: Cycle) {
        let i = self.lanes.index(port, vc);
        self.lanes.push(i, QueuedControl { flit, arrived });
    }

    /// Control flits queued in lane (`port`, `vc`).
    pub(crate) fn queue_len(&self, port: Port, vc: usize) -> usize {
        self.lanes.lane(self.lanes.index(port, vc)).queue().len()
    }

    /// Clears the lane's allocation after its packet's tail was
    /// consumed or forwarded, releasing the downstream control VC.
    ///
    /// # Panics
    ///
    /// Panics if a non-local tail departs without an allocated VC.
    pub(crate) fn end_packet(&mut self, port: Port, vc: usize, out_port: Port) {
        let out_vc = self.lanes.end_packet(self.lanes.index(port, vc));
        if out_port != Port::Local {
            let out_vc = out_vc.expect("tail releases an allocated VC");
            self.owners.release(out_port, out_vc);
        }
    }

    /// True if every control queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Counts a control flit forwarded onto an outgoing control link.
    pub(crate) fn note_control_sent(&mut self) {
        self.control_flits_sent += 1;
    }

    pub(crate) fn control_flits_sent(&self) -> u64 {
        self.control_flits_sent
    }

    /// Dumps every control lane holding live state, plus credit and
    /// downstream-VC-ownership accounting per output port.
    pub(crate) fn snapshot(&self) -> Json {
        let accounting: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("credits".into(), self.credits.snapshot(port)),
                    ("vc_owner".into(), self.owners.snapshot(port)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("inputs".into(), self.lanes.snapshot(|_| None)),
            ("accounting".into(), Json::Arr(accounting)),
            (
                "control_flits_sent".into(),
                Json::Num(self.control_flits_sent as f64),
            ),
        ])
    }
}

/// Books a departure for each of `arrivals` on `table`, demanding
/// `remaining` free buffers for the first and one fewer for each next,
/// then withdraws every booking it made; true when all were booked. A
/// booked cycle is busy, so later searches skip it.
fn book_all(
    table: &mut OutputReservationTable,
    arrivals: &mut impl Iterator<Item = Cycle>,
    remaining: i64,
    now: Cycle,
    blocked: &mut impl FnMut(Cycle) -> bool,
) -> bool {
    let Some(t_a) = arrivals.next() else {
        return true;
    };
    let Some(t_d) = table.schedule_search(t_a, now, remaining, true, |c| !blocked(c)) else {
        return false;
    };
    table.reserve(t_d);
    let feasible = book_all(table, arrivals, remaining - 1, now, blocked);
    table.unreserve(t_d);
    feasible
}

/// The reservation-match stage: the per-output reservation tables and
/// the scheduling counters. Answers [`ReservationRequest`]s with booked
/// departure slots.
#[derive(Clone, Debug)]
pub(crate) struct ReservationStage {
    /// Output reservation tables, per output port.
    tables: PortMap<OutputReservationTable>,
    scheduled_flits: u64,
    reservation_misses: u64,
    /// Lead of ejection-scheduling control flits over their data flits.
    dest_lead: RunningStats,
}

impl ReservationStage {
    pub(crate) fn new(config: &FrConfig) -> Self {
        let horizon = config.horizon;
        let t = config.timing;
        ReservationStage {
            tables: PortMap::from_fn(|p| {
                if p == Port::Local {
                    // Ejection channel: 1 flit/cycle into unbounded
                    // reassembly buffers, no propagation.
                    OutputReservationTable::new(horizon, None, 0)
                } else {
                    OutputReservationTable::new(horizon, Some(config.data_buffers), t.data_delay)
                }
            }),
            scheduled_flits: 0,
            reservation_misses: 0,
            dest_lead: RunningStats::default(),
        }
    }

    /// Slides every table's window to `now`.
    pub(crate) fn advance_all(&mut self, now: Cycle) {
        for (_, table) in self.tables.iter_mut() {
            table.advance_to(now);
        }
    }

    /// Applies an advance credit arriving on output `port`, sliding the
    /// window first in case this router was idle-skipped.
    pub(crate) fn apply_credit(&mut self, port: Port, frees_at: Cycle, now: Cycle) {
        let table = &mut self.tables[port];
        table.advance_to(now);
        table.credit(frees_at, now);
    }

    /// All-or-nothing dry run: true when a departure for every
    /// unscheduled flit of `led` can be booked on `out_port`, with
    /// `blocked` rejecting cycles the input's read port already holds.
    /// The run books on the live table and withdraws every booking
    /// before it returns. A failed dry run counts one reservation miss.
    pub(crate) fn feasible_all(
        &mut self,
        out_port: Port,
        now: Cycle,
        led: &[LedFlit],
        mut blocked: impl FnMut(Cycle) -> bool,
    ) -> bool {
        let mut arrivals = led.iter().filter(|l| !l.scheduled).map(|l| l.arrival);
        let remaining = led.iter().filter(|l| !l.scheduled).count() as i64;
        let table = &mut self.tables[out_port];
        let feasible = book_all(table, &mut arrivals, remaining, now, &mut blocked);
        if !feasible {
            self.reservation_misses += 1;
        }
        feasible
    }

    /// Answers a reservation request: searches `req.out_port`'s table
    /// and commits the earliest feasible departure, a same-cycle bypass
    /// included when the flit has yet to arrive. `None` (counting a
    /// miss) when no slot exists within the horizon; `blocked` rejects
    /// cycles where the requesting input already has a departure booked
    /// (single-read-port input buffers, paper footnote 7).
    pub(crate) fn try_reserve(
        &mut self,
        req: &ReservationRequest,
        now: Cycle,
        mut blocked: impl FnMut(Cycle) -> bool,
    ) -> Option<ReservationGrant> {
        let found =
            self.tables[req.out_port]
                .schedule_search(req.arrival, now, req.min_free, true, |c| !blocked(c));
        match found {
            Some(t_d) => {
                self.tables[req.out_port].reserve(t_d);
                self.scheduled_flits += 1;
                Some(ReservationGrant { departure: t_d })
            }
            None => {
                self.reservation_misses += 1;
                None
            }
        }
    }

    /// Samples how far ahead of its data flit an ejection-scheduling
    /// control flit ran (negative = the data flit got here first).
    pub(crate) fn record_dest_lead(&mut self, t_a: Cycle, now: Cycle) {
        self.dest_lead.record(t_a.raw() as f64 - now.raw() as f64);
    }

    pub(crate) fn scheduled_flits(&self) -> u64 {
        self.scheduled_flits
    }

    pub(crate) fn reservation_misses(&self) -> u64 {
        self.reservation_misses
    }

    pub(crate) fn dest_lead(&self) -> &RunningStats {
        &self.dest_lead
    }

    /// Dumps every output reservation table keyed by port, plus the
    /// scheduling counters.
    pub(crate) fn snapshot(&self) -> Json {
        let tables: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("table".into(), self.tables[port].snapshot()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("tables".into(), Json::Arr(tables)),
            (
                "scheduled_flits".into(),
                Json::Num(self.scheduled_flits as f64),
            ),
            (
                "reservation_misses".into(),
                Json::Num(self.reservation_misses as f64),
            ),
        ])
    }
}

/// The data-path stage: input reservation tables (and buffer pools),
/// the arrival staging area and the traversal counters. Departures are
/// table-directed; this stage makes no decisions.
#[derive(Clone, Debug)]
pub(crate) struct DataPathStage {
    /// Input reservation tables, per input port.
    tables: PortMap<InputReservationTable>,
    /// Data flits that arrived on links this cycle, buffered until the
    /// data path has executed this cycle's departures: a buffer freed
    /// at `t_d` may be reused by a flit arriving the same cycle, so
    /// departures (reads) must run before arrivals (writes).
    pending: Vec<(Port, DataFlit)>,
    /// Present only under the bind-at-reservation ablation: per-input
    /// interval bookkeeping that counts buffer-to-buffer transfers.
    transfer_counters: Option<PortMap<TransferCounter>>,
    parked_arrivals: u64,
    bypassed_flits: u64,
    data_flits_sent: u64,
}

impl DataPathStage {
    pub(crate) fn new(config: &FrConfig) -> Self {
        DataPathStage {
            tables: PortMap::from_fn(|_| {
                InputReservationTable::new(
                    config.horizon,
                    config.data_buffers,
                    config.timing.data_delay,
                )
            }),
            pending: Vec::new(),
            transfer_counters: match config.buffer_alloc {
                crate::BufferAllocPolicy::AtReservation => Some(PortMap::from_fn(|_| {
                    TransferCounter::new(config.data_buffers)
                })),
                crate::BufferAllocPolicy::JustBeforeArrival => None,
            },
            parked_arrivals: 0,
            bypassed_flits: 0,
            data_flits_sent: 0,
        }
    }

    /// Slides every table's window to `now`.
    pub(crate) fn advance_all(&mut self, now: Cycle) {
        for (_, table) in self.tables.iter_mut() {
            table.advance_to(now);
        }
    }

    /// Stages a data flit arriving on `port` this cycle (delivered to
    /// the pools by `accept` after this cycle's departures ran).
    pub(crate) fn queue_arrival(&mut self, port: Port, flit: DataFlit) {
        self.pending.push((port, flit));
    }

    /// Takes the staged arrivals for processing. Hand the drained
    /// vector back through [`Self::restore_pending`] so its capacity
    /// serves the next cycle.
    pub(crate) fn take_pending(&mut self) -> Vec<(Port, DataFlit)> {
        std::mem::take(&mut self.pending)
    }

    /// Returns the vector [`Self::take_pending`] lent out, emptied.
    pub(crate) fn restore_pending(&mut self, mut pending: Vec<(Port, DataFlit)>) {
        debug_assert!(self.pending.is_empty(), "arrival staged while drained");
        pending.clear();
        self.pending = pending;
    }

    /// True when no arrival awaits buffering.
    pub(crate) fn pending_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Delivers one staged arrival to its input table, counting parked
    /// and bypassed flits.
    pub(crate) fn accept(&mut self, port: Port, flit: DataFlit, now: Cycle) -> ArrivalOutcome {
        let outcome = self.tables[port].on_data_arrival(flit, now);
        match outcome {
            ArrivalOutcome::Parked(_) => self.parked_arrivals += 1,
            ArrivalOutcome::Bypass { .. } => self.bypassed_flits += 1,
            ArrivalOutcome::Scheduled(..) => {}
        }
        outcome
    }

    /// True if `port`'s read port already has a departure booked at `t`.
    pub(crate) fn departure_booked(&self, port: Port, t: Cycle) -> bool {
        self.tables[port].departure_booked(t)
    }

    /// Records a granted reservation into `port`'s input table.
    pub(crate) fn apply_reservation(
        &mut self,
        port: Port,
        t_a: Cycle,
        t_d: Cycle,
        out_port: Port,
        now: Cycle,
    ) {
        self.tables[port].apply_reservation(t_a, t_d, out_port, now);
    }

    /// Executes the departure booked on `port` for cycle `now`, if any.
    pub(crate) fn take_departure(
        &mut self,
        port: Port,
        now: Cycle,
    ) -> Option<(DataFlit, Port, BufferId)> {
        self.tables[port].take_departure(now)
    }

    /// Books the residency `[t_a, t_d)` under the bind-at-reservation
    /// ablation; a no-op for bypasses (`t_d == t_a`) and under the
    /// paper's deferred-binding policy.
    pub(crate) fn book_transfer(&mut self, port: Port, t_a: Cycle, t_d: Cycle) {
        if let Some(counters) = &mut self.transfer_counters {
            if t_d > t_a {
                counters[port].book(t_a, t_d);
            }
        }
    }

    /// Drops expired transfer-counter intervals.
    pub(crate) fn collect_garbage(&mut self, now: Cycle) {
        if let Some(counters) = &mut self.transfer_counters {
            for (_, c) in counters.iter_mut() {
                c.collect_garbage(now);
            }
        }
    }

    /// True under the bind-at-reservation ablation (which keeps
    /// per-buffer interval state and so never idles).
    pub(crate) fn has_transfer_counters(&self) -> bool {
        self.transfer_counters.is_some()
    }

    /// Buffer transfers incurred so far, as `(transfers, residencies)`;
    /// `None` under the paper's deferred-binding policy.
    pub(crate) fn buffer_transfers(&self) -> Option<(u64, u64)> {
        self.transfer_counters.as_ref().map(|counters| {
            let mut t = 0;
            let mut b = 0;
            for (_, c) in counters.iter() {
                t += c.transfers();
                b += c.booked();
            }
            (t, b)
        })
    }

    /// Counts a data flit forwarded onto an outgoing link.
    pub(crate) fn note_data_sent(&mut self) {
        self.data_flits_sent += 1;
    }

    pub(crate) fn occupied(&self, port: Port) -> usize {
        self.tables[port].occupied()
    }

    pub(crate) fn capacity(&self, port: Port) -> usize {
        self.tables[port].capacity()
    }

    pub(crate) fn is_quiet(&self, port: Port) -> bool {
        self.tables[port].is_quiet()
    }

    pub(crate) fn parked_arrivals(&self) -> u64 {
        self.parked_arrivals
    }

    pub(crate) fn bypassed_flits(&self) -> u64 {
        self.bypassed_flits
    }

    pub(crate) fn data_flits_sent(&self) -> u64 {
        self.data_flits_sent
    }

    /// Total departures booked but not yet executed plus parked flits
    /// across all input tables — the instantaneous bookings-in-flight
    /// gauge (same definition as the metrics counter of that name).
    pub(crate) fn bookings_in_flight(&self) -> u64 {
        Port::ALL
            .iter()
            .map(|&p| (self.tables[p].pending_departures() + self.tables[p].parked()) as u64)
            .sum()
    }

    /// Dumps every input reservation table keyed by port, any staged
    /// (not-yet-buffered) arrivals, and the traversal counters.
    pub(crate) fn snapshot(&self) -> Json {
        let tables: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("table".into(), self.tables[port].snapshot()),
                ])
            })
            .collect();
        let pending: Vec<Json> = self
            .pending
            .iter()
            .map(|(port, flit)| Json::str(format!("{port:?} {flit:?}")))
            .collect();
        Json::obj(vec![
            ("tables".into(), Json::Arr(tables)),
            ("pending_arrivals".into(), Json::Arr(pending)),
            (
                "parked_arrivals".into(),
                Json::Num(self.parked_arrivals as f64),
            ),
            (
                "bypassed_flits".into(),
                Json::Num(self.bypassed_flits as f64),
            ),
            (
                "data_flits_sent".into(),
                Json::Num(self.data_flits_sent as f64),
            ),
        ])
    }
}

/// The injection stage: packet staging, the injection reservation
/// table and data flits awaiting their scheduled injection cycle.
#[derive(Clone, Debug)]
pub(crate) struct FrNiStage {
    pending: VecDeque<Packet>,
    /// Control flits of the packet currently being injected.
    staged: VecDeque<ControlFlit>,
    /// Local control VC carrying the current packet.
    local_vc: LocalVc,
    /// Output reservation table of the NI→router injection channel.
    inject_table: OutputReservationTable,
    /// Data flits scheduled for injection, keyed by injection cycle.
    data_ready: Vec<(Cycle, DataFlit)>,
}

impl FrNiStage {
    pub(crate) fn new(config: &FrConfig) -> Self {
        FrNiStage {
            pending: VecDeque::new(),
            staged: VecDeque::new(),
            local_vc: LocalVc::default(),
            inject_table: OutputReservationTable::new(config.horizon, Some(config.data_buffers), 0),
            data_ready: Vec::new(),
        }
    }

    /// Slides the injection table's window to `now`.
    pub(crate) fn advance_table(&mut self, now: Cycle) {
        self.inject_table.advance_to(now);
    }

    /// Queues an injected packet behind the staging area.
    pub(crate) fn push_packet(&mut self, packet: Packet) {
        self.pending.push_back(packet);
    }

    /// True when no control flit of a packet is currently staged.
    pub(crate) fn staged_is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Stages the next pending packet as control flits, each leading up
    /// to `d` data flits; false when nothing is pending.
    pub(crate) fn stage_next_packet(&mut self, d: usize) -> bool {
        let packet = match self.pending.pop_front() {
            Some(p) => p,
            None => return false,
        };
        let total = packet.length_flits;
        let mut seq = 0;
        loop {
            // `d >= 1`, so only the first chunk starts at flit 0.
            let end = total.min(seq + d as u32);
            let led: Vec<LedFlit> = (seq..end)
                .map(|seq| LedFlit {
                    arrival: Cycle::ZERO, // set when the injection is booked
                    scheduled: false,
                    flit: DataFlit {
                        packet: packet.id,
                        seq,
                        length: total,
                        dest: packet.dest,
                        created_at: packet.created_at,
                        crc_ok: true,
                    },
                })
                .collect();
            let is_tail = end == total;
            self.staged.push_back(ControlFlit {
                vc: 0,
                kind: if seq == 0 {
                    ControlKind::Head { dest: packet.dest }
                } else {
                    ControlKind::Body
                },
                is_tail,
                led,
                packet: packet.id,
            });
            if is_tail {
                return true;
            }
            seq = end;
        }
    }

    /// True if the front staged control flit is a packet head.
    pub(crate) fn staged_front_is_head(&self) -> bool {
        self.staged.front().map(|f| f.is_head()).unwrap_or(false)
    }

    /// The binding of the packet being injected to a local control VC.
    pub(crate) fn local_vc(&mut self) -> &mut LocalVc {
        &mut self.local_vc
    }

    /// Books injection slots for the front staged control flit's data
    /// flits, each departing strictly after `now + lead - 1`. Atomic
    /// per control flit: a failure withdraws the bookings it made.
    ///
    /// # Panics
    ///
    /// Panics if nothing is staged.
    pub(crate) fn schedule_injections(&mut self, now: Cycle, lead: u64) -> bool {
        // Earliest allowed injection: `now + 1`, or `now + lead` when
        // the control flit must lead its data flits by `lead` cycles.
        // The table searches strictly after the floor we pass it.
        let floor = Cycle::new((now.raw() + lead).saturating_sub(1));
        let front = self.staged.front_mut().expect("caller checked");
        let booked_from = self.data_ready.len();
        let mut remaining = front.led.len() as i64;
        for led in &front.led {
            let Some(t_inj) = self
                .inject_table
                .find_departure_min(floor, now, remaining, |_| true)
            else {
                for (t_inj, _) in self.data_ready.drain(booked_from..) {
                    self.inject_table.unreserve(t_inj);
                }
                return false;
            };
            self.inject_table.reserve(t_inj);
            self.data_ready.push((t_inj, led.flit));
            remaining -= 1;
        }
        for (led, &(t_inj, _)) in front.led.iter_mut().zip(&self.data_ready[booked_from..]) {
            led.arrival = t_inj;
            led.scheduled = false; // to be scheduled by this router next
        }
        true
    }

    /// Pops the front staged control flit as it enters the router.
    ///
    /// # Panics
    ///
    /// Panics if nothing is staged.
    pub(crate) fn pop_staged(&mut self) -> ControlFlit {
        let flit = self.staged.pop_front().expect("staged front");
        self.local_vc.entered(flit.is_tail);
        flit
    }

    /// Releases the data flit whose scheduled injection cycle is `now`,
    /// if any.
    ///
    /// # Panics
    ///
    /// Panics if two flits claim the 1-flit/cycle injection channel in
    /// the same cycle.
    pub(crate) fn take_due_injection(&mut self, now: Cycle) -> Option<DataFlit> {
        let mut released = None;
        let mut i = 0;
        while i < self.data_ready.len() {
            if self.data_ready[i].0 == now {
                let (_, flit) = self.data_ready.swap_remove(i);
                assert!(
                    released.replace(flit).is_none(),
                    "injection channel carried two flits in one cycle"
                );
            } else {
                debug_assert!(self.data_ready[i].0 > now, "missed a scheduled injection");
                i += 1;
            }
        }
        released
    }

    /// Applies an advance credit to the injection channel's table.
    pub(crate) fn inject_credit(&mut self, frees_at: Cycle, now: Cycle) {
        self.inject_table.credit(frees_at, now);
    }

    /// Flits of packets still queued behind the staging area.
    pub(crate) fn pending_flits(&self) -> usize {
        self.pending.iter().map(|p| p.length_flits as usize).sum()
    }

    /// Data flits awaiting their scheduled injection cycle.
    pub(crate) fn data_ready_len(&self) -> usize {
        self.data_ready.len()
    }

    /// True when the NI holds no state that obligates future work.
    pub(crate) fn is_quiet(&self) -> bool {
        self.pending.is_empty() && self.staged.is_empty() && self.data_ready.is_empty()
    }

    /// Dumps the staging area, the injection reservation table and the
    /// data flits awaiting their booked injection cycle (sorted by that
    /// cycle — the internal order is a `swap_remove` artefact).
    pub(crate) fn snapshot(&self) -> Json {
        let pending: Vec<Json> = self
            .pending
            .iter()
            .map(|p| Json::str(format!("{p:?}")))
            .collect();
        let staged: Vec<Json> = self
            .staged
            .iter()
            .map(|f| Json::str(format!("{f:?}")))
            .collect();
        let mut ready: Vec<(u64, String)> = self
            .data_ready
            .iter()
            .map(|(at, flit)| (at.raw(), format!("{flit:?}")))
            .collect();
        ready.sort_unstable();
        let data_ready: Vec<Json> = ready
            .into_iter()
            .map(|(at, flit)| {
                Json::obj(vec![
                    ("inject_at".into(), Json::Num(at as f64)),
                    ("flit".into(), Json::str(flit)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("current_vc".into(), self.local_vc.snapshot()),
            ("pending_packets".into(), Json::Arr(pending)),
            ("staged_control".into(), Json::Arr(staged)),
            ("data_ready".into(), Json::Arr(data_ready)),
            ("inject_table".into(), self.inject_table.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A control flit of packet `id` leading `led` data flits.
    fn control_flit(id: u64, dest: Option<NodeId>, led: usize) -> ControlFlit {
        let data = DataFlit {
            packet: PacketId::new(id),
            seq: 0,
            length: led as u32,
            dest: NodeId::new(0),
            created_at: Cycle::ZERO,
            crc_ok: true,
        };
        ControlFlit {
            vc: 0,
            kind: match dest {
                Some(dest) => ControlKind::Head { dest },
                None => ControlKind::Body,
            },
            is_tail: false,
            led: vec![
                LedFlit {
                    arrival: Cycle::ZERO,
                    scheduled: false,
                    flit: data,
                };
                led
            ],
            packet: PacketId::new(id),
        }
    }

    /// The scan as a loop over every lane's queue: first route compute
    /// for each unrouted head that arrived before `now`, then, per
    /// output, the lanes routed there whose front arrived before `now`.
    fn scan_every_queue(
        stage: &mut ControlStage,
        now: Cycle,
        mut route: impl FnMut(NodeId) -> Port,
    ) -> Vec<Vec<(Port, usize)>> {
        let lanes = &mut stage.lanes;
        let all: Vec<(Port, usize)> = Port::ALL
            .iter()
            .flat_map(|&p| (0..lanes.vcs()).map(move |v| (p, v)))
            .collect();
        for &(port, vc) in &all {
            let l = lanes.lane_mut(lanes.index(port, vc));
            let dest = match l.queue().front() {
                Some(qc) if l.route.is_none() && qc.arrived < now => match qc.flit.kind {
                    ControlKind::Head { dest } => Some(dest),
                    ControlKind::Body => None,
                },
                _ => None,
            };
            if let Some(dest) = dest {
                l.route = Some(route(dest));
            }
        }
        Port::ALL
            .iter()
            .map(|&out| {
                all.iter()
                    .copied()
                    .filter(|&(port, vc)| {
                        let l = lanes.lane(lanes.index(port, vc));
                        let front_ready = matches!(l.queue().front(), Some(qc) if qc.arrived < now);
                        l.route == Some(out) && front_ready
                    })
                    .collect()
            })
            .collect()
    }

    /// The stage's walk-driven pass against a loop over every queue. The
    /// walk, the inline fronts and the bitset themselves are checked by
    /// noc-flow's `lanes_owners_and_credits_match_a_model_of_every_lane`.
    #[test]
    fn occupancy_scan_matches_a_scan_of_every_queue() {
        let route_of = |dest: NodeId| Port::ALL[dest.index() % Port::COUNT];
        for vcs in [2, 4, 13] {
            let config = FrConfig {
                control_vcs: vcs,
                ..FrConfig::fr6()
            };
            for seed in 0..6 {
                let mut stage = ControlStage::new(&config);
                let mut rng = Rng::from_seed(seed);
                let mut now = 1;
                let mut packet = 0;
                for step in 0..3_000 {
                    let port = Port::ALL[rng.index(Port::COUNT)];
                    let vc = rng.index(vcs);
                    let lane = stage.lanes.index(port, vc);
                    match rng.index(8) {
                        0..=2 if stage.queue_len(port, vc) < 4 => {
                            packet += 1;
                            let dest =
                                (rng.index(2) == 0).then(|| NodeId::new(rng.index(64) as u16));
                            let flit = control_flit(packet, dest, rng.index(3));
                            let arrived = now - rng.index(2) as u64;
                            stage.push(port, vc, flit, Cycle::new(arrived));
                        }
                        3 if stage.queue_len(port, vc) > 0 => {
                            stage.pop_front(port, vc);
                        }
                        4 if stage.lanes.lane(lane).route.is_none() => {
                            stage.lanes.lane_mut(lane).route =
                                Some(Port::ALL[rng.index(Port::COUNT)]);
                        }
                        5 => {
                            let out = stage.lanes.lane(lane).route.unwrap_or(Port::Local);
                            let allocated = out == Port::Local
                                || stage.out_vc(port, vc).is_some()
                                || stage.try_alloc_out_vc(port, vc, out, &mut rng).is_some();
                            if allocated {
                                stage.end_packet(port, vc, out);
                            }
                        }
                        6 => {
                            let led = stage.front_flit(port, vc).map_or(0, |f| f.led.len());
                            if led > 0 {
                                let idx = rng.index(led);
                                stage.mark_scheduled(port, vc, idx, Cycle::new(now + 4));
                            }
                        }
                        _ => now += 1,
                    }
                    let at = Cycle::new(now);
                    let mut reference = stage.clone();
                    let mut want_routed = Vec::new();
                    let want = scan_every_queue(&mut reference, at, |d| {
                        want_routed.push(d);
                        route_of(d)
                    });
                    let mut got_routed = Vec::new();
                    let outputs = stage.gather_ready(at, |d| {
                        got_routed.push(d);
                        route_of(d)
                    });
                    let context = format!("{vcs} VCs, seed {seed}, step {step}");
                    assert_eq!(got_routed, want_routed, "route compute order, {context}");
                    for i in 0..Port::COUNT * vcs {
                        let (l, r) = (stage.lanes.lane(i), reference.lanes.lane(i));
                        assert_eq!(l.route, r.route, "installed route, {context}");
                    }
                    for &out in &Port::ALL {
                        let listed = stage.ready_len[out.index()];
                        let got: Vec<(Port, usize)> =
                            (0..listed).map(|i| stage.ready_lane(out, i)).collect();
                        assert_eq!(got, want[out.index()], "{out:?} ready lanes, {context}");
                        let flagged = outputs & 1 << out.index() != 0;
                        assert_eq!(flagged, listed > 0, "{out:?} flag, {context}");
                        // The pick draws and keeps what a shuffle of the
                        // ascending list, cut to the limit, does.
                        let mut shuffled = want[out.index()].clone();
                        let mut want_rng = rng.clone();
                        want_rng.shuffle(&mut shuffled);
                        shuffled.truncate(config.control_lanes as usize);
                        let limit = config.control_lanes as usize;
                        let picked = stage.pick_ready(out, &mut rng, limit);
                        let got: Vec<(Port, usize)> =
                            (0..picked).map(|i| stage.ready_lane(out, i)).collect();
                        assert_eq!(got, shuffled, "{out:?} picked lanes, {context}");
                        assert_eq!(rng, want_rng, "{out:?} draws, {context}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_or_nothing_dry_run_withdraws_every_booking() {
        let mut stage = ReservationStage::new(&FrConfig::fr6());
        let now = Cycle::ZERO;
        stage.advance_all(now);
        let led = |arrival: u64, scheduled: bool| LedFlit {
            arrival: Cycle::new(arrival),
            scheduled,
            flit: DataFlit {
                packet: PacketId::new(1),
                seq: 0,
                length: 3,
                dest: NodeId::new(5),
                created_at: now,
                crc_ok: true,
            },
        };
        let flits = [led(2, false), led(3, true), led(4, false)];
        // A bounded mesh port and the unbounded ejection table.
        for port in [Port::East, Port::Local] {
            let before = stage.tables[port].snapshot();
            assert!(stage.feasible_all(port, now, &flits, |_| false));
            // Only cycle 3 stays open: the first unscheduled flit books
            // it and the last finds nothing.
            assert!(!stage.feasible_all(port, now, &flits, |c| c != Cycle::new(3)));
            let after = stage.tables[port].snapshot();
            assert_eq!(after, before, "{port:?}: a dry run must leave no booking");
        }
        assert_eq!(stage.reservation_misses(), 2);
    }

    #[test]
    fn failed_injection_booking_withdraws_every_slot() {
        let config = FrConfig::fr6().with_flits_per_control(4);
        let mut ni = FrNiStage::new(&config);
        let now = Cycle::ZERO;
        ni.advance_table(now);
        // Only cycles 7 and 9 of the horizon stay free, so two of the
        // four led flits find a slot and the third does not.
        for c in (1..=config.horizon).filter(|&c| c != 7 && c != 9) {
            ni.inject_table.reserve(Cycle::new(c));
            ni.inject_table.credit(Cycle::new(c + 1), now);
        }
        ni.push_packet(Packet {
            id: PacketId::new(1),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            length_flits: 4,
            created_at: now,
        });
        assert!(ni.stage_next_packet(4));
        let before = ni.snapshot();
        assert!(!ni.schedule_injections(now, 1));
        assert_eq!(
            ni.snapshot(),
            before,
            "a failed booking must leave no trace"
        );
        // With the horizon clear the same control flit books all four.
        ni.advance_table(Cycle::new(config.horizon + 1));
        assert!(ni.schedule_injections(Cycle::new(config.horizon + 1), 1));
        assert_eq!(ni.data_ready_len(), 4);
    }
}
