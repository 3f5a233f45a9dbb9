//! The flit-reservation router (paper Figure 3), as a thin driver over
//! the pipeline stages in [`crate::stages`].
//!
//! The upper half is the control network: control flits arrive in per-VC
//! queues, are routed (heads) or follow their VC's route (bodies), and are
//! presented to the output scheduler of their output port. The output
//! scheduler books each led data flit into the output reservation table;
//! every successful booking is reported to the input scheduler of the
//! originating input port, which fills the input reservation table and
//! returns an advance credit upstream. Once all of a control flit's data
//! flits are scheduled, the control flit is forwarded (or consumed, at the
//! destination, after scheduling the ejection).
//!
//! The lower half is the data network: each cycle the input reservation
//! tables *direct* the data path — which buffer to write the arriving flit
//! to and which buffer to drive onto which output channel. "There are no
//! decisions to be made as all of the work has been done ahead of time by
//! the control flits."
//!
//! `step` owns no routing, scheduling or buffering state of its own: it
//! moves typed requests and grants (`ReservationRequest`/`Grant`,
//! `VcAllocRequest`/`Grant`) between the route-compute, control,
//! reservation, data-path and injection stages. With
//! [`FrRouter::enable_contract_checks`] a `StageContractChecker` verifies
//! the inter-stage contracts every cycle.

use crate::stages::{pick_free, ControlStage, DataPathStage, FrNiStage, ReservationStage};
use crate::{ArrivalOutcome, FrConfig, SchedulingPolicy};
use noc_engine::stats::RunningStats;
use noc_engine::trace::{NullSink, TraceSink};
use noc_engine::{Cycle, Rng};
use noc_flow::pipeline::{ReservationRequest, StallScan, VcAllocGrant, VcAllocRequest};
use noc_flow::{LinkEvent, RouteCompute, Router, StageContractChecker, StepOutputs, TraceEmit};
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::Packet;

/// A flit-reservation flow-control router.
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] disables
/// tracing at zero cost, [`FrRouter::with_tracer`] plugs a real sink in.
///
/// # Examples
///
/// ```
/// use flit_reservation::{FrConfig, FrRouter};
/// use noc_engine::Rng;
/// use noc_topology::{Mesh, NodeId};
///
/// let mesh = Mesh::new(8, 8);
/// let router = FrRouter::new(mesh, NodeId::new(0), FrConfig::fr6(), Rng::from_seed(9));
/// use noc_flow::Router as _;
/// assert_eq!(router.data_buffer_capacity(noc_topology::Port::East), 6);
/// ```
#[derive(Clone, Debug)]
pub struct FrRouter<S: TraceSink = NullSink> {
    node: NodeId,
    config: FrConfig,
    rng: Rng,
    route: RouteCompute,
    control: ControlStage,
    reservation: ReservationStage,
    data: DataPathStage,
    ni: FrNiStage,
    /// Runtime verifier of the inter-stage contracts, off by default so
    /// the hot path pays nothing.
    contracts: Option<StageContractChecker>,
    sink: S,
}

impl FrRouter {
    /// Creates an untraced router for `node` of `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`FrConfig::validate`]).
    pub fn new(mesh: Mesh, node: NodeId, config: FrConfig, rng: Rng) -> Self {
        FrRouter::with_tracer(mesh, node, config, rng, NullSink)
    }
}

impl<S: TraceSink> FrRouter<S> {
    /// Creates a router that reports every event to `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`FrConfig::validate`]).
    pub fn with_tracer(mesh: Mesh, node: NodeId, config: FrConfig, rng: Rng, sink: S) -> Self {
        config.validate();
        FrRouter {
            node,
            rng,
            route: RouteCompute::new(mesh, node),
            control: ControlStage::new(&config),
            reservation: ReservationStage::new(&config),
            data: DataPathStage::new(&config),
            ni: FrNiStage::new(&config),
            contracts: None,
            config,
            sink,
        }
    }

    /// Buffer transfers incurred so far under the bind-at-reservation
    /// ablation, as `(transfers, residencies)`; `None` when running the
    /// paper's deferred-binding policy (which never transfers).
    pub fn buffer_transfers(&self) -> Option<(u64, u64)> {
        self.data.buffer_transfers()
    }

    /// The router's configuration.
    pub fn config(&self) -> &FrConfig {
        &self.config
    }

    /// Lead (in cycles) of ejection-scheduling control flits over their
    /// data flits at this node, sampled when each reservation is made.
    pub fn dest_lead(&self) -> &RunningStats {
        self.reservation.dest_lead()
    }

    /// Turns on per-cycle verification of the inter-stage contracts.
    /// Each breach is surfaced as a `StageContractViolation` trace event
    /// and retained in the checker (see [`FrRouter::contract_checker`]).
    pub fn enable_contract_checks(&mut self) {
        self.contracts = Some(StageContractChecker::new());
    }

    /// The stage-contract checker, if enabled.
    pub fn contract_checker(&self) -> Option<&StageContractChecker> {
        self.contracts.as_ref()
    }

    /// Releases NI data flits whose scheduled injection cycle is `now`
    /// into the local input channel (delivered with this cycle's other
    /// arrivals by [`Self::accept_arrivals`]).
    fn release_injections(&mut self, now: Cycle) {
        if let Some(flit) = self.ni.take_due_injection(now) {
            self.sink.flit_injected(now, self.node, &flit);
            self.data.queue_arrival(Port::Local, flit);
        }
    }

    /// Buffers this cycle's arrivals into the input pools (after the
    /// departures of the same cycle have freed their buffers), forwarding
    /// same-cycle bypass flits straight to their reserved outputs.
    fn accept_arrivals(&mut self, now: Cycle, out: &mut StepOutputs) {
        let pending = self.data.take_pending();
        for &(port, flit) in &pending {
            match self.data.accept(port, flit, now) {
                ArrivalOutcome::Parked(buffer) => {
                    self.sink.buffer_alloc(now, self.node, port, buffer, &flit);
                }
                ArrivalOutcome::Bypass { out_port } => {
                    // A bypass traverses its reserved output this cycle;
                    // the output table's busy bit guarantees exclusivity.
                    if let Some(ck) = self.contracts.as_mut() {
                        ck.note_departure(out_port);
                    }
                    if out_port == Port::Local {
                        out.eject(flit, now);
                    } else {
                        self.data.note_data_sent();
                        self.sink.data_sent(now, self.node, out_port, &flit);
                        out.send(out_port, LinkEvent::Data(flit));
                    }
                }
                ArrivalOutcome::Scheduled(_, buffer) => {
                    self.sink.buffer_alloc(now, self.node, port, buffer, &flit);
                }
            }
        }
        self.data.restore_pending(pending);
    }

    /// Attempts to reserve departures for every still-unscheduled data
    /// flit of the control flit at the front of `(in_port, vc)`, routed to
    /// `out_port`. Returns `true` if the control flit is fully scheduled.
    ///
    /// Each attempt crosses the stage boundary as a typed
    /// [`ReservationRequest`]; the reservation stage answers with a
    /// `ReservationGrant` naming the booked departure cycle.
    ///
    /// Under per-flit scheduling, successfully booked flits stay booked
    /// even when later ones fail ("each successfully scheduled data flit
    /// can hence move on to the next hop"); under all-or-nothing a dry run,
    /// withdrawn before the commit, guarantees the commit either books
    /// everything or nothing.
    fn schedule_led_flits(
        &mut self,
        in_port: Port,
        vc: usize,
        out_port: Port,
        now: Cycle,
        out: &mut StepOutputs,
    ) -> bool {
        if self.config.policy == SchedulingPolicy::AllOrNothing {
            let led = &self
                .control
                .front_flit(in_port, vc)
                .expect("caller guarantees a front flit")
                .led;
            let data = &self.data;
            let feasible = self
                .reservation
                .feasible_all(out_port, now, led, |c| data.departure_booked(in_port, c));
            if !feasible {
                return false;
            }
        }

        // One walk finds the first unscheduled entry and counts the
        // unscheduled ones; each booking then resumes past the entry it
        // booked.
        let led = &self
            .control
            .front_flit(in_port, vc)
            .expect("caller guarantees a front flit")
            .led;
        let Some(mut idx) = led.iter().position(|l| !l.scheduled) else {
            return true;
        };
        let mut unscheduled = led[idx..].iter().filter(|l| !l.scheduled).count();
        loop {
            let entry = &self
                .control
                .front_flit(in_port, vc)
                .expect("front still present")
                .led[idx];
            let (t_a, led_flit) = (entry.arrival, entry.flit);
            // Demanding `remaining` free buffers guarantees this control
            // flit can always complete its schedule and travel on to
            // release the flits it has already sent ahead (the greedy
            // policy reproduces the paper's literal one-buffer rule).
            let remaining = if self.config.policy == SchedulingPolicy::PerFlitGreedy {
                1
            } else {
                unscheduled as i64
            };
            let req = ReservationRequest {
                in_port,
                out_port,
                arrival: t_a,
                min_free: remaining,
            };
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_reservation_request(req);
            }
            // The input's single read port rejects cycles it has already
            // booked a departure on (paper footnote 7).
            let data = &self.data;
            let grant = self
                .reservation
                .try_reserve(&req, now, |c| data.departure_booked(in_port, c));
            let grant = match grant {
                Some(g) => g,
                None => {
                    // Stall; already-booked flits stand.
                    return false;
                }
            };
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_reservation_grant(&req, grant);
            }
            let t_d = grant.departure;
            self.data
                .apply_reservation(in_port, t_a, t_d, out_port, now);
            // Ejection reservations hold no channel bandwidth, so only
            // mesh-port grants are traced (and must be consumed by a
            // matching data-flit departure).
            if out_port != Port::Local {
                self.sink.channel_grant(now, self.node, out_port, t_d);
            }
            self.sink
                .reservation_made(now, self.node, &led_flit, in_port, out_port, t_a, t_d);
            self.data.book_transfer(in_port, t_a, t_d);
            if out_port == Port::Local {
                // How far ahead of its data flit did this control flit
                // schedule the ejection? Negative = data flit got here
                // first and waited in the schedule list.
                self.reservation.record_dest_lead(t_a, now);
            }
            // Advance credit: the buffer at this input frees at t_d, plus
            // the plesiochronous synchronization margin (Section 5).
            let frees_at = t_d + self.config.sync_margin;
            if in_port == Port::Local {
                self.ni.inject_credit(frees_at, now);
            } else {
                self.sink.credit_sent(now, self.node, in_port, 0);
                out.send(in_port, LinkEvent::FrCredit { frees_at });
            }
            self.control
                .mark_scheduled(in_port, vc, idx, t_d + self.config.timing.data_delay);
            unscheduled -= 1;
            if unscheduled == 0 {
                return true;
            }
            let led = &self
                .control
                .front_flit(in_port, vc)
                .expect("front still present")
                .led;
            idx += 1 + led[idx + 1..]
                .iter()
                .position(|l| !l.scheduled)
                .expect("an unscheduled entry remains");
        }
    }

    /// Processes up to `control_lanes` control flits per output port:
    /// VC allocation, output scheduling, forwarding/consumption.
    ///
    /// One pass over the occupied control lanes routes the heads and
    /// lists each output's ready lanes in ascending (input port, VC)
    /// order. Each output's candidates are then its list, shuffled and
    /// cut to `control_lanes`.
    fn process_control(&mut self, now: Cycle, out: &mut StepOutputs) {
        let route = &mut self.route;
        let outputs = self.control.gather_ready(now, |dest| route.route(dest));
        let limit = self.config.control_lanes as usize;
        for &out_port in &Port::ALL {
            if outputs & 1 << out_port.index() == 0 {
                continue;
            }
            let picked = self.control.pick_ready(out_port, &mut self.rng, limit);
            for i in 0..picked {
                let (in_port, vc) = self.control.ready_lane(out_port, i);
                self.process_one_control(in_port, vc, out_port, now, out);
            }
        }
    }

    fn process_one_control(
        &mut self,
        in_port: Port,
        vc: usize,
        out_port: Port,
        now: Cycle,
        out: &mut StepOutputs,
    ) {
        // Downstream control VC allocation (heads, non-local routes): a
        // typed request into the control stage's allocator.
        if out_port != Port::Local && self.control.out_vc(in_port, vc).is_none() {
            let req = VcAllocRequest {
                in_port,
                in_vc: vc,
                out_port,
            };
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_vc_request(req);
            }
            match self
                .control
                .try_alloc_out_vc(in_port, vc, out_port, &mut self.rng)
            {
                Some(granted) => {
                    if let Some(ck) = self.contracts.as_mut() {
                        ck.note_vc_grant(&req, VcAllocGrant { out_vc: granted });
                    }
                }
                None => return, // stall: no downstream control VC
            }
        }
        // Credit check before doing the scheduling work: a forwarded
        // control flit needs a downstream queue slot.
        let out_vc = if out_port == Port::Local {
            0
        } else {
            let ovc = self.control.out_vc(in_port, vc).expect("allocated above");
            if !self.control.has_credit(out_port, ovc) {
                return; // stall: downstream control queue full
            }
            ovc
        };

        if !self.schedule_led_flits(in_port, vc, out_port, now, out) {
            return; // stall: some data flit could not be scheduled yet
        }

        // Fully scheduled: consume or forward the control flit.
        let mut flit = self.control.pop_front(in_port, vc);
        let is_tail = flit.is_tail;
        if in_port != Port::Local {
            self.sink.credit_sent(now, self.node, in_port, vc as u8);
            out.send(in_port, LinkEvent::ControlCredit { vc: vc as u8 });
        }
        if out_port == Port::Local {
            // Destination: the control flit has scheduled the ejection of
            // its data flits and is consumed.
        } else {
            self.control.consume_credit(out_port, out_vc);
            flit.vc = out_vc;
            self.control.note_control_sent();
            self.sink
                .control_sent(now, self.node, out_port, out_vc, flit.packet);
            out.send(out_port, LinkEvent::Control(flit));
        }
        if is_tail {
            self.control.end_packet(in_port, vc, out_port);
        }
    }

    /// Executes booked departures: drive buffers onto output channels.
    fn run_data_path(&mut self, now: Cycle, out: &mut StepOutputs) {
        for &port in &Port::ALL {
            if let Some((flit, out_port, buffer)) = self.data.take_departure(port, now) {
                if let Some(ck) = self.contracts.as_mut() {
                    ck.note_departure(out_port);
                }
                self.sink.buffer_free(now, self.node, port, buffer, &flit);
                if out_port == Port::Local {
                    out.eject(flit, now);
                } else {
                    self.data.note_data_sent();
                    self.sink.data_sent(now, self.node, out_port, &flit);
                    out.send(out_port, LinkEvent::Data(flit));
                }
            }
        }
    }

    /// NI: stage pending packets and push their control flits into the
    /// local control input, scheduling data-flit injections.
    fn inject_control(&mut self, now: Cycle) {
        let lanes = self.config.control_lanes;
        let d = self.config.flits_per_control as usize;
        for _ in 0..lanes {
            if self.ni.staged_is_empty() && !self.ni.stage_next_packet(d) {
                break;
            }
            let is_head = self.ni.staged_front_is_head();
            // Pick / look up the local control VC for this packet.
            let vc = if is_head {
                let control = &self.control;
                let depth = self.config.control_queue_depth;
                let Some(chosen) = pick_free(self.config.control_vcs, &mut self.rng, |v| {
                    control.queue_len(Port::Local, v) < depth
                }) else {
                    break;
                };
                let chosen = chosen as u8;
                self.ni.bind_vc(chosen);
                chosen
            } else {
                match self.ni.current_vc() {
                    Some(v)
                        if self.control.queue_len(Port::Local, v as usize)
                            < self.config.control_queue_depth =>
                    {
                        v
                    }
                    _ => break,
                }
            };
            // Schedule the injection of this control flit's data flits. A
            // control flit is only injected "after [it has] scheduled the
            // injection times of [its] data flits".
            if !self
                .ni
                .schedule_injections(now, self.config.timing.control_lead)
            {
                break;
            }
            let mut flit = self.ni.pop_staged();
            flit.vc = vc;
            if flit.is_tail {
                self.ni.unbind_vc();
            }
            self.control.push(Port::Local, vc as usize, flit, now);
        }
    }
}

impl<S: TraceSink> Router for FrRouter<S> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle) {
        match event {
            LinkEvent::Data(flit) => {
                // Deferred to `step`: this cycle's departures must free
                // their buffers before this arrival claims one.
                self.data.queue_arrival(port, flit);
            }
            LinkEvent::Control(mut flit) => {
                // Every led flit must be rescheduled at this router.
                for led in &mut flit.led {
                    led.scheduled = false;
                }
                let vc = flit.vc as usize;
                assert!(vc < self.config.control_vcs, "control vc out of range");
                assert!(
                    self.control.queue_len(port, vc) < self.config.control_queue_depth,
                    "control queue overflow at node {} port {port}",
                    self.node
                );
                self.control.push(port, vc, flit, now);
            }
            LinkEvent::ControlCredit { vc } => {
                self.control
                    .credit_returned(port, vc, self.config.control_queue_depth);
            }
            LinkEvent::FrCredit { frees_at } => {
                // Slide the window to `now` before applying: if this
                // router was idle-skipped, the table base is stale and the
                // credit could land beyond the old window. Advancing first
                // is state-identical to the advance the step phase would
                // have performed (recycled slots inherit `tail_free`
                // either way), so stepped and skipped runs stay bit-equal.
                self.reservation.apply_credit(port, frees_at, now);
            }
            other => panic!("FR router received foreign event {other:?}"),
        }
    }

    fn try_inject(&mut self, packet: Packet, _now: Cycle) -> bool {
        self.ni.push_packet(packet);
        true
    }

    fn step(&mut self, now: Cycle, out: &mut StepOutputs) {
        if let Some(ck) = self.contracts.as_mut() {
            ck.begin_cycle();
        }
        self.reservation.advance_all(now);
        self.data.advance_all(now);
        self.ni.advance_table(now);
        if now.raw().is_multiple_of(64) {
            self.data.collect_garbage(now);
        }
        self.run_data_path(now, out);
        self.release_injections(now);
        self.accept_arrivals(now, out);
        self.process_control(now, out);
        self.inject_control(now);
        if let Some(ck) = self.contracts.as_ref() {
            for &code in ck.end_cycle() {
                self.sink.stage_violation(now, self.node, code);
            }
        }
    }

    fn occupied_data_buffers(&self, port: Port) -> usize {
        self.data.occupied(port)
    }

    fn data_buffer_capacity(&self, port: Port) -> usize {
        self.data.capacity(port)
    }

    fn queued_flits(&self) -> usize {
        let pooled: usize = Port::ALL.iter().map(|&p| self.data.occupied(p)).sum();
        pooled + self.ni.pending_flits() + self.ni.data_ready_len()
    }

    /// Quiescent when no control flit is queued at any input, the NI has
    /// nothing pending, staged or scheduled for injection, no data flit
    /// awaits buffering and every input reservation table is free of
    /// bookings, parked flits and buffered flits. Output-table `busy`
    /// entries need no separate check: every future departure booked on an
    /// output channel is paired with an input-table booking here, and the
    /// remaining free-buffer bookkeeping advances identically whether the
    /// window slides one cycle at a time or jumps on wake-up. The
    /// buffer-transfer ablation keeps per-buffer interval state with its
    /// own garbage-collection schedule, so it conservatively never idles.
    fn is_idle(&self) -> bool {
        if self.data.has_transfer_counters() {
            return false;
        }
        self.data.pending_empty()
            && self.ni.is_quiet()
            && self.control.is_empty()
            && Port::ALL.iter().all(|&p| self.data.is_quiet(p))
    }

    fn collect_counters(&self, out: &mut noc_flow::RouterCounters) {
        out.reservation_hits = self.reservation.scheduled_flits();
        out.reservation_misses = self.reservation.reservation_misses();
        out.control_flits_sent = self.control.control_flits_sent();
        out.zero_turnaround_departures = self.data.bypassed_flits();
        out.parked_arrivals = self.data.parked_arrivals();
        out.data_flits_sent = self.data.data_flits_sent();
        out.bookings_in_flight = self.data.bookings_in_flight();
        out.masked_routes = self.route.masked_routes();
    }

    fn on_link_dead(&mut self, port: Port) {
        self.route.mask_dead(port);
    }

    fn bookings_in_flight(&self) -> u64 {
        self.data.bookings_in_flight()
    }

    /// Full post-mortem dump: every pipeline stage's live state, keyed
    /// by stage name (see DESIGN.md §12 for the schema). Reservation
    /// tables unroll into time order, so `frfc-inspect` can print the
    /// paper's Figure 4 slot occupancy directly from the dump.
    fn state_snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::{Json, Snapshot};
        Json::obj(vec![
            ("family".into(), Json::str("fr")),
            ("node".into(), Json::Num(self.node.raw() as f64)),
            ("route".into(), self.route.snapshot()),
            ("control".into(), self.control.snapshot()),
            ("reservation".into(), self.reservation.snapshot()),
            ("data".into(), self.data.snapshot()),
            ("ni".into(), self.ni.snapshot()),
        ])
    }

    /// Marks every control flit that was eligible this cycle but is still
    /// queued after the step: it lost control arbitration, found no free
    /// downstream control VC, ran out of control credit, or missed a
    /// reservation-table slot for one of its data flits. Data flits never
    /// stall on credit here — their departures are pre-reserved — so the
    /// data plane emits nothing and parked waits fall into the collector's
    /// buffer-wait bucket, which is exactly the paper's claim rendered as
    /// attribution.
    fn emit_stall_provenance(&mut self, now: Cycle) {
        let scan = match StallScan::begin(&self.sink, now, self.node) {
            Some(s) => s,
            None => return,
        };
        let sink = &mut self.sink;
        self.control.routed_fronts(|packet, arrived| {
            if scan.eligible(arrived) {
                scan.control_stall(sink, packet);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BufferAllocPolicy;
    use noc_flow::{ControlFlit, ControlKind, DataFlit, LedFlit, RouterCounters};
    use noc_traffic::PacketId;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn counters(r: &FrRouter) -> RouterCounters {
        let mut c = RouterCounters::default();
        r.collect_counters(&mut c);
        c
    }

    fn fr_router(x: u16, y: u16, config: FrConfig) -> FrRouter {
        let m = mesh();
        FrRouter::new(m, m.node_at(x, y), config, Rng::from_seed(5))
    }

    fn packet(m: Mesh, src: (u16, u16), dst: (u16, u16), len: u32) -> Packet {
        Packet {
            id: PacketId::new(1),
            src: m.node_at(src.0, src.1),
            dest: m.node_at(dst.0, dst.1),
            length_flits: len,
            created_at: Cycle::ZERO,
        }
    }

    /// Timestamped sends and ejections collected by `drive`.
    type Driven = (Vec<(u64, Port, LinkEvent)>, Vec<(u64, DataFlit)>);

    /// Drives the router, returning (cycle, port, event) sends plus
    /// ejections.
    fn drive(r: &mut FrRouter, from: u64, to: u64) -> Driven {
        let mut sends = Vec::new();
        let mut ejections = Vec::new();
        for t in from..to {
            let mut out = StepOutputs::new();
            r.step(Cycle::new(t), &mut out);
            for (p, e) in out.sends {
                sends.push((t, p, e));
            }
            for e in out.ejections {
                ejections.push((t, e.flit));
            }
        }
        (sends, ejections)
    }

    /// Like `drive`, but echoes a control credit back one cycle after
    /// every forwarded control flit, emulating an uncongested downstream
    /// router draining its control queues.
    fn drive_echo(r: &mut FrRouter, from: u64, to: u64) -> Driven {
        let mut sends = Vec::new();
        let mut ejections = Vec::new();
        let mut pending: Vec<(u64, Port, u8)> = Vec::new();
        for t in from..to {
            let now = Cycle::new(t);
            pending.retain(|&(due, port, vc)| {
                if due <= t {
                    r.receive(port, LinkEvent::ControlCredit { vc }, now);
                    false
                } else {
                    true
                }
            });
            let mut out = StepOutputs::new();
            r.step(now, &mut out);
            for (p, e) in out.sends {
                if let LinkEvent::Control(cf) = &e {
                    pending.push((t + 1, p, cf.vc));
                }
                sends.push((t, p, e));
            }
            for e in out.ejections {
                ejections.push((t, e.flit));
            }
        }
        (sends, ejections)
    }

    fn data_flit(seq: u32, len: u32, dest: NodeId) -> DataFlit {
        DataFlit {
            packet: PacketId::new(9),
            seq,
            length: len,
            dest,
            created_at: Cycle::ZERO,
            crc_ok: true,
        }
    }

    #[test]
    fn injected_packet_flows_east_control_before_data() {
        let m = mesh();
        let mut r = fr_router(0, 0, FrConfig::fr6());
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        let (sends, ejections) = drive_echo(&mut r, 0, 40);
        assert!(ejections.is_empty());
        let controls: Vec<(u64, &ControlFlit)> = sends
            .iter()
            .filter_map(|(t, p, e)| match e {
                LinkEvent::Control(cf) => {
                    assert_eq!(*p, Port::East);
                    Some((*t, cf))
                }
                _ => None,
            })
            .collect();
        let datas: Vec<(u64, &DataFlit)> = sends
            .iter()
            .filter_map(|(t, p, e)| match e {
                LinkEvent::Data(f) => {
                    assert_eq!(*p, Port::East);
                    Some((*t, f))
                }
                _ => None,
            })
            .collect();
        assert_eq!(controls.len(), 5, "d=1: one control flit per data flit");
        assert_eq!(datas.len(), 5);
        // The control head leads and every control flit precedes its data
        // flit on the wire.
        assert!(controls[0].1.is_head());
        assert!(controls[4].1.is_tail);
        for (ct, cf) in &controls {
            let led = &cf.led[0];
            assert!(led.scheduled);
            // The carried arrival time names the *next-hop* arrival:
            // departure + 4-cycle data link.
            let dep = led.arrival.raw() - 4;
            assert!(
                *ct < dep,
                "control flit sent at {ct} must precede data departure {dep}"
            );
            assert!(
                datas.iter().any(|(dt, _)| *dt == dep),
                "a data flit departs at the reserved cycle {dep}"
            );
        }
        // At most 2 control flits per cycle on the link.
        for t in 0..40u64 {
            let n = controls.iter().filter(|(ct, _)| *ct == t).count();
            assert!(n <= 2, "{n} control flits in cycle {t}");
        }
        // All data departures distinct (channel busy bits).
        let mut dep_cycles: Vec<u64> = datas.iter().map(|(t, _)| *t).collect();
        dep_cycles.sort_unstable();
        dep_cycles.dedup();
        assert_eq!(dep_cycles.len(), 5);
    }

    #[test]
    fn arriving_packet_is_ejected_and_credited() {
        let m = mesh();
        let mut r = fr_router(1, 0, FrConfig::fr6());
        let dest = m.node_at(1, 0);
        // A single-flit packet from the west: control head at cycle 0,
        // data flit arriving at cycle 6.
        let cf = ControlFlit {
            vc: 0,
            kind: ControlKind::Head { dest },
            is_tail: true,
            led: vec![LedFlit {
                arrival: Cycle::new(6),
                scheduled: true, // will be reset on receive
                flit: data_flit(0, 1, dest),
            }],
            packet: PacketId::new(9),
        };
        r.receive(Port::West, LinkEvent::Control(cf), Cycle::ZERO);
        let mut out = StepOutputs::new();
        r.step(Cycle::ZERO, &mut out);
        assert!(out.sends.is_empty(), "not processed until arrived+1");
        // Cycle 1: control flit processed, ejection scheduled, credits go
        // back west.
        let mut out = StepOutputs::new();
        r.step(Cycle::new(1), &mut out);
        let kinds: Vec<&LinkEvent> = out.sends.iter().map(|(_, e)| e).collect();
        assert!(kinds
            .iter()
            .any(|e| matches!(e, LinkEvent::FrCredit { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, LinkEvent::ControlCredit { vc: 0 })));
        assert!(!kinds.iter().any(|e| matches!(e, LinkEvent::Control(_))));
        // Data flit arrives at 6 and must be ejected at its reserved time.
        drive(&mut r, 2, 6);
        r.receive(
            Port::West,
            LinkEvent::Data(data_flit(0, 1, dest)),
            Cycle::new(6),
        );
        let (_, ejections) = drive(&mut r, 6, 20);
        assert_eq!(ejections.len(), 1);
        // With same-cycle bypass the flit can eject in its arrival cycle.
        assert!(ejections[0].0 >= 6);
        assert_eq!(counters(&r).reservation_hits, 1);
        assert_eq!(counters(&r).parked_arrivals, 0);
    }

    #[test]
    fn early_data_flit_parks_then_ejects() {
        let m = mesh();
        let mut r = fr_router(2, 2, FrConfig::fr6());
        let dest = m.node_at(2, 2);
        // Data flit beats its control flit by 3 cycles.
        r.receive(
            Port::North,
            LinkEvent::Data(data_flit(0, 1, dest)),
            Cycle::ZERO,
        );
        let mut out = StepOutputs::new();
        r.step(Cycle::ZERO, &mut out);
        assert_eq!(counters(&r).parked_arrivals, 1);
        assert_eq!(r.occupied_data_buffers(Port::North), 1);
        let cf = ControlFlit {
            vc: 1,
            kind: ControlKind::Head { dest },
            is_tail: true,
            led: vec![LedFlit {
                arrival: Cycle::ZERO,
                scheduled: false,
                flit: data_flit(0, 1, dest),
            }],
            packet: PacketId::new(9),
        };
        r.receive(Port::North, LinkEvent::Control(cf), Cycle::new(3));
        let (_, ejections) = drive(&mut r, 1, 20);
        assert_eq!(ejections.len(), 1, "parked flit must still be delivered");
        assert_eq!(r.occupied_data_buffers(Port::North), 0);
    }

    #[test]
    fn leading_control_defers_data_injection() {
        let m = mesh();
        let lead = 4;
        let cfg = FrConfig::fr6().with_timing(noc_flow::LinkTiming::leading_control(lead));
        let mut r = FrRouter::new(m, m.node_at(0, 0), cfg, Rng::from_seed(5));
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        let (sends, _) = drive(&mut r, 0, 60);
        let first_control = sends
            .iter()
            .find_map(|(t, _, e)| matches!(e, LinkEvent::Control(_)).then_some(*t))
            .expect("control flits leave");
        let first_data = sends
            .iter()
            .find_map(|(t, _, e)| matches!(e, LinkEvent::Data(_)).then_some(*t))
            .expect("data flits leave");
        // The control flit was pushed at cycle 0; its data flit could not
        // be injected before cycle `lead` (and may bypass the router in
        // its injection cycle).
        assert!(first_data > first_control);
        assert!(first_data >= lead, "data deferred behind {lead}-cycle lead");
    }

    #[test]
    fn all_or_nothing_matches_per_flit_for_d1() {
        // With d = 1 a control flit leads one data flit, so the two
        // policies must schedule identically.
        let m = mesh();
        let mut per_flit = fr_router(0, 0, FrConfig::fr6());
        let mut aon = fr_router(
            0,
            0,
            FrConfig::fr6().with_policy(SchedulingPolicy::AllOrNothing),
        );
        assert!(per_flit.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        assert!(aon.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        let (sends_a, _) = drive(&mut per_flit, 0, 40);
        let (sends_b, _) = drive(&mut aon, 0, 40);
        let only_data = |v: &[(u64, Port, LinkEvent)]| -> Vec<u64> {
            v.iter()
                .filter(|(_, _, e)| matches!(e, LinkEvent::Data(_)))
                .map(|(t, _, _)| *t)
                .collect()
        };
        assert_eq!(only_data(&sends_a), only_data(&sends_b));
    }

    #[test]
    fn multi_flit_control_leads_several_data_flits() {
        let m = mesh();
        let cfg = FrConfig::fr6().with_flits_per_control(4);
        let mut r = FrRouter::new(m, m.node_at(0, 0), cfg, Rng::from_seed(5));
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        let (sends, _) = drive(&mut r, 0, 40);
        let controls: Vec<&ControlFlit> = sends
            .iter()
            .filter_map(|(_, _, e)| match e {
                LinkEvent::Control(cf) => Some(cf),
                _ => None,
            })
            .collect();
        // 5 data flits with d=4: a head leading 4 and a tail leading 1.
        assert_eq!(controls.len(), 2);
        assert_eq!(controls[0].led.len(), 4);
        assert_eq!(controls[1].led.len(), 1);
        let datas = sends
            .iter()
            .filter(|(_, _, e)| matches!(e, LinkEvent::Data(_)))
            .count();
        assert_eq!(datas, 5);
    }

    #[test]
    fn transfer_counting_is_enabled_by_policy() {
        let m = mesh();
        let cfg = FrConfig {
            buffer_alloc: BufferAllocPolicy::AtReservation,
            ..FrConfig::fr6()
        };
        let mut r = FrRouter::new(m, m.node_at(0, 0), cfg, Rng::from_seed(5));
        assert_eq!(r.buffer_transfers(), Some((0, 0)));
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        drive_echo(&mut r, 0, 40);
        let (transfers, booked) = r.buffer_transfers().unwrap();
        assert_eq!(booked, 5, "five residencies booked");
        assert_eq!(transfers, 0, "an idle router never needs transfers");
        let plain = fr_router(0, 0, FrConfig::fr6());
        assert_eq!(plain.buffer_transfers(), None);
    }

    #[test]
    #[should_panic(expected = "control queue overflow")]
    fn control_queue_overflow_panics() {
        let m = mesh();
        let mut r = fr_router(1, 1, FrConfig::fr6());
        let dest = m.node_at(3, 1);
        for i in 0..4u64 {
            let cf = ControlFlit {
                vc: 0,
                kind: if i == 0 {
                    ControlKind::Head { dest }
                } else {
                    ControlKind::Body
                },
                is_tail: false,
                led: vec![],
                packet: PacketId::new(9),
            };
            // Four arrivals with no processing in between: the 3-deep
            // control VC queue overflows.
            r.receive(Port::West, LinkEvent::Control(cf), Cycle::ZERO);
        }
    }

    #[test]
    fn queued_flits_counts_everything() {
        let m = mesh();
        let mut r = fr_router(0, 0, FrConfig::fr6());
        assert_eq!(r.queued_flits(), 0);
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        assert_eq!(r.queued_flits(), 5, "pending packet counts its flits");
        drive_echo(&mut r, 0, 60);
        assert_eq!(r.queued_flits(), 0, "everything drains");
    }

    #[test]
    fn contract_checker_stays_clean_under_load() {
        let m = mesh();
        let mut r = fr_router(1, 1, FrConfig::fr6());
        r.enable_contract_checks();
        assert!(r.try_inject(packet(m, (1, 1), (3, 1), 5), Cycle::ZERO));
        drive_echo(&mut r, 0, 60);
        let ck = r.contract_checker().expect("checker enabled");
        ck.assert_clean();
        assert_eq!(counters(&r).reservation_hits, 5);
    }
}

#[cfg(test)]
mod bypass_router_tests {
    use super::*;
    use noc_flow::{ControlFlit, ControlKind, DataFlit, LedFlit};
    use noc_traffic::PacketId;

    /// With fast control and an idle network, every data flit of a
    /// multi-hop packet should be bypassed (zero cycles in each router),
    /// which is what produces the paper's 27-vs-32 base latency gap.
    #[test]
    fn idle_network_flits_bypass_routers() {
        let m = Mesh::new(4, 4);
        let mut r = FrRouter::new(m, m.node_at(1, 0), FrConfig::fr6(), Rng::from_seed(2));
        let dest = m.node_at(3, 0);
        // Control head arrives at cycle 0 announcing a data flit at 10;
        // the router processes it at cycle 1, far ahead of the data.
        let cf = ControlFlit {
            vc: 0,
            kind: ControlKind::Head { dest },
            is_tail: true,
            led: vec![LedFlit {
                arrival: Cycle::new(10),
                scheduled: false,
                flit: DataFlit {
                    packet: PacketId::new(4),
                    seq: 0,
                    length: 1,
                    dest,
                    created_at: Cycle::ZERO,
                    crc_ok: true,
                },
            }],
            packet: PacketId::new(4),
        };
        r.receive(Port::West, LinkEvent::Control(cf), Cycle::ZERO);
        let mut sends = Vec::new();
        for t in 0..=10u64 {
            if t == 10 {
                r.receive(
                    Port::West,
                    LinkEvent::Data(DataFlit {
                        packet: PacketId::new(4),
                        seq: 0,
                        length: 1,
                        dest,
                        created_at: Cycle::ZERO,
                        crc_ok: true,
                    }),
                    Cycle::new(10),
                );
            }
            let mut out = StepOutputs::new();
            r.step(Cycle::new(t), &mut out);
            for (p, e) in out.sends {
                sends.push((t, p, e));
            }
        }
        // The data flit left on the East port in its arrival cycle.
        let data_sends: Vec<u64> = sends
            .iter()
            .filter(|(_, _, e)| matches!(e, LinkEvent::Data(_)))
            .map(|(t, p, _)| {
                assert_eq!(*p, Port::East);
                *t
            })
            .collect();
        assert_eq!(data_sends, vec![10], "flit must bypass in cycle 10");
        let mut c = noc_flow::RouterCounters::default();
        r.collect_counters(&mut c);
        assert_eq!(c.zero_turnaround_departures, 1);
        assert_eq!(r.occupied_data_buffers(Port::West), 0);
    }
}
