//! The virtual-channel flow-control router (Dally '92), the paper's
//! baseline.
//!
//! Pipeline model (documented in DESIGN.md): every flit arriving at cycle
//! `t` may traverse the switch from `t + 1` — the paper's "routing and
//! scheduling latency is 1 cycle": heads are routed and allocated a
//! virtual channel in the same cycle they traverse; flits blocked by
//! allocation or credits retry each cycle. VC and switch allocation are random,
//! matching the paper's "random arbitration". Credits return on the fast
//! credit wires; a buffer is therefore idle from the moment its flit
//! departs until the credit has propagated back and been processed — the
//! non-zero turnaround time flit-reservation flow control eliminates.
//!
//! The router is a composition of pipeline stages (see
//! [`crate::stages`] and `noc_flow::pipeline`): route compute, VC
//! allocation, switch allocation/traversal, input buffering and
//! injection each own their state; [`VcRouter::step`] is a thin driver
//! moving typed requests and grants between them. With
//! [`VcRouter::enable_contract_checks`] a `StageContractChecker`
//! verifies the inter-stage contracts every cycle.

use crate::stages::{NiStage, ReadyLane, SwitchStage, VcAllocStage, VcInputStage};
use crate::{AllocationUnit, VcConfig};
use noc_engine::trace::{NullSink, TraceSink};
use noc_engine::{Cycle, Rng};
use noc_flow::pipeline::{StallScan, SwitchBid, SwitchContender, VcAllocRequest};
use noc_flow::{
    DataFlit, FlitType, LinkEvent, RouteCompute, Router, StageContractChecker, StepOutputs,
    TraceEmit, VcTag,
};
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::Packet;

/// What a lane whose front passed switch allocation's input gates
/// still waits on downstream.
#[derive(Clone, Copy, Debug)]
enum Downstream {
    /// Nothing: the lane bids.
    Open,
    /// Credit for the flit, or a whole free packet buffer for a
    /// packet-sized head.
    NoCredit,
    /// A store-and-forward head's own tail.
    NoTail,
}

/// A virtual-channel flow-control router.
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] disables
/// tracing at zero cost, [`VcRouter::with_tracer`] plugs a real sink in.
///
/// # Examples
///
/// ```
/// use noc_engine::Rng;
/// use noc_topology::{Mesh, NodeId};
/// use noc_vc::{VcConfig, VcRouter};
///
/// let mesh = Mesh::new(8, 8);
/// let router = VcRouter::new(mesh, NodeId::new(0), VcConfig::vc8(), Rng::from_seed(1));
/// use noc_flow::Router as _;
/// assert_eq!(router.data_buffer_capacity(noc_topology::Port::East), 8);
/// ```
#[derive(Clone, Debug)]
pub struct VcRouter<S: TraceSink = NullSink> {
    node: NodeId,
    config: VcConfig,
    rng: Rng,
    /// Route-compute stage (shared with the FR router family).
    route: RouteCompute,
    /// Input-buffer stage: per-lane queues and allocation state.
    input: VcInputStage,
    /// VC-allocation stage: downstream VC ownership.
    alloc: VcAllocStage,
    /// Switch-allocation + traversal stage: credits and the arbiter.
    switch: SwitchStage,
    /// Injection stage: the network-interface FIFO.
    ni: NiStage,
    /// Runtime verifier of the inter-stage contracts, off by default so
    /// the step loop carries no checking cost.
    contracts: Option<StageContractChecker>,
    /// Per-step scratch, empty between steps: each phase takes its
    /// vector and hands it back cleared, so a warm step allocates
    /// nothing.
    requests: Vec<VcAllocRequest>,
    bids: Vec<(Port, SwitchBid)>,
    nominations: Vec<(Port, SwitchBid)>,
    contenders: Vec<SwitchContender>,
    sink: S,
}

impl VcRouter {
    /// Creates an untraced router for `node` of `mesh`.
    pub fn new(mesh: Mesh, node: NodeId, config: VcConfig, rng: Rng) -> Self {
        VcRouter::with_tracer(mesh, node, config, rng, NullSink)
    }
}

impl<S: TraceSink> VcRouter<S> {
    /// Creates a router that reports every event to `sink`.
    pub fn with_tracer(mesh: Mesh, node: NodeId, config: VcConfig, rng: Rng, sink: S) -> Self {
        VcRouter {
            node,
            config,
            rng,
            route: RouteCompute::new(mesh, node),
            input: VcInputStage::new(config.num_vcs),
            alloc: VcAllocStage::new(config.num_vcs),
            switch: SwitchStage::new(&config),
            ni: NiStage::default(),
            contracts: None,
            requests: Vec::new(),
            bids: Vec::new(),
            nominations: Vec::new(),
            contenders: Vec::new(),
            sink,
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> &VcConfig {
        &self.config
    }

    /// Turns on per-cycle verification of the inter-stage contracts.
    /// Each breach is surfaced as a `StageContractViolation` trace event
    /// and retained in the checker (see [`VcRouter::contract_checker`]).
    pub fn enable_contract_checks(&mut self) {
        self.contracts = Some(StageContractChecker::new());
    }

    /// The stage-contract checker, if enabled.
    pub fn contract_checker(&self) -> Option<&StageContractChecker> {
        self.contracts.as_ref()
    }

    /// Test hook: spends one downstream credit out of band.
    #[cfg(test)]
    fn consume_credit(&mut self, out_port: Port, out_vc: u8) {
        self.switch.consume_credit(out_port, out_vc);
    }

    /// Phase 1: routing and virtual-channel allocation for head flits.
    ///
    /// The input stage routes waiting heads and collects one typed
    /// [`VcAllocRequest`] per lane that is routed but holds no output
    /// VC; the router shuffles them (the paper's random allocation
    /// order) and plays each against the allocation stage.
    fn allocate_vcs(&mut self, now: Cycle) {
        let mut requests = std::mem::take(&mut self.requests);
        let route = &mut self.route;
        self.input
            .gather_requests(now, |dest| route.route(dest), &mut requests);
        self.rng.shuffle(&mut requests);
        for req in requests.drain(..) {
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_vc_request(req);
            }
            if let Some(grant) = self.alloc.try_grant(&req, &mut self.rng) {
                if let Some(ck) = self.contracts.as_mut() {
                    ck.note_vc_grant(&req, grant);
                }
                self.input.apply_grant(&req, grant, now);
            }
        }
        self.requests = requests;
    }

    /// Switch allocation's gates for occupied lane `lane`; returns its
    /// input port and bid when every gate passes, counting a credit
    /// stall when only downstream space is missing.
    fn switch_bid(&mut self, lane: usize, now: Cycle) -> Option<(Port, SwitchBid)> {
        let ready = self.input.switch_ready(lane, now)?;
        match self.downstream_gate(lane, ready) {
            Downstream::Open => {
                let (in_port, in_vc) = self.input.lanes().id(lane);
                Some((
                    in_port,
                    SwitchBid {
                        in_vc,
                        out_port: ready.route,
                    },
                ))
            }
            Downstream::NoCredit => {
                self.switch.note_credit_stall();
                None
            }
            Downstream::NoTail => None,
        }
    }

    /// The downstream gates of a lane whose front passed the input
    /// gates: credit for the flit; for a packet-sized head (virtual
    /// cut-through and store-and-forward) a whole free packet buffer
    /// downstream; and for a store-and-forward head its own buffered
    /// tail.
    fn downstream_gate(&self, lane: usize, ready: ReadyLane) -> Downstream {
        let ReadyLane {
            route,
            out_vc,
            head,
        } = ready;
        if !self.switch.has_credit(route, out_vc, &self.config) {
            return Downstream::NoCredit;
        }
        if head && route != Port::Local && self.config.allocation != AllocationUnit::Flit {
            let front = self.input.lanes().lane(lane).queue().front();
            let needed = front.expect("ready lane holds a flit").flit.length as usize;
            assert!(
                needed <= self.config.queue_depth,
                "a {needed}-flit packet cannot fit the {}-flit packet buffer",
                self.config.queue_depth
            );
            if self
                .switch
                .available_for_packet(route, out_vc, &self.config)
                < needed
            {
                return Downstream::NoCredit;
            }
        }
        if head
            && self.config.allocation == AllocationUnit::StoreAndForward
            && !self.input.tail_buffered(lane)
        {
            return Downstream::NoTail;
        }
        Downstream::Open
    }

    /// Phase 2: switch allocation and traversal. Each input port
    /// nominates one ready bid, each output port grants one nomination;
    /// both picks are the paper's uniform random draw.
    fn traverse_switch(&mut self, now: Cycle, out: &mut StepOutputs) {
        // The walk visits each input port's lanes together, so its bids
        // group by port in `Port::ALL` order.
        let mut bids = std::mem::take(&mut self.bids);
        let mut walk = self.input.lanes().walk();
        while let Some(lane) = walk.next(self.input.lanes()) {
            bids.extend(self.switch_bid(lane, now));
        }
        let mut nominations = std::mem::take(&mut self.nominations);
        for port_bids in bids.chunk_by(|a, b| a.0 == b.0) {
            let (in_port, chosen) = SwitchStage::nominate(port_bids, &mut self.rng);
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_nomination(in_port, chosen);
            }
            nominations.push((in_port, chosen));
        }
        bids.clear();
        self.bids = bids;
        let mut contenders = std::mem::take(&mut self.contenders);
        for &out_port in &Port::ALL {
            contenders.clear();
            contenders.extend(
                nominations
                    .iter()
                    .filter(|&&(_, b)| b.out_port == out_port)
                    .map(|&(p, b)| SwitchContender {
                        in_port: p,
                        in_vc: b.in_vc,
                    }),
            );
            if contenders.is_empty() {
                continue;
            }
            let winner = self.switch.grant(&contenders, &mut self.rng);
            if let Some(ck) = self.contracts.as_mut() {
                ck.note_switch_grant(out_port, winner);
                ck.note_traversal(out_port);
            }
            self.forward_flit(winner.in_port, winner.in_vc, out_port, now, out);
        }
        contenders.clear();
        self.contenders = contenders;
        nominations.clear();
        self.nominations = nominations;
    }

    fn forward_flit(
        &mut self,
        in_port: Port,
        in_vc: usize,
        out_port: Port,
        now: Cycle,
        out: &mut StepOutputs,
    ) {
        let (queued, out_vc) = self.input.pop_front(in_port, in_vc);
        self.sink
            .queue_deq(now, self.node, in_port, in_vc as u8, &queued.flit);
        self.switch.consume_credit(out_port, out_vc);
        if out_port == Port::Local {
            out.eject(queued.flit, now);
        } else {
            self.switch.note_data_sent();
            self.sink
                .vc_data_sent(now, self.node, out_port, out_vc, &queued.flit);
            out.send(
                out_port,
                LinkEvent::VcData(
                    VcTag {
                        vc: out_vc,
                        ty: queued.tag.ty,
                    },
                    queued.flit,
                ),
            );
        }
        // Return the freed buffer slot upstream. Local-input slots are
        // observed directly by the network interface, so no wire credit.
        if in_port != Port::Local {
            self.sink.credit_sent(now, self.node, in_port, in_vc as u8);
            out.send(in_port, LinkEvent::VcCredit { vc: in_vc as u8 });
        }
        if queued.tag.ty.is_tail() && out_port != Port::Local {
            self.alloc.release(out_port, out_vc);
        }
    }

    /// Phase 3: move at most one flit per cycle from the injection FIFO
    /// into a local input VC.
    fn inject_from_ni(&mut self, now: Cycle) {
        let Some(&(tag, _)) = self.ni.front() else {
            return;
        };
        let (input, config) = (&self.input, &self.config);
        let has_space = |v| input.has_space(Port::Local, v, config);
        let head = tag.ty.is_head();
        let local = self.ni.local_vc();
        let Some(vc) = local.pick(head, config.num_vcs, &mut self.rng, has_space) else {
            return;
        };
        let (mut tag, flit) = self.ni.pop().expect("front checked");
        tag.vc = vc;
        self.sink.flit_injected(now, self.node, &flit);
        self.sink.queue_enq(now, self.node, Port::Local, vc, &flit);
        self.input.push(Port::Local, vc as usize, tag, flit, now);
    }
}

impl<S: TraceSink> Router for VcRouter<S> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle) {
        match event {
            LinkEvent::VcData(tag, flit) => {
                let vc = tag.vc as usize;
                assert!(vc < self.config.num_vcs, "vc id out of range");
                assert!(
                    self.input.has_space(port, vc, &self.config),
                    "upstream overflowed input {port} vc {vc} at node {}",
                    self.node
                );
                self.sink.queue_enq(now, self.node, port, tag.vc, &flit);
                self.input.push(port, vc, tag, flit, now);
            }
            LinkEvent::VcCredit { vc } => {
                // `port` names the *output* port this credit refers to.
                self.switch.credit_returned(port, vc);
            }
            other => panic!("VC router received foreign event {other:?}"),
        }
    }

    fn try_inject(&mut self, packet: Packet, _now: Cycle) -> bool {
        for seq in 0..packet.length_flits {
            let ty = FlitType::for_position(seq, packet.length_flits);
            self.ni.enqueue(
                VcTag { vc: 0, ty },
                DataFlit {
                    packet: packet.id,
                    seq,
                    length: packet.length_flits,
                    dest: packet.dest,
                    created_at: packet.created_at,
                    crc_ok: true,
                },
            );
        }
        true
    }

    fn step(&mut self, now: Cycle, out: &mut StepOutputs) {
        if let Some(ck) = self.contracts.as_mut() {
            ck.begin_cycle();
        }
        self.allocate_vcs(now);
        self.traverse_switch(now, out);
        self.inject_from_ni(now);
        if let Some(ck) = self.contracts.as_ref() {
            for &code in ck.end_cycle() {
                self.sink.stage_violation(now, self.node, code);
            }
        }
    }

    fn occupied_data_buffers(&self, port: Port) -> usize {
        self.input.occupancy(port)
    }

    fn data_buffer_capacity(&self, _port: Port) -> usize {
        self.config.buffers_per_input()
    }

    fn queued_flits(&self) -> usize {
        let buffered: usize = Port::ALL.iter().map(|&p| self.input.occupancy(p)).sum();
        buffered + self.ni.len()
    }

    /// Quiescent when every input VC queue and the injection FIFO are
    /// empty. Residual `route`/`out_vc` state on a drained VC is inert:
    /// `allocate_vcs` and `traverse_switch` act only on queued flits, and
    /// `inject_from_ni` returns before any RNG draw when the FIFO is
    /// empty, so `step` is a pure no-op in this state.
    fn is_idle(&self) -> bool {
        self.ni.is_empty() && self.input.lanes().is_empty()
    }

    fn collect_counters(&self, out: &mut noc_flow::RouterCounters) {
        out.credit_stalls = self.switch.credit_stalls();
        out.vc_alloc_conflicts = self.alloc.conflicts();
        out.switch_arb_retries = self.switch.arb_retries();
        out.data_flits_sent = self.switch.data_flits_sent();
        out.masked_routes = self.route.masked_routes();
    }

    fn on_link_dead(&mut self, port: Port) {
        self.route.mask_dead(port);
    }

    /// Full post-mortem dump: every pipeline stage's live state, keyed
    /// by stage name (see DESIGN.md §12 for the schema).
    fn state_snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        Json::obj(vec![
            ("family".into(), Json::str("vc")),
            ("node".into(), Json::Num(self.node.raw() as f64)),
            ("route".into(), self.route.snapshot()),
            ("input".into(), self.input.snapshot()),
            ("alloc".into(), self.alloc.snapshot()),
            ("switch".into(), self.switch.snapshot(&self.config)),
            ("ni".into(), self.ni.snapshot()),
        ])
    }

    /// Classifies every front flit that was eligible this cycle but did
    /// not move. Mirrors the gating order of [`VcRouter::allocate_vcs`]
    /// and [`VcRouter::traverse_switch`]: a front with `arrived < now`
    /// still queued after the step lost at exactly one gate.
    ///
    /// Waits that are not a contention loss emit nothing and fall into
    /// the collector's residual buffer-wait bucket: a head still behind
    /// its predecessor packet (no route yet), a store-and-forward head
    /// waiting for its own tail, and all non-front flits.
    fn emit_stall_provenance(&mut self, now: Cycle) {
        let scan = match StallScan::begin(&self.sink, now, self.node) {
            Some(s) => s,
            None => return,
        };
        let mut walk = self.input.lanes().walk();
        while let Some(lane) = walk.next(self.input.lanes()) {
            let l = self.input.lanes().lane(lane);
            let front = l.queue().front().expect("occupied lane");
            if !scan.eligible(front.arrived) {
                continue;
            }
            let (packet, seq) = (front.flit.packet, front.flit.seq);
            match (l.route, self.input.switch_ready(lane, now)) {
                (_, Some(ready)) => match self.downstream_gate(lane, ready) {
                    Downstream::Open => scan.switch_stall(&mut self.sink, packet, seq),
                    Downstream::NoCredit => scan.credit_stall(&mut self.sink, packet, seq),
                    Downstream::NoTail => {}
                },
                (Some(_), None) => scan.vc_alloc_stall(&mut self.sink, packet, seq),
                // Head exposed mid-cycle by a departing tail: it has
                // not been routed yet, so this cycle is queue wait,
                // not a contention loss.
                (None, None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VcConfig;
    use noc_traffic::PacketId;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn router_at(x: u16, y: u16) -> VcRouter {
        let m = mesh();
        VcRouter::new(m, m.node_at(x, y), VcConfig::vc8(), Rng::from_seed(1))
    }

    fn packet(m: Mesh, src: (u16, u16), dst: (u16, u16), len: u32) -> Packet {
        Packet {
            id: PacketId::new(7),
            src: m.node_at(src.0, src.1),
            dest: m.node_at(dst.0, dst.1),
            length_flits: len,
            created_at: Cycle::ZERO,
        }
    }

    fn drive(router: &mut VcRouter, from: Cycle, to: Cycle) -> Vec<(Cycle, StepOutputs)> {
        let mut log = Vec::new();
        for t in from.raw()..to.raw() {
            let mut out = StepOutputs::new();
            router.step(Cycle::new(t), &mut out);
            log.push((Cycle::new(t), out));
        }
        log
    }

    /// Steps the router, echoing a credit back (one cycle later) for every
    /// data flit it sends, emulating an uncongested downstream neighbour.
    fn drive_with_credit_echo(
        router: &mut VcRouter,
        from: Cycle,
        to: Cycle,
    ) -> Vec<(Cycle, StepOutputs)> {
        let mut log = Vec::new();
        let mut pending: Vec<(Cycle, Port, u8)> = Vec::new();
        for t in from.raw()..to.raw() {
            let now = Cycle::new(t);
            pending.retain(|&(due, port, vc)| {
                if due <= now {
                    router.receive(port, LinkEvent::VcCredit { vc }, now);
                    false
                } else {
                    true
                }
            });
            let mut out = StepOutputs::new();
            router.step(now, &mut out);
            for (port, e) in &out.sends {
                if let LinkEvent::VcData(tag, _) = e {
                    pending.push((now + 1, *port, tag.vc));
                }
            }
            log.push((now, out));
        }
        log
    }

    #[test]
    fn injected_packet_departs_east() {
        let m = mesh();
        let mut r = router_at(0, 0);
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        let log = drive_with_credit_echo(&mut r, Cycle::ZERO, Cycle::new(20));
        let sent: Vec<(Cycle, FlitType)> = log
            .iter()
            .flat_map(|(t, o)| {
                o.sends.iter().filter_map(move |(p, e)| match e {
                    LinkEvent::VcData(tag, _) => {
                        assert_eq!(*p, Port::East);
                        Some((*t, tag.ty))
                    }
                    _ => None,
                })
            })
            .collect();
        assert_eq!(sent.len(), 5, "all five flits leave");
        assert!(sent[0].1.is_head());
        assert!(sent[4].1.is_tail());
        // Head: injected at cycle 0 (arrives in local VC), routed and
        // switched during cycle 1 — the 1-cycle routing/scheduling latency.
        assert_eq!(sent[0].0, Cycle::new(1));
        // Body flits stream one per cycle behind the head.
        for w in sent.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
        assert_eq!(r.queued_flits(), 0);
    }

    #[test]
    fn local_destination_is_ejected() {
        let m = mesh();
        let mut r = router_at(1, 1);
        // A packet arriving from the west destined for this node.
        for seq in 0..3u32 {
            let ty = FlitType::for_position(seq, 3);
            r.receive(
                Port::West,
                LinkEvent::VcData(
                    VcTag { vc: 0, ty },
                    DataFlit {
                        packet: PacketId::new(1),
                        seq,
                        length: 3,
                        dest: m.node_at(1, 1),
                        created_at: Cycle::ZERO,
                        crc_ok: true,
                    },
                ),
                Cycle::new(seq as u64),
            );
        }
        let log = drive(&mut r, Cycle::ZERO, Cycle::new(12));
        let ejected: Vec<u32> = log
            .iter()
            .flat_map(|(_, o)| o.ejections.iter().map(|e| e.flit.seq))
            .collect();
        assert_eq!(ejected, vec![0, 1, 2]);
        // Credits went back on the west input.
        let credits = log
            .iter()
            .flat_map(|(_, o)| o.sends.iter())
            .filter(|(p, e)| *p == Port::West && matches!(e, LinkEvent::VcCredit { .. }))
            .count();
        assert_eq!(credits, 3);
    }

    #[test]
    fn no_credit_blocks_departure() {
        let m = mesh();
        let mut r = router_at(0, 0);
        // Drain all 4 credits of every VC on the east output by injecting
        // a long packet and never crediting back.
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 21), Cycle::ZERO));
        let log = drive(&mut r, Cycle::ZERO, Cycle::new(40));
        let sent: Vec<u8> = log
            .iter()
            .flat_map(|(_, o)| o.sends.iter())
            .filter_map(|(_, e)| match e {
                LinkEvent::VcData(tag, _) => Some(tag.vc),
                _ => None,
            })
            .collect();
        // Only queue_depth flits can leave before credits run dry.
        assert_eq!(sent.len(), VcConfig::vc8().queue_depth);
        // Returning one credit on the VC in use releases exactly one more.
        let used_vc = sent[0];
        r.receive(
            Port::East,
            LinkEvent::VcCredit { vc: used_vc },
            Cycle::new(40),
        );
        let log = drive(&mut r, Cycle::new(40), Cycle::new(45));
        let sent: usize = log
            .iter()
            .flat_map(|(_, o)| o.sends.iter())
            .filter(|(_, e)| matches!(e, LinkEvent::VcData(..)))
            .count();
        assert_eq!(sent, 1);
    }

    #[test]
    fn vc_allocation_is_exclusive_until_tail() {
        let m = mesh();
        let mut r = router_at(0, 0);
        // Two packets competing for the east output from different inputs
        // on a 1-VC (wormhole) router: the second must wait for the tail
        // of the first.
        let mut r1 = VcRouter::new(m, m.node_at(1, 0), VcConfig::wormhole(4), Rng::from_seed(2));
        std::mem::swap(&mut r, &mut r1);
        for (port, pid) in [(Port::West, 10u64), (Port::North, 20u64)] {
            for seq in 0..3u32 {
                let ty = FlitType::for_position(seq, 3);
                r.receive(
                    port,
                    LinkEvent::VcData(
                        VcTag { vc: 0, ty },
                        DataFlit {
                            packet: PacketId::new(pid),
                            seq,
                            length: 3,
                            dest: m.node_at(3, 0),
                            created_at: Cycle::ZERO,
                            crc_ok: true,
                        },
                    ),
                    Cycle::ZERO,
                );
            }
        }
        // Echo a credit for each departed flit so only VC ownership
        // constrains progress.
        let mut sends = Vec::new();
        for t in 0..30u64 {
            let mut out = StepOutputs::new();
            r.step(Cycle::new(t), &mut out);
            for (p, e) in out.sends {
                if let LinkEvent::VcData(tag, f) = e {
                    assert_eq!(p, Port::East);
                    sends.push((t, f.packet.raw(), tag.ty));
                    r.receive(
                        Port::East,
                        LinkEvent::VcCredit { vc: tag.vc },
                        Cycle::new(t),
                    );
                }
            }
        }
        assert_eq!(sends.len(), 6, "both packets fully forwarded: {sends:?}");
        // Flits of the two packets must not interleave on the single VC.
        let order: Vec<u64> = sends.iter().map(|&(_, pid, _)| pid).collect();
        let first = order[0];
        assert_eq!(&order[..3], &[first; 3][..]);
        assert_ne!(order[3], first);
        assert_eq!(&order[3..], &[order[3]; 3][..]);
    }

    #[test]
    fn occupancy_accounting() {
        let m = mesh();
        let mut r = router_at(1, 1);
        assert_eq!(r.occupied_data_buffers(Port::West), 0);
        r.receive(
            Port::West,
            LinkEvent::VcData(
                VcTag {
                    vc: 1,
                    ty: FlitType::HeadTail,
                },
                DataFlit {
                    packet: PacketId::new(0),
                    seq: 0,
                    length: 1,
                    dest: m.node_at(3, 1),
                    created_at: Cycle::ZERO,
                    crc_ok: true,
                },
            ),
            Cycle::ZERO,
        );
        assert_eq!(r.occupied_data_buffers(Port::West), 1);
        assert_eq!(r.data_buffer_capacity(Port::West), 8);
        assert_eq!(r.queued_flits(), 1);
    }

    #[test]
    #[should_panic(expected = "overflowed input")]
    fn input_overflow_panics() {
        let m = mesh();
        let mut r = router_at(1, 1);
        for seq in 0..5u32 {
            r.receive(
                Port::West,
                LinkEvent::VcData(
                    VcTag {
                        vc: 0,
                        ty: FlitType::Body,
                    },
                    DataFlit {
                        packet: PacketId::new(0),
                        seq,
                        length: 9,
                        dest: m.node_at(3, 1),
                        created_at: Cycle::ZERO,
                        crc_ok: true,
                    },
                ),
                Cycle::ZERO,
            );
        }
    }

    #[test]
    fn shared_pool_allows_one_vc_past_queue_depth() {
        let m = mesh();
        let cfg = VcConfig::vc8().with_shared_pool();
        let mut r = VcRouter::new(m, m.node_at(1, 1), cfg, Rng::from_seed(3));
        // 6 flits on one VC: legal under the shared pool (cap 8), illegal
        // under per-VC queues (cap 4).
        for seq in 0..6u32 {
            r.receive(
                Port::West,
                LinkEvent::VcData(
                    VcTag {
                        vc: 0,
                        ty: FlitType::Body,
                    },
                    DataFlit {
                        packet: PacketId::new(0),
                        seq,
                        length: 9,
                        dest: m.node_at(3, 1),
                        created_at: Cycle::ZERO,
                        crc_ok: true,
                    },
                ),
                Cycle::ZERO,
            );
        }
        assert_eq!(r.occupied_data_buffers(Port::West), 6);
    }

    #[test]
    fn contract_checker_stays_clean_under_load() {
        let m = mesh();
        let mut r = router_at(0, 0);
        r.enable_contract_checks();
        assert!(r.try_inject(packet(m, (0, 0), (3, 0), 5), Cycle::ZERO));
        drive_with_credit_echo(&mut r, Cycle::ZERO, Cycle::new(30));
        let ck = r.contract_checker().expect("checker enabled");
        ck.assert_clean();
        assert_eq!(r.queued_flits(), 0);
    }
}

#[cfg(test)]
mod packet_allocation_tests {
    use super::*;
    use crate::AllocationUnit;
    use noc_traffic::PacketId;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn packet(m: Mesh, len: u32) -> Packet {
        Packet {
            id: PacketId::new(3),
            src: m.node_at(0, 0),
            dest: m.node_at(3, 0),
            length_flits: len,
            created_at: Cycle::ZERO,
        }
    }

    /// Sends cycles forward, returning (cycle, flit type) of data sends.
    fn departures(r: &mut VcRouter, cycles: u64) -> Vec<(u64, FlitType)> {
        let mut out_log = Vec::new();
        for t in 0..cycles {
            let mut out = StepOutputs::new();
            r.step(Cycle::new(t), &mut out);
            for (_, e) in out.sends {
                if let LinkEvent::VcData(tag, _) = e {
                    out_log.push((t, tag.ty));
                }
            }
        }
        out_log
    }

    #[test]
    fn cut_through_claims_whole_packet_buffer() {
        let m = mesh();
        let mut r = VcRouter::new(
            m,
            m.node_at(0, 0),
            VcConfig::virtual_cut_through(8),
            Rng::from_seed(2),
        );
        assert!(r.try_inject(packet(m, 5), Cycle::ZERO));
        // With full credits (8 ≥ 5) the packet streams out cut-through.
        let sent = departures(&mut r, 20);
        assert_eq!(sent.len(), 5);
        // Consume 4 credits so only 4 remain (< 5): the next head must
        // stall even though *some* space exists downstream.
        let mut r = VcRouter::new(
            m,
            m.node_at(0, 0),
            VcConfig::virtual_cut_through(8),
            Rng::from_seed(2),
        );
        for _ in 0..4 {
            r.consume_credit(Port::East, 0);
        }
        assert!(r.try_inject(packet(m, 5), Cycle::ZERO));
        let sent = departures(&mut r, 20);
        assert!(sent.is_empty(), "head must wait for a full packet buffer");
        // Returning one credit (5 free) releases the packet.
        r.receive(Port::East, LinkEvent::VcCredit { vc: 0 }, Cycle::new(20));
        let mut out = StepOutputs::new();
        for t in 20..40 {
            r.step(Cycle::new(t), &mut out);
        }
        let sent = out
            .sends
            .iter()
            .filter(|(_, e)| matches!(e, LinkEvent::VcData(..)))
            .count();
        assert_eq!(sent, 5);
    }

    #[test]
    fn store_and_forward_waits_for_the_tail() {
        let m = mesh();
        let mut r = VcRouter::new(
            m,
            m.node_at(1, 0),
            VcConfig::store_and_forward(8),
            Rng::from_seed(2),
        );
        // Flits of a 4-flit packet trickle in one per 3 cycles from the
        // west; nothing may leave before the tail has arrived.
        let mut sent_before_tail = 0;
        let mut all_sent = Vec::new();
        let mut t = 0u64;
        for seq in 0..4u32 {
            r.receive(
                Port::West,
                LinkEvent::VcData(
                    VcTag {
                        vc: 0,
                        ty: FlitType::for_position(seq, 4),
                    },
                    DataFlit {
                        packet: PacketId::new(9),
                        seq,
                        length: 4,
                        dest: m.node_at(3, 0),
                        created_at: Cycle::ZERO,
                        crc_ok: true,
                    },
                ),
                Cycle::new(t),
            );
            for _ in 0..3 {
                let mut out = StepOutputs::new();
                r.step(Cycle::new(t), &mut out);
                let n = out
                    .sends
                    .iter()
                    .filter(|(_, e)| matches!(e, LinkEvent::VcData(..)))
                    .count();
                if seq < 3 {
                    sent_before_tail += n;
                }
                all_sent.push(n);
                t += 1;
            }
        }
        // Drain after the tail arrived.
        for _ in 0..10 {
            let mut out = StepOutputs::new();
            r.step(Cycle::new(t), &mut out);
            all_sent.push(
                out.sends
                    .iter()
                    .filter(|(_, e)| matches!(e, LinkEvent::VcData(..)))
                    .count(),
            );
            t += 1;
        }
        assert_eq!(sent_before_tail, 0, "store-and-forward leaked flits early");
        assert_eq!(all_sent.iter().sum::<usize>(), 4, "whole packet forwarded");
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn packet_longer_than_buffer_panics() {
        let m = mesh();
        let mut r = VcRouter::new(
            m,
            m.node_at(0, 0),
            VcConfig::virtual_cut_through(4),
            Rng::from_seed(2),
        );
        assert!(r.try_inject(packet(m, 5), Cycle::ZERO));
        departures(&mut r, 10);
    }

    #[test]
    fn flit_mode_is_unaffected() {
        assert_eq!(VcConfig::vc8().allocation, AllocationUnit::Flit);
        assert_eq!(
            VcConfig::virtual_cut_through(8).allocation,
            AllocationUnit::CutThrough
        );
        assert_eq!(
            VcConfig::store_and_forward(8).allocation,
            AllocationUnit::StoreAndForward
        );
    }
}
