//! Concrete pipeline stages of the virtual-channel router.
//!
//! Each stage owns one slice of the router's state and answers typed
//! requests from the driver ([`crate::VcRouter::step`]); no stage
//! reaches into another's fields. The stage chain mirrors the paper's
//! pipeline (and the provenance phase model):
//!
//! * route compute — `noc_flow::pipeline::RouteCompute`, shared with FR;
//! * VC allocation — [`VcAllocStage`], owning downstream-VC ownership;
//! * switch allocation + traversal — [`SwitchStage`], owning credits
//!   and the random arbiter;
//! * input buffering — [`VcInputStage`], owning the per-lane queues the
//!   traversal stage drains;
//! * injection — [`NiStage`], the network-interface FIFO.

#![deny(private_interfaces, private_bounds)]

use crate::{CreditMode, VcConfig};
use noc_engine::{Cycle, Rng};
use noc_flow::pipeline::{SwitchBid, SwitchContender, VcAllocGrant, VcAllocRequest};
use noc_flow::{DataFlit, VcTag};
use noc_metrics::Json;
use noc_topology::{Port, PortMap};
use noc_traffic::PacketId;
use std::collections::VecDeque;

/// One buffered flit with its arrival cycle.
#[derive(Clone, Debug)]
pub(crate) struct QueuedFlit {
    pub(crate) tag: VcTag,
    pub(crate) flit: DataFlit,
    pub(crate) arrived: Cycle,
}

/// Copy-out view of one input lane's allocation state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneState {
    /// Output port of the packet draining through this lane.
    pub(crate) route: Option<Port>,
    /// Downstream VC granted to that packet.
    pub(crate) out_vc: Option<u8>,
    /// Earliest cycle the (head) flit may bid for the switch.
    pub(crate) switch_ready_at: Cycle,
}

/// Per-input-VC state machine.
#[derive(Clone, Debug)]
struct InputVc {
    queue: VecDeque<QueuedFlit>,
    route: Option<Port>,
    out_vc: Option<u8>,
    switch_ready_at: Cycle,
}

impl InputVc {
    fn new() -> Self {
        InputVc {
            queue: VecDeque::new(),
            route: None,
            out_vc: None,
            switch_ready_at: Cycle::ZERO,
        }
    }
}

/// DAMQ admission rule [TamFra92]: every VC keeps one dedicated slot so
/// an empty VC can always accept a flit (preserving the per-VC progress
/// deadlock-freedom argument of private queues); the remaining
/// `b_d - v` slots are shared. A VC holding `o` flits uses one
/// dedicated slot plus `o - 1` shared slots.
pub(crate) fn damq_admits(per_vc: &[usize], vc: usize, capacity: usize) -> bool {
    if per_vc[vc] == 0 {
        return true;
    }
    let shared_used: usize = per_vc.iter().map(|&o| o.saturating_sub(1)).sum();
    shared_used < capacity - per_vc.len()
}

/// The input-buffer stage: per-port, per-VC flit queues and the lane
/// state machines (route, granted VC, switch-ready gate) that carry a
/// packet through the pipeline.
#[derive(Clone, Debug)]
pub(crate) struct VcInputStage {
    lanes: PortMap<Vec<InputVc>>,
}

impl VcInputStage {
    pub(crate) fn new(num_vcs: usize) -> Self {
        VcInputStage {
            lanes: PortMap::from_fn(|_| (0..num_vcs).map(|_| InputVc::new()).collect()),
        }
    }

    /// The front flit of lane (`port`, `vc`), if any.
    pub(crate) fn front(&self, port: Port, vc: usize) -> Option<&QueuedFlit> {
        self.lanes[port][vc].queue.front()
    }

    /// The lane's allocation state, by value.
    pub(crate) fn lane(&self, port: Port, vc: usize) -> LaneState {
        let l = &self.lanes[port][vc];
        LaneState {
            route: l.route,
            out_vc: l.out_vc,
            switch_ready_at: l.switch_ready_at,
        }
    }

    /// The destination of an unrouted head that is eligible for route
    /// compute this cycle (buffered before `now`), if any.
    pub(crate) fn pending_route(
        &self,
        port: Port,
        vc: usize,
        now: Cycle,
    ) -> Option<noc_topology::NodeId> {
        let l = &self.lanes[port][vc];
        match l.queue.front() {
            Some(front) if front.tag.ty.is_head() && l.route.is_none() && front.arrived < now => {
                Some(front.flit.dest)
            }
            _ => None,
        }
    }

    /// Installs the route-compute answer. Ejection (`Local`) needs no
    /// downstream VC, so the lane is immediately switch-ready on VC 0.
    pub(crate) fn set_route(&mut self, port: Port, vc: usize, out: Port, now: Cycle) {
        let l = &mut self.lanes[port][vc];
        l.route = Some(out);
        if out == Port::Local {
            l.out_vc = Some(0);
            l.switch_ready_at = now;
        }
    }

    /// The lane's request into the VC-allocation stage: routed but not
    /// yet holding a downstream VC.
    pub(crate) fn alloc_request(&self, port: Port, vc: usize) -> Option<VcAllocRequest> {
        let l = &self.lanes[port][vc];
        match (l.route, l.out_vc) {
            (Some(out), None) => Some(VcAllocRequest {
                in_port: port,
                in_vc: vc,
                out_port: out,
            }),
            _ => None,
        }
    }

    /// Installs a VC-allocation grant. Routing, VC allocation and
    /// switch traversal share the single routing/scheduling cycle of
    /// the paper's router.
    pub(crate) fn apply_grant(&mut self, req: &VcAllocRequest, grant: VcAllocGrant, now: Cycle) {
        let l = &mut self.lanes[req.in_port][req.in_vc];
        l.out_vc = Some(grant.out_vc);
        l.switch_ready_at = now;
    }

    /// True if `packet`'s tail flit is already buffered in the lane
    /// (the store-and-forward gate).
    pub(crate) fn tail_buffered(&self, port: Port, vc: usize, packet: PacketId) -> bool {
        self.lanes[port][vc]
            .queue
            .iter()
            .any(|q| q.flit.packet == packet && q.tag.ty.is_tail())
    }

    /// Pops the departing front flit of the lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty: only switch winners are popped.
    pub(crate) fn pop_front(&mut self, port: Port, vc: usize) -> QueuedFlit {
        self.lanes[port][vc]
            .queue
            .pop_front()
            .expect("winner queue cannot be empty")
    }

    /// Clears the lane's allocation after its tail departed.
    pub(crate) fn end_packet(&mut self, port: Port, vc: usize) {
        let l = &mut self.lanes[port][vc];
        l.route = None;
        l.out_vc = None;
    }

    /// Buffers an arriving (or injected) flit at the back of the lane.
    pub(crate) fn push(&mut self, port: Port, vc: usize, flit: QueuedFlit) {
        self.lanes[port][vc].queue.push_back(flit);
    }

    /// True if lane (`port`, `vc`) can accept one more flit under the
    /// configured accounting mode.
    pub(crate) fn has_space(&self, port: Port, vc: usize, config: &VcConfig) -> bool {
        match config.credit_mode {
            CreditMode::PerVc => self.lanes[port][vc].queue.len() < config.queue_depth,
            CreditMode::SharedPool => {
                let per_vc: Vec<usize> = self.lanes[port].iter().map(|q| q.queue.len()).collect();
                damq_admits(&per_vc, vc, config.buffers_per_input())
            }
        }
    }

    /// Flits buffered across all lanes of `port`.
    pub(crate) fn occupancy(&self, port: Port) -> usize {
        self.lanes[port].iter().map(|vc| vc.queue.len()).sum()
    }

    /// True if every lane of every port is empty.
    pub(crate) fn all_empty(&self) -> bool {
        Port::ALL
            .iter()
            .all(|&p| self.lanes[p].iter().all(|vc| vc.queue.is_empty()))
    }

    /// Dumps every lane that holds live state (queued flits or an
    /// installed route/VC grant); inert lanes are omitted.
    pub(crate) fn snapshot(&self) -> Json {
        let mut ports = Vec::new();
        for &port in &Port::ALL {
            let mut lanes = Vec::new();
            for (vc, l) in self.lanes[port].iter().enumerate() {
                if l.queue.is_empty() && l.route.is_none() && l.out_vc.is_none() {
                    continue;
                }
                let queue: Vec<Json> = l
                    .queue
                    .iter()
                    .map(|q| {
                        Json::str(format!(
                            "{:?} {:?} arrived={}",
                            q.tag,
                            q.flit,
                            q.arrived.raw()
                        ))
                    })
                    .collect();
                lanes.push(Json::obj(vec![
                    ("vc".into(), Json::Num(vc as f64)),
                    (
                        "route".into(),
                        match l.route {
                            Some(p) => Json::str(format!("{p:?}")),
                            None => Json::Null,
                        },
                    ),
                    (
                        "out_vc".into(),
                        match l.out_vc {
                            Some(v) => Json::Num(v as f64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "switch_ready_at".into(),
                        Json::Num(l.switch_ready_at.raw() as f64),
                    ),
                    ("queue".into(), Json::Arr(queue)),
                ]));
            }
            if !lanes.is_empty() {
                ports.push(Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("lanes".into(), Json::Arr(lanes)),
                ]));
            }
        }
        Json::Arr(ports)
    }
}

/// The VC-allocation stage: ownership of every output port's downstream
/// virtual channels, granted to one packet at a time.
#[derive(Clone, Debug)]
pub(crate) struct VcAllocStage {
    vc_owner: PortMap<Vec<bool>>,
    conflicts: u64,
}

impl VcAllocStage {
    pub(crate) fn new(num_vcs: usize) -> Self {
        VcAllocStage {
            vc_owner: PortMap::from_fn(|_| vec![false; num_vcs]),
            conflicts: 0,
        }
    }

    /// Answers `req` with a uniformly random free downstream VC, or
    /// `None` (counting the conflict) when every VC is owned.
    pub(crate) fn try_grant(
        &mut self,
        req: &VcAllocRequest,
        rng: &mut Rng,
    ) -> Option<VcAllocGrant> {
        let free: Vec<u8> = self.vc_owner[req.out_port]
            .iter()
            .enumerate()
            .filter(|(_, &owned)| !owned)
            .map(|(v, _)| v as u8)
            .collect();
        if free.is_empty() {
            self.conflicts += 1;
            return None;
        }
        let granted = *rng.choose(&free);
        self.vc_owner[req.out_port][granted as usize] = true;
        Some(VcAllocGrant { out_vc: granted })
    }

    /// Releases a downstream VC after its packet's tail traversed.
    pub(crate) fn release(&mut self, out_port: Port, out_vc: u8) {
        self.vc_owner[out_port][out_vc as usize] = false;
    }

    /// Requests that found every downstream VC owned.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Dumps downstream-VC ownership per output port.
    pub(crate) fn snapshot(&self) -> Json {
        let owners: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    (
                        "owned".into(),
                        Json::Arr(self.vc_owner[port].iter().map(|&o| Json::Bool(o)).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("vc_owner".into(), Json::Arr(owners)),
            ("conflicts".into(), Json::Num(self.conflicts as f64)),
        ])
    }
}

/// The switch-allocation + traversal stage: downstream credit and
/// occupancy accounting, the paper's random arbiter, and the traversal
/// counters.
#[derive(Clone, Debug)]
pub(crate) struct SwitchStage {
    /// Per-VC credits (PerVc mode).
    credits: PortMap<Vec<usize>>,
    /// Downstream occupancy per VC (SharedPool mode): the DAMQ
    /// admission rule needs per-VC counts, not just a total.
    downstream_occ: PortMap<Vec<usize>>,
    credit_stalls: u64,
    arb_retries: u64,
    data_flits_sent: u64,
}

impl SwitchStage {
    pub(crate) fn new(config: &VcConfig) -> Self {
        SwitchStage {
            credits: PortMap::from_fn(|_| vec![config.queue_depth; config.num_vcs]),
            downstream_occ: PortMap::from_fn(|_| vec![0; config.num_vcs]),
            credit_stalls: 0,
            arb_retries: 0,
            data_flits_sent: 0,
        }
    }

    /// True if one flit may be sent to (`out_port`, `out_vc`) now.
    pub(crate) fn has_credit(&self, out_port: Port, out_vc: u8, config: &VcConfig) -> bool {
        if out_port == Port::Local {
            return true;
        }
        match config.credit_mode {
            CreditMode::PerVc => self.credits[out_port][out_vc as usize] > 0,
            CreditMode::SharedPool => damq_admits(
                &self.downstream_occ[out_port],
                out_vc as usize,
                config.buffers_per_input(),
            ),
        }
    }

    /// Downstream space available to a packet-sized claim (cut-through
    /// and store-and-forward heads).
    pub(crate) fn available_for_packet(
        &self,
        out_port: Port,
        out_vc: u8,
        config: &VcConfig,
    ) -> usize {
        match config.credit_mode {
            CreditMode::PerVc => self.credits[out_port][out_vc as usize],
            CreditMode::SharedPool => {
                let occ: usize = self.downstream_occ[out_port].iter().sum();
                config.buffers_per_input().saturating_sub(occ)
            }
        }
    }

    /// Spends one downstream slot for a traversal.
    pub(crate) fn consume_credit(&mut self, out_port: Port, out_vc: u8, config: &VcConfig) {
        if out_port == Port::Local {
            return;
        }
        match config.credit_mode {
            CreditMode::PerVc => {
                let c = &mut self.credits[out_port][out_vc as usize];
                debug_assert!(*c > 0, "consuming credit below zero");
                *c -= 1;
            }
            CreditMode::SharedPool => {
                self.downstream_occ[out_port][out_vc as usize] += 1;
            }
        }
    }

    /// Applies a credit wire arriving on output `port` for `vc`.
    pub(crate) fn credit_returned(&mut self, port: Port, vc: u8, config: &VcConfig) {
        match config.credit_mode {
            CreditMode::PerVc => {
                let c = &mut self.credits[port][vc as usize];
                *c += 1;
                debug_assert!(*c <= config.queue_depth, "credit overflow");
            }
            CreditMode::SharedPool => {
                let c = &mut self.downstream_occ[port][vc as usize];
                debug_assert!(*c > 0, "credit underflow");
                *c -= 1;
            }
        }
    }

    /// Picks an input port's nomination among its ready bids: one
    /// uniform random draw (the paper's switch arbiter).
    ///
    /// # Panics
    ///
    /// Panics if `bids` is empty: nominations exist only for inputs
    /// with at least one ready flit.
    pub(crate) fn nominate(bids: &[SwitchBid], rng: &mut Rng) -> SwitchBid {
        assert!(!bids.is_empty(), "nomination from an empty bid slate");
        *rng.choose(bids)
    }

    /// Picks an output port's winner by one uniform random draw; every
    /// loser is a retry.
    ///
    /// # Panics
    ///
    /// Panics if `contenders` is empty: outputs without bidders are
    /// never arbitrated.
    pub(crate) fn grant(
        &mut self,
        contenders: &[SwitchContender],
        rng: &mut Rng,
    ) -> SwitchContender {
        assert!(
            !contenders.is_empty(),
            "grant over an empty contender slate"
        );
        self.arb_retries += (contenders.len() - 1) as u64;
        *rng.choose(contenders)
    }

    /// Counts a flit that lost this cycle to missing credit.
    pub(crate) fn note_credit_stall(&mut self) {
        self.credit_stalls += 1;
    }

    /// Counts a data flit forwarded onto an outgoing link.
    pub(crate) fn note_data_sent(&mut self) {
        self.data_flits_sent += 1;
    }

    pub(crate) fn credit_stalls(&self) -> u64 {
        self.credit_stalls
    }

    pub(crate) fn arb_retries(&self) -> u64 {
        self.arb_retries
    }

    pub(crate) fn data_flits_sent(&self) -> u64 {
        self.data_flits_sent
    }

    /// Dumps credit and downstream-occupancy accounting per output port.
    pub(crate) fn snapshot(&self) -> Json {
        let nums = |v: &[usize]| Json::Arr(v.iter().map(|&n| Json::Num(n as f64)).collect());
        let ports: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("credits".into(), nums(&self.credits[port])),
                    ("downstream_occ".into(), nums(&self.downstream_occ[port])),
                ])
            })
            .collect();
        Json::obj(vec![
            ("ports".into(), Json::Arr(ports)),
            ("credit_stalls".into(), Json::Num(self.credit_stalls as f64)),
            ("arb_retries".into(), Json::Num(self.arb_retries as f64)),
            (
                "data_flits_sent".into(),
                Json::Num(self.data_flits_sent as f64),
            ),
        ])
    }
}

/// The injection stage: the network interface's packet FIFO and the
/// local VC currently receiving the in-flight packet.
#[derive(Clone, Debug, Default)]
pub(crate) struct NiStage {
    fifo: VecDeque<(VcTag, DataFlit)>,
    current_vc: Option<u8>,
}

impl NiStage {
    /// Appends one flit of an injected packet.
    pub(crate) fn enqueue(&mut self, tag: VcTag, flit: DataFlit) {
        self.fifo.push_back((tag, flit));
    }

    /// The next flit waiting to enter the router, if any.
    pub(crate) fn front(&self) -> Option<&(VcTag, DataFlit)> {
        self.fifo.front()
    }

    /// Pops the front flit.
    pub(crate) fn pop(&mut self) -> Option<(VcTag, DataFlit)> {
        self.fifo.pop_front()
    }

    /// The local input VC mid-packet injection is bound to, if any.
    pub(crate) fn current_vc(&self) -> Option<u8> {
        self.current_vc
    }

    /// Binds injection to `vc` for the rest of the current packet.
    pub(crate) fn bind_vc(&mut self, vc: u8) {
        self.current_vc = Some(vc);
    }

    /// Releases the binding after the packet's tail entered the router.
    pub(crate) fn unbind_vc(&mut self) {
        self.current_vc = None;
    }

    /// Flits still waiting in the FIFO.
    pub(crate) fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True if nothing is waiting to inject.
    pub(crate) fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Dumps the injection FIFO and its packet binding.
    pub(crate) fn snapshot(&self) -> Json {
        let fifo: Vec<Json> = self
            .fifo
            .iter()
            .map(|(tag, flit)| Json::str(format!("{tag:?} {flit:?}")))
            .collect();
        Json::obj(vec![
            (
                "current_vc".into(),
                match self.current_vc {
                    Some(v) => Json::Num(v as f64),
                    None => Json::Null,
                },
            ),
            ("fifo".into(), Json::Arr(fifo)),
        ])
    }
}
