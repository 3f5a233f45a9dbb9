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
use noc_topology::{NodeId, Port, PortMap};
use std::collections::VecDeque;

/// One buffered flit with its arrival cycle.
#[derive(Clone, Debug)]
pub(crate) struct QueuedFlit {
    pub(crate) tag: VcTag,
    pub(crate) flit: DataFlit,
    pub(crate) arrived: Cycle,
}

/// The front flit of a lane, copied out on every push and pop so the
/// per-cycle scan never reads a queue's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Front {
    /// Cycle the flit was buffered.
    pub(crate) arrived: Cycle,
    /// True if the flit is a packet head.
    pub(crate) head: bool,
    /// The flit's destination.
    pub(crate) dest: NodeId,
}

impl Front {
    fn of(q: &QueuedFlit) -> Front {
        Front {
            arrived: q.arrived,
            head: q.tag.ty.is_head(),
            dest: q.flit.dest,
        }
    }
}

/// Copy-out view of one input lane's allocation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LaneState {
    /// The lane's front flit; `None` while the lane is empty.
    pub(crate) front: Option<Front>,
    /// Output port of the packet draining through this lane.
    pub(crate) route: Option<Port>,
    /// Downstream VC granted to that packet.
    pub(crate) out_vc: Option<u8>,
    /// Earliest cycle the (head) flit may bid for the switch.
    pub(crate) switch_ready_at: Cycle,
}

/// A lane whose front flit may bid for the switch this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReadyLane {
    /// Output port of the lane's packet.
    pub(crate) route: Port,
    /// Downstream VC the packet holds.
    pub(crate) out_vc: u8,
    /// True if the front flit is a packet head.
    pub(crate) head: bool,
}

/// Per-input-VC state machine: the flit queue and the allocation state
/// that carries its packet through the pipeline.
#[derive(Clone, Debug)]
struct InputVc {
    queue: VecDeque<QueuedFlit>,
    state: LaneState,
}

impl InputVc {
    fn new() -> Self {
        InputVc {
            queue: VecDeque::new(),
            state: LaneState {
                front: None,
                route: None,
                out_vc: None,
                switch_ready_at: Cycle::ZERO,
            },
        }
    }
}

/// DAMQ admission rule [TamFra92]: every VC keeps one dedicated slot so
/// an empty VC can always accept a flit (preserving the per-VC progress
/// deadlock-freedom argument of private queues); the remaining
/// `b_d - v` slots are shared. A VC holding `o` flits uses one
/// dedicated slot plus `o - 1` shared slots. `per_vc` yields each VC's
/// occupancy in VC order.
pub(crate) fn damq_admits(per_vc: impl Iterator<Item = usize>, vc: usize, capacity: usize) -> bool {
    let (mut own, mut shared_used, mut vcs) = (0, 0, 0);
    for (v, o) in per_vc.enumerate() {
        if v == vc {
            own = o;
        }
        shared_used += o.saturating_sub(1);
        vcs += 1;
    }
    own == 0 || shared_used < capacity - vcs
}

/// A walk over the occupied lanes in ascending (port, VC) order, the
/// `Port::ALL` x VC order of a scan of every lane. It holds no borrow
/// between steps: each step takes the stage, so the router may update
/// lanes as it goes. Lanes that fill or empty during the walk may be
/// missed or still visited; the passes that walk change no lane's
/// occupancy.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OccupiedLanes {
    /// Index of the bitset word being drained.
    word: usize,
    /// Its bits not yet visited.
    bits: u64,
}

impl OccupiedLanes {
    /// The next occupied lane's (port, VC), if any.
    #[inline]
    pub(crate) fn next(&mut self, stage: &VcInputStage) -> Option<(Port, usize)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *stage.occupied.get(self.word)?;
        }
        let lane = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let (port, vc) = stage.lane_ids[lane];
        Some((port, vc as usize))
    }
}

/// The input-buffer stage: per-port, per-VC flit queues and the lane
/// state machines (route, granted VC, switch-ready gate) that carry a
/// packet through the pipeline.
///
/// Lanes are stored flat and port-major: lane `port.index() * vcs + vc`.
/// An occupancy bitset (one `u64` per 64 lanes) names the lanes holding
/// a flit, so the per-cycle passes cost one step per queued front, not
/// one per configured lane.
#[derive(Clone, Debug)]
pub(crate) struct VcInputStage {
    /// VCs per port.
    vcs: usize,
    /// Input lanes, port-major.
    lanes: Vec<InputVc>,
    /// Each lane's (input port, VC), so no lookup divides by `vcs`.
    lane_ids: Vec<(Port, u8)>,
    /// One bit per lane whose queue holds a flit.
    occupied: Vec<u64>,
}

impl VcInputStage {
    pub(crate) fn new(num_vcs: usize) -> Self {
        let lanes = Port::COUNT * num_vcs;
        VcInputStage {
            vcs: num_vcs,
            lanes: (0..lanes).map(|_| InputVc::new()).collect(),
            lane_ids: Port::ALL
                .iter()
                .flat_map(|&port| (0..num_vcs).map(move |vc| (port, vc as u8)))
                .collect(),
            occupied: vec![0; lanes.div_ceil(64)],
        }
    }

    /// The flat index of lane (`port`, `vc`).
    #[inline]
    fn index(&self, port: Port, vc: usize) -> usize {
        debug_assert!(vc < self.vcs, "vc out of range");
        port.index() * self.vcs + vc
    }

    /// The lanes of `port`.
    #[inline]
    fn port_lanes(&self, port: Port) -> &[InputVc] {
        let first = port.index() * self.vcs;
        &self.lanes[first..first + self.vcs]
    }

    /// A walk over the lanes that hold a flit.
    #[inline]
    pub(crate) fn occupied_lanes(&self) -> OccupiedLanes {
        OccupiedLanes {
            word: 0,
            bits: self.occupied[0],
        }
    }

    /// The front flit of lane (`port`, `vc`), if any.
    pub(crate) fn front(&self, port: Port, vc: usize) -> Option<&QueuedFlit> {
        self.lanes[self.index(port, vc)].queue.front()
    }

    /// The lane's allocation state, by value.
    #[inline]
    pub(crate) fn lane(&self, port: Port, vc: usize) -> LaneState {
        self.lanes[self.index(port, vc)].state
    }

    /// The route-compute and request pass, over the occupied lanes in
    /// ascending (port, VC) order: each unrouted head buffered before
    /// `now` takes its output from `route`, and each lane that is
    /// routed but holds no downstream VC appends its request to
    /// `requests`. Ejection (`Local`) needs no downstream VC, so such a
    /// lane is switch-ready on VC 0 at once.
    ///
    /// Skipping empty lanes drops no request: a routed lane without a
    /// downstream VC still holds its head, which cannot depart before
    /// the grant.
    pub(crate) fn gather_requests(
        &mut self,
        now: Cycle,
        mut route: impl FnMut(NodeId) -> Port,
        requests: &mut Vec<VcAllocRequest>,
    ) {
        let mut lanes = self.occupied_lanes();
        while let Some((in_port, vc)) = lanes.next(self) {
            let index = self.index(in_port, vc);
            let l = &mut self.lanes[index].state;
            if let Some(f) = l.front {
                if f.head && l.route.is_none() && f.arrived < now {
                    let out = route(f.dest);
                    l.route = Some(out);
                    if out == Port::Local {
                        l.out_vc = Some(0);
                        l.switch_ready_at = now;
                        continue;
                    }
                }
            }
            if let (Some(out_port), None) = (l.route, l.out_vc) {
                requests.push(VcAllocRequest {
                    in_port,
                    in_vc: vc,
                    out_port,
                });
            }
        }
    }

    /// Installs a VC-allocation grant. Routing, VC allocation and
    /// switch traversal share the single routing/scheduling cycle of
    /// the paper's router.
    pub(crate) fn apply_grant(&mut self, req: &VcAllocRequest, grant: VcAllocGrant, now: Cycle) {
        let index = self.index(req.in_port, req.in_vc);
        let l = &mut self.lanes[index].state;
        l.out_vc = Some(grant.out_vc);
        l.switch_ready_at = now;
    }

    /// The lane's front flit when it may bid for the switch at `now`:
    /// the lane holds a route and a downstream VC, the flit was
    /// buffered before `now`, and a head has reached its switch-ready
    /// cycle.
    #[inline]
    pub(crate) fn switch_ready(&self, port: Port, vc: usize, now: Cycle) -> Option<ReadyLane> {
        let l = self.lane(port, vc);
        let (front, route, out_vc) = (l.front?, l.route?, l.out_vc?);
        if front.arrived + 1 > now || (front.head && l.switch_ready_at > now) {
            return None;
        }
        Some(ReadyLane {
            route,
            out_vc,
            head: front.head,
        })
    }

    /// True if the tail of the front flit's packet is already buffered
    /// in the lane (the store-and-forward gate).
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty.
    pub(crate) fn tail_buffered(&self, port: Port, vc: usize) -> bool {
        let queue = &self.lanes[self.index(port, vc)].queue;
        let packet = queue.front().expect("occupied lane").flit.packet;
        queue
            .iter()
            .any(|q| q.flit.packet == packet && q.tag.ty.is_tail())
    }

    /// Pops the departing front flit of the lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty: only switch winners are popped.
    pub(crate) fn pop_front(&mut self, port: Port, vc: usize) -> QueuedFlit {
        let index = self.index(port, vc);
        let l = &mut self.lanes[index];
        let popped = l.queue.pop_front().expect("winner queue cannot be empty");
        l.state.front = l.queue.front().map(Front::of);
        if l.state.front.is_none() {
            self.occupied[index / 64] &= !(1 << (index % 64));
        }
        popped
    }

    /// Clears the lane's allocation after its tail departed.
    pub(crate) fn end_packet(&mut self, port: Port, vc: usize) {
        let index = self.index(port, vc);
        let l = &mut self.lanes[index].state;
        l.route = None;
        l.out_vc = None;
    }

    /// Buffers an arriving (or injected) flit at the back of the lane.
    pub(crate) fn push(&mut self, port: Port, vc: usize, flit: QueuedFlit) {
        let index = self.index(port, vc);
        let l = &mut self.lanes[index];
        if l.queue.is_empty() {
            l.state.front = Some(Front::of(&flit));
            self.occupied[index / 64] |= 1 << (index % 64);
        }
        l.queue.push_back(flit);
    }

    /// True if lane (`port`, `vc`) can accept one more flit under the
    /// configured accounting mode.
    pub(crate) fn has_space(&self, port: Port, vc: usize, config: &VcConfig) -> bool {
        match config.credit_mode {
            CreditMode::PerVc => self.lanes[self.index(port, vc)].queue.len() < config.queue_depth,
            CreditMode::SharedPool => damq_admits(
                self.port_lanes(port).iter().map(|l| l.queue.len()),
                vc,
                config.buffers_per_input(),
            ),
        }
    }

    /// Flits buffered across all lanes of `port`.
    pub(crate) fn occupancy(&self, port: Port) -> usize {
        self.port_lanes(port).iter().map(|l| l.queue.len()).sum()
    }

    /// True if every lane of every port is empty.
    pub(crate) fn all_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    /// Dumps every lane that holds live state (queued flits or an
    /// installed route/VC grant); inert lanes are omitted.
    pub(crate) fn snapshot(&self) -> Json {
        let mut ports = Vec::new();
        for &port in &Port::ALL {
            let mut lanes = Vec::new();
            for (vc, l) in self.port_lanes(port).iter().enumerate() {
                let LaneState {
                    route,
                    out_vc,
                    switch_ready_at,
                    ..
                } = l.state;
                if l.queue.is_empty() && route.is_none() && out_vc.is_none() {
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
                        match route {
                            Some(p) => Json::str(format!("{p:?}")),
                            None => Json::Null,
                        },
                    ),
                    (
                        "out_vc".into(),
                        match out_vc {
                            Some(v) => Json::Num(v as f64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "switch_ready_at".into(),
                        Json::Num(switch_ready_at.raw() as f64),
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
        let owner = &mut self.vc_owner[req.out_port];
        let Some(granted) = rng.pick_free(owner.len(), |v| !owner[v]) else {
            self.conflicts += 1;
            return None;
        };
        owner[granted] = true;
        Some(VcAllocGrant {
            out_vc: granted as u8,
        })
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
                self.downstream_occ[out_port].iter().copied(),
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

    /// Picks an input port's nomination among its ready bids, each
    /// paired with that port: one uniform random draw (the paper's
    /// switch arbiter).
    ///
    /// # Panics
    ///
    /// Panics if `bids` is empty: nominations exist only for inputs
    /// with at least one ready flit.
    pub(crate) fn nominate(bids: &[(Port, SwitchBid)], rng: &mut Rng) -> (Port, SwitchBid) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use noc_flow::FlitType;
    use noc_traffic::PacketId;

    fn queued(packet: u64, ty: FlitType, dest: NodeId, arrived: u64) -> QueuedFlit {
        QueuedFlit {
            tag: VcTag { vc: 0, ty },
            flit: DataFlit {
                packet: PacketId::new(packet),
                seq: 0,
                length: 1,
                dest,
                created_at: Cycle::ZERO,
                crc_ok: true,
            },
            arrived: Cycle::new(arrived),
        }
    }

    /// The route-compute and request pass as a loop over every lane,
    /// reading each queue's front.
    fn requests_of_every_lane(
        stage: &mut VcInputStage,
        now: Cycle,
        mut route: impl FnMut(NodeId) -> Port,
    ) -> Vec<VcAllocRequest> {
        let vcs = stage.vcs;
        let mut requests = Vec::new();
        for &in_port in &Port::ALL {
            for vc in 0..vcs {
                let l = &mut stage.lanes[in_port.index() * vcs + vc];
                let dest = match l.queue.front() {
                    Some(q) if q.tag.ty.is_head() && l.state.route.is_none() && q.arrived < now => {
                        Some(q.flit.dest)
                    }
                    _ => None,
                };
                if let Some(dest) = dest {
                    let out = route(dest);
                    l.state.route = Some(out);
                    if out == Port::Local {
                        l.state.out_vc = Some(0);
                        l.state.switch_ready_at = now;
                        continue;
                    }
                }
                if let (Some(out_port), None) = (l.state.route, l.state.out_vc) {
                    requests.push(VcAllocRequest {
                        in_port,
                        in_vc: vc,
                        out_port,
                    });
                }
            }
        }
        requests
    }

    /// The lanes of `port` that pass a switch bid's input-side gates, as
    /// a loop over every lane reading each queue's front.
    fn ready_of_every_lane(
        stage: &VcInputStage,
        port: Port,
        now: Cycle,
    ) -> Vec<(usize, ReadyLane)> {
        let vcs = stage.vcs;
        (0..vcs)
            .filter_map(|vc| {
                let l = &stage.lanes[port.index() * vcs + vc];
                let front = l.queue.front()?;
                let (route, out_vc) = (l.state.route?, l.state.out_vc?);
                let head = front.tag.ty.is_head();
                if front.arrived + 1 > now || (head && l.state.switch_ready_at > now) {
                    return None;
                }
                Some((
                    vc,
                    ReadyLane {
                        route,
                        out_vc,
                        head,
                    },
                ))
            })
            .collect()
    }

    /// `has_space` as a loop over a collected list of queue lengths.
    fn space_by_list(stage: &VcInputStage, port: Port, vc: usize, config: &VcConfig) -> bool {
        let per_vc: Vec<usize> = (0..stage.vcs)
            .map(|v| stage.lanes[port.index() * stage.vcs + v].queue.len())
            .collect();
        match config.credit_mode {
            CreditMode::PerVc => per_vc[vc] < config.queue_depth,
            CreditMode::SharedPool => {
                let shared_used: usize = per_vc.iter().map(|&o| o.saturating_sub(1)).sum();
                per_vc[vc] == 0 || shared_used < config.buffers_per_input() - per_vc.len()
            }
        }
    }

    #[test]
    fn occupancy_scan_matches_a_scan_of_every_lane() {
        let route_of = |dest: NodeId| Port::ALL[dest.index() % Port::COUNT];
        let types = [
            FlitType::Head,
            FlitType::Body,
            FlitType::Tail,
            FlitType::HeadTail,
        ];
        for vcs in [1, 2, 8, 13] {
            let mut second_word_used = false;
            for mode in [CreditMode::PerVc, CreditMode::SharedPool] {
                let config = VcConfig::new(vcs, 4, mode);
                for seed in 0..4 {
                    let mut stage = VcInputStage::new(vcs);
                    let mut alloc = VcAllocStage::new(vcs);
                    let mut rng = Rng::from_seed(seed);
                    let mut now = 1;
                    let mut packet = 0;
                    for step in 0..2_000 {
                        let context = format!("{vcs} VCs, {mode:?}, seed {seed}, step {step}");
                        let port = Port::ALL[rng.index(Port::COUNT)];
                        let vc = rng.index(vcs);
                        let space = stage.has_space(port, vc, &config);
                        assert_eq!(space, space_by_list(&stage, port, vc, &config), "{context}");
                        let state = stage.lane(port, vc);
                        match rng.index(6) {
                            0..=2 if space => {
                                packet += 1;
                                let ty = types[rng.index(types.len())];
                                let dest = NodeId::new(rng.index(64) as u16);
                                let arrived = now - rng.index(2) as u64;
                                stage.push(port, vc, queued(packet, ty, dest, arrived));
                            }
                            // Only a switch winner, which holds a
                            // downstream VC, departs; its tail ends the
                            // packet as `forward_flit` does.
                            3 if state.front.is_some() && state.out_vc.is_some() => {
                                let popped = stage.pop_front(port, vc);
                                if popped.tag.ty.is_tail() {
                                    stage.end_packet(port, vc);
                                    let (route, out_vc) = (state.route, state.out_vc);
                                    if let (Some(route), Some(out_vc)) = (route, out_vc) {
                                        if route != Port::Local {
                                            alloc.release(route, out_vc);
                                        }
                                    }
                                }
                            }
                            _ => now += 1,
                        }
                        second_word_used |= stage.occupied.get(1).is_some_and(|&w| w != 0);
                        let at = Cycle::new(now);

                        // Route compute and requests.
                        let mut reference = stage.clone();
                        let mut want_routed = Vec::new();
                        let mut want_requests = requests_of_every_lane(&mut reference, at, |d| {
                            want_routed.push(d);
                            route_of(d)
                        });
                        let mut got_routed = Vec::new();
                        let mut requests = Vec::new();
                        stage.gather_requests(
                            at,
                            |d| {
                                got_routed.push(d);
                                route_of(d)
                            },
                            &mut requests,
                        );
                        assert_eq!(got_routed, want_routed, "route compute order, {context}");
                        assert_eq!(requests, want_requests, "requests, {context}");
                        for (l, r) in stage.lanes.iter().zip(&reference.lanes) {
                            assert_eq!(l.state, r.state, "lane state, {context}");
                        }

                        // VC allocation draws: the k-th free VC against a
                        // choice over the collected free list.
                        let mut want_rng = rng.clone();
                        want_rng.shuffle(&mut want_requests);
                        rng.shuffle(&mut requests);
                        assert_eq!(requests, want_requests, "shuffle, {context}");
                        for req in &requests {
                            let free: Vec<u8> = (0..vcs)
                                .filter(|&v| !alloc.vc_owner[req.out_port][v])
                                .map(|v| v as u8)
                                .collect();
                            let want = (!free.is_empty()).then(|| *want_rng.choose(&free));
                            let got = alloc.try_grant(req, &mut rng);
                            assert_eq!(got.map(|g| g.out_vc), want, "grant, {context}");
                            assert_eq!(rng, want_rng, "grant draws, {context}");
                            if let Some(grant) = got {
                                stage.apply_grant(req, grant, at);
                            }
                        }

                        // Switch bids: the occupied lanes that pass the
                        // input gates, and the nomination draw over them.
                        let mut bids = Vec::new();
                        let mut lanes = stage.occupied_lanes();
                        while let Some((p, v)) = lanes.next(&stage) {
                            if let Some(r) = stage.switch_ready(p, v, at) {
                                bids.push((p, v, r));
                            }
                        }
                        for &p in &Port::ALL {
                            let got: Vec<(usize, ReadyLane)> = bids
                                .iter()
                                .filter(|b| b.0 == p)
                                .map(|&(_, v, r)| (v, r))
                                .collect();
                            let ready = ready_of_every_lane(&stage, p, at);
                            assert_eq!(got, ready, "{p:?} bids, {context}");
                            if !got.is_empty() {
                                let mut want_rng = rng.clone();
                                let want = *want_rng.choose(&ready);
                                assert_eq!(*rng.choose(&got), want, "nomination, {context}");
                                assert_eq!(rng, want_rng, "nomination draws, {context}");
                            }
                        }

                        // The local VC pick of an injected head.
                        let mut want_rng = rng.clone();
                        let free: Vec<usize> = (0..vcs)
                            .filter(|&v| space_by_list(&stage, Port::Local, v, &config))
                            .collect();
                        let want = (!free.is_empty()).then(|| *want_rng.choose(&free));
                        let got = rng.pick_free(vcs, |v| stage.has_space(Port::Local, v, &config));
                        assert_eq!(got, want, "local VC pick, {context}");
                        assert_eq!(rng, want_rng, "local VC pick draws, {context}");

                        // Bookkeeping: the bitset and inline fronts track
                        // the queues, and no empty lane waits for a VC.
                        let mut occupied = Vec::new();
                        let mut lanes = stage.occupied_lanes();
                        while let Some(lane) = lanes.next(&stage) {
                            occupied.push(lane);
                        }
                        let queued: Vec<(Port, usize)> = Port::ALL
                            .iter()
                            .flat_map(|&p| (0..vcs).map(move |v| (p, v)))
                            .filter(|&(p, v)| !stage.lanes[p.index() * vcs + v].queue.is_empty())
                            .collect();
                        assert_eq!(occupied, queued, "occupied lanes, {context}");
                        for l in &stage.lanes {
                            assert_eq!(l.state.front, l.queue.front().map(Front::of), "{context}");
                            assert!(
                                !(l.queue.is_empty()
                                    && l.state.route.is_some()
                                    && l.state.out_vc.is_none()),
                                "an empty lane holds a route without an output VC, {context}"
                            );
                        }
                        let queued = stage.lanes.iter().any(|l| !l.queue.is_empty());
                        assert_eq!(stage.all_empty(), !queued, "{context}");
                    }
                }
            }
            assert_eq!(second_word_used, vcs == 13, "{vcs} VCs");
        }
    }
}
