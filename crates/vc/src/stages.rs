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
//!
//! The lanes, downstream-VC owners, credits and local-VC binding are
//! the shared virtual-channel port of `noc_flow::pipeline`, which FR's
//! control plane runs too.

#![deny(private_interfaces, private_bounds)]

use crate::{CreditMode, VcConfig};
use noc_engine::{Cycle, Rng};
use noc_flow::pipeline::{
    Credits, Front, InputLanes, LaneFlit, LocalVc, SwitchBid, SwitchContender, VcAllocGrant,
    VcAllocRequest, VcOwners,
};
use noc_flow::{DataFlit, VcTag};
use noc_metrics::Json;
use noc_topology::{NodeId, Port};
use std::collections::VecDeque;

/// One buffered flit with its arrival cycle.
#[derive(Clone, Debug)]
pub(crate) struct QueuedFlit {
    pub(crate) tag: VcTag,
    pub(crate) flit: DataFlit,
    pub(crate) arrived: Cycle,
}

impl LaneFlit for QueuedFlit {
    fn front(&self) -> Front {
        Front {
            arrived: self.arrived,
            head_dest: self.tag.ty.is_head().then_some(self.flit.dest),
        }
    }

    fn render(&self) -> String {
        format!(
            "{:?} {:?} arrived={}",
            self.tag,
            self.flit,
            self.arrived.raw()
        )
    }
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

/// The input-buffer stage: the shared input lanes, each carrying a
/// packet through route compute, VC allocation and the switch, plus
/// each lane's switch-ready cycle, which the state dump shows.
#[derive(Clone, Debug)]
pub(crate) struct VcInputStage {
    lanes: InputLanes<QueuedFlit>,
    /// The cycle each lane's packet last became switch-ready.
    switch_ready_at: Vec<Cycle>,
}

impl VcInputStage {
    pub(crate) fn new(num_vcs: usize) -> Self {
        VcInputStage {
            lanes: InputLanes::new(num_vcs),
            switch_ready_at: vec![Cycle::ZERO; Port::COUNT * num_vcs],
        }
    }

    /// The lanes, for walks and front reads.
    #[inline]
    pub(crate) fn lanes(&self) -> &InputLanes<QueuedFlit> {
        &self.lanes
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
        let mut walk = self.lanes.walk();
        while let Some(i) = walk.next(&self.lanes) {
            let l = self.lanes.lane_mut(i);
            let front = l.front();
            if let (None, Some(dest)) = (l.route, front.head_dest) {
                if front.arrived < now {
                    let out = route(dest);
                    l.route = Some(out);
                    if out == Port::Local {
                        l.out_vc = Some(0);
                        self.switch_ready_at[i] = now;
                        continue;
                    }
                }
            }
            if let (Some(out_port), None) = (l.route, l.out_vc) {
                let (in_port, in_vc) = self.lanes.id(i);
                requests.push(VcAllocRequest {
                    in_port,
                    in_vc,
                    out_port,
                });
            }
        }
    }

    /// Installs a VC-allocation grant. Routing, VC allocation and
    /// switch traversal share the single routing/scheduling cycle of
    /// the paper's router.
    pub(crate) fn apply_grant(&mut self, req: &VcAllocRequest, grant: VcAllocGrant, now: Cycle) {
        let i = self.lanes.index(req.in_port, req.in_vc);
        self.lanes.lane_mut(i).out_vc = Some(grant.out_vc);
        self.switch_ready_at[i] = now;
    }

    /// Occupied lane `i`'s front flit when it may bid for the switch at
    /// `now`: the lane holds a route and a downstream VC and the flit
    /// was buffered before `now`.
    #[inline]
    pub(crate) fn switch_ready(&self, i: usize, now: Cycle) -> Option<ReadyLane> {
        let l = self.lanes.lane(i);
        debug_assert!(!l.queue().is_empty(), "switch bid from an empty lane");
        let (front, route, out_vc) = (l.front(), l.route?, l.out_vc?);
        if front.arrived + 1 > now {
            return None;
        }
        Some(ReadyLane {
            route,
            out_vc,
            head: front.head_dest.is_some(),
        })
    }

    /// True if the tail of the front flit's packet is already buffered
    /// in lane `i` (the store-and-forward gate).
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty.
    pub(crate) fn tail_buffered(&self, i: usize) -> bool {
        let queue = self.lanes.lane(i).queue();
        let packet = queue.front().expect("occupied lane").flit.packet;
        queue
            .iter()
            .any(|q| q.flit.packet == packet && q.tag.ty.is_tail())
    }

    /// Pops the departing front flit of lane (`port`, `vc`), ending its
    /// packet when the flit is the tail; returns the flit and the
    /// downstream VC its packet held.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty or holds no downstream VC: only
    /// switch winners are popped.
    pub(crate) fn pop_front(&mut self, port: Port, vc: usize) -> (QueuedFlit, u8) {
        let i = self.lanes.index(port, vc);
        let out_vc = self
            .lanes
            .lane(i)
            .out_vc
            .expect("winner must hold an output VC");
        let popped = self.lanes.pop(i);
        if popped.tag.ty.is_tail() {
            self.lanes.end_packet(i);
        }
        (popped, out_vc)
    }

    /// Buffers a flit arriving (or injected) at `arrived` at the back
    /// of lane (`port`, `vc`).
    pub(crate) fn push(
        &mut self,
        port: Port,
        vc: usize,
        tag: VcTag,
        flit: DataFlit,
        arrived: Cycle,
    ) {
        let i = self.lanes.index(port, vc);
        self.lanes.push(i, QueuedFlit { tag, flit, arrived });
    }

    /// True if lane (`port`, `vc`) can accept one more flit under the
    /// configured accounting mode.
    pub(crate) fn has_space(&self, port: Port, vc: usize, config: &VcConfig) -> bool {
        let lanes = self.lanes.port_lanes(port);
        match config.credit_mode {
            CreditMode::PerVc => lanes[vc].queue().len() < config.queue_depth,
            CreditMode::SharedPool => damq_admits(
                lanes.iter().map(|l| l.queue().len()),
                vc,
                config.buffers_per_input(),
            ),
        }
    }

    /// Flits buffered across all lanes of `port`.
    pub(crate) fn occupancy(&self, port: Port) -> usize {
        let lanes = self.lanes.port_lanes(port);
        lanes.iter().map(|l| l.queue().len()).sum()
    }

    /// Dumps every lane that holds live state (queued flits or an
    /// installed route/VC grant) with its switch-ready cycle.
    pub(crate) fn snapshot(&self) -> Json {
        self.lanes.snapshot(|i| {
            let at = self.switch_ready_at[i].raw() as f64;
            Some(("switch_ready_at", Json::Num(at)))
        })
    }
}

/// The VC-allocation stage: ownership of every output port's downstream
/// virtual channels, granted to one packet at a time.
#[derive(Clone, Debug)]
pub(crate) struct VcAllocStage {
    owners: VcOwners,
    conflicts: u64,
}

impl VcAllocStage {
    pub(crate) fn new(num_vcs: usize) -> Self {
        VcAllocStage {
            owners: VcOwners::new(num_vcs),
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
        let Some(out_vc) = self.owners.grant(req.out_port, rng) else {
            self.conflicts += 1;
            return None;
        };
        Some(VcAllocGrant { out_vc })
    }

    /// Releases a downstream VC after its packet's tail traversed.
    pub(crate) fn release(&mut self, out_port: Port, out_vc: u8) {
        self.owners.release(out_port, out_vc);
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
                    ("owned".into(), self.owners.snapshot(port)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("vc_owner".into(), Json::Arr(owners)),
            ("conflicts".into(), Json::Num(self.conflicts as f64)),
        ])
    }
}

/// The switch-allocation + traversal stage: downstream credit
/// accounting, the paper's random arbiter, and the traversal counters.
#[derive(Clone, Debug)]
pub(crate) struct SwitchStage {
    /// Free downstream slots per (output, VC). A PerVc counter starts at
    /// the VC's queue depth; a SharedPool counter starts at the whole
    /// pool, so the VC's downstream occupancy is pool − available.
    credits: Credits,
    credit_stalls: u64,
    arb_retries: u64,
    data_flits_sent: u64,
}

impl SwitchStage {
    pub(crate) fn new(config: &VcConfig) -> Self {
        let depth = match config.credit_mode {
            CreditMode::PerVc => config.queue_depth,
            CreditMode::SharedPool => config.buffers_per_input(),
        };
        SwitchStage {
            credits: Credits::new(config.num_vcs, depth),
            credit_stalls: 0,
            arb_retries: 0,
            data_flits_sent: 0,
        }
    }

    /// Each VC's flits in the shared pool downstream of `port`, in VC
    /// order; all zero in PerVc mode, where the credits alone count.
    fn downstream_occ<'a>(
        &'a self,
        port: Port,
        config: &VcConfig,
    ) -> impl Iterator<Item = usize> + 'a {
        let pool =
            (config.credit_mode == CreditMode::SharedPool).then(|| config.buffers_per_input());
        (0..config.num_vcs)
            .map(move |v| pool.map_or(0, |p| p - self.credits.available(port, v as u8)))
    }

    /// True if one flit may be sent to (`out_port`, `out_vc`) now.
    pub(crate) fn has_credit(&self, out_port: Port, out_vc: u8, config: &VcConfig) -> bool {
        if out_port == Port::Local {
            return true;
        }
        match config.credit_mode {
            CreditMode::PerVc => self.credits.available(out_port, out_vc) > 0,
            CreditMode::SharedPool => damq_admits(
                self.downstream_occ(out_port, config),
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
            CreditMode::PerVc => self.credits.available(out_port, out_vc),
            CreditMode::SharedPool => {
                let occ: usize = self.downstream_occ(out_port, config).sum();
                config.buffers_per_input().saturating_sub(occ)
            }
        }
    }

    /// Spends one downstream slot for a traversal.
    pub(crate) fn consume_credit(&mut self, out_port: Port, out_vc: u8) {
        if out_port != Port::Local {
            self.credits.consume(out_port, out_vc);
        }
    }

    /// Applies a credit wire arriving on output `port` for `vc`.
    pub(crate) fn credit_returned(&mut self, port: Port, vc: u8) {
        self.credits.returned(port, vc);
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
    pub(crate) fn snapshot(&self, config: &VcConfig) -> Json {
        let ports: Vec<Json> = Port::ALL
            .iter()
            .map(|&port| {
                let occ = self.downstream_occ(port, config);
                Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("credits".into(), self.credits.snapshot(port)),
                    (
                        "downstream_occ".into(),
                        Json::Arr(occ.map(|n| Json::Num(n as f64)).collect()),
                    ),
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
    local_vc: LocalVc,
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

    /// Pops the front flit as it enters the router.
    pub(crate) fn pop(&mut self) -> Option<(VcTag, DataFlit)> {
        let front = self.fifo.pop_front();
        if let Some((tag, _)) = front {
            self.local_vc.entered(tag.ty.is_tail());
        }
        front
    }

    /// The binding of the in-flight packet to a local input VC.
    pub(crate) fn local_vc(&mut self) -> &mut LocalVc {
        &mut self.local_vc
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
            ("current_vc".into(), self.local_vc.snapshot()),
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

    /// Each lane's (route, output VC, switch-ready cycle), port-major.
    fn lane_states(stage: &VcInputStage) -> Vec<(Option<Port>, Option<u8>, Cycle)> {
        (0..stage.switch_ready_at.len())
            .map(|i| {
                let l = stage.lanes.lane(i);
                (l.route, l.out_vc, stage.switch_ready_at[i])
            })
            .collect()
    }

    /// The route-compute and request pass as a loop over every lane,
    /// reading each queue's front.
    fn requests_of_every_lane(
        stage: &mut VcInputStage,
        now: Cycle,
        mut route: impl FnMut(NodeId) -> Port,
    ) -> Vec<VcAllocRequest> {
        let mut requests = Vec::new();
        for &in_port in &Port::ALL {
            for vc in 0..stage.lanes.vcs() {
                let i = stage.lanes.index(in_port, vc);
                let l = stage.lanes.lane_mut(i);
                let dest = match l.queue().front() {
                    Some(q) if q.tag.ty.is_head() && l.route.is_none() && q.arrived < now => {
                        Some(q.flit.dest)
                    }
                    _ => None,
                };
                if let Some(dest) = dest {
                    let out = route(dest);
                    l.route = Some(out);
                    if out == Port::Local {
                        l.out_vc = Some(0);
                        stage.switch_ready_at[i] = now;
                        continue;
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
        requests
    }

    /// The lanes of `port` that pass a switch bid's input-side gates, as
    /// a loop over every lane reading each queue's front.
    fn ready_of_every_lane(
        stage: &VcInputStage,
        port: Port,
        now: Cycle,
    ) -> Vec<(usize, ReadyLane)> {
        (0..stage.lanes.vcs())
            .filter_map(|vc| {
                let l = stage.lanes.lane(stage.lanes.index(port, vc));
                let front = l.queue().front()?;
                let (route, out_vc) = (l.route?, l.out_vc?);
                if front.arrived + 1 > now {
                    return None;
                }
                let head = front.tag.ty.is_head();
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
        let per_vc: Vec<usize> = (0..stage.lanes.vcs())
            .map(|v| stage.lanes.lane(stage.lanes.index(port, v)).queue().len())
            .collect();
        match config.credit_mode {
            CreditMode::PerVc => per_vc[vc] < config.queue_depth,
            CreditMode::SharedPool => {
                let shared_used: usize = per_vc.iter().map(|&o| o.saturating_sub(1)).sum();
                per_vc[vc] == 0 || shared_used < config.buffers_per_input() - per_vc.len()
            }
        }
    }

    /// The free downstream VCs of `port`, read from the owner dump.
    fn free_vcs(alloc: &VcAllocStage, port: Port) -> Vec<u8> {
        let Json::Arr(owned) = alloc.owners.snapshot(port) else {
            panic!("owner dump is not an array");
        };
        (0..owned.len() as u8)
            .filter(|&v| owned[v as usize] == Json::Bool(false))
            .collect()
    }

    /// The stage's walk-driven passes against loops over every lane.
    /// The walk, the inline fronts and the bitset themselves are checked
    /// by noc-flow's `lanes_owners_and_credits_match_a_model_of_every_lane`.
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
                        let lane = stage.lanes.lane(stage.lanes.index(port, vc));
                        let (occupied, route) = (!lane.queue().is_empty(), lane.route);
                        match rng.index(6) {
                            0..=2 if space => {
                                packet += 1;
                                let ty = types[rng.index(types.len())];
                                let dest = NodeId::new(rng.index(64) as u16);
                                let arrived = now - rng.index(2) as u64;
                                let q = queued(packet, ty, dest, arrived);
                                stage.push(port, vc, q.tag, q.flit, q.arrived);
                            }
                            // Only a switch winner, which holds a
                            // downstream VC, departs; its tail ends the
                            // packet and frees the VC as `forward_flit`
                            // does.
                            3 if occupied && lane.out_vc.is_some() => {
                                let (popped, out_vc) = stage.pop_front(port, vc);
                                let route = route.expect("a granted lane is routed");
                                if popped.tag.ty.is_tail() && route != Port::Local {
                                    alloc.release(route, out_vc);
                                }
                            }
                            _ => now += 1,
                        }
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
                        assert_eq!(lane_states(&stage), lane_states(&reference), "{context}");

                        // VC allocation draws: the k-th free VC against a
                        // choice over the collected free list.
                        let mut want_rng = rng.clone();
                        want_rng.shuffle(&mut want_requests);
                        rng.shuffle(&mut requests);
                        assert_eq!(requests, want_requests, "shuffle, {context}");
                        for req in &requests {
                            let free = free_vcs(&alloc, req.out_port);
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
                        let mut walk = stage.lanes.walk();
                        while let Some(i) = walk.next(&stage.lanes) {
                            if let Some(r) = stage.switch_ready(i, at) {
                                bids.push((stage.lanes.id(i), r));
                            }
                        }
                        for &p in &Port::ALL {
                            let got: Vec<(usize, ReadyLane)> = bids
                                .iter()
                                .filter(|b| b.0 .0 == p)
                                .map(|&((_, v), r)| (v, r))
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
                        let want = (!free.is_empty()).then(|| *want_rng.choose(&free) as u8);
                        let has_space = |v| stage.has_space(Port::Local, v, &config);
                        let got = LocalVc::default().pick(true, vcs, &mut rng, has_space);
                        assert_eq!(got, want, "local VC pick, {context}");
                        assert_eq!(rng, want_rng, "local VC pick draws, {context}");

                        // No empty lane waits for a VC.
                        for i in 0..Port::COUNT * vcs {
                            let l = stage.lanes.lane(i);
                            assert!(
                                !(l.queue().is_empty() && l.route.is_some() && l.out_vc.is_none()),
                                "an empty lane holds a route without an output VC, {context}"
                            );
                        }
                    }
                }
            }
        }
    }
}
