//! The credit-based virtual-channel input port both router families
//! run: the VC baseline on its data lanes, flit reservation on its
//! control lanes (the paper's control network is a small VC network).
//! What a family does with a lane (routing, requests, switch gates,
//! ready lists) stays in the family.

use noc_engine::{Cycle, Rng};
use noc_metrics::Json;
use noc_topology::{NodeId, Port};
use std::collections::VecDeque;

/// A flit an input lane buffers.
pub trait LaneFlit {
    /// The flit's arrival cycle and head destination.
    fn front(&self) -> Front;
    /// The flit's line in a state dump.
    fn render(&self) -> String;
}

/// What per-cycle passes read of a lane's front flit, copied out on
/// every push and pop so they never read a queue's buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Front {
    /// Cycle the flit was buffered.
    pub arrived: Cycle,
    /// The packet's destination if the flit is a packet head.
    pub head_dest: Option<NodeId>,
}

/// One input virtual channel: its queue and the packet draining
/// through it.
#[derive(Clone, Debug)]
pub struct Lane<F> {
    queue: VecDeque<F>,
    front: Front,
    /// Output port of the packet draining through the lane.
    pub route: Option<Port>,
    /// Downstream VC granted to that packet.
    pub out_vc: Option<u8>,
}

impl<F> Lane<F> {
    /// The front flit's copy; stale while the lane is empty (walks
    /// visit only lanes that hold a flit).
    #[inline]
    pub fn front(&self) -> Front {
        self.front
    }

    /// The buffered flits, front first.
    #[inline]
    pub fn queue(&self) -> &VecDeque<F> {
        &self.queue
    }

    /// The front flit, for edits that keep its [`Front`].
    pub fn front_flit_mut(&mut self) -> Option<&mut F> {
        self.queue.front_mut()
    }
}

/// The input lanes of one router, flat and port-major (lane
/// `port.index() * vcs + vc`) under an occupancy bitset of one `u64`
/// per 64 lanes, so per-cycle passes cost one step per queued front,
/// not one per configured lane.
#[derive(Clone, Debug)]
pub struct InputLanes<F> {
    vcs: usize,
    lanes: Vec<Lane<F>>,
    /// Each lane's (input port, VC), so no lookup divides by `vcs`.
    ids: Vec<(Port, u8)>,
    /// One bit per lane whose queue holds a flit.
    occupied: Vec<u64>,
}

impl<F: LaneFlit> InputLanes<F> {
    /// Empty lanes, `vcs` per port.
    pub fn new(vcs: usize) -> Self {
        let empty = || Lane {
            queue: VecDeque::new(),
            front: Front::default(),
            route: None,
            out_vc: None,
        };
        InputLanes {
            vcs,
            lanes: (0..Port::COUNT * vcs).map(|_| empty()).collect(),
            ids: Port::ALL
                .iter()
                .flat_map(|&port| (0..vcs).map(move |vc| (port, vc as u8)))
                .collect(),
            occupied: vec![0; (Port::COUNT * vcs).div_ceil(64)],
        }
    }

    /// Lanes per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The flat index of lane (`port`, `vc`).
    #[inline]
    pub fn index(&self, port: Port, vc: usize) -> usize {
        debug_assert!(vc < self.vcs, "vc out of range");
        port.index() * self.vcs + vc
    }

    /// The (input port, VC) of lane `i`.
    #[inline]
    pub fn id(&self, i: usize) -> (Port, usize) {
        let (port, vc) = self.ids[i];
        (port, vc as usize)
    }

    /// Lane `i`.
    #[inline]
    pub fn lane(&self, i: usize) -> &Lane<F> {
        &self.lanes[i]
    }

    /// Lane `i`, for its route and output VC.
    #[inline]
    pub fn lane_mut(&mut self, i: usize) -> &mut Lane<F> {
        &mut self.lanes[i]
    }

    /// The lanes of `port`, in VC order.
    pub fn port_lanes(&self, port: Port) -> &[Lane<F>] {
        &self.lanes[port.index() * self.vcs..][..self.vcs]
    }

    /// A walk over the lanes that hold a flit.
    #[inline]
    pub fn walk(&self) -> LaneWalk {
        LaneWalk {
            word: 0,
            bits: self.occupied[0],
        }
    }

    /// Buffers `flit` at the back of lane `i`.
    pub fn push(&mut self, i: usize, flit: F) {
        let l = &mut self.lanes[i];
        if l.queue.is_empty() {
            l.front = flit.front();
            self.occupied[i / 64] |= 1 << (i % 64);
        }
        l.queue.push_back(flit);
    }

    /// Pops lane `i`'s front flit.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty.
    pub fn pop(&mut self, i: usize) -> F {
        let l = &mut self.lanes[i];
        let flit = l.queue.pop_front().expect("pop from an empty lane");
        match l.queue.front() {
            Some(next) => l.front = next.front(),
            None => self.occupied[i / 64] &= !(1 << (i % 64)),
        }
        flit
    }

    /// Clears lane `i`'s route after its packet's tail left, returning
    /// the output VC the packet held.
    pub fn end_packet(&mut self, i: usize) -> Option<u8> {
        self.lanes[i].route = None;
        self.lanes[i].out_vc.take()
    }

    /// True if no lane holds a flit.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    /// Dumps every lane holding a flit, a route or an output VC, as
    /// `[{port, lanes: [{vc, route, out_vc, …, queue}]}]`; `extra` adds
    /// a family's own field of lane `i` before its queue.
    pub fn snapshot(&self, mut extra: impl FnMut(usize) -> Option<(&'static str, Json)>) -> Json {
        let mut ports = Vec::new();
        for &port in &Port::ALL {
            let mut lanes = Vec::new();
            for vc in 0..self.vcs {
                let i = self.index(port, vc);
                let l = &self.lanes[i];
                if l.queue.is_empty() && l.route.is_none() && l.out_vc.is_none() {
                    continue;
                }
                let mut fields = vec![
                    ("vc".into(), Json::Num(vc as f64)),
                    (
                        "route".into(),
                        l.route.map_or(Json::Null, |p| Json::str(format!("{p:?}"))),
                    ),
                    (
                        "out_vc".into(),
                        l.out_vc.map_or(Json::Null, |v| Json::Num(v as f64)),
                    ),
                ];
                fields.extend(extra(i).map(|(k, v)| (k.into(), v)));
                let queue = l.queue.iter().map(|f| Json::str(f.render())).collect();
                fields.push(("queue".into(), Json::Arr(queue)));
                lanes.push(Json::obj(fields));
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

/// A walk over the lanes that hold a flit, in ascending (port, VC)
/// order. It holds no borrow between steps, so the caller may update
/// lanes as it goes; lanes that fill or empty during the walk may be
/// missed or still visited.
#[derive(Clone, Copy, Debug)]
pub struct LaneWalk {
    /// Index of the bitset word being drained.
    word: usize,
    /// Its bits not yet visited.
    bits: u64,
}

impl LaneWalk {
    /// The next occupied lane's index, if any.
    #[inline]
    pub fn next<F>(&mut self, lanes: &InputLanes<F>) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *lanes.occupied.get(self.word)?;
        }
        let lane = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(lane)
    }
}

/// Ownership of every output port's downstream VCs, each granted to
/// one packet at a time.
#[derive(Clone, Debug)]
pub struct VcOwners {
    vcs: usize,
    /// Port-major like the lanes.
    owned: Vec<bool>,
}

impl VcOwners {
    /// `vcs` free downstream VCs per output port.
    pub fn new(vcs: usize) -> Self {
        VcOwners {
            vcs,
            owned: vec![false; Port::COUNT * vcs],
        }
    }

    /// Grants a uniformly random free VC on `port` (one
    /// [`Rng::pick_free`] draw); `None`, and no draw, when all are owned.
    #[inline]
    pub fn grant(&mut self, port: Port, rng: &mut Rng) -> Option<u8> {
        let owned = &mut self.owned[port.index() * self.vcs..][..self.vcs];
        let vc = rng.pick_free(owned.len(), |v| !owned[v])?;
        owned[vc] = true;
        Some(vc as u8)
    }

    /// Frees VC `vc` of `port` after its packet's tail left.
    #[inline]
    pub fn release(&mut self, port: Port, vc: u8) {
        self.owned[port.index() * self.vcs + vc as usize] = false;
    }

    /// `port`'s ownership flags, in VC order.
    pub fn snapshot(&self, port: Port) -> Json {
        let owned = &self.owned[port.index() * self.vcs..][..self.vcs];
        Json::Arr(owned.iter().map(|&o| Json::Bool(o)).collect())
    }
}

/// Credits for the downstream queues, one counter per (output port,
/// VC), each starting at the queue depth.
#[derive(Clone, Debug)]
pub struct Credits {
    vcs: usize,
    depth: usize,
    /// Port-major like the lanes.
    count: Vec<usize>,
}

impl Credits {
    /// Full credit for `vcs` queues of `depth` flits per output port.
    pub fn new(vcs: usize, depth: usize) -> Self {
        Credits {
            vcs,
            depth,
            count: vec![depth; Port::COUNT * vcs],
        }
    }

    /// Free slots of queue `vc` downstream of `port`.
    #[inline]
    pub fn available(&self, port: Port, vc: u8) -> usize {
        self.count[port.index() * self.vcs + vc as usize]
    }

    /// Spends one slot for a flit sent to (`port`, `vc`).
    #[inline]
    pub fn consume(&mut self, port: Port, vc: u8) {
        let c = &mut self.count[port.index() * self.vcs + vc as usize];
        debug_assert!(*c > 0, "consuming credit below zero");
        *c -= 1;
    }

    /// Applies a credit returned on `port` for `vc`.
    #[inline]
    pub fn returned(&mut self, port: Port, vc: u8) {
        let c = &mut self.count[port.index() * self.vcs + vc as usize];
        *c += 1;
        debug_assert!(*c <= self.depth, "credit overflow");
    }

    /// `port`'s counters, in VC order.
    pub fn snapshot(&self, port: Port) -> Json {
        let count = &self.count[port.index() * self.vcs..][..self.vcs];
        Json::Arr(count.iter().map(|&c| Json::Num(c as f64)).collect())
    }
}

/// The network interface's rule for the local lane an injected flit
/// enters: a head picks a lane with space by one [`Rng::pick_free`]
/// draw and binds it, later flits reuse the bound lane, and the tail
/// unbinds it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalVc {
    bound: Option<u8>,
}

impl LocalVc {
    /// The local VC of `vcs` the next flit enters, or `None` (keeping
    /// the binding) when `has_space` admits none.
    pub fn pick(
        &mut self,
        head: bool,
        vcs: usize,
        rng: &mut Rng,
        mut has_space: impl FnMut(usize) -> bool,
    ) -> Option<u8> {
        if !head {
            return self.bound.filter(|&v| has_space(v as usize));
        }
        let vc = rng.pick_free(vcs, has_space)? as u8;
        self.bound = Some(vc);
        Some(vc)
    }

    /// Unbinds once the packet's tail has entered.
    pub fn entered(&mut self, tail: bool) {
        if tail {
            self.bound = None;
        }
    }

    /// The bound VC, as a state dump shows it.
    pub fn snapshot(&self) -> Json {
        self.bound.map_or(Json::Null, |v| Json::Num(v as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Flit(Front);

    impl LaneFlit for Flit {
        fn front(&self) -> Front {
            self.0
        }
        fn render(&self) -> String {
            format!("{:?}", self.0)
        }
    }

    /// The lane dump built from plain per-lane models, lane `i` of
    /// `vcs` per port carrying `extra(i)`.
    fn dump_of(
        vcs: usize,
        queues: &[VecDeque<Flit>],
        routes: &[(Option<Port>, Option<u8>)],
        extra: impl Fn(usize) -> Option<(&'static str, Json)>,
    ) -> Json {
        let mut ports = Vec::new();
        for (p, port) in Port::ALL.iter().enumerate() {
            let lanes: Vec<Json> = (p * vcs..(p + 1) * vcs)
                .filter(|&i| !queues[i].is_empty() || routes[i] != (None, None))
                .map(|i| {
                    let (route, out_vc) = routes[i];
                    let mut fields = vec![
                        ("vc".into(), Json::Num((i - p * vcs) as f64)),
                        (
                            "route".into(),
                            route.map_or(Json::Null, |r| Json::str(format!("{r:?}"))),
                        ),
                        (
                            "out_vc".into(),
                            out_vc.map_or(Json::Null, |v| Json::Num(v as f64)),
                        ),
                    ];
                    fields.extend(extra(i).map(|(k, v)| (k.to_string(), v)));
                    let queue = queues[i].iter().map(|f| Json::str(f.render())).collect();
                    fields.push(("queue".into(), Json::Arr(queue)));
                    Json::obj(fields)
                })
                .collect();
            if !lanes.is_empty() {
                ports.push(Json::obj(vec![
                    ("port".into(), Json::str(format!("{port:?}"))),
                    ("lanes".into(), Json::Arr(lanes)),
                ]));
            }
        }
        Json::Arr(ports)
    }

    /// Random pushes, pops, routes, packet ends, grants, releases,
    /// credits and local picks at 1, 2, 8 and 13 VCs, each step checked
    /// against plain per-lane models that every check scans in full.
    #[test]
    fn lanes_owners_and_credits_match_a_model_of_every_lane() {
        for vcs in [1, 2, 8, 13] {
            let n = Port::COUNT * vcs;
            let mut second_word_used = false;
            for seed in 0..4 {
                let mut rng = Rng::from_seed(seed);
                let mut lanes = InputLanes::new(vcs);
                let (mut owners, mut credits) = (VcOwners::new(vcs), Credits::new(vcs, 3));
                let mut local = LocalVc::default();
                let mut queues = vec![VecDeque::<Flit>::new(); n];
                let mut routes = vec![(None, None); n];
                let (mut owned, mut count, mut bound) = (vec![false; n], vec![3; n], None);
                for step in 0..2_000 {
                    let context = format!("{vcs} VCs, seed {seed}, step {step}");
                    let i = rng.index(n);
                    let (port, vc) = lanes.id(i);
                    assert_eq!(lanes.index(port, vc), i, "{context}");
                    let first = port.index() * vcs;
                    match rng.index(8) {
                        0 | 1 => {
                            let head_dest =
                                (rng.index(2) == 0).then(|| NodeId::new(rng.index(64) as u16));
                            let arrived = Cycle::new(step - rng.index(2) as u64);
                            let flit = Flit(Front { arrived, head_dest });
                            lanes.push(i, flit);
                            queues[i].push_back(flit);
                        }
                        2 if !queues[i].is_empty() => {
                            assert_eq!(Some(lanes.pop(i)), queues[i].pop_front(), "{context}");
                        }
                        3 => {
                            let route = (rng.index(4) > 0).then(|| Port::ALL[rng.index(5)]);
                            let out_vc = (rng.index(2) == 0).then(|| rng.index(vcs) as u8);
                            (lanes.lane_mut(i).route, lanes.lane_mut(i).out_vc) = (route, out_vc);
                            routes[i] = (route, out_vc);
                        }
                        4 => {
                            assert_eq!(lanes.end_packet(i), routes[i].1, "{context}");
                            routes[i] = (None, None);
                        }
                        5 => {
                            // A grant is the k-th free VC, drawn as a
                            // choice over the collected free list.
                            let free: Vec<u8> = (0..vcs as u8)
                                .filter(|&v| !owned[first + v as usize])
                                .collect();
                            let mut want_rng = rng.clone();
                            let want = (!free.is_empty()).then(|| *want_rng.choose(&free));
                            assert_eq!(owners.grant(port, &mut rng), want, "grant, {context}");
                            assert_eq!(rng, want_rng, "grant draws, {context}");
                            if let Some(v) = want {
                                owned[first + v as usize] = true;
                            }
                            owners.release(port, vc as u8);
                            owned[i] = false;
                        }
                        6 => {
                            if count[i] > 0 && rng.index(2) == 0 {
                                credits.consume(port, vc as u8);
                                count[i] -= 1;
                            } else if count[i] < 3 {
                                credits.returned(port, vc as u8);
                                count[i] += 1;
                            }
                        }
                        _ => {
                            // Heads draw over the local lanes with space
                            // and bind; later flits reuse the binding.
                            let space = |v: usize| queues[lanes.index(Port::Local, v)].len() < 2;
                            let head = rng.index(3) == 0;
                            let mut want_rng = rng.clone();
                            let want = if head {
                                let free: Vec<u8> =
                                    (0..vcs as u8).filter(|&v| space(v.into())).collect();
                                let pick = (!free.is_empty()).then(|| *want_rng.choose(&free));
                                bound = pick.or(bound);
                                pick
                            } else {
                                bound.filter(|&v| space(v.into()))
                            };
                            assert_eq!(local.pick(head, vcs, &mut rng, space), want, "{context}");
                            assert_eq!(rng, want_rng, "local pick draws, {context}");
                            let tail = rng.index(2) == 0;
                            local.entered(tail);
                            bound = bound.filter(|_| !tail);
                            let want = bound.map_or(Json::Null, |v| Json::Num(v as f64));
                            assert_eq!(local.snapshot(), want, "binding, {context}");
                        }
                    }
                    second_word_used |= lanes.occupied.get(1).is_some_and(|&w| w != 0);

                    // The walk visits exactly the lanes holding a flit,
                    // in `Port::ALL` x VC order; fronts, queues, routes,
                    // owners and credits match their models.
                    let (mut walked, mut walk) = (Vec::new(), lanes.walk());
                    while let Some(i) = walk.next(&lanes) {
                        walked.push(i);
                    }
                    let queued: Vec<usize> = (0..n).filter(|&i| !queues[i].is_empty()).collect();
                    assert_eq!(walked, queued, "occupied lanes, {context}");
                    assert_eq!(lanes.is_empty(), queued.is_empty(), "{context}");
                    for (i, q) in queues.iter().enumerate() {
                        let l = lanes.lane(i);
                        assert!(l.queue().iter().eq(q), "queue, {context}");
                        assert!(
                            q.front().is_none_or(|f| l.front() == f.0),
                            "front, {context}"
                        );
                        assert_eq!((l.route, l.out_vc), routes[i], "route, {context}");
                    }
                    let flags = owned[first..first + vcs].iter().map(|&o| Json::Bool(o));
                    assert_eq!(
                        owners.snapshot(port),
                        Json::Arr(flags.collect()),
                        "{context}"
                    );
                    let nums = count[first..first + vcs]
                        .iter()
                        .map(|&c| Json::Num(c as f64));
                    assert_eq!(
                        credits.snapshot(port),
                        Json::Arr(nums.collect()),
                        "{context}"
                    );
                    assert_eq!(credits.available(port, vc as u8), count[i], "{context}");
                    let lens = lanes.port_lanes(port).iter().map(|l| l.queue().len());
                    assert!(lens.eq(queues[first..first + vcs].iter().map(VecDeque::len)));
                    let extra = |i: usize| {
                        i.is_multiple_of(3)
                            .then_some(("extra", Json::Num(i as f64)))
                    };
                    let want = dump_of(vcs, &queues, &routes, extra);
                    assert_eq!(lanes.snapshot(extra), want, "lane dump, {context}");
                }
            }
            assert_eq!(second_word_used, vcs == 13, "{vcs} VCs");
        }
    }
}
