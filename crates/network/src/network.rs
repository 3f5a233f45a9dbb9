//! Wiring routers into a mesh network.
//!
//! The network owns all routers and every directed inter-router link
//! (three wire classes per link: data, control, credit) and drives them
//! through an explicit phase-separated cycle:
//!
//! 1. **deliver** — every link arrival for cycle `t` is drained in place
//!    and handed to its receiving router (which is woken);
//! 2. **inject** — offered traffic is generated into a reusable scratch
//!    buffer and pushed through the per-node backlogs;
//! 3. **step** — every *awake* router advances one cycle into its own
//!    retained [`StepOutputs`] arena. Routers touch only their own state
//!    here;
//! 4. **apply** — the staged outputs are committed to links and the
//!    delivery tracker in router order (this serialises the
//!    control-error RNG and every network-level trace event, which is
//!    what keeps sharded and sequential runs bit-identical);
//! 5. **observe** — the metrics sampler runs, routers report stalled
//!    flits to a provenance sink, and time advances.
//!
//! All routers observe a consistent snapshot: every arrival for cycle `t`
//! is delivered before any router steps cycle `t`, and nothing sent at
//! cycle `t` is seen before `t + delay` (all wires have delay ≥ 1).
//!
//! The steady state allocates nothing: arrivals pop off links in place,
//! traffic lands in a retained scratch `Vec`, and each router's
//! [`StepOutputs`] arena is drained and reused, so per-cycle `Vec` churn
//! is gone. Quiescent routers ([`noc_flow::Router::is_idle`]) are skipped
//! entirely unless [`Network::set_idle_skip`] turns the wake-list off —
//! by the idle contract, both modes produce bit-identical traces.
//!
//! # Sharded stepping
//!
//! [`Network::run_cycles_sharded`] drives the same phases across a persistent
//! [`noc_engine::pool::WorkerPool`]: the mesh is partitioned into
//! contiguous node-range shards (a [`ShardPlan`]), and each worker owns
//! its shard's router slots, backlogs **and inbound links** — the link
//! arena is keyed by receiver, so a shard's inbound links are one dense,
//! disjoint memory range. A fault-free cycle is one parallel round:
//! deliver, backlog offers, step and, when no RNG rides on sends, the
//! sends themselves. An intra-shard send pushes straight onto the
//! receiver's link (already delivered this cycle), while a send whose
//! receiver lives in another shard is staged in a per-shard outbox and
//! published only after the round barrier — the cross-shard hand-off —
//! after which ejections commit sequentially in node order. Whenever
//! sends do draw RNG (control-error model, armed faults), they stay
//! staged and the sequential apply commits them, so the RNG trajectory
//! stays in global node order; an armed fault plan also splits the round
//! around its sequential fault events. Either way the result is
//! bit-identical to [`Network::cycle`] for every thread count and shard
//! plan.

use crate::profile::{EngineProfile, ProfileSample};
use crate::{DeliveryTracker, ShardPlan};
use noc_engine::pool::WorkerPool;
use noc_engine::trace::{NullSink, TraceSink};
use noc_engine::Cycle;
use noc_faults::{
    DeadLink, FaultCounters, FaultPlan, Reliability, ReliabilityAction, RetransmitCause,
};
use noc_flow::{
    Ejection, Link, LinkEvent, LinkTiming, Router, RouterCounters, StepOutputs, TraceEmit,
    WireClass,
};
use noc_metrics::{Digest, Json, JsonBuilder, JsonSink, JsonWriter, NullRecorder, Recorder};
use noc_topology::{Mesh, NodeId, Port, PortMap};
use noc_traffic::{Packet, TrafficGenerator};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Phase indices into [`Instruments::phase_ns`].
const PHASE_DELIVER: usize = 0;
const PHASE_INJECT: usize = 1;
const PHASE_STEP: usize = 2;
const PHASE_APPLY: usize = 3;
const PHASE_OBSERVE: usize = 4;
const PHASE_NAMES: [&str; 5] = ["deliver", "inject", "step", "apply", "observe"];

/// Sequential-tail indices into [`Instruments::tail_ns`]: the parts of a
/// sharded cycle that run on one thread whatever the worker count, and so
/// bound the parallel speed-up (Amdahl). Indexes must agree with
/// [`crate::profile::PROFILE_TAILS`].
const TAIL_TRAFFIC_GEN: usize = 0;
const TAIL_FAULT_EVENTS: usize = 1;
const TAIL_EJECT_COMMIT: usize = 2;
const TAIL_OUTBOX: usize = 3;
const TAIL_CTX_BUILD: usize = 4;

/// The router counters the telemetry windows carry, as `total.*` Sum
/// windows; the rest are exported only as run totals.
const WINDOWED_ROUTER_COUNTERS: [&str; 6] = [
    "credit_stalls",
    "vc_alloc_conflicts",
    "reservation_hits",
    "reservation_misses",
    "data_flits_sent",
    "control_flits_sent",
];

/// The fault counters the telemetry windows carry, as `fault.*` Sum
/// windows.
const WINDOWED_FAULT_COUNTERS: [&str; 4] =
    ["retransmits", "data_corrupted", "control_dropped", "nacks"];

/// Flits committed onto one directed link, split by wire class.
#[derive(Clone, Copy, Debug, Default)]
struct LinkFlits {
    data: u64,
    control: u64,
    credit: u64,
}

/// Occupancy accumulators of one input pool, sampled once per cycle: the
/// metered per-port gauges and the run harness's Section 4.2 probe.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PoolStat {
    /// Sum of per-cycle occupancy fractions.
    pub(crate) occ_sum: f64,
    /// Cycles the pool was completely full.
    pub(crate) full_cycles: u64,
    /// High-water mark of occupied buffers (flits, not a fraction).
    occ_peak: usize,
}

impl PoolStat {
    /// Adds one cycle's sample of a pool holding `occ` of its `cap`
    /// buffers (`cap > 0`).
    #[inline]
    pub(crate) fn sample(&mut self, occ: usize, cap: usize) {
        self.occ_sum += occ as f64 / cap as f64;
        self.occ_peak = self.occ_peak.max(occ);
        if occ >= cap {
            self.full_cycles += 1;
        }
    }
}

/// Retained instrumentation state. Present in every network but only ever
/// touched under `M::ENABLED`, so the metrics-off path pays one unused
/// struct per network and nothing per cycle.
#[derive(Debug, Default)]
struct Instruments {
    /// Wall-clock nanoseconds per engine phase (self-profiler).
    phase_ns: [u64; 5],
    /// Wall-clock nanoseconds of the sequential tails (profiler only;
    /// indexed by the `TAIL_*` constants).
    tail_ns: [u64; 5],
    /// Wall-clock nanoseconds of whole cycles while profiling was on —
    /// the denominator of the profiler's attribution check.
    cycle_wall_ns: u64,
    /// Sum over cycles of the wake-list size (idle-skip effectiveness).
    awake_sum: u64,
    /// Per-router, per-input-port occupancy accumulators.
    pools: Vec<PortMap<PoolStat>>,
    /// High-water mark of network-wide reservations in flight (the sum of
    /// [`Router::bookings_in_flight`] over all routers, sampled once per
    /// cycle; stays zero for disciplines without reservation state).
    bookings_peak: u64,
    /// Per-link flit commit counters: `link_flits[node][out port]`.
    link_flits: Vec<PortMap<LinkFlits>>,
    /// Control-wire bandwidth in flits/cycle (for utilization gauges).
    control_bandwidth: u32,
    /// Windowed telemetry accumulators; `None` until
    /// [`Network::set_telemetry_windows`] arms them.
    win: Option<Box<TelemetryWindow>>,
    /// Per-window wall-clock samples (profiling only; nondeterministic,
    /// exported through [`Network::engine_profile`], never the registry's
    /// deterministic sections).
    profile_samples: Vec<ProfileSample>,
    /// Phase/tail snapshots at the last window fold, for sample deltas.
    prev_phase_ns: [u64; 5],
    prev_tail_ns: [u64; 5],
}

/// Windowed-telemetry state: event accumulators for the window in flight
/// plus snapshots of every cumulative source (the delivery tracker's
/// totals among them), so each fold writes exact per-window deltas. All
/// recording sites sit in the sequential phases of both stepping modes,
/// which is what makes windowed exports byte-identical across thread
/// counts and shard plans.
#[derive(Debug)]
struct TelemetryWindow {
    /// Window length exponent (windows span `1 << log2` cycles).
    log2: u32,
    /// Absolute index of the window currently accumulating.
    current: u64,
    /// Whether anything has been observed since the last fold.
    dirty: bool,
    /// Flits offered by the traffic generator this window (whole packets
    /// count all their flits at injection time, matching the tracker).
    offered_flits: u64,
    /// Latencies of packets delivered this window (reset per window).
    latencies: noc_engine::stats::Histogram,
    /// Run total of the folded windows' offered flits; the aggregate
    /// side of the window-sum == aggregate identity.
    cum_offered_flits: u64,
    /// The tracker's delivered flits and packets when the windows were
    /// armed, and at the last fold.
    armed_delivered: [u64; 2],
    prev_delivered: [u64; 2],
    /// Router-counter totals at the last fold.
    prev_router: RouterCounters,
    /// Fault-layer counters at the last fold.
    prev_fault: FaultCounters,
    /// Control-retry count at the last fold.
    prev_retries: u64,
    /// Per-router `occ_sum` totals (over ports) at the last fold.
    prev_occ: Vec<f64>,
    /// Clock at the last fold (0 before the first).
    prev_cycle: u64,
    /// Ports with data capacity per router; lazily filled at first fold.
    occ_ports: Vec<u32>,
}

/// Deterministic fault-injection state. Boxed behind an `Option` so a
/// fault-free network carries one null pointer and executes not a single
/// extra fault instruction — traces, RNG trajectories and metric exports
/// stay bit-identical to a network that never heard of faults.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Fault RNG. Decoupled from the control-error RNG and every traffic
    /// stream, and drawn only in the sequential phases, so sharded and
    /// sequential runs see the same fault schedule.
    rng: noc_engine::Rng,
    /// Source-side retransmit buffer and ACK/NACK/timeout bookkeeping.
    reliability: Reliability,
    counters: FaultCounters,
    /// Permanent link failures not yet activated, sorted by `at_cycle`
    /// (then node) *descending* so activation pops from the end.
    pending_dead: Vec<DeadLink>,
    /// Retained scratch for the reliability layer's due actions.
    actions: Vec<ReliabilityAction>,
}

/// Snapshot of the fault layer's activity, for tests and experiment
/// reports. Obtained from [`Network::fault_summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Event counters: corruptions, drops, discards, ACK/NACK traffic,
    /// retransmissions and masked links.
    pub counters: FaultCounters,
    /// Packets currently held in the source retransmit buffer (packets
    /// that have been NACKed at least once and not yet ACKed).
    pub retransmit_buffered: usize,
    /// Peak retransmit-buffer occupancy over the run.
    pub retransmit_peak: usize,
}

/// The three wires of one directed inter-router link.
#[derive(Debug)]
struct LinkSet {
    data: Link<LinkEvent>,
    control: Link<LinkEvent>,
    credit: Link<LinkEvent>,
}

/// The wire of `set` that carries `class` events.
fn wire_of(set: &mut LinkSet, class: WireClass) -> &mut Link<LinkEvent> {
    match class {
        WireClass::Data => &mut set.data,
        WireClass::Control => &mut set.control,
        WireClass::Credit => &mut set.credit,
    }
}

/// Every node's deliver scan order: its mesh in-ports sorted by the
/// sending neighbour's node id, which on a row-major mesh is always
/// North (`id - W`), West (`id - 1`), East (`id + 1`), South (`id + W`).
/// Draining a node's inbound links in this order replays, per receiver,
/// exactly the arrival order of the historical sender-major scan — which
/// is what keeps the receiver-keyed link arena bit-identical to the
/// engine every baseline was tuned on.
const DELIVER_ORDER: [Port; 4] = [Port::North, Port::West, Port::East, Port::South];

/// One router plus the per-router state the stepping engine needs: the
/// retained output arena its step phase writes into, and the wake flag
/// that lets quiescent routers be skipped. Keeping these together (rather
/// than in parallel vectors) lets the sharded engine hand each worker
/// thread a contiguous, self-contained chunk with no unsafe splitting.
#[derive(Debug)]
struct RouterSlot<R> {
    router: R,
    /// Outputs staged by this cycle's step, drained by the apply phase.
    /// Retained across cycles so the steady state never allocates.
    out: StepOutputs,
    /// Wake flag: step this router this cycle. Set by arrivals and
    /// accepted injections, recomputed from `is_idle` on quiet steps.
    active: bool,
    /// Consecutive output-free steps since the last wake or `is_idle`
    /// scan; the scan only runs once this reaches [`IDLE_HYSTERESIS`].
    quiet: u32,
}

/// After this many consecutive output-free steps a slot pays for a full
/// [`Router::is_idle`] scan; until then it is presumed still busy. Above
/// ~40% load routers oscillate between busy and briefly-quiet, and
/// scanning on every quiet step made the scan itself the dominant
/// stepping cost — the streak requirement amortises it ~[`IDLE_HYSTERESIS`]×.
/// Any value is trace-neutral: by the idle contract, stepping a router
/// the scan would have retired is a pure no-op.
const IDLE_HYSTERESIS: u32 = 8;

/// Steps one router slot for cycle `now`. With `idle_skip`, a slot that
/// is not awake is passed over: its arena is already empty (the apply
/// phase drains it every cycle) and, by the [`Router::is_idle`] contract,
/// stepping it would change nothing.
#[inline(always)]
fn step_slot<R: Router>(slot: &mut RouterSlot<R>, now: Cycle, idle_skip: bool) {
    if idle_skip && !slot.active {
        debug_assert!(slot.out.sends.is_empty() && slot.out.ejections.is_empty());
        return;
    }
    slot.out.clear();
    slot.router.step(now, &mut slot.out);
    if !slot.out.sends.is_empty() || !slot.out.ejections.is_empty() {
        // Output proves the router is still active; no scan needed.
        slot.quiet = 0;
        return;
    }
    slot.quiet += 1;
    if slot.quiet >= IDLE_HYSTERESIS {
        slot.quiet = 0;
        slot.active = !slot.router.is_idle();
    }
}

/// Wakes a slot (arrival delivered, injection accepted, fault event):
/// it must step next cycle, and its quiet streak restarts.
#[inline]
fn wake_slot<R>(slot: &mut RouterSlot<R>) {
    slot.active = true;
    slot.quiet = 0;
}

/// Drains every arrival due at `now` into `slot`'s router, waking it.
/// Receiver-owned: touches only this node's slot and its inbound links
/// (`links` may be just the owning shard's arena slice, rebased by
/// `link_base`).
#[inline(always)]
fn deliver_node<R: Router>(
    slot: &mut RouterSlot<R>,
    links: &mut [LinkSet],
    link_base: usize,
    inbound: &PortMap<Option<u32>>,
    now: Cycle,
) {
    for port in DELIVER_ORDER {
        let Some(idx) = inbound[port] else {
            continue;
        };
        let set = &mut links[idx as usize - link_base];
        if set.data.is_empty() && set.control.is_empty() && set.credit.is_empty() {
            continue;
        }
        for wire in [&mut set.data, &mut set.control, &mut set.credit] {
            while let Some(event) = wire.pop_arrival(now) {
                slot.router.receive(port, event, now);
                wake_slot(slot);
            }
        }
    }
}

/// Offers a node's backlog to its router until it refuses, waking it on
/// every acceptance.
#[inline(always)]
fn offer_backlog<R: Router>(slot: &mut RouterSlot<R>, backlog: &mut VecDeque<Packet>, now: Cycle) {
    while let Some(&packet) = backlog.front() {
        if slot.router.try_inject(packet, now) {
            backlog.pop_front();
            wake_slot(slot);
        } else {
            break;
        }
    }
}

/// The arena index of the link `node`'s send on `port` enters.
///
/// # Panics
///
/// Panics on a send on `Local` or on a port with no neighbour.
#[inline]
fn outbound_link(outbound: &[PortMap<Option<u32>>], node: NodeId, port: Port) -> u32 {
    outbound[node.index()][port].unwrap_or_else(|| {
        assert!(port.is_mesh(), "routers send on mesh ports only");
        panic!("send on missing link {node} {port}")
    })
}

/// State for true multi-core stepping: a persistent worker pool, the
/// shard plan pairing it with the mesh, and the retained cross-shard
/// mailboxes. Installed by [`Network::set_shard_plan`] (or lazily by
/// [`Network::run_cycles_sharded`]); absent on purely sequential networks.
struct ParallelEngine {
    pool: WorkerPool,
    plan: ShardPlan,
    /// Cross-shard outboxes: `outboxes[shard]` holds the sends staged by
    /// that shard whose receiving link lives in another shard, as
    /// `(link arena index, event)` pairs. Published in shard order at
    /// the round barrier; retained so the steady state never allocates.
    outboxes: Vec<Vec<(u32, LinkEvent)>>,
    /// Per-shard awake-router counts, sampled inside the fused round and
    /// summed (deterministically — u64 partials) after the barrier.
    awake: Vec<u64>,
    /// Profiler: per-shard `ShardCtx` mutex acquisitions. Each worker
    /// only ever locks its own shard's mutex, so these count the lock
    /// traffic the splitting protocol costs (contention-free by design —
    /// the timing numbers prove it).
    lock_count: Vec<AtomicU64>,
    /// Profiler: wall-clock nanoseconds spent acquiring those locks.
    lock_ns: Vec<AtomicU64>,
}

/// One worker's disjoint view of the network's hot per-node state: its
/// shard's router slots, inbound-link arena slice, backlogs and flit
/// counters, plus its outbox and awake-count cell. Built fresh each
/// round by [`shard_contexts`] and handed to the worker through a
/// per-shard mutex — each worker locks only its own context, so the
/// locks never contend and the splitting needs no unsafe code.
struct ShardCtx<'a, R> {
    /// Node index range this shard owns.
    range: Range<usize>,
    /// Arena index of `links[0]`.
    link_base: usize,
    slots: &'a mut [RouterSlot<R>],
    links: &'a mut [LinkSet],
    backlog: &'a mut [VecDeque<Packet>],
    flits: &'a mut [PortMap<LinkFlits>],
    outbox: &'a mut Vec<(u32, LinkEvent)>,
    awake: &'a mut u64,
}

/// Splits the network's per-node state into one disjoint [`ShardCtx`]
/// per shard of `plan`. Contiguous node ranges map to contiguous slices
/// of every array (the link arena is keyed by receiver, so a node range
/// induces the arena range `link_starts[start]..link_starts[end]`).
#[allow(clippy::too_many_arguments)]
fn shard_contexts<'a, R>(
    plan: &ShardPlan,
    link_starts: &[u32],
    mut slots: &'a mut [RouterSlot<R>],
    mut links: &'a mut [LinkSet],
    mut backlog: &'a mut [VecDeque<Packet>],
    mut flits: &'a mut [PortMap<LinkFlits>],
    outboxes: &'a mut [Vec<(u32, LinkEvent)>],
    awake: &'a mut [u64],
) -> Vec<Mutex<ShardCtx<'a, R>>> {
    let mut ctxs = Vec::with_capacity(plan.shards());
    let mut outboxes = outboxes.iter_mut();
    let mut awake = awake.iter_mut();
    for w in 0..plan.shards() {
        let range = plan.range(w);
        let link_base = link_starts[range.start] as usize;
        let link_end = link_starts[range.end] as usize;
        let (s, rest) = slots.split_at_mut(range.len());
        slots = rest;
        let (l, rest) = links.split_at_mut(link_end - link_base);
        links = rest;
        let (b, rest) = backlog.split_at_mut(range.len());
        backlog = rest;
        let (f, rest) = flits.split_at_mut(range.len());
        flits = rest;
        ctxs.push(Mutex::new(ShardCtx {
            range,
            link_base,
            slots: s,
            links: l,
            backlog: b,
            flits: f,
            outbox: outboxes.next().expect("outbox per shard"),
            awake: awake.next().expect("awake cell per shard"),
        }));
    }
    ctxs
}

/// Acquires one shard's context mutex, optionally timing the acquisition
/// into the profiler's per-shard lock cells. Each worker locks only its
/// own shard's mutex, so the wait time measures the protocol's fixed
/// cost, not contention. Barrier-safe clocking: the `Instant` is created
/// and read on the acquiring thread; only the elapsed duration crosses
/// threads, through a relaxed atomic add.
fn lock_shard<'a, 'b, R>(
    ctx: &'a Mutex<ShardCtx<'b, R>>,
    profiling: bool,
    count: &AtomicU64,
    ns: &AtomicU64,
) -> std::sync::MutexGuard<'a, ShardCtx<'b, R>> {
    if profiling {
        let start = Instant::now();
        let guard = ctx.lock().expect("shard context");
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        guard
    } else {
        ctx.lock().expect("shard context")
    }
}

/// A complete simulated mesh network of `R` routers.
///
/// The second type parameter is the network-level [`TraceSink`]; with the
/// default [`NullSink`] every emit site compiles away. The network itself
/// emits the end-to-end events ([`packet_injected`], [`flit_ejected`],
/// [`packet_delivered`], [`control_retried`]) — per-router events come
/// from sinks handed to the routers via `make_router`, typically clones
/// of one [`noc_engine::trace::SharedSink`].
///
/// The third type parameter is the metrics [`Recorder`]; with the default
/// [`NullRecorder`] every instrumentation site compiles away, which is what
/// keeps the trace-equality and determinism suites bit-identical with
/// metrics off. Plug a [`noc_metrics::MetricsRegistry`] in via
/// [`Network::with_instruments`] to collect per-phase wall-clock profiles,
/// per-link flit counts, per-router occupancy and the router-level counters
/// from [`Router::collect_counters`].
///
/// [`packet_injected`]: noc_flow::TraceEmit::packet_injected
/// [`flit_ejected`]: noc_flow::TraceEmit::flit_ejected
/// [`packet_delivered`]: noc_flow::TraceEmit::packet_delivered
/// [`control_retried`]: noc_flow::TraceEmit::control_retried
pub struct Network<R: Router, S: TraceSink = NullSink, M: Recorder = NullRecorder> {
    mesh: Mesh,
    timing: LinkTiming,
    slots: Vec<RouterSlot<R>>,
    /// Dense arena of every directed link, keyed by **receiver**: node
    /// `r`'s inbound links occupy `link_starts[r]..link_starts[r + 1]`,
    /// so a contiguous shard of nodes owns a contiguous arena range.
    links: Vec<LinkSet>,
    /// Arena index of the link arriving at `inbound[node][in-port]`.
    inbound: Vec<PortMap<Option<u32>>>,
    /// Arena index of the link leaving at `outbound[node][out-port]`:
    /// the receiver's inbound link on the opposite port.
    outbound: Vec<PortMap<Option<u32>>>,
    /// Arena start of each node's inbound links (`node_count + 1` long).
    link_starts: Vec<u32>,
    /// Worker pool + shard plan for parallel stepping; `None` until a
    /// sharded entry point installs one.
    parallel: Option<Box<ParallelEngine>>,
    generator: TrafficGenerator,
    tracker: DeliveryTracker,
    now: Cycle,
    /// Packets still being offered to a router that refused them.
    backlog: Vec<std::collections::VecDeque<noc_traffic::Packet>>,
    /// Retained scratch for the generator's per-cycle packet batch.
    packet_scratch: Vec<noc_traffic::Packet>,
    /// Marks injected packets as "measured" while active.
    measuring: bool,
    /// Set while draining: no new traffic is offered.
    injection_stopped: bool,
    /// Skip stepping quiescent routers (trace-neutral; on by default).
    idle_skip: bool,
    /// Control-wire error model (Section 5, "Error recovery"): each
    /// control flit transmission is independently corrupted with this
    /// probability; the error-detection code catches it and the flit is
    /// retransmitted, costing one extra control-wire traversal per retry
    /// while preserving link FIFO order (go-back-N style).
    control_error_rate: f64,
    error_rng: noc_engine::Rng,
    control_retries: u64,
    /// Fault-injection and reliability layer; `None` (the overwhelmingly
    /// common case) means the fault path costs one branch per phase.
    faults: Option<Box<FaultState>>,
    sink: S,
    /// Metrics recorder; `NullRecorder` by default.
    metrics: M,
    /// Series sampling period in cycles; 0 disables series sampling.
    metrics_period: u64,
    /// Runtime profiler switch: when on (and metrics are enabled), the
    /// engine times its sequential tails, whole-cycle wall clock and
    /// shard-lock acquisitions, and folds per-window profile samples.
    /// All wall-clock data stays out of the deterministic export
    /// sections, so profiling never perturbs determinism comparisons.
    profiling: bool,
    /// Retained instrumentation accumulators (untouched when `M` is the
    /// null recorder).
    instruments: Instruments,
}

impl<R: Router> Network<R> {
    /// Builds an untraced network: one router per node (created by
    /// `make_router`), one three-wire link set per directed mesh edge.
    ///
    /// `control_bandwidth` is the control-wire bandwidth in flits/cycle
    /// (the paper transfers 2 narrow control flits per cycle).
    pub fn new(
        mesh: Mesh,
        timing: LinkTiming,
        control_bandwidth: u32,
        generator: TrafficGenerator,
        make_router: impl FnMut(NodeId) -> R,
    ) -> Self {
        Network::with_instruments(
            mesh,
            timing,
            control_bandwidth,
            generator,
            make_router,
            NullSink,
            NullRecorder,
        )
    }
}

impl<R: Router, S: TraceSink, M: Recorder> Network<R, S, M> {
    /// Builds a network with both a trace sink and a metrics recorder.
    /// This is the fully instrumented constructor; [`Network::new`]
    /// delegates here with null instruments.
    pub fn with_instruments(
        mesh: Mesh,
        timing: LinkTiming,
        control_bandwidth: u32,
        generator: TrafficGenerator,
        mut make_router: impl FnMut(NodeId) -> R,
        sink: S,
        metrics: M,
    ) -> Self {
        // Filled with the link arena below, but allocated first: placed
        // after the routers or the arena, it changed the heap layout so
        // that glibc trimmed the heap whenever a network was dropped, and
        // each rebuild re-faulted those pages (perfbench `setup_s` read
        // 30-50% higher on `mesh8_sat` or `mesh16_sharded`).
        let mut outbound: Vec<PortMap<Option<u32>>> =
            vec![PortMap::from_fn(|_| None); mesh.node_count()];
        let slots: Vec<RouterSlot<R>> = mesh
            .nodes()
            .map(|n| RouterSlot {
                router: make_router(n),
                out: StepOutputs::new(),
                // Every router starts awake; the first step settles the
                // flag from its actual state.
                active: true,
                quiet: 0,
            })
            .collect();
        // Receiver-keyed link arena: one entry per directed mesh edge,
        // grouped by receiving node, each node's in-ports in
        // `DELIVER_ORDER`. The per-node tables grow by push rather than
        // being preallocated: preallocated, they left the heap laid out so
        // that glibc trimmed it whenever an 8×8 network was dropped, and
        // each rebuild re-faulted those pages (perfbench `setup_s` read
        // 2-3× higher on `mesh8_sat`, `mesh8_sweep` and
        // `mesh8_instrumented`).
        let mut links: Vec<LinkSet> = Vec::new();
        let mut inbound: Vec<PortMap<Option<u32>>> = Vec::new();
        let mut link_starts: Vec<u32> = Vec::new();
        for r in mesh.nodes() {
            link_starts.push(links.len() as u32);
            let mut map: PortMap<Option<u32>> = PortMap::from_fn(|_| None);
            for q in DELIVER_ORDER {
                let Some(s) = mesh.neighbor(r, q) else {
                    continue;
                };
                map[q] = Some(links.len() as u32);
                outbound[s.index()][q.opposite().expect("mesh port")] = Some(links.len() as u32);
                links.push(LinkSet {
                    data: Link::new(timing.data_delay, 1),
                    control: Link::new(timing.control_delay, control_bandwidth),
                    credit: Link::new(timing.credit_delay, 64),
                });
            }
            inbound.push(map);
        }
        link_starts.push(links.len() as u32);
        let backlog = (0..mesh.node_count())
            .map(|_| std::collections::VecDeque::new())
            .collect();
        let instruments = Instruments {
            pools: (0..mesh.node_count())
                .map(|_| PortMap::from_fn(|_| PoolStat::default()))
                .collect(),
            link_flits: (0..mesh.node_count())
                .map(|_| PortMap::from_fn(|_| LinkFlits::default()))
                .collect(),
            control_bandwidth,
            ..Instruments::default()
        };
        Network {
            mesh,
            timing,
            slots,
            links,
            inbound,
            outbound,
            link_starts,
            parallel: None,
            generator,
            tracker: DeliveryTracker::new(4096),
            now: Cycle::ZERO,
            backlog,
            packet_scratch: Vec::new(),
            measuring: false,
            injection_stopped: false,
            idle_skip: true,
            control_error_rate: 0.0,
            error_rng: noc_engine::Rng::from_seed(0xE44),
            control_retries: 0,
            faults: None,
            sink,
            metrics,
            metrics_period: 64,
            profiling: false,
            instruments,
        }
    }

    /// The metrics recorder.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// Mutable access to the metrics recorder (e.g. to
    /// `std::mem::take` a filled `MetricsRegistry` after a run).
    pub fn metrics_mut(&mut self) -> &mut M {
        &mut self.metrics
    }

    /// Runs `f` against the metrics registry when metrics are enabled;
    /// a no-op (the closure is never built) under the null recorder.
    #[inline(always)]
    pub fn metrics_record(&mut self, f: impl FnOnce(&mut noc_metrics::MetricsRegistry)) {
        self.metrics.record(f);
    }

    /// Sets the series sampling period in cycles (0 disables series).
    /// Counter/gauge collection is unaffected — only the time-axis series
    /// density changes.
    pub fn set_metrics_period(&mut self, period: u64) {
        self.metrics_period = period;
    }

    /// Arms windowed telemetry: per-window event counts and derived
    /// gauges, bucketed into epochs of `1 << log2` cycles. Recording
    /// sites all sit in the sequential phases of both stepping modes, so
    /// windowed exports are byte-identical across thread counts and
    /// shard plans. A no-op under the null recorder.
    ///
    /// Arm before the first cycle: every per-window Sum then sums exactly
    /// to its aggregate counter (the `telemetry_report --quick`
    /// consistency contract).
    ///
    /// # Panics
    ///
    /// Panics unless `log2 < 32` (larger windows than 4 G-cycles are a
    /// configuration bug).
    pub fn set_telemetry_windows(&mut self, log2: u32) {
        assert!(log2 < 32, "telemetry window log2 {log2} out of range");
        if !M::ENABLED {
            return;
        }
        let delivered = [
            self.tracker.delivered_flits(),
            self.tracker.delivered_packets(),
        ];
        self.instruments.win = Some(Box::new(TelemetryWindow {
            log2,
            current: self.now.raw() >> log2,
            dirty: false,
            offered_flits: 0,
            latencies: noc_engine::stats::Histogram::new(4096),
            cum_offered_flits: 0,
            armed_delivered: delivered,
            prev_delivered: delivered,
            prev_router: RouterCounters::default(),
            prev_fault: FaultCounters::default(),
            prev_retries: 0,
            prev_occ: vec![0.0; self.slots.len()],
            prev_cycle: 0,
            occ_ports: Vec::new(),
        }));
    }

    /// Turns the runtime profiler on or off: sequential-tail timers,
    /// whole-cycle wall clock, worker busy/barrier-wait accounting and
    /// shard-lock acquisition counts, read back via
    /// [`Network::engine_profile`]. Requires metrics to be enabled
    /// (`M::ENABLED`); a no-op otherwise.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
        if let Some(engine) = self.parallel.as_ref() {
            engine.pool.set_profiling(M::ENABLED && on);
        }
    }

    /// Snapshot of the runtime profiler: engine phase and sequential-tail
    /// wall-clock totals, per-worker busy/barrier-wait time, shard-lock
    /// traffic and per-window samples. Meaningful after a profiled run;
    /// all zeros otherwise. Wall-clock data is nondeterministic by
    /// nature — export it next to, never inside, the deterministic
    /// metric sections.
    pub fn engine_profile(&self) -> EngineProfile {
        let ins = &self.instruments;
        let mut profile = EngineProfile {
            threads: 1,
            cycles: self.now.raw(),
            cycle_wall_ns: ins.cycle_wall_ns,
            phase_ns: ins.phase_ns,
            tail_ns: ins.tail_ns,
            rounds: 0,
            round_wall_ns: 0,
            barrier_wait_ns: 0,
            worker_busy_ns: Vec::new(),
            lock_count: Vec::new(),
            lock_ns: Vec::new(),
            samples: ins.profile_samples.clone(),
            window_log2: ins.win.as_ref().map(|w| w.log2),
        };
        if let Some(engine) = self.parallel.as_ref() {
            let pool = engine.pool.profile();
            profile.threads = engine.pool.threads() as u64;
            profile.rounds = pool.rounds;
            profile.round_wall_ns = pool.round_wall_ns;
            profile.barrier_wait_ns = pool.barrier_wait_ns;
            profile.worker_busy_ns = pool.busy_ns;
            profile.lock_count = engine
                .lock_count
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            profile.lock_ns = engine
                .lock_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
        }
        profile
    }

    /// The network-level trace sink.
    pub fn tracer(&self) -> &S {
        &self.sink
    }

    /// Enables the control-wire error model: every control flit
    /// transmission is corrupted with probability `rate` and
    /// retransmitted (paper Section 5: "control flits may be protected by
    /// an error detection code and retransmitted in the event of an
    /// error"). Each retry costs one extra control-wire traversal;
    /// corrupted retransmissions are re-retransmitted, and the link
    /// delivers in FIFO order so control flits of a packet never
    /// overtake one another.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `[0, 1)`.
    pub fn set_control_error_rate(&mut self, rate: f64, seed: u64) {
        assert!((0.0..1.0).contains(&rate), "error rate must be in [0, 1)");
        self.control_error_rate = rate;
        self.error_rng = noc_engine::Rng::from_seed(seed);
    }

    /// Control flits retransmitted so far under the error model.
    pub fn control_retries(&self) -> u64 {
        self.control_retries
    }

    /// Arms deterministic fault injection from `plan`:
    ///
    /// * data flits are corrupted in flight with
    ///   [`FaultPlan::data_corrupt_rate`] per link traversal (caught by
    ///   the CRC at ejection, NACKed, and retransmitted end to end);
    /// * control flits are dropped with
    ///   [`FaultPlan::control_drop_rate`] per traversal, modelled as a
    ///   [`FaultPlan::repair_delay`]-cycle re-drive on the same wire
    ///   (flit-reservation's parked arrivals absorb the late bookings);
    /// * each [`FaultPlan::dead_links`] entry permanently masks one
    ///   output port out of its router's routing at `at_cycle`.
    ///
    /// The whole fault trajectory derives from [`FaultPlan::seed`], so a
    /// run is reproducible from its manifest. Inactive plans (all rates
    /// zero, no dead links) are ignored outright: the network stays
    /// bit-identical to one that never saw a plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if !plan.is_active() {
            return;
        }
        let mut pending_dead = plan.dead_links.clone();
        pending_dead.sort_by(|a, b| {
            b.at_cycle
                .cmp(&a.at_cycle)
                .then(b.node.raw().cmp(&a.node.raw()))
                .then(b.port.index().cmp(&a.port.index()))
        });
        self.faults = Some(Box::new(FaultState {
            rng: noc_engine::Rng::from_seed(plan.seed ^ 0xFA01),
            reliability: Reliability::new(plan.retransmit_timeout, plan.max_backoff_exp),
            counters: FaultCounters::default(),
            pending_dead,
            actions: Vec::new(),
            plan,
        }));
    }

    /// Snapshot of the fault layer's activity; `None` without an armed
    /// plan.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_ref().map(|f| FaultSummary {
            counters: f.counters,
            retransmit_buffered: f.reliability.buffered(),
            retransmit_peak: f.reliability.peak_buffered(),
        })
    }

    /// Streams the complete deterministic simulator state — clock, link
    /// arenas, delivery tracker, source backlogs, the fault layer and
    /// per-router pipeline state — as one canonical JSON document, item
    /// by item: the one producer of [`Network::state_snapshot`] and
    /// [`Network::state_digest`].
    ///
    /// The dump covers exactly the state that the deterministic stepping
    /// contract reproduces: two runs of the same manifest paused at the
    /// same cycle (any thread count, any shard plan) produce byte-equal
    /// documents, which is what [`Network::state_digest`] fingerprints
    /// and the `frfc-inspect replay` command verifies. Observer-side
    /// state (metrics accumulators, RNG internals) is deliberately
    /// excluded: it varies with instrumentation choices that must not
    /// change the simulator's identity.
    ///
    /// Each router's [`Router::state_snapshot`] tree is handed to `out`
    /// whole, one router at a time, so a text sink holds at most one of
    /// them.
    pub fn write_state(&self, out: &mut impl JsonSink) {
        out.begin_object();
        out.field("schema_version", Json::Num(1.0));
        out.field("cycle", Json::Num(self.now.raw() as f64));
        out.key("mesh");
        out.begin_object();
        out.field("width", Json::Num(self.mesh.width() as f64));
        out.field("height", Json::Num(self.mesh.height() as f64));
        out.end();
        out.field("injection_stopped", Json::Bool(self.injection_stopped));
        out.field("measuring", Json::Bool(self.measuring));
        out.field("control_retries", Json::Num(self.control_retries as f64));
        out.key("links");
        out.begin_array();
        for r in 0..self.slots.len() {
            for &port in &Port::MESH {
                let Some(idx) = self.inbound[r][port] else {
                    continue;
                };
                let set = &self.links[idx as usize];
                let wires = [
                    ("data", &set.data),
                    ("control", &set.control),
                    ("credit", &set.credit),
                ];
                if wires.iter().all(|(_, wire)| wire.is_empty()) {
                    continue;
                }
                out.begin_object();
                out.field("to", Json::Num(r as f64));
                out.field("in_port", Json::str(port_key(port)));
                for (name, wire) in wires.into_iter().filter(|(_, w)| !w.is_empty()) {
                    out.key(name);
                    out.begin_array();
                    for (at, e) in wire.iter_in_flight() {
                        out.begin_object();
                        out.field("at", Json::Num(at.raw() as f64));
                        out.key("event");
                        out.str_fmt(format_args!("{e:?}"));
                        out.end();
                    }
                    out.end();
                }
                out.end();
            }
        }
        out.end();
        out.key("backlog");
        out.begin_array();
        for (node, q) in self.backlog.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            out.begin_object();
            out.field("node", Json::Num(node as f64));
            out.key("packets");
            out.begin_array();
            for p in q {
                out.str_fmt(format_args!("{p:?}"));
            }
            out.end();
            out.end();
        }
        out.end();
        out.key("tracker");
        self.tracker.write_state(out);
        out.key("fault");
        match self.faults.as_ref() {
            None => out.value(Json::Null),
            Some(f) => {
                out.begin_object();
                out.key("counters");
                out.str_fmt(format_args!("{:?}", f.counters));
                let buffered = f.reliability.buffered() as f64;
                out.field("retransmit_buffered", Json::Num(buffered));
                let peak = f.reliability.peak_buffered() as f64;
                out.field("retransmit_peak", Json::Num(peak));
                out.key("pending_dead");
                out.begin_array();
                for d in &f.pending_dead {
                    out.str_fmt(format_args!("{d:?}"));
                }
                out.end();
                out.end();
            }
        }
        out.key("routers");
        out.begin_array();
        for slot in &self.slots {
            out.value(slot.router.state_snapshot());
        }
        out.end();
        out.end();
    }

    /// [`Network::write_state`]'s document as a [`Json`] tree, for
    /// sidecars and replay diffs.
    pub fn state_snapshot(&self) -> Json {
        let mut tree = JsonBuilder::default();
        self.write_state(&mut tree);
        tree.finish()
    }

    /// FNV-1a fingerprint of [`Network::write_state`]'s canonical
    /// rendering — the identity the blackbox replay check compares
    /// bit-for-bit — hashed as it is written, without building the
    /// document.
    pub fn state_digest(&self) -> String {
        let mut out = JsonWriter::new(Digest::default());
        self.write_state(&mut out);
        out.finish().expect("hashing cannot fail").hex()
    }

    /// Turns the idle-skip wake-list on or off. Skipping is on by default
    /// and trace-neutral (see [`Router::is_idle`]); turning it off forces
    /// every router to step every cycle, which the equivalence tests and
    /// the `engine_throughput` benchmark use as the reference engine.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
        if !on {
            // Every router steps from now on; re-arm the wake flags so
            // re-enabling later starts from a conservative state.
            for slot in &mut self.slots {
                wake_slot(slot);
            }
        }
    }

    /// Whether quiescent routers are currently being skipped.
    pub fn idle_skip(&self) -> bool {
        self.idle_skip
    }

    /// Number of routers that would step if the current cycle ran now —
    /// the instantaneous wake-list size (all routers when idle-skip is
    /// off).
    pub fn awake_routers(&self) -> usize {
        if self.idle_skip {
            self.slots.iter().filter(|s| s.active).count()
        } else {
            self.slots.len()
        }
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Delivery tracker (latency and conservation accounting).
    pub fn tracker(&self) -> &DeliveryTracker {
        &self.tracker
    }

    /// Traffic generator.
    pub fn generator(&self) -> &TrafficGenerator {
        &self.generator
    }

    /// The router at `node`.
    pub(crate) fn router(&self, node: NodeId) -> &R {
        &self.slots[node.index()].router
    }

    /// Iterates over all routers.
    pub fn routers(&self) -> impl Iterator<Item = &R> {
        self.slots.iter().map(|s| &s.router)
    }

    /// Iterates mutably over all routers, e.g. to enable their contract
    /// checkers before the first cycle.
    pub fn routers_mut(&mut self) -> impl Iterator<Item = &mut R> {
        self.slots.iter_mut().map(|s| &mut s.router)
    }

    /// Starts/stops marking newly injected packets as measured.
    pub fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
    }

    /// Average number of flits queued per router — the warm-up signal.
    pub fn mean_queued_flits(&self) -> f64 {
        let total: usize = self.slots.iter().map(|s| s.router.queued_flits()).sum();
        total as f64 / self.slots.len() as f64
    }

    /// Stops offering new traffic (used while draining). Packets already
    /// generated but not yet accepted by their source router stay in the
    /// per-node backlogs and keep being offered each cycle: they were
    /// counted by the delivery tracker at generation time, so dropping
    /// them would make a drained network look lossy.
    pub fn stop_injection(&mut self) {
        self.injection_stopped = true;
    }

    /// Phase 1: drain every link arrival for cycle `now` in place and
    /// deliver it to the receiving router, waking it. Receiver-major
    /// scan over the receiver-keyed arena; each node's in-ports drain in
    /// [`DELIVER_ORDER`], so per-router arrival order is exactly what the
    /// historical sender-major scan produced.
    fn deliver_arrivals(&mut self, now: Cycle) {
        for r in 0..self.slots.len() {
            deliver_node(
                &mut self.slots[r],
                &mut self.links,
                0,
                &self.inbound[r],
                now,
            );
        }
    }

    /// Fault sub-phase (start of the inject phase, sequential in both
    /// stepping modes): activates permanent link failures due this cycle
    /// and drains the reliability layer's due ACK/NACK/timeout events,
    /// re-offering retransmitted packets through their source backlog.
    fn apply_fault_events(&mut self, now: Cycle) {
        // Move the box out so the loop bodies can borrow other fields.
        let Some(mut f) = self.faults.take() else {
            return;
        };
        while f
            .pending_dead
            .last()
            .is_some_and(|d| d.at_cycle <= now.raw())
        {
            let dead = f.pending_dead.pop().expect("checked non-empty");
            let slot = &mut self.slots[dead.node.index()];
            slot.router.on_link_dead(dead.port);
            wake_slot(slot);
            f.counters.links_masked += 1;
            self.sink.link_masked(now, dead.node, dead.port);
        }
        let mut actions = std::mem::take(&mut f.actions);
        f.reliability.poll(now.raw(), &mut actions);
        for action in actions.drain(..) {
            match action {
                ReliabilityAction::Retransmit {
                    packet,
                    attempt,
                    cause,
                } => {
                    if cause == RetransmitCause::Timeout {
                        f.counters.timeout_retransmits += 1;
                        self.sink.retransmit_timeout(now, packet.src, packet.id);
                    }
                    f.counters.retransmits += 1;
                    self.sink
                        .packet_retransmitted(now, packet.src, packet.id, attempt);
                    // Re-offer through the source backlog. The delivery
                    // tracker keeps the original injection record, so the
                    // reported latency includes the full recovery delay,
                    // and the router re-emits per-flit injection events
                    // for the new copy (conservation counts every copy).
                    self.backlog[packet.src.index()].push_back(packet);
                }
                ReliabilityAction::Retired { .. } => {}
            }
        }
        f.actions = actions;
        self.faults = Some(f);
    }

    /// Inject sub-phase: generates this cycle's traffic (unless stopped)
    /// into the per-node backlogs, registering each packet with the
    /// tracker, the reliability layer and the sink. Touches no router —
    /// the sharded engine runs it sequentially before its parallel round
    /// (packets become visible to routers only through the offers, so
    /// generating before or after the deliver phase is trace-neutral).
    fn generate_traffic(&mut self, now: Cycle) {
        if self.injection_stopped {
            return;
        }
        self.generator.tick_into(now, &mut self.packet_scratch);
        for packet in self.packet_scratch.drain(..) {
            self.tracker.on_inject(&packet, self.measuring);
            if M::ENABLED {
                if let Some(win) = self.instruments.win.as_deref_mut() {
                    win.offered_flits += packet.length_flits as u64;
                }
            }
            if let Some(f) = self.faults.as_mut() {
                f.reliability.register(packet);
            }
            self.sink.packet_injected(
                now,
                packet.src,
                packet.id,
                packet.src,
                packet.dest,
                packet.length_flits,
            );
            self.backlog[packet.src.index()].push_back(packet);
        }
    }

    /// Phase 2: fault events, then traffic generation, then offer each
    /// node's backlog to its router, waking routers that accept.
    fn offer_traffic(&mut self, now: Cycle) {
        if self.faults.is_some() {
            self.tail_timed(TAIL_FAULT_EVENTS, |n| n.apply_fault_events(now));
        }
        self.tail_timed(TAIL_TRAFFIC_GEN, |n| n.generate_traffic(now));
        for n in 0..self.slots.len() {
            offer_backlog(&mut self.slots[n], &mut self.backlog[n], now);
        }
    }

    /// Whether the apply phase draws RNG per send (control-error model
    /// or an armed fault plan). Those draws must happen in global node
    /// order, so a sharded round leaves its sends staged and the
    /// sequential apply commits them instead.
    fn rng_sends(&self) -> bool {
        self.control_error_rate > 0.0 || self.faults.is_some()
    }

    /// Phase 3, sequential form: step every awake router in node order.
    fn step_routers(&mut self, now: Cycle) {
        let idle_skip = self.idle_skip;
        for slot in &mut self.slots {
            step_slot(slot, now, idle_skip);
        }
    }

    /// Phase 4: commit every staged output to the wires and the delivery
    /// tracker, in node order. All cross-router effects happen here, on
    /// one thread, whatever the step phase did — the control-error RNG
    /// draws and the network-level trace events occur in the same order
    /// in sequential and sharded runs.
    fn apply_outputs(&mut self, now: Cycle) {
        for n in 0..self.slots.len() {
            if self.slots[n].out.sends.is_empty() && self.slots[n].out.ejections.is_empty() {
                continue;
            }
            let node = NodeId::new(n as u16);
            // Move the arena out so its drains don't hold a borrow of
            // `self.slots` across the link/tracker updates; moving a
            // `StepOutputs` moves two Vec headers, not their contents.
            let mut out = std::mem::take(&mut self.slots[n].out);
            for (port, mut event) in out.sends.drain(..) {
                let idx = outbound_link(&self.outbound, node, port);
                let class = event.wire_class();
                let wire = wire_of(&mut self.links[idx as usize], class);
                // Error model: a corrupted control flit is retransmitted;
                // each retry adds one wire traversal of delay.
                let mut extra = 0;
                let mut control_traversals = 1u64;
                if class == WireClass::Control && self.control_error_rate > 0.0 {
                    while self.error_rng.chance(self.control_error_rate) {
                        self.control_retries += 1;
                        self.sink.control_retried(now, node, port);
                        extra += self.timing.control_delay.max(1);
                        control_traversals += 1;
                    }
                }
                // Fault injection: transient link faults flip a data
                // flit's CRC in flight, or swallow a control flit (the
                // link-level repair re-drives it `repair_delay` cycles
                // later on the same FIFO wire).
                if let Some(f) = self.faults.as_mut() {
                    match class {
                        WireClass::Data
                            if f.plan.data_corrupt_rate > 0.0
                                && f.rng.chance(f.plan.data_corrupt_rate) =>
                        {
                            if let LinkEvent::Data(flit) | LinkEvent::VcData(_, flit) = &mut event {
                                flit.crc_ok = false;
                                f.counters.data_corrupted += 1;
                                self.sink.data_corrupted(now, node, flit);
                            }
                        }
                        WireClass::Control
                            if f.plan.control_drop_rate > 0.0
                                && f.rng.chance(f.plan.control_drop_rate) =>
                        {
                            f.counters.control_dropped += 1;
                            self.sink.control_dropped(now, node, port);
                            extra += f.plan.repair_delay.max(1);
                            control_traversals += 1;
                        }
                        _ => {}
                    }
                }
                wire.push_with_extra_delay(now, event, extra)
                    .expect("link bandwidth exceeded: flow-control protocol bug");
                if M::ENABLED {
                    let flits = &mut self.instruments.link_flits[n][port];
                    match class {
                        WireClass::Data => flits.data += 1,
                        WireClass::Control => flits.control += control_traversals,
                        WireClass::Credit => flits.credit += 1,
                    }
                }
            }
            for e in out.ejections.drain(..) {
                self.commit_ejection(node, e);
            }
            self.slots[n].out = out;
        }
    }

    /// Commits one ejection at `node` to the delivery tracker, the sink
    /// and the metrics window. Under a fault plan the destination's NI
    /// also runs here: a CRC-failed flit is discarded and NACKed, a
    /// completed packet ACKed, and a duplicate copy dropped.
    fn commit_ejection(&mut self, node: NodeId, e: Ejection) {
        if let Some(f) = self.faults.as_mut() {
            if !e.flit.crc_ok {
                // The destination's CRC caught an in-flight corruption:
                // discard the flit and NACK the packet back to its
                // source (one outstanding NACK per packet copy).
                f.counters.corrupt_discarded += 1;
                self.sink.corrupt_discarded(e.at, node, &e.flit);
                if f.reliability
                    .schedule_nack(e.flit.packet, e.at.raw() + f.plan.ack_latency)
                {
                    f.counters.nacks += 1;
                    self.sink.nack_issued(e.at, node, e.flit.packet);
                }
                return;
            }
        }
        match self.tracker.on_eject(e.flit.packet, e.flit.seq, node, e.at) {
            Ok(done) => {
                self.sink.flit_ejected(e.at, node, &e.flit);
                if let Some(latency) = done {
                    if M::ENABLED {
                        if let Some(win) = self.instruments.win.as_deref_mut() {
                            win.latencies.record(latency);
                        }
                    }
                    self.sink
                        .packet_delivered(e.at, node, e.flit.packet, latency);
                    if let Some(f) = self.faults.as_mut() {
                        // Completion ACK: retires the source's retransmit-
                        // buffer entry (and any armed timeout)
                        // `ack_latency` cycles later.
                        f.counters.acks += 1;
                        self.sink.ack_issued(e.at, node, e.flit.packet);
                        f.reliability
                            .schedule_ack(e.flit.packet, e.at.raw() + f.plan.ack_latency);
                    }
                }
            }
            Err(err) => {
                // A retransmitted copy of a flit the destination already
                // accepted: the NI's dedup filter drops it. Without
                // faults no duplicate can exist, so surface the
                // tracker's verdict as a crash.
                let Some(f) = self.faults.as_mut() else {
                    panic!("{err}");
                };
                f.counters.duplicate_discarded += 1;
                self.sink.duplicate_discarded(e.at, node, &e.flit);
            }
        }
    }

    /// Phase 5: the metrics sampler runs, stall provenance is reported
    /// and the clock advances.
    fn finish_cycle(&mut self, now: Cycle) {
        if M::ENABLED {
            self.observe_metrics(now);
        }
        if S::ENABLED {
            // Stall provenance: each router classifies the flits that were
            // eligible this cycle but did not move. Runs identically in
            // every stepping mode (this method is shared by `cycle` and
            // `cycle_planned`), and idle routers emit nothing.
            for slot in &mut self.slots {
                slot.router.emit_stall_provenance(now);
            }
        }
        self.now = now.next();
    }

    /// Per-cycle metrics observation: occupancy accumulators every cycle,
    /// time-axis series every `metrics_period` cycles. Only ever called
    /// with metrics enabled; it reads state the routers never see, so it
    /// cannot perturb the simulation.
    fn observe_metrics(&mut self, now: Cycle) {
        let mut bookings = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            let pools = &mut self.instruments.pools[i];
            for &port in &Port::ALL {
                let cap = slot.router.data_buffer_capacity(port);
                if cap > 0 {
                    pools[port].sample(slot.router.occupied_data_buffers(port), cap);
                }
            }
            bookings += slot.router.bookings_in_flight();
        }
        self.instruments.bookings_peak = self.instruments.bookings_peak.max(bookings);
        let period = self.metrics_period;
        if period > 0 && now.raw().is_multiple_of(period) {
            let queued = self.mean_queued_flits();
            let awake = self.awake_routers() as f64;
            let in_flight = self.tracker.in_flight() as f64;
            self.metrics.with(|reg| {
                reg.time_weighted_set("net.queued_flits", now, queued);
                reg.series_push("net.queued_flits", period, now, queued);
                reg.series_push("net.awake_routers", period, now, awake);
                reg.series_push("net.in_flight_packets", period, now, in_flight);
                // Per-router occupancy no longer re-walks the routers
                // here: the windowed telemetry layer derives it from the
                // per-cycle `pools` accumulators above, so one
                // accumulation path feeds both the end-of-run gauges and
                // the `router.{i}.occupancy` windows.
            });
        }
    }

    /// Times one engine phase when metrics are enabled; transparent (and
    /// branchless after const folding) under the null recorder.
    #[inline(always)]
    fn timed<T>(&mut self, phase: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        if M::ENABLED {
            let start = Instant::now();
            let result = f(self);
            self.instruments.phase_ns[phase] += start.elapsed().as_nanos() as u64;
            result
        } else {
            f(self)
        }
    }

    /// Times one sequential tail when the profiler is on; transparent
    /// otherwise. Tails nest inside phases, so tail time is a breakdown
    /// of phase time, never additional attribution.
    #[inline(always)]
    fn tail_timed<T>(&mut self, tail: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        if M::ENABLED && self.profiling {
            let start = Instant::now();
            let result = f(self);
            self.instruments.tail_ns[tail] += start.elapsed().as_nanos() as u64;
            result
        } else {
            f(self)
        }
    }

    /// Start-of-cycle telemetry hook: folds the accumulating window when
    /// `now` has crossed into a new one. Runs *before* deliver/inject so
    /// the new window's first-cycle events (traffic generated this cycle)
    /// land in the new window, not the old.
    #[inline(always)]
    fn begin_cycle_telemetry(&mut self, now: Cycle) {
        if !M::ENABLED {
            return;
        }
        let Some(win) = self.instruments.win.as_deref_mut() else {
            return;
        };
        let w = now.raw() >> win.log2;
        if w != win.current {
            self.fold_telemetry_window(w);
        }
        if let Some(win) = self.instruments.win.as_deref_mut() {
            win.dirty = true;
        }
    }

    /// Folds the accumulating telemetry window into the registry and
    /// re-anchors at window `next`: per-window event counts become Sum
    /// windows (element-wise additive, summing back to their aggregate
    /// counters), derived values become Gauge windows, and cumulative
    /// sources (the tracker's delivered flits and packets, router
    /// counters, fault counters, occupancy accumulators) contribute exact
    /// deltas against their last-fold snapshots.
    fn fold_telemetry_window(&mut self, next: u64) {
        let Some(mut win) = self.instruments.win.take() else {
            return;
        };
        if !win.dirty {
            win.current = next;
            self.instruments.win = Some(win);
            return;
        }
        let w = win.current;
        let log2 = win.log2;
        let anchor = Cycle::new(w << log2);

        // Router-counter totals (cumulative) for this fold's deltas.
        let mut totals = RouterCounters::default();
        for slot in &self.slots {
            let mut scratch = RouterCounters::default();
            slot.router.collect_counters(&mut scratch);
            totals.absorb(&scratch);
        }
        let d = totals.delta(&win.prev_router);

        // Per-router occupancy: the same per-cycle `pools` accumulators
        // that feed the end-of-run gauges, windowed by snapshot deltas —
        // one accumulation path serves both consumers.
        if win.occ_ports.is_empty() {
            win.occ_ports = self
                .slots
                .iter()
                .map(|slot| {
                    Port::ALL
                        .iter()
                        .filter(|&&p| slot.router.data_buffer_capacity(p) > 0)
                        .count() as u32
                })
                .collect();
        }
        let d_cycles = self.now.raw() - win.prev_cycle;
        let mut mean_occ_sum = 0.0;
        let mut occ_now: Vec<f64> = Vec::with_capacity(self.slots.len());
        for (i, pools) in self.instruments.pools.iter().enumerate() {
            let sum: f64 = Port::ALL.iter().map(|&p| pools[p].occ_sum).sum();
            occ_now.push(sum);
            let denom = win.occ_ports[i] as f64 * d_cycles as f64;
            let frac = if denom > 0.0 {
                (sum - win.prev_occ[i]) / denom
            } else {
                0.0
            };
            mean_occ_sum += frac;
        }
        let mean_occ = mean_occ_sum / self.slots.len().max(1) as f64;

        let retries_delta = self.control_retries - win.prev_retries;
        let faults = self.faults.as_ref().map(|f| f.counters);
        let lat = &win.latencies;
        let quantiles = [
            ("latency.p50", lat.quantile(0.50).unwrap_or(0) as f64),
            ("latency.p95", lat.quantile(0.95).unwrap_or(0) as f64),
            ("latency.p99", lat.quantile(0.99).unwrap_or(0) as f64),
            ("latency.mean", lat.mean()),
        ];
        let delivered = [
            self.tracker.delivered_flits(),
            self.tracker.delivered_packets(),
        ];
        let sums = [
            ("net.offered_flits", win.offered_flits),
            ("net.ejected_flits", delivered[0] - win.prev_delivered[0]),
            (
                "net.delivered_packets",
                delivered[1] - win.prev_delivered[1],
            ),
            ("net.control_retries", retries_delta),
        ];
        let occ_ports = &win.occ_ports;
        let prev_occ = &win.prev_occ;
        let prev_fault = win.prev_fault.fields();
        let bookings = totals.bookings_in_flight;
        self.metrics.with(|reg| {
            for (name, value) in sums {
                reg.window_add(name, log2, anchor, value as f64);
            }
            for (name, value) in d.fields() {
                if WINDOWED_ROUTER_COUNTERS.contains(&name) {
                    let value = value as f64;
                    reg.window_add(&format!("total.{name}"), log2, anchor, value);
                }
            }
            if let Some(c) = faults {
                for ((name, value), (_, before)) in c.fields().into_iter().zip(prev_fault) {
                    if WINDOWED_FAULT_COUNTERS.contains(&name) {
                        let value = (value - before) as f64;
                        reg.window_add(&format!("fault.{name}"), log2, anchor, value);
                    }
                }
            }
            for (name, value) in quantiles {
                reg.window_set(name, log2, w, value);
            }
            reg.window_set("net.mean_occupancy", log2, w, mean_occ);
            reg.window_set("total.bookings_in_flight", log2, w, bookings as f64);
            for i in 0..occ_now.len() {
                let denom = occ_ports[i] as f64 * d_cycles as f64;
                let frac = if denom > 0.0 {
                    (occ_now[i] - prev_occ[i]) / denom
                } else {
                    0.0
                };
                reg.window_set(&format!("router.{i}.occupancy"), log2, w, frac);
            }
        });

        // Profiler: one wall-clock sample per folded window.
        if self.profiling {
            let mut sample = ProfileSample {
                window: w,
                phase_ns: [0; 5],
                tail_ns: [0; 5],
            };
            for p in 0..5 {
                sample.phase_ns[p] =
                    self.instruments.phase_ns[p] - self.instruments.prev_phase_ns[p];
                sample.tail_ns[p] = self.instruments.tail_ns[p] - self.instruments.prev_tail_ns[p];
            }
            self.instruments.prev_phase_ns = self.instruments.phase_ns;
            self.instruments.prev_tail_ns = self.instruments.tail_ns;
            self.instruments.profile_samples.push(sample);
        }

        // Re-anchor for the next window.
        win.cum_offered_flits += win.offered_flits;
        win.offered_flits = 0;
        win.latencies.reset();
        win.prev_delivered = delivered;
        win.prev_router = totals;
        if let Some(f) = self.faults.as_ref() {
            win.prev_fault = f.counters;
        }
        win.prev_retries = self.control_retries;
        win.prev_occ = occ_now;
        win.prev_cycle = self.now.raw();
        win.current = next;
        win.dirty = false;
        self.instruments.win = Some(win);
    }

    /// Writes every accumulated metric into the registry: router counters
    /// ([`Router::collect_counters`]) and their network totals, per-link
    /// flit counts and utilizations, per-pool occupancy, idle-skip
    /// effectiveness, and the wall-clock phase profile (under `profile.*`
    /// keys, which exports segregate for determinism stripping).
    ///
    /// Call once after a run, before taking the registry. A no-op under
    /// the null recorder.
    pub fn flush_metrics(&mut self) {
        if !M::ENABLED {
            return;
        }
        // Final (possibly partial) telemetry window: fold it before the
        // aggregates are written, so every Sum window sums exactly to its
        // aggregate counter. Idempotent — a clean window folds to nothing.
        if let Some(w) = self
            .instruments
            .win
            .as_ref()
            .filter(|w| w.dirty)
            .map(|w| w.current)
        {
            self.fold_telemetry_window(w);
        }
        let total_cycles = self.now.raw();
        let cycles = total_cycles.max(1);
        let mut per_router: Vec<RouterCounters> = Vec::with_capacity(self.slots.len());
        let mut totals = RouterCounters::default();
        for slot in &self.slots {
            let mut counters = RouterCounters::default();
            slot.router.collect_counters(&mut counters);
            totals.absorb(&counters);
            per_router.push(counters);
        }
        let mut caps: Vec<PortMap<usize>> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            caps.push(PortMap::from_fn(|p| slot.router.data_buffer_capacity(p)));
        }
        let num_routers = self.slots.len() as f64;
        let num_links = self.links.len() as u64;
        let mesh = self.mesh;
        let control_retries = self.control_retries;
        let fault_stats = self.faults.as_ref().map(|f| {
            (
                f.counters,
                f.reliability.buffered(),
                f.reliability.peak_buffered(),
            )
        });
        let telemetry_totals = self.instruments.win.as_ref().map(|w| {
            (
                w.cum_offered_flits,
                self.tracker.delivered_flits() - w.armed_delivered[0],
                self.tracker.delivered_packets() - w.armed_delivered[1],
            )
        });
        let instruments = &self.instruments;
        self.metrics.with(|reg| {
            reg.counter_set("net.cycles", total_cycles);
            // Telemetry aggregates: present only when windows are armed,
            // and then exactly equal to the matching window sums (the
            // final window folded above, so each total is the sum of
            // the folded deltas).
            if let Some((offered, ejected, delivered)) = telemetry_totals {
                reg.counter_set("net.offered_flits", offered);
                reg.counter_set("net.ejected_flits", ejected);
                reg.counter_set("net.delivered_packets", delivered);
            }
            reg.counter_set("net.links", num_links);
            reg.counter_set("net.routers", mesh.node_count() as u64);
            reg.counter_set("net.mesh_width", mesh.width() as u64);
            reg.counter_set("net.mesh_height", mesh.height() as u64);
            reg.counter_set("net.control_retries", control_retries);
            reg.counter_set("net.awake_router_cycles", instruments.awake_sum);
            reg.gauge_set(
                "net.mean_awake_routers",
                instruments.awake_sum as f64 / cycles as f64,
            );
            reg.gauge_set(
                "net.idle_skip_fraction",
                1.0 - instruments.awake_sum as f64 / (cycles as f64 * num_routers),
            );

            // Per-router counters (sparse: zero counters are omitted) and
            // network-wide totals (dense: always present for validators).
            for (i, c) in per_router.iter().enumerate() {
                for (name, value) in c.fields() {
                    if value > 0 {
                        reg.counter_set(&format!("router.{i}.{name}"), value);
                    }
                }
            }
            for (name, value) in totals.fields() {
                reg.counter_set(&format!("total.{name}"), value);
            }

            // Fault-layer counters: only present when a plan is armed, so
            // fault-free exports stay byte-identical to the seed.
            if let Some((c, buffered, peak)) = fault_stats {
                let reliability = [
                    ("retransmit_buffered", buffered as u64),
                    ("retransmit_peak", peak as u64),
                ];
                for (name, value) in c.fields().into_iter().chain(reliability) {
                    reg.counter_set(&format!("fault.{name}"), value);
                }
            }

            // Per-link flit counts (sparse) and mean utilizations.
            let mut link_totals = LinkFlits::default();
            for (i, ports) in instruments.link_flits.iter().enumerate() {
                for &port in &Port::MESH {
                    let f = ports[port];
                    link_totals.data += f.data;
                    link_totals.control += f.control;
                    link_totals.credit += f.credit;
                    let port_name = port_key(port);
                    for (name, value) in [
                        ("data_flits", f.data),
                        ("control_flits", f.control),
                        ("credit_flits", f.credit),
                    ] {
                        if value > 0 {
                            reg.counter_set(&format!("link.{i}.{port_name}.{name}"), value);
                        }
                    }
                }
            }
            reg.counter_set("total.link_data_flits", link_totals.data);
            reg.counter_set("total.link_control_flits", link_totals.control);
            reg.counter_set("total.link_credit_flits", link_totals.credit);
            let link_cycles = (num_links * cycles).max(1) as f64;
            reg.gauge_set(
                "net.mean_data_link_utilization",
                link_totals.data as f64 / link_cycles,
            );
            reg.gauge_set(
                "net.mean_control_link_utilization",
                link_totals.control as f64
                    / (link_cycles * instruments.control_bandwidth.max(1) as f64),
            );

            // Per-pool occupancy gauges (ports that exist on this router),
            // plus the per-pool and network-wide high-water marks.
            let mut net_peak = 0usize;
            for (i, pools) in instruments.pools.iter().enumerate() {
                for &port in &Port::ALL {
                    if caps[i][port] == 0 {
                        continue;
                    }
                    let stat = pools[port];
                    let port_name = port_key(port);
                    reg.gauge_set(
                        &format!("router.{i}.{port_name}.occupancy_avg"),
                        stat.occ_sum / cycles as f64,
                    );
                    reg.gauge_set(
                        &format!("router.{i}.{port_name}.full_fraction"),
                        stat.full_cycles as f64 / cycles as f64,
                    );
                    if stat.occ_peak > 0 {
                        reg.counter_set(
                            &format!("router.{i}.{port_name}.occupancy_peak"),
                            stat.occ_peak as u64,
                        );
                    }
                    net_peak = net_peak.max(stat.occ_peak);
                }
            }
            reg.counter_set("net.peak_buffer_occupancy", net_peak as u64);
            reg.counter_set("total.bookings_in_flight_peak", instruments.bookings_peak);

            // Wall-clock self-profile: nondeterministic by nature, kept
            // under the `profile.` prefix so exports can segregate it.
            let mut total_ns = 0u64;
            for (phase, name) in PHASE_NAMES.iter().enumerate() {
                let ns = instruments.phase_ns[phase];
                total_ns += ns;
                reg.gauge_set(&format!("profile.{name}_ms"), ns as f64 / 1.0e6);
            }
            for (tail, name) in crate::profile::PROFILE_TAILS.iter().enumerate() {
                let ns = instruments.tail_ns[tail];
                if ns > 0 {
                    reg.gauge_set(&format!("profile.tail_{name}_ms"), ns as f64 / 1.0e6);
                }
            }
            reg.gauge_set("profile.total_ms", total_ns as f64 / 1.0e6);
            if total_ns > 0 {
                reg.gauge_set(
                    "profile.cycles_per_sec",
                    cycles as f64 / (total_ns as f64 / 1.0e9),
                );
            }
        });
    }

    /// Advances the network by one cycle (sequential step phase).
    pub fn cycle(&mut self) {
        let now = self.now;
        self.begin_cycle_telemetry(now);
        let wall = (M::ENABLED && self.profiling).then(Instant::now);
        self.timed(PHASE_DELIVER, |n| n.deliver_arrivals(now));
        self.timed(PHASE_INJECT, |n| n.offer_traffic(now));
        if M::ENABLED {
            self.instruments.awake_sum += self.awake_routers() as u64;
        }
        self.timed(PHASE_STEP, |n| n.step_routers(now));
        self.timed(PHASE_APPLY, |n| n.apply_outputs(now));
        self.timed(PHASE_OBSERVE, |n| n.finish_cycle(now));
        if let Some(start) = wall {
            self.instruments.cycle_wall_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.cycle();
        }
    }
}

/// Lower-case key fragment for a port, for metric names.
fn port_key(port: Port) -> &'static str {
    match port {
        Port::North => "north",
        Port::South => "south",
        Port::East => "east",
        Port::West => "west",
        Port::Local => "local",
    }
}

impl<R: Router + Send, S: TraceSink, M: Recorder> Network<R, S, M> {
    /// Installs `plan` (and a matching persistent [`WorkerPool`]) as the
    /// network's shard partition. The worker pool is reused when the
    /// shard count is unchanged, so reinstalling plans is cheap.
    ///
    /// Requires `R: Send` — a router traced through a
    /// [`noc_engine::trace::SharedSink`] is not `Send`, which statically
    /// rules out sharing one sink from concurrent shard rounds.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover exactly this mesh's nodes.
    pub fn set_shard_plan(&mut self, plan: ShardPlan) {
        assert_eq!(plan.nodes(), self.slots.len(), "plan must cover every node");
        let shards = plan.shards();
        let pool = match self.parallel.take() {
            Some(engine) if engine.pool.threads() == shards => engine.pool,
            _ => WorkerPool::new(shards),
        };
        pool.set_profiling(M::ENABLED && self.profiling);
        self.parallel = Some(Box::new(ParallelEngine {
            pool,
            plan,
            outboxes: vec![Vec::new(); shards],
            awake: vec![0; shards],
            lock_count: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            lock_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }));
    }

    /// The installed shard plan, if any.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.parallel.as_ref().map(|e| &e.plan)
    }

    /// Ensures a `threads`-shard engine is installed, keeping any
    /// existing plan with a matching shard count (so a custom plan from
    /// [`Network::set_shard_plan`] survives `run_cycles_sharded` calls).
    fn ensure_parallel(&mut self, threads: usize) {
        let matches = self
            .parallel
            .as_ref()
            .is_some_and(|e| e.plan.shards() == threads);
        if !matches {
            self.set_shard_plan(ShardPlan::contiguous(self.slots.len(), threads));
        }
    }

    /// Runs `n` cycles with the shard-local phases — deliver, backlog
    /// offers, step, and (when no RNG rides on sends) the link half of
    /// apply — running concurrently on `threads` persistent workers. See
    /// the [module docs](self) for the hand-off protocol. Produces the
    /// same trace, delivery record, RNG trajectory and metrics export as
    /// [`Network::run_cycles`] for any thread count and shard plan.
    pub fn run_cycles_sharded(&mut self, n: u64, threads: usize) {
        self.ensure_parallel(threads);
        for _ in 0..n {
            self.cycle_planned();
        }
    }

    /// One cycle under the installed plan. A fault-free cycle fuses
    /// deliver/offer/step and the shard-local sends into a single
    /// parallel round; a fault-carrying cycle splits the round around the
    /// sequential fault events so the event order matches
    /// [`Network::cycle`] exactly. (Phase timing attribution differs from
    /// the sequential engine — the fused round is booked under `step` —
    /// but `profile.*` metrics are nondeterministic by nature and
    /// stripped from every comparison.)
    fn cycle_planned(&mut self) {
        let now = self.now;
        self.begin_cycle_telemetry(now);
        let wall = (M::ENABLED && self.profiling).then(Instant::now);
        if self.faults.is_some() {
            self.timed(PHASE_DELIVER, |n| n.parallel_round(now, true, false));
            self.timed(PHASE_INJECT, |n| {
                n.tail_timed(TAIL_FAULT_EVENTS, |n| n.apply_fault_events(now));
                n.tail_timed(TAIL_TRAFFIC_GEN, |n| n.generate_traffic(now));
            });
            self.timed(PHASE_STEP, |n| n.parallel_round(now, false, true));
        } else {
            self.timed(PHASE_INJECT, |n| {
                n.tail_timed(TAIL_TRAFFIC_GEN, |n| n.generate_traffic(now))
            });
            self.timed(PHASE_STEP, |n| n.parallel_round(now, true, true));
        }
        if self.rng_sends() {
            self.timed(PHASE_APPLY, |n| n.apply_outputs(now));
        } else {
            self.timed(PHASE_APPLY, |n| {
                n.publish_outboxes(now);
                n.tail_timed(TAIL_EJECT_COMMIT, |n| n.commit_ejections());
            });
        }
        self.timed(PHASE_OBSERVE, |n| n.finish_cycle(now));
        if let Some(start) = wall {
            self.instruments.cycle_wall_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Runs the shard-local half of a cycle across the worker pool:
    /// deliver this cycle's arrivals (`deliver`), then offer backlogs,
    /// sample the wake-list and step every awake router (`step`). When
    /// no RNG rides on sends, each stepped router's sends then leave at
    /// once: onto the receiver's link when the receiver is in the same
    /// shard, into the shard's outbox otherwise. All of it touches only
    /// shard-owned state — a router, its backlog, its inbound links
    /// (already delivered this cycle, and every wire has delay ≥ 1) and
    /// its outbox — so the round needs no synchronisation beyond the
    /// pool's own barrier.
    fn parallel_round(&mut self, now: Cycle, deliver: bool, step: bool) {
        let mut engine = self.parallel.take().expect("parallel engine installed");
        let ParallelEngine {
            pool,
            plan,
            outboxes,
            awake,
            lock_count,
            lock_ns,
        } = &mut *engine;
        let idle_skip = self.idle_skip;
        let count_awake = M::ENABLED && step;
        let sends = step && !self.rng_sends();
        let profiling = M::ENABLED && self.profiling;
        let inbound = &self.inbound;
        let outbound = &self.outbound;
        let ctx_start = profiling.then(Instant::now);
        let ctxs = shard_contexts(
            plan,
            &self.link_starts,
            &mut self.slots,
            &mut self.links,
            &mut self.backlog,
            &mut self.instruments.link_flits,
            outboxes,
            awake,
        );
        let ctx_ns = ctx_start.map(|s| s.elapsed().as_nanos() as u64);
        let lock_count: &[AtomicU64] = lock_count;
        let lock_ns: &[AtomicU64] = lock_ns;
        pool.run(&|w| {
            let mut ctx = lock_shard(&ctxs[w], profiling, &lock_count[w], &lock_ns[w]);
            let ctx = &mut *ctx;
            if deliver {
                for (i, slot) in ctx.slots.iter_mut().enumerate() {
                    let n = ctx.range.start + i;
                    deliver_node(slot, ctx.links, ctx.link_base, &inbound[n], now);
                }
            }
            if !step {
                return;
            }
            for (slot, backlog) in ctx.slots.iter_mut().zip(ctx.backlog.iter_mut()) {
                offer_backlog(slot, backlog, now);
            }
            if count_awake {
                // Sampled exactly where the sequential engine samples
                // `awake_routers()`: after delivers and offers, before
                // any step retires a wake flag.
                *ctx.awake = if idle_skip {
                    ctx.slots.iter().filter(|s| s.active).count() as u64
                } else {
                    ctx.slots.len() as u64
                };
            }
            for (i, slot) in ctx.slots.iter_mut().enumerate() {
                step_slot(slot, now, idle_skip);
                if !sends || slot.out.sends.is_empty() {
                    continue;
                }
                let node = NodeId::new((ctx.range.start + i) as u16);
                for (port, event) in slot.out.sends.drain(..) {
                    let idx = outbound_link(outbound, node, port);
                    let class = event.wire_class();
                    if M::ENABLED {
                        // Flit counters are keyed by sender, so each
                        // shard counts its own sends — boundary or not.
                        let f = &mut ctx.flits[i][port];
                        match class {
                            WireClass::Data => f.data += 1,
                            WireClass::Control => f.control += 1,
                            WireClass::Credit => f.credit += 1,
                        }
                    }
                    // The arena is receiver-keyed, so the shard's own
                    // slice holds exactly the links into its nodes.
                    if let Some(set) = ctx
                        .links
                        .get_mut((idx as usize).wrapping_sub(ctx.link_base))
                    {
                        wire_of(set, class)
                            .push(now, event)
                            .expect("link bandwidth exceeded: flow-control protocol bug");
                    } else {
                        ctx.outbox.push((idx, event));
                    }
                }
            }
        });
        drop(ctxs);
        if let Some(ns) = ctx_ns {
            self.instruments.tail_ns[TAIL_CTX_BUILD] += ns;
        }
        if count_awake {
            self.instruments.awake_sum += engine.awake.iter().sum::<u64>();
        }
        self.parallel = Some(engine);
    }

    /// The cross-shard hand-off of a round that sent (no RNG rides on
    /// sends): flits whose receiver lives in another shard enter their
    /// link only here, at the barrier, never mid-round. Each directed
    /// link has exactly one sending router and shard staging order is
    /// node order, so publishing the outboxes in shard order restores
    /// global sender order.
    fn publish_outboxes(&mut self, now: Cycle) {
        let publish_start = (M::ENABLED && self.profiling).then(Instant::now);
        let engine = self.parallel.as_mut().expect("parallel engine installed");
        for outbox in engine.outboxes.iter_mut() {
            for (idx, event) in outbox.drain(..) {
                let set = &mut self.links[idx as usize];
                wire_of(set, event.wire_class())
                    .push(now, event)
                    .expect("link bandwidth exceeded: flow-control protocol bug");
            }
        }
        if let Some(start) = publish_start {
            self.instruments.tail_ns[TAIL_OUTBOX] += start.elapsed().as_nanos() as u64;
        }
    }

    /// Sequential tail of a sharded cycle that sent in its round:
    /// ejections commit to the delivery tracker and sink in node order.
    fn commit_ejections(&mut self) {
        for n in 0..self.slots.len() {
            if self.slots[n].out.ejections.is_empty() {
                continue;
            }
            let node = NodeId::new(n as u16);
            let mut out = std::mem::take(&mut self.slots[n].out);
            for e in out.ejections.drain(..) {
                self.commit_ejection(node, e);
            }
            self.slots[n].out = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyNetwork, FlowControl, SimConfig};
    use flit_reservation::FrRouter;
    use noc_engine::warmup::WarmupConfig;
    use noc_engine::Rng;
    use noc_traffic::LoadSpec;
    use noc_vc::{VcConfig, VcRouter};

    fn tiny_sim(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            warmup: WarmupConfig {
                min_cycles: 300,
                max_cycles: 2_000,
                window: 4,
                tolerance: 0.1,
            },
            sample_packets: 150,
            drain_cap: 10_000,
            warmup_probe_period: 16,
        }
    }

    /// Builds `flow` through the one construction path on traffic stream
    /// 99 with 5-flit packets.
    fn network(flow: FlowControl, mesh: Mesh, load: f64, seed: u64) -> AnyNetwork {
        let root = Rng::from_seed(seed);
        let spec = LoadSpec::fraction_of_capacity(load, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
        flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
    }

    fn vc_network(mesh: Mesh, load: f64, seed: u64) -> Network<VcRouter> {
        let AnyNetwork::Vc(net) = network(FlowControl::vc8(), mesh, load, seed) else {
            unreachable!("a VC flow builds a VC network")
        };
        net
    }

    fn fr_network(mesh: Mesh, load: f64, seed: u64) -> Network<FrRouter> {
        let AnyNetwork::Fr(net) = network(FlowControl::fr6(), mesh, load, seed) else {
            unreachable!("an FR flow builds an FR network")
        };
        net
    }

    #[test]
    fn vc_network_conserves_packets() {
        let mesh = Mesh::new(4, 4);
        let mut net = vc_network(mesh, 0.3, 11);
        net.run_cycles(2_000);
        net.stop_injection();
        net.run_cycles(2_000);
        // Everything injected was delivered exactly once (the tracker
        // panics on duplicates/wrong destinations).
        assert_eq!(net.tracker().in_flight(), 0, "network must drain");
        assert!(net.tracker().delivered_packets() > 50);
        assert_eq!(net.mean_queued_flits(), 0.0);
    }

    #[test]
    fn fr_network_conserves_packets() {
        let mesh = Mesh::new(4, 4);
        let mut net = fr_network(mesh, 0.3, 11);
        net.run_cycles(2_000);
        net.stop_injection();
        net.run_cycles(3_000);
        assert_eq!(net.tracker().in_flight(), 0, "network must drain");
        assert!(net.tracker().delivered_packets() > 50);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mesh = Mesh::new(4, 4);
        let mut a = fr_network(mesh, 0.4, 5);
        let mut b = fr_network(mesh, 0.4, 5);
        a.set_measuring(true);
        b.set_measuring(true);
        a.run_cycles(1_500);
        b.run_cycles(1_500);
        assert_eq!(a.tracker().delivered_flits(), b.tracker().delivered_flits());
        assert_eq!(a.tracker().latency().mean(), b.tracker().latency().mean());
    }

    #[test]
    fn different_seeds_differ() {
        let mesh = Mesh::new(4, 4);
        let mut a = vc_network(mesh, 0.4, 5);
        let mut b = vc_network(mesh, 0.4, 6);
        a.set_measuring(true);
        b.set_measuring(true);
        a.run_cycles(1_500);
        b.run_cycles(1_500);
        // Latency trajectories differ with overwhelming probability.
        assert_ne!(a.tracker().latency().mean(), b.tracker().latency().mean());
    }

    #[test]
    fn idle_skip_matches_always_step() {
        let mesh = Mesh::new(4, 4);
        let mut skipping = fr_network(mesh, 0.2, 7);
        let mut stepping = fr_network(mesh, 0.2, 7);
        assert!(skipping.idle_skip());
        stepping.set_idle_skip(false);
        skipping.set_measuring(true);
        stepping.set_measuring(true);
        skipping.run_cycles(1_200);
        stepping.run_cycles(1_200);
        skipping.stop_injection();
        stepping.stop_injection();
        skipping.run_cycles(2_000);
        stepping.run_cycles(2_000);
        assert_eq!(
            skipping.tracker().delivered_flits(),
            stepping.tracker().delivered_flits()
        );
        assert_eq!(
            skipping.tracker().latency().mean(),
            stepping.tracker().latency().mean()
        );
        assert_eq!(skipping.tracker().in_flight(), 0);
        assert_eq!(stepping.tracker().in_flight(), 0);
    }

    #[test]
    fn drained_network_goes_fully_idle() {
        let mesh = Mesh::new(4, 4);
        let mut net = vc_network(mesh, 0.2, 3);
        net.run_cycles(500);
        net.stop_injection();
        net.run_cycles(2_000);
        assert_eq!(net.tracker().in_flight(), 0);
        assert_eq!(
            net.awake_routers(),
            0,
            "a drained network must have an empty wake list"
        );
    }

    #[test]
    fn sharded_step_matches_sequential() {
        let mesh = Mesh::new(4, 4);
        let mut seq = fr_network(mesh, 0.4, 17);
        let mut par = fr_network(mesh, 0.4, 17);
        seq.set_measuring(true);
        par.set_measuring(true);
        seq.run_cycles(1_000);
        par.run_cycles_sharded(1_000, 4);
        seq.stop_injection();
        par.stop_injection();
        seq.run_cycles(3_000);
        par.run_cycles_sharded(3_000, 4);
        assert_eq!(
            seq.tracker().delivered_flits(),
            par.tracker().delivered_flits()
        );
        assert_eq!(
            seq.tracker().latency().mean(),
            par.tracker().latency().mean()
        );
        assert_eq!(seq.tracker().in_flight(), 0);
        assert_eq!(par.tracker().in_flight(), 0);
    }

    /// A router that refuses injections until a set cycle, exposing the
    /// backlog between generation and acceptance.
    struct Reluctant {
        inner: VcRouter,
        accept_from: Cycle,
    }

    impl Router for Reluctant {
        fn node(&self) -> NodeId {
            self.inner.node()
        }
        fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle) {
            self.inner.receive(port, event, now);
        }
        fn try_inject(&mut self, packet: noc_traffic::Packet, now: Cycle) -> bool {
            now >= self.accept_from && self.inner.try_inject(packet, now)
        }
        fn step(&mut self, now: Cycle, out: &mut StepOutputs) {
            self.inner.step(now, out);
        }
        fn occupied_data_buffers(&self, port: Port) -> usize {
            self.inner.occupied_data_buffers(port)
        }
        fn data_buffer_capacity(&self, port: Port) -> usize {
            self.inner.data_buffer_capacity(port)
        }
        fn queued_flits(&self) -> usize {
            self.inner.queued_flits()
        }
        fn is_idle(&self) -> bool {
            self.inner.is_idle()
        }
    }

    /// Regression test: `stop_injection` used to clear the per-node
    /// backlogs, dropping packets the tracker had already counted as
    /// injected — the network could then never drain to zero in-flight.
    #[test]
    fn stop_injection_keeps_backlogged_packets() {
        let mesh = Mesh::new(4, 4);
        let root = Rng::from_seed(23);
        let spec = LoadSpec::fraction_of_capacity(0.3, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
        let mut net = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |node| {
            Reluctant {
                inner: VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64)),
                // Nothing is accepted until after injection stops, so
                // every generated packet sits in a backlog at stop time.
                accept_from: Cycle::new(400),
            }
        });
        net.run_cycles(300);
        assert_eq!(
            net.tracker().delivered_packets(),
            0,
            "nothing can deliver before routers accept"
        );
        let offered = net.tracker().in_flight() as u64;
        assert!(offered > 10, "the generator must have offered packets");
        net.stop_injection();
        net.run_cycles(4_000);
        assert_eq!(
            net.tracker().delivered_packets(),
            offered,
            "backlogged packets must survive stop_injection and deliver"
        );
        assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    }

    /// Renders `net`'s state stream as text and as a tree, checks they
    /// are the same bytes and digest, and returns the text.
    fn stream_matches_tree<R: Router>(net: &Network<R>) -> String {
        let mut out = JsonWriter::new(String::new());
        net.write_state(&mut out);
        let text = out.finish().expect("writing to a String cannot fail");
        let tree = net.state_snapshot();
        assert_eq!(text, tree.render(), "stream and tree renderings differ");
        assert_eq!(net.state_digest(), noc_metrics::state_digest(&tree));
        text
    }

    #[test]
    fn streamed_state_renders_exactly_its_tree() {
        let mesh = Mesh::new(4, 4);
        let plan = FaultPlan {
            data_corrupt_rate: 0.01,
            control_drop_rate: 0.01,
            dead_links: vec![DeadLink {
                node: NodeId::new(5),
                port: Port::East,
                at_cycle: 100_000,
            }],
            ..FaultPlan::quiet(7)
        };
        for family in [FlowControl::vc8(), FlowControl::fr6()] {
            let mut net = network(family, mesh, 0.9, 41);
            net.set_fault_plan(plan.clone());
            net.run_cycles(600);
            let text = match &net {
                AnyNetwork::Vc(net) => stream_matches_tree(net),
                AnyNetwork::Fr(net) => stream_matches_tree(net),
            };
            let tree = Json::parse(&text).expect("the stream is JSON");
            let links = tree.get("links").and_then(Json::as_array);
            assert!(links.is_some_and(|s| !s.is_empty()), "no link in flight");
            let in_flight = tree.get("tracker").and_then(|t| t.get("in_flight"));
            assert!(in_flight
                .and_then(Json::as_array)
                .is_some_and(|s| !s.is_empty()));
            let dead = tree.get("fault").and_then(|f| f.get("pending_dead"));
            assert_eq!(dead.and_then(Json::as_array).map(<[Json]>::len), Some(1));
        }
        // Stub routers dump `null`, so the router array is a one-line
        // array of scalars.
        let root = Rng::from_seed(23);
        let spec = LoadSpec::fraction_of_capacity(0.3, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
        let mut stub = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |node| {
            Reluctant {
                inner: VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64)),
                accept_from: Cycle::new(400),
            }
        });
        stub.run_cycles(100);
        let text = stream_matches_tree(&stub);
        let nulls = vec!["null"; 16].join(", ");
        assert!(text.contains(&format!("\"routers\": [{nulls}]")), "{text}");
        let backlog = Json::parse(&text).expect("the stream is JSON");
        let backlog = backlog.get("backlog").and_then(Json::as_array);
        assert!(backlog.is_some_and(|b| !b.is_empty()), "no backlog");
    }

    #[test]
    fn sharded_step_with_custom_plan_matches_sequential() {
        let mesh = Mesh::new(4, 4);
        let mut seq = fr_network(mesh, 0.4, 31);
        let mut par = fr_network(mesh, 0.4, 31);
        seq.set_measuring(true);
        par.set_measuring(true);
        // Deliberately lopsided partition: shard sizes 3/6/1/6.
        par.set_shard_plan(crate::ShardPlan::from_cuts(16, &[3, 9, 10]));
        seq.run_cycles(1_000);
        par.run_cycles_sharded(1_000, 4);
        seq.stop_injection();
        par.stop_injection();
        seq.run_cycles(3_000);
        par.run_cycles_sharded(3_000, 4);
        assert_eq!(
            seq.tracker().delivered_flits(),
            par.tracker().delivered_flits()
        );
        assert_eq!(
            seq.tracker().latency().mean(),
            par.tracker().latency().mean()
        );
        assert_eq!(seq.tracker().in_flight(), 0);
        assert_eq!(par.tracker().in_flight(), 0);
    }

    #[test]
    fn run_cycles_sharded_keeps_matching_custom_plan() {
        let mesh = Mesh::new(4, 4);
        let mut net = fr_network(mesh, 0.3, 5);
        let plan = crate::ShardPlan::from_cuts(16, &[5, 11]);
        net.set_shard_plan(plan.clone());
        net.run_cycles_sharded(10, 3);
        assert_eq!(net.shard_plan(), Some(&plan));
        // A different thread count rebuilds a contiguous plan.
        net.run_cycles_sharded(10, 2);
        assert_eq!(net.shard_plan(), Some(&crate::ShardPlan::contiguous(16, 2)));
    }

    #[test]
    fn a_fault_free_sharded_cycle_is_one_pool_round() {
        // Faults split the round around their sequential events; the
        // control-error model only moves the sends to the sequential
        // apply.
        let mesh = Mesh::new(4, 4);
        let faults = FaultPlan {
            data_corrupt_rate: 0.01,
            ..FaultPlan::quiet(7)
        };
        for family in [FlowControl::vc8(), FlowControl::fr6()] {
            for (model, rounds_per_cycle) in [("none", 1), ("faults", 2), ("control errors", 1)] {
                let root = Rng::from_seed(13);
                let spec = LoadSpec::fraction_of_capacity(0.5, 5);
                let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
                let registry = noc_metrics::MetricsRegistry::new();
                let mut net = family.build(mesh, generator, &root, NullSink, NullSink, registry);
                match model {
                    "faults" => net.set_fault_plan(faults.clone()),
                    "control errors" => net.set_control_error_rate(0.01, 3),
                    _ => {}
                }
                net.set_profiling(true);
                net.run_cycles_sharded(300, 2);
                let rounds = net.engine_profile().rounds;
                assert_eq!(rounds, 300 * rounds_per_cycle, "{} {model}", family.label());
            }
        }
    }

    /// A router that sends one control credit on `port` every step.
    struct FixedSender {
        node: NodeId,
        port: Port,
    }

    impl Router for FixedSender {
        fn node(&self) -> NodeId {
            self.node
        }
        fn receive(&mut self, _port: Port, _event: LinkEvent, _now: Cycle) {}
        fn try_inject(&mut self, _packet: noc_traffic::Packet, _now: Cycle) -> bool {
            false
        }
        fn step(&mut self, _now: Cycle, out: &mut StepOutputs) {
            out.send(self.port, LinkEvent::ControlCredit { vc: 0 });
        }
        fn occupied_data_buffers(&self, _port: Port) -> usize {
            0
        }
        fn data_buffer_capacity(&self, _port: Port) -> usize {
            0
        }
        fn queued_flits(&self) -> usize {
            0
        }
        fn is_idle(&self) -> bool {
            false
        }
    }

    /// A 2x2 network whose routers all send on `port`; on `West`, the
    /// routers in column 0 send off the mesh edge. Sharded over two
    /// threads when `planned`, so the send runs in the parallel round.
    fn run_fixed_senders(port: Port, planned: bool) {
        let mesh = Mesh::new(2, 2);
        let spec = LoadSpec::fraction_of_capacity(0.1, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, Rng::from_seed(1));
        let mut net = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |node| {
            FixedSender { node, port }
        });
        if planned {
            net.run_cycles_sharded(1, 2);
        } else {
            net.run_cycles(1);
        }
    }

    #[test]
    #[should_panic(expected = "send on missing link")]
    fn send_off_the_mesh_edge_panics_sequentially() {
        run_fixed_senders(Port::West, false);
    }

    #[test]
    #[should_panic(expected = "send on missing link")]
    fn send_off_the_mesh_edge_panics_planned() {
        run_fixed_senders(Port::West, true);
    }

    #[test]
    #[should_panic(expected = "routers send on mesh ports only")]
    fn send_on_local_panics_sequentially() {
        run_fixed_senders(Port::Local, false);
    }

    #[test]
    #[should_panic(expected = "routers send on mesh ports only")]
    fn send_on_local_panics_planned() {
        run_fixed_senders(Port::Local, true);
    }

    /// A router that counts `step` and `is_idle` calls, claiming
    /// whatever idleness it is configured with.
    struct ScanCounter {
        node: NodeId,
        steps: std::rc::Rc<std::cell::Cell<u64>>,
        scans: std::rc::Rc<std::cell::Cell<u64>>,
        idle: bool,
    }

    impl Router for ScanCounter {
        fn node(&self) -> NodeId {
            self.node
        }
        fn receive(&mut self, _port: Port, _event: LinkEvent, _now: Cycle) {}
        fn try_inject(&mut self, _packet: noc_traffic::Packet, _now: Cycle) -> bool {
            false
        }
        fn step(&mut self, _now: Cycle, _out: &mut StepOutputs) {
            self.steps.set(self.steps.get() + 1);
        }
        fn occupied_data_buffers(&self, _port: Port) -> usize {
            0
        }
        fn data_buffer_capacity(&self, _port: Port) -> usize {
            0
        }
        fn queued_flits(&self) -> usize {
            0
        }
        fn is_idle(&self) -> bool {
            self.scans.set(self.scans.get() + 1);
            self.idle
        }
    }

    fn scan_counter_network(idle: bool) -> (Network<ScanCounter>, SharedCounts) {
        let mesh = Mesh::new(2, 2);
        let root = Rng::from_seed(1);
        let spec = LoadSpec::fraction_of_capacity(0.3, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
        let counts: SharedCounts = Default::default();
        let (steps, scans) = (counts.0.clone(), counts.1.clone());
        let mut net = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |node| {
            ScanCounter {
                node,
                steps: steps.clone(),
                scans: scans.clone(),
                idle,
            }
        });
        // No traffic ever reaches the routers: the run is pure quiet
        // steps, isolating the wake-list/scan behaviour.
        net.stop_injection();
        (net, counts)
    }

    type SharedCounts = (
        std::rc::Rc<std::cell::Cell<u64>>,
        std::rc::Rc<std::cell::Cell<u64>>,
    );

    /// Regression test for the wake-list churn fix: a busy-but-quiet
    /// router (no outputs, `is_idle() == false`, the profile of every
    /// router above ~40% load) used to pay a full `is_idle` scan on
    /// *every* step; the quiet-streak hysteresis must amortise the scan
    /// to roughly one per [`IDLE_HYSTERESIS`] steps.
    #[test]
    fn idle_scan_runs_once_per_hysteresis_window() {
        let (mut net, (steps, scans)) = scan_counter_network(false);
        net.run_cycles(160);
        let per_router_steps = steps.get() / 4;
        let per_router_scans = scans.get() / 4;
        assert_eq!(per_router_steps, 160, "busy routers step every cycle");
        let expected = 160 / u64::from(IDLE_HYSTERESIS);
        assert!(
            per_router_scans <= expected + 1,
            "scan churn is back: {per_router_scans} scans in 160 quiet steps \
             (hysteresis should cap it near {expected})"
        );
        assert!(per_router_scans >= 1, "the scan must still run eventually");
    }

    /// The flip side: hysteresis may delay idle detection by at most the
    /// window, after which a genuinely idle router stops stepping.
    #[test]
    fn idle_router_retires_after_hysteresis_window() {
        let (mut net, (steps, scans)) = scan_counter_network(true);
        net.run_cycles(100);
        assert_eq!(
            steps.get() / 4,
            u64::from(IDLE_HYSTERESIS),
            "an idle router steps exactly one hysteresis window, then sleeps"
        );
        assert_eq!(scans.get() / 4, 1, "one scan retires it");
        assert_eq!(net.awake_routers(), 0);
    }

    #[test]
    fn run_simulation_completes_at_low_load() {
        let mesh = Mesh::new(4, 4);
        let mut net = vc_network(mesh, 0.2, 21);
        let r = crate::run_simulation(&mut net, &tiny_sim(21));
        assert!(r.completed);
        assert_eq!(r.delivered, 150);
        assert!(r.mean_latency() > 10.0 && r.mean_latency() < 100.0);
        assert!(r.accepted_fraction > 0.1 && r.accepted_fraction < 0.4);
        assert!(r.end_cycle > r.measure_start);
    }

    #[test]
    fn overload_is_flagged_saturated() {
        let mesh = Mesh::new(4, 4);
        // 150% of capacity cannot be sustained by any flow control.
        let mut net = vc_network(mesh, 1.5, 21);
        let mut sim = tiny_sim(21);
        sim.drain_cap = 500;
        sim.sample_packets = 2_000;
        let r = crate::run_simulation(&mut net, &sim);
        assert!(!r.completed, "overload must be flagged");
        assert!(r.accepted_fraction < 1.2);
    }

    #[test]
    fn fr_beats_vc_latency_at_moderate_load() {
        let mesh = Mesh::new(4, 4);
        let sim = tiny_sim(9);
        let mut vc = vc_network(mesh, 0.4, 9);
        let mut fr = fr_network(mesh, 0.4, 9);
        let rv = crate::run_simulation(&mut vc, &sim);
        let rf = crate::run_simulation(&mut fr, &sim);
        assert!(rv.completed && rf.completed);
        assert!(
            rf.mean_latency() < rv.mean_latency(),
            "FR {:.1} must beat VC {:.1}",
            rf.mean_latency(),
            rv.mean_latency()
        );
    }
}
