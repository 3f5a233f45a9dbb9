//! Experiment harness: build networks for either flow control and sweep
//! offered loads — the machinery behind every figure and table of the
//! paper.

use crate::runner::run_simulation_with;
use crate::{
    run_simulation, DeliveryTracker, EngineProfile, FaultSummary, Network, RunResult, RunSpec,
    ShardPlan, SimConfig,
};
use flit_reservation::{FrConfig, FrRouter};
use noc_engine::trace::{NullSink, TraceSink};
use noc_engine::{sweep, Cycle, Rng};
use noc_faults::FaultPlan;
use noc_flow::LinkTiming;
use noc_metrics::{Json, NullRecorder, Recorder};
use noc_topology::{Mesh, NodeId};
use noc_traffic::TrafficGenerator;
use noc_vc::{VcConfig, VcRouter};

/// Fork of the root RNG that drives the experiment harness's traffic
/// (`"raffic"`); routers fork by node id, so the two never collide.
pub const TRAFFIC_STREAM: u64 = 0x7261_6666_6963;

/// Which flow control to simulate, with its full configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowControl {
    /// Virtual-channel baseline (Dally '92); carries the link timing since
    /// the VC network has no control wires of its own.
    VirtualChannel(VcConfig, LinkTiming),
    /// Flit-reservation flow control (timing lives in [`FrConfig`]).
    FlitReservation(FrConfig),
}

impl FlowControl {
    /// The paper's VC8 baseline: 2 VCs × 4 flits, fast-control wires.
    pub fn vc8() -> Self {
        FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control())
    }

    /// The paper's FR6, storage-matched to VC8.
    pub fn fr6() -> Self {
        FlowControl::FlitReservation(FrConfig::fr6())
    }

    /// Short label used in tables and plots (e.g. `VC8`, `FR6`, `WH8`,
    /// `VCT24`, `SAF24`).
    pub fn label(&self) -> String {
        match self {
            FlowControl::VirtualChannel(cfg, _) => {
                let b = cfg.buffers_per_input();
                match cfg.allocation {
                    noc_vc::AllocationUnit::StoreAndForward => format!("SAF{b}"),
                    noc_vc::AllocationUnit::CutThrough => format!("VCT{b}"),
                    noc_vc::AllocationUnit::Flit if cfg.num_vcs == 1 => format!("WH{b}"),
                    noc_vc::AllocationUnit::Flit => format!("VC{b}"),
                }
            }
            FlowControl::FlitReservation(cfg) => format!("FR{}", cfg.data_buffers),
        }
    }

    /// The wire timing this configuration runs on.
    pub fn timing(&self) -> LinkTiming {
        match self {
            FlowControl::VirtualChannel(_, t) => *t,
            FlowControl::FlitReservation(cfg) => cfg.timing,
        }
    }

    /// Runs the plain [`RunSpec`] — warm-up / measure / drain at `load`
    /// (of capacity) with `packet_flits`-flit packets, uniform
    /// constant-rate traffic, nothing observed — on `mesh`: the building
    /// block of every latency-throughput curve.
    ///
    /// It steps the spec's network itself rather than calling
    /// [`RunSpec::run`], so a sweep-only binary links no observer path
    /// and LLVM inlines the whole cycle into the run loop.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`RunSpec::validate`]).
    pub fn run(&self, mesh: Mesh, load: f64, packet_flits: u32, sim: &SimConfig) -> RunResult {
        let spec = RunSpec::new(self.clone(), mesh, load, packet_flits, *sim);
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
        spec.build(NullSink, NullSink, NullRecorder).simulate(sim)
    }

    /// Builds this flow control's network on `mesh` — the one place a
    /// router family is instantiated. Every router draws from its own
    /// stream forked off `root` by node id; `router_sink` is cloned into
    /// each router, `sink` receives the network's end-to-end events and
    /// `metrics` is the recorder. The caller supplies the traffic, so
    /// each harness keeps its own traffic stream.
    pub fn build<RS: TraceSink + Clone, S: TraceSink, M: Recorder>(
        &self,
        mesh: Mesh,
        generator: TrafficGenerator,
        root: &Rng,
        router_sink: RS,
        sink: S,
        metrics: M,
    ) -> AnyNetwork<RS, S, M> {
        let rng = |node: NodeId| root.fork(node.raw() as u64);
        match *self {
            FlowControl::VirtualChannel(cfg, timing) => AnyNetwork::Vc(Network::with_instruments(
                mesh,
                timing,
                2,
                generator,
                |node| VcRouter::with_tracer(mesh, node, cfg, rng(node), router_sink.clone()),
                sink,
                metrics,
            )),
            FlowControl::FlitReservation(cfg) => AnyNetwork::Fr(Network::with_instruments(
                mesh,
                cfg.timing,
                cfg.control_lanes,
                generator,
                |node| FrRouter::with_tracer(mesh, node, cfg, rng(node), router_sink.clone()),
                sink,
                metrics,
            )),
        }
    }
}

/// A network of either router family, as [`FlowControl::build`] returns
/// it: `RS` is the routers' trace sink, `S` the network's and `M` the
/// metrics recorder. The methods forward to the wrapped [`Network`];
/// match on the variants for family-specific access (router statistics,
/// contract checkers).
pub enum AnyNetwork<RS: TraceSink = NullSink, S: TraceSink = NullSink, M: Recorder = NullRecorder> {
    /// Virtual-channel baseline.
    Vc(Network<VcRouter<RS>, S, M>),
    /// Flit-reservation.
    Fr(Network<FrRouter<RS>, S, M>),
}

macro_rules! on_net {
    ($self:ident, $net:ident => $body:expr) => {
        match $self {
            AnyNetwork::Vc($net) => $body,
            AnyNetwork::Fr($net) => $body,
        }
    };
}

/// Forwards `&self` (`ref`) or `&mut self` (`mut`) methods to the wrapped
/// network, documented as "see [`Network::<name>`]".
macro_rules! forward {
    (ref $(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        #[doc = concat!("See [`Network::", stringify!($name), "`].")]
        pub fn $name(&self, $($arg: $ty),*) $(-> $ret)? {
            on_net!(self, n => n.$name($($arg),*))
        }
    )*};
    (mut $(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
        #[doc = concat!("See [`Network::", stringify!($name), "`].")]
        pub fn $name(&mut self, $($arg: $ty),*) $(-> $ret)? {
            on_net!(self, n => n.$name($($arg),*))
        }
    )*};
}

impl<RS: TraceSink, S: TraceSink, M: Recorder> AnyNetwork<RS, S, M> {
    forward!(ref
        fn mesh() -> Mesh;
        fn now() -> Cycle;
        fn tracker() -> &DeliveryTracker;
        fn tracer() -> &S;
        fn mean_queued_flits() -> f64;
        fn control_retries() -> u64;
        fn fault_summary() -> Option<FaultSummary>;
        fn engine_profile() -> EngineProfile;
        fn state_snapshot() -> Json;
        fn state_digest() -> String;
    );
    forward!(mut
        fn cycle();
        fn run_cycles(n: u64);
        fn stop_injection();
        fn set_idle_skip(on: bool);
        fn set_fault_plan(plan: FaultPlan);
        fn set_control_error_rate(rate: f64, seed: u64);
        fn set_metrics_period(period: u64);
        fn set_telemetry_windows(log2: u32);
        fn set_profiling(on: bool);
        fn flush_metrics();
        fn metrics_mut() -> &mut M;
    );

    /// Runs the warm-up / measure / drain methodology on the sequential
    /// engine (see [`run_simulation`]).
    pub fn simulate(&mut self, sim: &SimConfig) -> RunResult {
        on_net!(self, n => run_simulation(n, sim))
    }
}

impl<RS: TraceSink, S: TraceSink, M: Recorder> AnyNetwork<RS, S, M>
where
    VcRouter<RS>: Send,
    FrRouter<RS>: Send,
{
    forward!(mut
        fn run_cycles_sharded(n: u64, threads: usize);
        fn set_shard_plan(plan: ShardPlan);
    );

    /// Steps one cycle: sequential for `threads <= 1`, sharded otherwise.
    pub fn step(&mut self, threads: usize) {
        if threads <= 1 {
            self.cycle();
        } else {
            self.run_cycles_sharded(1, threads);
        }
    }

    /// [`AnyNetwork::simulate`] on the planned engine sharded over
    /// `threads` workers (inline at 1), or on the sequential engine for
    /// `threads == 0`; bit-identical either way.
    pub fn simulate_on(&mut self, sim: &SimConfig, threads: usize) -> RunResult {
        if threads == 0 {
            return self.simulate(sim);
        }
        on_net!(self, n => run_simulation_with(n, sim, |n| n.run_cycles_sharded(1, threads)))
    }
}

/// One point of a latency-throughput curve.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load as a fraction of capacity.
    pub offered: f64,
    /// Full measurement record.
    pub result: RunResult,
}

/// A labelled latency-throughput curve.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Configuration label (`VC8`, `FR6`, ...).
    pub label: String,
    /// Points in increasing offered load.
    pub points: Vec<LoadPoint>,
}

impl Curve {
    /// Mean latency at the point closest to `offered` (`None` if that
    /// point saturated).
    pub fn latency_at(&self, offered: f64) -> Option<f64> {
        let point = self.points.iter().min_by(|a, b| {
            (a.offered - offered)
                .abs()
                .partial_cmp(&(b.offered - offered).abs())
                .expect("loads are finite")
        })?;
        point.result.completed.then(|| point.result.mean_latency())
    }

    /// Highest offered load whose run completed with latency below
    /// `latency_limit` — the measured saturation throughput.
    pub fn saturation_throughput(&self, latency_limit: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.result.completed && p.result.mean_latency() <= latency_limit)
            .map(|p| p.offered)
            .fold(0.0, f64::max)
    }

    /// Lowest measured mean latency — the base (zero-load) latency when
    /// the sweep includes a low-load point.
    pub fn base_latency(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.result.completed)
            .map(|p| p.result.mean_latency())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Sweeps `loads` (fractions of capacity) for one flow control, running
/// points across `threads` workers.
///
/// Points are handed out highest load first, so the slowest points start
/// first instead of ending the sweep on one core. Each point is still
/// seeded by its index in `loads` and stored there, so the curve is the
/// same for every dispatch order and thread count.
pub fn sweep_loads(
    flow: &FlowControl,
    mesh: Mesh,
    packet_length: u32,
    loads: &[f64],
    sim: &SimConfig,
    threads: usize,
) -> Curve {
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]));
    let run = sweep::run_parallel(&order, threads, |_, &i| {
        load_point(flow, mesh, packet_length, sim, i, loads[i])
    });
    let mut points: Vec<(usize, LoadPoint)> = order.into_iter().zip(run).collect();
    points.sort_by_key(|&(i, _)| i);
    Curve {
        label: flow.label(),
        points: points.into_iter().map(|(_, point)| point).collect(),
    }
}

/// Runs point `i` of a sweep at `fraction` of capacity, on a seed
/// derived from `sim`'s and the point's index.
fn load_point(
    flow: &FlowControl,
    mesh: Mesh,
    packet_length: u32,
    sim: &SimConfig,
    i: usize,
    fraction: f64,
) -> LoadPoint {
    let mut point_sim = *sim;
    point_sim.seed = sim.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
    LoadPoint {
        offered: fraction,
        result: flow.run(mesh, fraction, packet_length, &point_sim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::warmup::WarmupConfig;

    fn tiny_sim(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            warmup: WarmupConfig {
                min_cycles: 300,
                max_cycles: 2_000,
                window: 4,
                tolerance: 0.1,
            },
            sample_packets: 120,
            drain_cap: 8_000,
            warmup_probe_period: 16,
        }
    }

    #[test]
    fn labels_match_paper_names() {
        let vc8 = FlowControl::vc8();
        assert_eq!(vc8.label(), "VC8");
        let vc32 = FlowControl::VirtualChannel(VcConfig::vc32(), LinkTiming::fast_control());
        assert_eq!(vc32.label(), "VC32");
        let fr6 = FlowControl::fr6();
        assert_eq!(fr6.label(), "FR6");
        let fr13 = FlowControl::FlitReservation(FrConfig::fr13());
        assert_eq!(fr13.label(), "FR13");
        assert_eq!(fr6.timing().data_delay, 4);
    }

    #[test]
    fn sweep_produces_monotone_low_load_points() {
        let mesh = Mesh::new(4, 4);
        let fr6 = FlowControl::fr6();
        let curve = sweep_loads(&fr6, mesh, 5, &[0.1, 0.3], &tiny_sim(2), 1);
        assert_eq!(curve.label, "FR6");
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].result.completed);
        assert!(curve.points[1].result.completed);
        // Latency grows (weakly) with load.
        assert!(
            curve.points[0].result.mean_latency() <= curve.points[1].result.mean_latency() + 2.0
        );
        let base = curve.base_latency();
        assert!(base > 10.0 && base < 80.0);
        assert!(curve.latency_at(0.1).is_some());
    }

    #[test]
    fn highest_load_first_dispatch_keeps_the_curve() {
        let mesh = Mesh::new(4, 4);
        let fr6 = FlowControl::fr6();
        let loads = [0.3, 0.1, 0.5, 0.3, 0.2];
        let sim = tiny_sim(5);
        let index_order = sweep::run_parallel(&loads, 2, |i, &fraction| {
            load_point(&fr6, mesh, 5, &sim, i, fraction)
        });
        for threads in [1, 2] {
            let curve = sweep_loads(&fr6, mesh, 5, &loads, &sim, threads);
            assert_eq!(
                format!("{:?}", curve.points),
                format!("{index_order:?}"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn saturation_throughput_uses_latency_limit() {
        let mesh = Mesh::new(4, 4);
        let vc8 = FlowControl::vc8();
        let curve = sweep_loads(&vc8, mesh, 5, &[0.2, 0.5, 1.2], &tiny_sim(3), 1);
        let base = curve.base_latency();
        let sat = curve.saturation_throughput(base * 3.0);
        assert!(sat >= 0.2, "low load must sustain (got {sat})");
        assert!(sat < 1.2, "overload must not count as sustained");
    }
}
