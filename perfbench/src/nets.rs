//! Building the networks the workloads run, through the simulator's
//! public constructors, and the output checks every run applies.

use crate::traced::{CallStats, Traced};
use flit_reservation::{FrConfig, FrRouter};
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_faults::FaultPlan;
use noc_flow::{LinkTiming, Router, RouterCounters};
use noc_metrics::{MetricsRegistry, RunManifest};
use noc_network::{run_simulation, EngineProfile, FaultSummary, Network, RunResult, SimConfig};
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};
use noc_vc::{VcConfig, VcRouter};

/// Flits per packet in every workload (the paper's 5-flit packets).
pub const PACKET_FLITS: u32 = 5;

/// Traffic stream fork of the root seed; the same constant as the
/// simulator's experiment harness, so sweep points match `table3`.
pub const TRAFFIC_STREAM: u64 = 0x7261_6666_6963;

/// The two router families the paper compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Virtual-channel baseline, 8 buffers per input.
    Vc8,
    /// Flit-reservation flow control, 6 buffers per input.
    Fr6,
}

impl Family {
    /// Both families, in the order every workload runs them.
    pub const BOTH: [Family; 2] = [Family::Vc8, Family::Fr6];

    /// Metric-name key: `vc8` or `fr6`.
    pub fn key(self) -> &'static str {
        match self {
            Family::Vc8 => "vc8",
            Family::Fr6 => "fr6",
        }
    }

    /// Name of the crate (layer) that implements the family's router.
    pub fn layer(self) -> &'static str {
        match self {
            Family::Vc8 => "vc",
            Family::Fr6 => "flit-reservation",
        }
    }
}

/// Everything that determines a network's inputs.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Router family.
    pub family: Family,
    /// Mesh size.
    pub mesh: Mesh,
    /// Offered load as a fraction of capacity.
    pub load: f64,
    /// Root seed of the traffic and router RNG forks.
    pub seed: u64,
    /// 1-cycle leading control instead of fast control.
    pub lead: bool,
}

/// How a network is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Null recorder: what users run for plain simulations.
    Plain,
    /// A `MetricsRegistry` recorder.
    Metered,
    /// A `MetricsRegistry` recorder, the runtime profiler on, and every
    /// router wrapped in [`Traced`].
    Traced,
}

type Metered<R> = Network<R, NullSink, MetricsRegistry>;

/// A network of either family under any instrumentation.
pub enum Net {
    Vc(Network<VcRouter>),
    Fr(Network<FrRouter>),
    VcMetered(Metered<VcRouter>),
    FrMetered(Metered<FrRouter>),
    VcTraced(Metered<Traced<VcRouter>>),
    FrTraced(Metered<Traced<FrRouter>>),
}

/// Applies one expression to whichever network `net` holds.
macro_rules! on {
    ($net:expr, $n:ident => $body:expr) => {
        match $net {
            Net::Vc($n) => $body,
            Net::Fr($n) => $body,
            Net::VcMetered($n) => $body,
            Net::FrMetered($n) => $body,
            Net::VcTraced($n) => $body,
            Net::FrTraced($n) => $body,
        }
    };
}

fn metered<R: Router>(
    mesh: Mesh,
    timing: LinkTiming,
    lanes: u32,
    generator: TrafficGenerator,
    make: impl FnMut(noc_topology::NodeId) -> R,
) -> Metered<R> {
    Network::with_instruments(
        mesh,
        timing,
        lanes,
        generator,
        make,
        NullSink,
        MetricsRegistry::new(),
    )
}

fn router_counters<'a, R: Router + 'a>(routers: impl Iterator<Item = &'a R>) -> RouterCounters {
    let mut total = RouterCounters::default();
    for r in routers {
        let mut c = RouterCounters::default();
        r.collect_counters(&mut c);
        total.absorb(&c);
    }
    total
}

fn call_stats<'a, R: 'a>(routers: impl Iterator<Item = &'a Traced<R>>) -> CallStats {
    let mut total = CallStats::default();
    for r in routers {
        total.absorb(r.stats());
    }
    total
}

impl Net {
    /// Builds the network `spec` describes.
    pub fn build(spec: &NetSpec, instr: Instr) -> Net {
        let mesh = spec.mesh;
        let root = Rng::from_seed(spec.seed);
        let load = LoadSpec::fraction_of_capacity(spec.load, PACKET_FLITS);
        let generator = TrafficGenerator::uniform(mesh, load, root.fork(TRAFFIC_STREAM));
        let fork = |node: noc_topology::NodeId| root.fork(node.raw() as u64);
        let lead = LinkTiming::leading_control(1);
        let mut net = match spec.family {
            Family::Vc8 => {
                let timing = if spec.lead {
                    lead.vc_baseline_of()
                } else {
                    LinkTiming::fast_control()
                };
                let make = |n| VcRouter::new(mesh, n, VcConfig::vc8(), fork(n));
                match instr {
                    Instr::Plain => Net::Vc(Network::new(mesh, timing, 2, generator, make)),
                    Instr::Metered => Net::VcMetered(metered(mesh, timing, 2, generator, make)),
                    Instr::Traced => Net::VcTraced(metered(mesh, timing, 2, generator, |n| {
                        Traced::new(make(n))
                    })),
                }
            }
            Family::Fr6 => {
                let cfg = if spec.lead {
                    FrConfig::fr6().with_timing(lead)
                } else {
                    FrConfig::fr6()
                };
                let (timing, lanes) = (cfg.timing, cfg.control_lanes);
                let make = |n| FrRouter::new(mesh, n, cfg, fork(n));
                match instr {
                    Instr::Plain => Net::Fr(Network::new(mesh, timing, lanes, generator, make)),
                    Instr::Metered => Net::FrMetered(metered(mesh, timing, lanes, generator, make)),
                    Instr::Traced => Net::FrTraced(metered(mesh, timing, lanes, generator, |n| {
                        Traced::new(make(n))
                    })),
                }
            }
        };
        if instr == Instr::Traced {
            // Series sampling is a metrics feature, not part of the trace.
            on!(&mut net, n => {
                n.set_metrics_period(0);
                n.set_profiling(true);
            });
        }
        net
    }

    /// Steps `cycles` cycles on the calling thread.
    pub fn run_cycles(&mut self, cycles: u64) {
        on!(self, n => n.run_cycles(cycles))
    }

    /// Steps `cycles` cycles sharded over `threads` workers.
    pub fn run_cycles_sharded(&mut self, cycles: u64, threads: usize) {
        on!(self, n => n.run_cycles_sharded(cycles, threads))
    }

    /// The paper's warm-up / measure / drain methodology.
    pub fn run_simulation(&mut self, sim: &SimConfig) -> RunResult {
        on!(self, n => run_simulation(n, sim))
    }

    /// Digest of the complete simulation state.
    pub fn state_digest(&self) -> String {
        on!(self, n => n.state_digest())
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        on!(self, n => n.now().raw())
    }

    /// Routers in the network.
    pub fn routers(&self) -> u64 {
        on!(self, n => n.mesh().node_count() as u64)
    }

    /// Flits delivered so far.
    pub fn delivered_flits(&self) -> u64 {
        on!(self, n => n.tracker().delivered_flits())
    }

    /// Packets fully delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        on!(self, n => n.tracker().delivered_packets())
    }

    /// Measured-sample packets not yet delivered.
    pub fn measured_outstanding(&self) -> u64 {
        on!(self, n => n.tracker().measured_outstanding())
    }

    /// Router event counters summed over the mesh.
    pub fn counters(&self) -> RouterCounters {
        on!(self, n => router_counters(n.routers()))
    }

    /// Decorator statistics summed over the mesh (traced networks only).
    pub fn call_stats(&self) -> Option<CallStats> {
        match self {
            Net::VcTraced(n) => Some(call_stats(n.routers())),
            Net::FrTraced(n) => Some(call_stats(n.routers())),
            _ => None,
        }
    }

    /// The runtime profile (all zeros unless profiling is on).
    pub fn engine_profile(&self) -> EngineProfile {
        on!(self, n => n.engine_profile())
    }

    /// Installs a fault plan.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        on!(self, n => n.set_fault_plan(plan.clone()))
    }

    /// The fault layer's activity, if a plan is armed.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        on!(self, n => n.fault_summary())
    }

    /// Arms series sampling every `period` cycles and windowed telemetry
    /// in windows of `1 << log2` cycles (no-ops without a registry).
    pub fn arm_telemetry(&mut self, period: u64, log2: u32) {
        on!(self, n => {
            n.set_metrics_period(period);
            n.set_telemetry_windows(log2);
        })
    }

    /// Folds the run into the metrics registry, then renders the
    /// registry's export; returns the export's size in bytes (0 without a
    /// registry).
    pub fn flush_and_export(&mut self, manifest: &RunManifest) -> usize {
        fn export<R: Router>(n: &mut Metered<R>, manifest: &RunManifest) -> usize {
            n.flush_metrics();
            n.metrics().to_json(manifest).render().len()
        }
        match self {
            Net::Vc(_) | Net::Fr(_) => 0,
            Net::VcMetered(n) => export(n, manifest),
            Net::FrMetered(n) => export(n, manifest),
            Net::VcTraced(n) => export(n, manifest),
            Net::FrTraced(n) => export(n, manifest),
        }
    }

    /// Conservation and exactly-once delivery, from the public tracker:
    /// every created packet is delivered or still in flight (in the
    /// network or queued at its source), and the delivered flits are
    /// exactly the delivered packets' flits plus part of the in-flight
    /// ones, never more.
    pub fn check_conservation(&self) -> Result<(), String> {
        let (created, delivered, in_flight, flits) = on!(self, n => (
            n.generator().created(),
            n.tracker().delivered_packets(),
            n.tracker().in_flight() as u64,
            n.tracker().delivered_flits(),
        ));
        if created != delivered + in_flight {
            return Err(format!(
                "created {created} != delivered {delivered} + in flight {in_flight}"
            ));
        }
        let whole = delivered * PACKET_FLITS as u64;
        let partial_max = in_flight * (PACKET_FLITS as u64 - 1);
        if flits < whole || flits - whole > partial_max {
            return Err(format!(
                "{flits} flits delivered for {delivered} packets + {in_flight} in flight"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(family: Family) -> NetSpec {
        NetSpec {
            family,
            mesh: Mesh::new(4, 4),
            load: 0.6,
            seed: 7,
            lead: false,
        }
    }

    fn all_router_views<R: Router>(
        n: &Network<R, impl noc_engine::trace::TraceSink, impl noc_metrics::Recorder>,
    ) -> Vec<String> {
        use noc_topology::Port;
        n.routers()
            .map(|r| {
                let ports: Vec<(usize, usize)> = Port::ALL
                    .iter()
                    .map(|&p| (r.occupied_data_buffers(p), r.data_buffer_capacity(p)))
                    .collect();
                format!(
                    "{} {:?} {} {} {}",
                    r.node().raw(),
                    ports,
                    r.queued_flits(),
                    r.is_idle(),
                    r.bookings_in_flight()
                )
            })
            .collect()
    }

    fn views(net: &Net) -> Vec<String> {
        on!(net, n => all_router_views(n))
    }

    /// Runs the same network wrapped and unwrapped and compares every
    /// read-only trait method plus the full state digest.
    fn wrapped_equals_unwrapped(family: Family, threads: usize, faults: bool) {
        let s = spec(family);
        let mut plain = Net::build(&s, Instr::Metered);
        let mut traced = Net::build(&s, Instr::Traced);
        if faults {
            // Transient faults plus a dead link, so `on_link_dead` and the
            // retransmission path run through the decorator too.
            let plan = FaultPlan::randomized(11, s.mesh);
            plain.set_fault_plan(&plan);
            traced.set_fault_plan(&plan);
        }
        for net in [&mut plain, &mut traced] {
            if threads > 1 {
                net.run_cycles_sharded(700, threads);
            } else {
                net.run_cycles(700);
            }
        }
        assert_eq!(plain.state_digest(), traced.state_digest());
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(views(&plain), views(&traced));
        let stats = traced.call_stats().expect("traced network");
        assert!(stats.step.calls > 0 && stats.receive.calls > 0 && stats.inject.calls > 0);
        if !faults {
            assert_eq!(stats.ejections, traced.delivered_flits());
        }
        plain.check_conservation().expect("plain conserves");
        traced.check_conservation().expect("traced conserves");
    }

    #[test]
    fn decorator_is_transparent_sequential() {
        for family in Family::BOTH {
            wrapped_equals_unwrapped(family, 1, false);
        }
    }

    #[test]
    fn decorator_is_transparent_sharded() {
        for family in Family::BOTH {
            wrapped_equals_unwrapped(family, 2, false);
        }
    }

    #[test]
    fn decorator_is_transparent_under_faults() {
        for family in Family::BOTH {
            wrapped_equals_unwrapped(family, 1, true);
            wrapped_equals_unwrapped(family, 2, true);
        }
    }

    #[test]
    fn plain_and_metered_networks_share_a_digest() {
        for family in Family::BOTH {
            let mut a = Net::build(&spec(family), Instr::Plain);
            let mut b = Net::build(&spec(family), Instr::Metered);
            a.run_cycles(300);
            b.run_cycles_sharded(300, 2);
            assert_eq!(a.state_digest(), b.state_digest());
        }
    }
}
