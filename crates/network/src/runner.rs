//! Simulation methodology: warm-up, measurement, drain.
//!
//! The paper's procedure (Section 4): warm up for at least 10,000 cycles
//! until average queue lengths stabilize, then inject a sample of packets
//! (100,000 in the paper) and run until all of them are received,
//! reporting their average latency with a 95% confidence interval, and the
//! accepted throughput as a fraction of capacity.
//!
//! On saturated loads the sample never fully drains; a configurable cap
//! bounds the run and the result is flagged `completed = false` — those
//! are the points on the vertical asymptote of the latency-throughput
//! curves.

use crate::network::PoolStat;
use crate::Network;
use noc_engine::stats::RunningStats;
use noc_engine::trace::TraceSink;
use noc_engine::warmup::{WarmupConfig, WarmupDetector};
use noc_flow::Router;
use noc_metrics::Recorder;
use noc_topology::Port;

/// Measurement methodology parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Root seed for traffic and arbitration.
    pub seed: u64,
    /// Warm-up policy (paper: minimum 10,000 cycles).
    pub warmup: WarmupConfig,
    /// Packets in the measured sample (paper: 100,000).
    pub sample_packets: u64,
    /// Extra cycles allowed after the last sample packet is injected
    /// before declaring the load saturated.
    pub drain_cap: u64,
    /// Sampling period of the warm-up signal, in cycles.
    pub warmup_probe_period: u64,
}

impl SimConfig {
    /// The paper's measurement scale. Slow — minutes per point on one
    /// core; use [`SimConfig::quick`] for exploration.
    pub fn paper_scale(seed: u64) -> Self {
        SimConfig {
            seed,
            warmup: WarmupConfig {
                min_cycles: 10_000,
                max_cycles: 50_000,
                window: 16,
                tolerance: 0.05,
            },
            sample_packets: 100_000,
            drain_cap: 100_000,
            warmup_probe_period: 64,
        }
    }

    /// A reduced scale that preserves the paper's curve shapes while
    /// running in seconds: shorter warm-up, 3,000-packet samples.
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            seed,
            warmup: WarmupConfig {
                min_cycles: 2_000,
                max_cycles: 12_000,
                window: 8,
                tolerance: 0.05,
            },
            sample_packets: 3_000,
            drain_cap: 30_000,
            warmup_probe_period: 32,
        }
    }

    /// A smoke-test scale that keeps only the curves' rough shapes:
    /// 800-packet samples behind a warm-up of at most 6,000 cycles.
    pub fn tiny(seed: u64) -> Self {
        SimConfig {
            seed,
            warmup: WarmupConfig {
                min_cycles: 1_000,
                max_cycles: 6_000,
                window: 8,
                tolerance: 0.08,
            },
            sample_packets: 800,
            drain_cap: 20_000,
            warmup_probe_period: 32,
        }
    }
}

/// Everything measured in one simulation run at one offered load.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Offered load as a fraction of capacity.
    pub offered_fraction: f64,
    /// Packet length in flits.
    pub packet_length: u32,
    /// Latency statistics over delivered sample packets (cycles).
    pub latency: RunningStats,
    /// Accepted throughput during the injection window, in flits per node
    /// per cycle.
    pub accepted_flits_per_node_cycle: f64,
    /// Accepted throughput as a fraction of capacity.
    pub accepted_fraction: f64,
    /// `true` when every sample packet was delivered before the drain cap
    /// — `false` marks a saturated point.
    pub completed: bool,
    /// Cycle the measurement window opened.
    pub measure_start: u64,
    /// Cycle the run ended.
    pub end_cycle: u64,
    /// Fraction of measured cycles the probed buffer pool — the West
    /// input pool of the mesh-centre router — was full (Section 4.2).
    pub probe_full_fraction: f64,
    /// Mean occupancy of the probed pool (0..=1) over the measured
    /// cycles.
    pub probe_mean_occupancy: f64,
    /// Sample packets delivered.
    pub delivered: u64,
    /// Median sample latency in cycles (`None` when it falls beyond the
    /// histogram range or nothing was delivered).
    pub p50_latency: Option<u64>,
    /// 95th-percentile sample latency in cycles.
    pub p95_latency: Option<u64>,
    /// 99th-percentile sample latency in cycles.
    pub p99_latency: Option<u64>,
}

impl RunResult {
    /// Mean latency in cycles (`f64::INFINITY` when nothing was
    /// delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.latency.count() == 0 {
            f64::INFINITY
        } else {
            self.latency.mean()
        }
    }
}

/// Runs the full warm-up / measure / drain procedure on `network`.
///
/// # Panics
///
/// Panics if `sim.sample_packets` is zero.
pub fn run_simulation<R: Router, S: TraceSink, M: Recorder>(
    network: &mut Network<R, S, M>,
    sim: &SimConfig,
) -> RunResult {
    run_simulation_with(network, sim, |n| n.cycle())
}

/// Shared body of the run harness: the methodology is identical whichever
/// way one cycle is stepped. The sharded engine's hand-off protocol makes
/// every cycle bit-identical to sequential stepping, so sharded `step`s
/// return the same [`RunResult`] and fill any registry identically.
pub(crate) fn run_simulation_with<R: Router, S: TraceSink, M: Recorder>(
    network: &mut Network<R, S, M>,
    sim: &SimConfig,
    mut step: impl FnMut(&mut Network<R, S, M>),
) -> RunResult {
    assert!(sim.sample_packets > 0, "need a non-empty sample");
    let offered_fraction = network.generator().load().fraction();
    let packet_length = network.generator().load().packet_length();
    let capacity = network.mesh().capacity_flits_per_node_cycle();
    let nodes = network.mesh().node_count() as f64;

    // Phase 1: warm up until the mean queue length stabilizes.
    let mut detector = WarmupDetector::new(sim.warmup);
    loop {
        step(network);
        if network.now().raw().is_multiple_of(sim.warmup_probe_period)
            && detector.observe(network.now(), network.mean_queued_flits())
        {
            break;
        }
    }
    let measure_start = network.now().raw();

    // Phase 2: inject the measured sample. From here on every cycle also
    // samples the occupancy probe: the West input pool of the mesh-centre
    // router.
    network.set_measuring(true);
    let mesh = network.mesh();
    let centre = mesh.node_at(mesh.width() / 2, mesh.height() / 2);
    let mut probe = PoolStat::default();
    let mut measured_step = |network: &mut Network<R, S, M>| {
        step(network);
        let r = network.router(centre);
        let cap = r.data_buffer_capacity(Port::West).max(1);
        probe.sample(r.occupied_data_buffers(Port::West), cap);
    };
    let already_delivered = network.tracker().delivered_flits();
    let mut injected_all_at = None;
    while injected_all_at.is_none() {
        measured_step(network);
        let measured_total =
            network.tracker().measured_delivered() + network.tracker().measured_outstanding();
        if measured_total >= sim.sample_packets {
            network.set_measuring(false);
            injected_all_at = Some(network.now().raw());
        }
    }
    let injection_end = injected_all_at.expect("loop exits with a value");
    let injection_window = (injection_end - measure_start).max(1);
    let accepted_flits = network.tracker().delivered_flits() - already_delivered;
    let accepted_flits_per_node_cycle = accepted_flits as f64 / (nodes * injection_window as f64);

    // Phase 3: drain until the sample is delivered or the cap fires.
    let mut completed = true;
    let drain_deadline = injection_end + sim.drain_cap;
    while network.tracker().measured_outstanding() > 0 {
        if network.now().raw() >= drain_deadline {
            completed = false;
            break;
        }
        measured_step(network);
    }

    // Phase 2 steps at least once, so no probe divides by zero.
    let end_cycle = network.now().raw();
    let measured_cycles = (end_cycle - measure_start) as f64;
    let hist = network.tracker().latency_histogram();
    let (p50_latency, p95_latency, p99_latency) = if hist.count() > 0 {
        (hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99))
    } else {
        (None, None, None)
    };
    let result = RunResult {
        offered_fraction,
        packet_length,
        latency: network.tracker().latency().clone(),
        accepted_flits_per_node_cycle,
        accepted_fraction: accepted_flits_per_node_cycle / capacity,
        completed,
        measure_start,
        end_cycle,
        probe_full_fraction: probe.full_cycles as f64 / measured_cycles,
        probe_mean_occupancy: probe.occ_sum / measured_cycles,
        delivered: network.tracker().measured_delivered(),
        p50_latency,
        p95_latency,
        p99_latency,
    };

    // Close out the metrics registry: run-level context gauges first, then
    // everything the network accumulated. No-ops under the null recorder.
    network.metrics_record(|reg| {
        reg.gauge_set("run.offered_fraction", result.offered_fraction);
        reg.gauge_set("run.accepted_fraction", result.accepted_fraction);
        reg.gauge_set("run.mean_latency", result.mean_latency());
        reg.gauge_set("run.latency_ci95", result.latency.ci95_half_width());
        reg.gauge_set("run.completed", if result.completed { 1.0 } else { 0.0 });
        reg.counter_set("run.delivered_packets", result.delivered);
        reg.counter_set("run.packet_length", result.packet_length as u64);
        reg.counter_set("run.measure_start", result.measure_start);
        reg.counter_set("run.end_cycle", result.end_cycle);
        for (name, q) in [
            ("run.p50_latency", result.p50_latency),
            ("run.p95_latency", result.p95_latency),
            ("run.p99_latency", result.p99_latency),
        ] {
            if let Some(v) = q {
                reg.counter_set(name, v);
            }
        }
    });
    network.flush_metrics();
    result
}

#[cfg(test)]
mod tests {
    use crate::{FlowControl, RunSpec, SimConfig};
    use noc_topology::Mesh;

    /// The Section 4.2 occupancy probe (the mesh-centre router's West
    /// pool over the measurement window) and the run length, pinned bit
    /// for bit on the sequential engine and on a metered run sharded over
    /// two threads.
    #[test]
    fn occupancy_probe_is_pinned() {
        for (flow, full, mean, end) in [
            (
                FlowControl::vc8(),
                0x3fb1_5062_efec_366a,
                0x3fd9_0ed7_303b_5cc1,
                4216,
            ),
            (
                FlowControl::fr6(),
                0x3fd9_3193_1931_9319,
                0x3fe0_e4a3_9f8f_4e54,
                2284,
            ),
        ] {
            let label = flow.label();
            let plain = RunSpec::new(flow, Mesh::new(8, 8), 0.55, 21, SimConfig::tiny(2000));
            let metered = RunSpec {
                metrics_period: Some(64),
                threads: 2,
                ..plain.clone()
            };
            for spec in [plain, metered] {
                let r = spec.run().expect("valid spec").result.expect("a result");
                let probe = (r.probe_full_fraction, r.probe_mean_occupancy);
                assert_eq!(
                    (probe.0.to_bits(), probe.1.to_bits(), r.end_cycle),
                    (full, mean, end),
                    "{label} at {} threads: probe {probe:?}",
                    spec.threads
                );
            }
        }
    }
}
