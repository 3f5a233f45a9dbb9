//! Tests for the extensions beyond the paper's evaluation: the control
//! wire error/retransmission model, the plesiochronous synchronization
//! margin, bursty injection and packet-length mixes — each exercised
//! end-to-end with conservation checking.

use frfc::engine::trace::NullSink;
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::flow::{Router, RouterCounters};
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::NullRecorder;
use frfc::network::{run_simulation, AnyNetwork, FlowControl, Network, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{InjectionKind, LengthDistribution, LoadSpec, TrafficGenerator, Uniform};

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        warmup: WarmupConfig {
            min_cycles: 500,
            max_cycles: 4_000,
            window: 8,
            tolerance: 0.1,
        },
        sample_packets: 300,
        drain_cap: 20_000,
        warmup_probe_period: 32,
    }
}

fn fr_network(
    mesh: Mesh,
    cfg: FrConfig,
    load: LoadSpec,
    kind: InjectionKind,
    seed: u64,
) -> Network<FrRouter> {
    let root = Rng::from_seed(seed);
    let generator = TrafficGenerator::new(mesh, load, Box::new(Uniform), kind, root.fork(1));
    let flow = FlowControl::FlitReservation(cfg);
    match flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder) {
        AnyNetwork::Fr(net) => net,
        AnyNetwork::Vc(_) => unreachable!("an FR flow builds an FR network"),
    }
}

/// Section 5 error recovery: with control flits corrupted and
/// retransmitted, every packet is still delivered exactly once, and the
/// latency cost stays graceful at moderate error rates.
#[test]
fn control_errors_preserve_conservation() {
    let mesh = Mesh::new(6, 6);
    let load = LoadSpec::fraction_of_capacity(0.4, 5);
    let mut clean = fr_network(mesh, FrConfig::fr6(), load, InjectionKind::ConstantRate, 31);
    let r_clean = run_simulation(&mut clean, &sim(31));
    assert!(r_clean.completed);
    assert_eq!(clean.control_retries(), 0);

    let mut faulty = fr_network(mesh, FrConfig::fr6(), load, InjectionKind::ConstantRate, 31);
    faulty.set_control_error_rate(0.05, 99);
    let r_faulty = run_simulation(&mut faulty, &sim(31));
    assert!(r_faulty.completed, "5% control error rate must still drain");
    assert!(
        faulty.control_retries() > 100,
        "errors must actually fire ({} retries)",
        faulty.control_retries()
    );
    // Retransmissions delay control flits, so latency grows — but only
    // modestly at 5%.
    assert!(r_faulty.mean_latency() > r_clean.mean_latency());
    assert!(
        r_faulty.mean_latency() < r_clean.mean_latency() * 2.0,
        "degradation should be graceful: {:.1} vs {:.1}",
        r_faulty.mean_latency(),
        r_clean.mean_latency()
    );
}

/// A data flit that beats its retransmitted control flit must park in
/// the schedule list and still be delivered — errors exercise the
/// early-arrival path heavily under leading control.
#[test]
fn control_errors_with_leading_control() {
    let mesh = Mesh::new(6, 6);
    let cfg = FrConfig::fr6().with_timing(frfc::flow::LinkTiming::leading_control(1));
    let load = LoadSpec::fraction_of_capacity(0.4, 5);
    let mut net = fr_network(mesh, cfg, load, InjectionKind::ConstantRate, 32);
    net.set_control_error_rate(0.08, 7);
    let r = run_simulation(&mut net, &sim(32));
    assert!(r.completed, "leading control with errors must still drain");
    let parked: u64 = net
        .routers()
        .map(|r| {
            let mut c = RouterCounters::default();
            r.collect_counters(&mut c);
            c.parked_arrivals
        })
        .sum();
    assert!(
        parked > 0,
        "delayed control flits must force schedule-list parking"
    );
}

/// Section 5 synchronization: a plesiochronous margin holds buffers one
/// extra accounting cycle. Conservation holds; throughput can only get
/// worse, never better.
#[test]
fn sync_margin_costs_throughput_not_correctness() {
    let mesh = Mesh::new(6, 6);
    let load = LoadSpec::fraction_of_capacity(0.6, 5);
    let meso = {
        let mut net = fr_network(mesh, FrConfig::fr6(), load, InjectionKind::ConstantRate, 33);
        run_simulation(&mut net, &sim(33))
    };
    let plesio = {
        let cfg = FrConfig::fr6().with_sync_margin(1);
        let mut net = fr_network(mesh, cfg, load, InjectionKind::ConstantRate, 33);
        run_simulation(&mut net, &sim(33))
    };
    assert!(meso.completed && plesio.completed);
    assert!(
        plesio.mean_latency() >= meso.mean_latency() * 0.98,
        "margin cannot speed the network up: {:.1} vs {:.1}",
        plesio.mean_latency(),
        meso.mean_latency()
    );
}

/// Bursty on/off sources: conservation and sane latency at equal mean
/// load (burstiness raises latency vs smooth arrivals).
#[test]
fn bursty_injection_conserves_and_costs_latency() {
    let mesh = Mesh::new(6, 6);
    let load = LoadSpec::fraction_of_capacity(0.4, 5);
    let smooth = {
        let mut net = fr_network(mesh, FrConfig::fr6(), load, InjectionKind::ConstantRate, 34);
        run_simulation(&mut net, &sim(34))
    };
    let bursty = {
        let kind = InjectionKind::OnOff {
            peak_rate: 0.6,
            mean_on: 16.0,
        };
        let mut net = fr_network(mesh, FrConfig::fr6(), load, kind, 34);
        run_simulation(&mut net, &sim(34))
    };
    assert!(smooth.completed && bursty.completed);
    assert!(
        bursty.mean_latency() > smooth.mean_latency(),
        "bursts must queue: {:.1} vs {:.1}",
        bursty.mean_latency(),
        smooth.mean_latency()
    );
}

/// Bimodal packet lengths flow end-to-end: short requests and long
/// replies share the network and all are delivered.
#[test]
fn bimodal_length_mix_conserves() {
    let mesh = Mesh::new(6, 6);
    let load = LoadSpec::with_lengths(
        0.4,
        LengthDistribution::Bimodal {
            short: 1,
            long: 21,
            short_fraction: 0.75,
        },
    );
    let mut net = fr_network(
        mesh,
        FrConfig::fr13(),
        load,
        InjectionKind::ConstantRate,
        35,
    );
    let r = run_simulation(&mut net, &sim(35));
    assert!(r.completed, "mixed lengths must drain");
    assert!(r.mean_latency() > 10.0);
    // Latency spread reflects the mix: some packets are single-flit.
    assert!(r.latency.min().unwrap() < r.latency.mean());
}

/// The sync margin composes with the error model and bursty arrivals —
/// the full robustness stack still conserves packets.
#[test]
fn robustness_stack_composes() {
    let mesh = Mesh::new(4, 4);
    let cfg = FrConfig::fr6().with_sync_margin(1);
    let load = LoadSpec::with_lengths(
        0.35,
        LengthDistribution::Bimodal {
            short: 1,
            long: 9,
            short_fraction: 0.5,
        },
    );
    let kind = InjectionKind::OnOff {
        peak_rate: 0.5,
        mean_on: 8.0,
    };
    let mut net = fr_network(mesh, cfg, load, kind, 36);
    net.set_control_error_rate(0.03, 11);
    let r = run_simulation(&mut net, &sim(36));
    assert!(r.completed, "the combined configuration must drain");
}
