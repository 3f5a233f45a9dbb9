//! Quick health check: base latencies and knee positions for the four
//! headline configurations (internal validation harness).
//!
//! Flags:
//!
//! * `--quick` — a much smaller sample so CI finishes in seconds;
//! * `--metrics` — additionally run metered VC8/FR6 points at 50% load
//!   and write their `smoke_{vc8,fr6}.metrics.json` sidecars. The export
//!   contract those files follow is checked by `tests/metrics.rs`.

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_metrics_json};
use noc_bench::{seed_from_env, Scale};
use noc_flow::LinkTiming;
use noc_network::{FlowControl, RunSpec, SimConfig};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn health_check(sim: &SimConfig, loads: &[f64], lead_loads: &[f64]) {
    let mesh = Mesh::new(8, 8);
    let fast = LinkTiming::fast_control();
    let lead = LinkTiming::leading_control(1);
    println!("fast control, 5-flit (paper base: VC 32, FR 27):");
    for (name, fc) in [
        ("VC8", FlowControl::VirtualChannel(VcConfig::vc8(), fast)),
        ("VC16", FlowControl::VirtualChannel(VcConfig::vc16(), fast)),
        ("FR6", FlowControl::fr6()),
        ("FR13", FlowControl::FlitReservation(FrConfig::fr13())),
    ] {
        print!("{name}:");
        for &frac in loads {
            let r = fc.run(mesh, frac, 5, sim);
            if r.completed {
                print!("  {:.0}%:{:.0}", frac * 100.0, r.mean_latency());
            } else {
                print!("  {:.0}%:SAT", frac * 100.0);
            }
        }
        println!();
    }
    println!("leading control lead=1, 5-flit (paper base: both 15; 50%: FR 19 VC 21):");
    for (name, fc) in [
        (
            "VC8",
            FlowControl::VirtualChannel(VcConfig::vc8(), lead.vc_baseline_of()),
        ),
        (
            "FR6",
            FlowControl::FlitReservation(FrConfig::fr6().with_timing(lead)),
        ),
    ] {
        print!("{name}:");
        for &frac in lead_loads {
            let r = fc.run(mesh, frac, 5, sim);
            if r.completed {
                print!("  {:.0}%:{:.0}", frac * 100.0, r.mean_latency());
            } else {
                print!("  {:.0}%:SAT", frac * 100.0);
            }
        }
        println!();
    }
}

/// Writes the metered VC8/FR6 sidecars `results/smoke_{vc8,fr6}.metrics.json`
/// at 50% offered load.
fn write_metrics(scale: Scale, seed: u64, sim: &SimConfig) {
    let mesh = Mesh::new(8, 8);
    for fc in [FlowControl::vc8(), FlowControl::fr6()] {
        let label = fc.label();
        let registry = RunSpec {
            metrics_period: Some(64),
            ..RunSpec::new(fc, mesh, 0.5, 5, *sim)
        }
        .run()
        .expect("smoke specs are valid")
        .registry
        .expect("metered run");
        let m = manifest(
            &format!("smoke_{}", label.to_lowercase()),
            scale,
            seed,
            &label,
        );
        write_metrics_json(&m, &registry);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    if let Some(unknown) = args.iter().find(|a| *a != "--quick" && *a != "--metrics") {
        eprintln!("unknown flag {unknown}; usage: smoke [--quick] [--metrics]");
        std::process::exit(2);
    }

    let seed = seed_from_env();
    let scale = if quick {
        Scale::Tiny
    } else {
        Scale::from_env()
    };
    let mut sim = SimConfig::quick(7);
    if quick {
        sim = Scale::Tiny.sim(7);
        sim.sample_packets = 400;
    } else {
        sim.sample_packets = 1500;
    }

    if quick {
        health_check(&sim, &[0.05, 0.5, 0.7], &[0.05, 0.5]);
    } else {
        health_check(
            &sim,
            &[0.05, 0.5, 0.63, 0.70, 0.77, 0.85],
            &[0.05, 0.5, 0.65, 0.75],
        );
    }

    if metrics {
        let mut msim = scale.sim(seed);
        if quick {
            msim.sample_packets = msim.sample_packets.min(600);
        }
        write_metrics(scale, seed, &msim);
    }
}
