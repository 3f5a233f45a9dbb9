//! Windowed-telemetry dashboard and parallel-engine runtime profile.
//!
//! Runs FR6 below and near saturation with the windowed telemetry layer
//! armed, renders a per-window text dashboard (sparklines for offered /
//! ejected flits, p95 latency and mean buffer occupancy), detects the
//! saturation onset (the first window whose offered flits exceed its
//! ejected flits by more than 5%), and prints the engine's wall-clock
//! profile at 1, 4 and 8 worker threads — naming the top consumers and
//! asserting that named phases account for at least 95% of the measured
//! cycle wall-clock.
//!
//! Sidecars land in the results directory (`FRFC_RESULTS_DIR`, default
//! `results/`): `telemetry.metrics.json` (full registry export, windows
//! included), `telemetry.profile.json` and `telemetry.trace.json`.
//!
//! Flags:
//!
//! * `--quick` — tiny scale and 128-cycle windows, so CI finishes in
//!   seconds. The export's schema, window sums and thread-count
//!   determinism are checked by `tests/telemetry.rs`.

use noc_bench::report::{results_dir, write_chrome_trace, write_metrics_json};
use noc_bench::{seed_from_env, Scale};
use noc_metrics::{write_json_file, MetricsRegistry};
use noc_network::{EngineProfile, FlowControl, RunSpec};
use noc_topology::Mesh;

/// `spec` run with telemetry windows of `2^window_log2` cycles on
/// `threads` workers: the registry (windows included) and the engine
/// profile.
fn telemetry(spec: &RunSpec, window_log2: u32, threads: usize) -> (MetricsRegistry, EngineProfile) {
    let out = RunSpec {
        threads,
        metrics_period: Some(0),
        telemetry_window_log2: Some(window_log2),
        ..spec.clone()
    }
    .run()
    .expect("telemetry specs are valid");
    (
        out.registry.expect("metered run"),
        out.profile.expect("telemetry run"),
    )
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a sparkline normalized to the row maximum.
fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARK[0]
            } else {
                let idx = ((v / max) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// Aligned per-window (offered, ejected) pairs from a registry, dense
/// over the union of both series' windows.
fn offered_vs_ejected(reg: &MetricsRegistry) -> Vec<(u64, f64, f64)> {
    let (Some(off), Some(ej)) = (
        reg.window("net.offered_flits"),
        reg.window("net.ejected_flits"),
    ) else {
        return Vec::new();
    };
    let start = off.start.min(ej.start);
    let end = (off.start + off.values.len() as u64).max(ej.start + ej.values.len() as u64);
    let at = |s: &noc_metrics::WindowSeries, w: u64| -> f64 {
        if w < s.start {
            return 0.0;
        }
        s.values.get((w - s.start) as usize).copied().unwrap_or(0.0)
    };
    (start..end).map(|w| (w, at(off, w), at(ej, w))).collect()
}

/// The first window (skipping the pipeline-fill window) whose offered
/// flits exceed its ejected flits by more than 5%, sustained into the
/// next injecting window. `None` below saturation.
fn saturation_onset(pairs: &[(u64, f64, f64)]) -> Option<u64> {
    let deficit = |o: f64, e: f64| o > 0.0 && (o - e) > 0.05 * o;
    pairs.windows(2).skip(1).find_map(|p| {
        let (w, o, e) = p[0];
        let (_, o2, e2) = p[1];
        // Sustained: the next window is either also in deficit or has
        // stopped injecting (the run saturated and moved to drain).
        (deficit(o, e) && (deficit(o2, e2) || o2 == 0.0)).then_some(w)
    })
}

fn print_dashboard(label: &str, load: f64, reg: &MetricsRegistry) {
    let window_cycles = reg
        .window("net.offered_flits")
        .map_or(0, |w| 1u64 << w.log2);
    println!("\n=== {label} @ {:.0}% load ===", load * 100.0);
    println!(
        "  {} windows of {window_cycles} cycles each",
        reg.window("net.offered_flits")
            .map_or(0, |w| w.values.len())
    );
    for (name, title) in [
        ("net.offered_flits", "offered flits "),
        ("net.ejected_flits", "ejected flits "),
        ("latency.p95", "latency p95   "),
        ("net.mean_occupancy", "mean occupancy"),
    ] {
        if let Some(w) = reg.window(name) {
            let max = w.values.iter().cloned().fold(0.0f64, f64::max);
            println!("  {title} {}  (max {max:.1})", sparkline(&w.values));
        }
    }
    let pairs = offered_vs_ejected(reg);
    match saturation_onset(&pairs) {
        Some(w) => println!(
            "  saturation onset: window {w} (cycle {}) — offered exceeds ejected by >5%",
            w * window_cycles
        ),
        None => println!("  saturation onset: none — accepted tracks offered in every window"),
    }
    // High-water marks from the blackbox gauges: the worst instantaneous
    // pressure the run ever saw, which time-averaged occupancy hides.
    let mut peaks: Vec<String> = Vec::new();
    for (name, label) in [
        ("net.peak_buffer_occupancy", "buffer occupancy"),
        ("total.bookings_in_flight_peak", "bookings in flight"),
        ("fault.retransmit_peak", "retransmit depth"),
    ] {
        let v = reg.counter(name);
        if v > 0 {
            peaks.push(format!("{label} {v}"));
        }
    }
    if !peaks.is_empty() {
        println!("  peaks: {}", peaks.join(", "));
    }
}

fn print_profile(p: &EngineProfile) {
    let ms = |ns: u64| ns as f64 / 1.0e6;
    println!(
        "  threads {} | {} cycles | cycle wall {:.1} ms | attribution {:.1}% | worker idle {:.1}%",
        p.threads,
        p.cycles,
        ms(p.cycle_wall_ns),
        p.attributed_fraction() * 100.0,
        p.worker_idle_fraction() * 100.0
    );
    let host_cpus = noc_metrics::host_cpu_count();
    if p.threads > host_cpus {
        println!(
            "  warning: {} worker threads requested but the host reports only {host_cpus} \
             cpu(s) — wall-clock numbers include oversubscription, not real speedup",
            p.threads
        );
    }
    let top: Vec<String> = p
        .top_consumers()
        .into_iter()
        .take(5)
        .map(|(name, ns)| format!("{name} {:.1}ms", ms(ns)))
        .collect();
    println!("  top consumers: {}", top.join(", "));
    if p.rounds > 0 {
        println!(
            "  pool: {} rounds, barrier wait {:.1} ms, lock acquires {} ({:.1} ms held up)",
            p.rounds,
            ms(p.barrier_wait_ns),
            p.lock_count.iter().sum::<u64>(),
            ms(p.lock_ns.iter().sum::<u64>())
        );
    }
    assert!(
        p.attributed_fraction() >= 0.95,
        "profiler attributes only {:.1}% of engine wall-clock at {} threads (need >= 95%)",
        p.attributed_fraction() * 100.0,
        p.threads
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale::Tiny
    } else {
        Scale::from_env()
    };
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    let mesh = Mesh::new(8, 8);
    let fc = FlowControl::fr6();
    let window_log2 = if quick { 7 } else { 9 };
    println!(
        "telemetry_report | scale {} | seed {seed} | windows of {} cycles",
        scale.name(),
        1u64 << window_log2
    );

    // Dashboard: one sub-saturation point and one past the knee.
    let mut sidecar = None;
    for load in [0.55, 0.95] {
        let run = telemetry(
            &RunSpec::new(fc.clone(), mesh, load, 5, sim),
            window_log2,
            1,
        );
        print_dashboard(&fc.label(), load, &run.0);
        sidecar = Some(run);
    }

    // Runtime profile across thread counts.
    let base = RunSpec::new(fc.clone(), mesh, 0.55, 5, sim);
    println!("\n=== engine profile ===");
    for threads in [1usize, 4, 8] {
        let (_, profile) = telemetry(&base, window_log2, threads);
        print_profile(&profile);
    }

    // Sidecars: the near-saturation dashboard run, windows included.
    if let Some((registry, profile)) = sidecar {
        let mut manifest = noc_bench::report::manifest("telemetry", scale, seed, &fc.label());
        manifest.threads = 1;
        write_metrics_json(&manifest, &registry);
        let profile_path = results_dir().join("telemetry.profile.json");
        match write_json_file(&profile_path, &profile.to_json()) {
            Ok(()) => println!("[sidecar] wrote {}", profile_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", profile_path.display()),
        }
        write_chrome_trace("telemetry", &profile.chrome_trace());
    }
}
