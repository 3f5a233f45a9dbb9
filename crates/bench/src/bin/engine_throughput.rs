//! Stepping-engine throughput baseline: simulated cycles per second.
//!
//! Measures the raw speed of the phase-separated stepping engine —
//! *simulated network cycles per wall-clock second* — for the VC
//! baseline and the FR router at low, moderate and near-saturation
//! offered loads, in three engine modes:
//!
//! * `step-all` — idle-skipping off: every router steps every cycle.
//!   This is the reference engine (the behaviour of the pre-refactor
//!   interleaved loop) and the denominator for speedups;
//! * `idle-skip` — the default: quiescent routers are skipped via the
//!   wake-list. At low load most of the mesh is asleep most cycles, so
//!   this is where the win concentrates;
//! * `sharded(2)` — idle-skip plus the shard-local phases (deliver,
//!   offers, steps, and the intra-shard half of apply) running
//!   concurrently on 2 persistent pool workers with cross-shard flits
//!   handed over at the phase barrier. The width is fixed, not taken
//!   from the host, so every host writes the same row keys; 2 is the
//!   width perfbench's sharded workload uses.
//!
//! All modes produce bit-identical traces (enforced by
//! `tests/engine_equivalence.rs` and `tests/parallel_equivalence.rs`);
//! this harness only times them. After the warm-up, each row times its
//! measured cycles as five consecutive blocks and reports the median
//! block's rate, so one stretch of host noise moves a row less than it
//! would move a single timed sample.
//!
//! After the 8×8 matrix comes the **scaling sweep**: a 16×16 mesh at
//! near-saturation load stepped with 1, 2, 4 and 8 threads
//! (`scale(N)` rows). This is the headline multi-core measurement —
//! cycles/sec versus thread count where per-router work actually
//! dominates the barrier. Speedup tracks *physical cores*: on a
//! single-core host the sweep documents the hand-off overhead floor
//! instead (expect ≈1× or slightly below), which is still exactly what
//! the regression gate wants pinned.
//!
//! Results print as a table and are written to `BENCH_engine.json` in
//! the working directory, with the host's core count (`host_cpus`) in
//! the header, so successive commits can be compared
//! (`bench_compare` gates every row the host has the cores for, the
//! scaling sweep included). Pass
//! `--quick` (or set `FRFC_SCALE=tiny`) for a seconds-long smoke run —
//! CI uses this to keep the harness from bit-rotting.

use noc_bench::{seed_from_env, Scale};
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_metrics::NullRecorder;
use noc_network::{AnyNetwork, FlowControl};
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};
use std::time::Instant;

/// One measured configuration.
struct Row {
    router: &'static str,
    load: f64,
    mode: String,
    threads: usize,
    cycles: u64,
    cycles_per_sec: f64,
}

/// Engine mode under test.
#[derive(Clone, Copy)]
enum Mode {
    StepAll,
    IdleSkip,
    Sharded(usize),
    /// Scaling-sweep row: sharded stepping on the 16×16 mesh.
    Scale(usize),
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::StepAll => "step-all".into(),
            Mode::IdleSkip => "idle-skip".into(),
            Mode::Sharded(n) => format!("sharded({n})"),
            Mode::Scale(n) => format!("scale({n})"),
        }
    }

    fn threads(self) -> usize {
        match self {
            Mode::Sharded(n) | Mode::Scale(n) => n,
            _ => 1,
        }
    }
}

/// The `vc8` or `fr6` network at `load`, traffic on stream 99.
fn network(router: &str, mesh: Mesh, load: f64, seed: u64) -> AnyNetwork {
    let flow = match router {
        "vc8" => FlowControl::vc8(),
        _ => FlowControl::fr6(),
    };
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    flow.build(mesh, generator, &root, NullSink, NullSink, NullRecorder)
}

/// Timed blocks per row; the row reports the median block's rate.
const BLOCKS: u64 = 5;

/// Warm the network into steady state, then time `measure` cycles as
/// [`BLOCKS`] consecutive blocks and return the median block's
/// cycles/sec.
fn time_run(mut net: AnyNetwork, mode: Mode, warmup: u64, measure: u64) -> f64 {
    match mode {
        Mode::StepAll => net.set_idle_skip(false),
        Mode::IdleSkip | Mode::Sharded(_) | Mode::Scale(_) => net.set_idle_skip(true),
    }
    let mut run = |cycles: u64| match mode {
        Mode::Sharded(n) | Mode::Scale(n) => net.run_cycles_sharded(cycles, n),
        _ => net.run_cycles(cycles),
    };
    run(warmup);
    let block = measure / BLOCKS;
    let mut rates: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let start = Instant::now();
            run(block);
            block as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    // The network is dropped after the timers, so drop cost is excluded.
    rates[rates.len() / 2]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = Scale::from_env() == Scale::Tiny || std::env::args().any(|a| a == "--quick");
    let seed = seed_from_env();
    let mesh = Mesh::new(8, 8);
    let (warmup, measure) = if quick { (500, 2_000) } else { (5_000, 50_000) };
    let shard_threads = 2;

    let loads = [("low", 0.02), ("mid", 0.40), ("sat", 0.80)];
    let modes = [Mode::StepAll, Mode::IdleSkip, Mode::Sharded(shard_threads)];

    println!(
        "engine_throughput: {}x{} mesh, {} warm-up + {} measured cycles{}",
        mesh.width(),
        mesh.height(),
        warmup,
        measure,
        if quick { " (quick)" } else { "" }
    );
    println!(
        "{:<6} {:>5} {:<12} {:>8} {:>14}",
        "router", "load", "mode", "threads", "cycles/sec"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (_, load) in loads {
        for mode in modes {
            for router in ["vc8", "fr6"] {
                let cps = time_run(network(router, mesh, load, seed), mode, warmup, measure);
                println!(
                    "{:<6} {:>5.2} {:<12} {:>8} {:>14.0}",
                    router,
                    load,
                    mode.label(),
                    mode.threads(),
                    cps
                );
                rows.push(Row {
                    router,
                    load,
                    mode: mode.label(),
                    threads: mode.threads(),
                    cycles: measure,
                    cycles_per_sec: cps,
                });
            }
        }
    }

    // Scaling sweep: the 16×16 mesh near saturation, stepped with 1, 2,
    // 4 and 8 shard threads. At this scale per-router stepping dominates
    // the barrier, so cycles/sec tracks physical cores; a 1-core host
    // instead pins the hand-off overhead floor.
    let scale_mesh = Mesh::new(16, 16);
    let scale_load = 0.80;
    let (scale_warmup, scale_measure) = if quick { (200, 1_000) } else { (2_000, 20_000) };
    println!(
        "\nscaling sweep: {}x{} mesh @ load {:.2}, {} warm-up + {} measured cycles",
        scale_mesh.width(),
        scale_mesh.height(),
        scale_load,
        scale_warmup,
        scale_measure
    );
    for router in ["vc8", "fr6"] {
        for n in [1usize, 2, 4, 8] {
            let mode = Mode::Scale(n);
            let cps = time_run(
                network(router, scale_mesh, scale_load, seed),
                mode,
                scale_warmup,
                scale_measure,
            );
            println!(
                "{:<6} {:>5.2} {:<12} {:>8} {:>14.0}",
                router,
                scale_load,
                mode.label(),
                n,
                cps
            );
            rows.push(Row {
                router,
                load: scale_load,
                mode: mode.label(),
                threads: n,
                cycles: scale_measure,
                cycles_per_sec: cps,
            });
        }
    }

    // Idle-skip speedup over the reference engine, per router, low load.
    println!();
    for router in ["vc8", "fr6"] {
        let find = |mode: &str| {
            rows.iter()
                .find(|r| r.router == router && r.load == loads[0].1 && r.mode == mode)
                .map(|r| r.cycles_per_sec)
                .unwrap_or(0.0)
        };
        let base = find("step-all");
        let skip = find("idle-skip");
        if base > 0.0 {
            println!(
                "{router} low-load idle-skip speedup: {:.2}x ({:.0} -> {:.0} cycles/sec)",
                skip / base,
                base,
                skip
            );
        }
    }

    // Multi-core speedup at scale: 8 shard threads over the 1-thread
    // planned engine on the 16×16 near-saturation run.
    for router in ["vc8", "fr6"] {
        let find = |n: usize| {
            rows.iter()
                .find(|r| r.router == router && r.mode == format!("scale({n})"))
                .map(|r| r.cycles_per_sec)
                .unwrap_or(0.0)
        };
        let one = find(1);
        let eight = find(8);
        if one > 0.0 {
            println!(
                "{router} 16x16@{scale_load:.2} 8-thread scaling: {:.2}x ({:.0} -> {:.0} cycles/sec)",
                eight / one,
                one,
                eight
            );
        }
    }

    let mut json = String::from("{\n  \"bench\": \"engine_throughput\",\n");
    json.push_str(&format!(
        "  \"mesh\": \"{}x{}\",\n  \"seed\": {},\n  \"quick\": {},\n  \"host_cpus\": {},\n  \"shard_threads\": {},\n  \"rows\": [\n",
        mesh.width(),
        mesh.height(),
        seed,
        quick,
        noc_metrics::host_cpu_count(),
        shard_threads
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"router\": \"{}\", \"load\": {}, \"mode\": \"{}\", \"threads\": {}, \"cycles\": {}, \"cycles_per_sec\": {:.1}}}{}\n",
            json_escape(&format!("{}-{:.2}-{}", r.router, r.load, r.mode)),
            r.router,
            r.load,
            json_escape(&r.mode),
            r.threads,
            r.cycles,
            r.cycles_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} rows)", rows.len());
}
