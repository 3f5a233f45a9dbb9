//! `frfc-sim` — command-line driver for one simulation run.
//!
//! ```sh
//! frfc-sim --flow fr6 --load 0.5 --length 5
//! frfc-sim --flow vc16 --timing lead:2 --pattern transpose --mesh 6x6
//! frfc-sim --flow fr13 --horizon 64 --injection onoff:0.5,16 --scale tiny
//! frfc-sim --help
//! ```
//!
//! Prints a one-run report: mean latency with 95% CI, p50/p95/p99, accepted
//! throughput and the occupancy probe.

use frfc::flow::LinkTiming;
use frfc::fr::FrConfig;
use frfc::metrics::{write_json_file, RunManifest};
use frfc::network::{
    capture_at_cycle, parse_injection, FlowControl, Pattern, RunResult, RunSpec, Schedule, Sidecar,
    SimConfig, Trigger,
};
use frfc::traffic::InjectionKind;
use frfc::vc::VcConfig;

const HELP: &str = "frfc-sim — one flit-level simulation run (Peh & Dally, HPCA 2000)

USAGE:
    frfc-sim [OPTIONS]

OPTIONS:
    --flow <CFG>        fr6 | fr13 | vc8 | vc16 | vc32 | wormhole:<bufs>
                        | vc8-shared            [default: fr6]
    --load <F>          offered load as a fraction of capacity, (0, 1.5]
                        [default: 0.5]
    --length <N>        packet length in flits  [default: 5]
    --mesh <WxH>        mesh dimensions         [default: 8x8]
    --timing <T>        fast | lead:<N>         [default: fast]
    --horizon <N>       FR scheduling horizon   [default: 32]
    --pattern <P>       uniform | transpose | tornado | bitcomp
                        | hotspot:<frac>        [default: uniform]
    --injection <I>     constant | bernoulli | onoff:<peak>,<mean_on>
                        [default: constant]
    --error-rate <F>    control-wire corruption probability [default: 0]
    --sync-margin <N>   plesiochronous buffer-release margin [default: 0]
    --scale <S>         tiny | quick | paper    [default: quick]
    --seed <N>          root seed               [default: 2000]
    --telemetry-out <P> write a windowed-telemetry JSON sidecar to <P>
                        (plus <P minus .json>.profile.json with the
                        runtime profile and Chrome trace)
    --window-log2 <N>   telemetry window = 2^N cycles [default: 9]
    --flight-ring <N>   blackbox mode: arm a 2^N-event flight recorder
    --watchdog <N>      blackbox mode: progress-watchdog threshold in
                        cycles (fires on no-delivery-progress)
    --dump-state-out <P> blackbox mode: write the crash/state sidecar
                        (ring + full state dump + manifest) to <P>
    -h, --help          print this help

Any of the last three flags switches to blackbox mode: a fixed
inject-then-drain schedule with the flight recorder and watchdog armed,
capturing a replayable crash sidecar on watchdog trip, panic or drain
failure (inspect it with frfc-inspect). Both modes simulate the same
traffic for the same flags.
";

#[derive(Debug)]
struct Args {
    flow: String,
    load: f64,
    length: u32,
    mesh: (u16, u16),
    timing: LinkTiming,
    horizon: u64,
    pattern: Pattern,
    injection: InjectionKind,
    error_rate: f64,
    sync_margin: u64,
    scale: String,
    seed: u64,
    telemetry_out: Option<std::path::PathBuf>,
    window_log2: u32,
    flight_ring: Option<u32>,
    watchdog: Option<u64>,
    dump_state_out: Option<std::path::PathBuf>,
}

impl Args {
    /// Any blackbox knob switches the driver into blackbox mode.
    fn blackbox_mode(&self) -> bool {
        self.flight_ring.is_some() || self.watchdog.is_some() || self.dump_state_out.is_some()
    }
}

/// Parses the numeric value of `flag`.
fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {flag} value {text}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        flow: "fr6".into(),
        load: 0.5,
        length: 5,
        mesh: (8, 8),
        timing: LinkTiming::fast_control(),
        horizon: 32,
        pattern: Pattern::Uniform,
        injection: InjectionKind::ConstantRate,
        error_rate: 0.0,
        sync_margin: 0,
        scale: "quick".into(),
        seed: 2000,
        telemetry_out: None,
        window_log2: 9,
        flight_ring: None,
        watchdog: None,
        dump_state_out: None,
    };
    for pair in argv.chunks(2) {
        let flag = pair[0].as_str();
        if flag == "-h" || flag == "--help" {
            print!("{HELP}");
            std::process::exit(0);
        }
        let value = pair.get(1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--flow" => args.flow = value.clone(),
            "--load" => args.load = num(flag, value)?,
            "--length" => args.length = num(flag, value)?,
            "--mesh" => {
                let (w, h) = value
                    .split_once('x')
                    .ok_or_else(|| format!("mesh must look like 8x8, got {value}"))?;
                args.mesh = (num(flag, w)?, num(flag, h)?);
            }
            "--timing" => {
                args.timing = match value.strip_prefix("lead:") {
                    _ if value == "fast" => LinkTiming::fast_control(),
                    Some(lead) => LinkTiming::leading_control(num(flag, lead)?),
                    None => return Err(format!("timing must be fast or lead:<N>, got {value}")),
                }
            }
            "--horizon" => args.horizon = num(flag, value)?,
            "--pattern" => args.pattern = Pattern::parse(value)?,
            "--injection" => args.injection = parse_injection(value)?,
            "--error-rate" => args.error_rate = num(flag, value)?,
            "--sync-margin" => args.sync_margin = num(flag, value)?,
            "--scale" => args.scale = value.clone(),
            "--seed" => args.seed = num(flag, value)?,
            "--telemetry-out" => args.telemetry_out = Some(value.into()),
            "--window-log2" => args.window_log2 = num(flag, value)?,
            "--flight-ring" => args.flight_ring = Some(num(flag, value)?),
            "--watchdog" => args.watchdog = Some(num(flag, value)?),
            "--dump-state-out" => args.dump_state_out = Some(value.into()),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn sim_for_scale(scale: &str, seed: u64) -> Result<SimConfig, String> {
    Ok(match scale {
        "quick" => SimConfig::quick(seed),
        "paper" => SimConfig::paper_scale(seed),
        "tiny" => SimConfig::tiny(seed),
        other => return Err(format!("unknown scale {other}")),
    })
}

/// The flow control `--flow`, `--timing`, `--horizon` and
/// `--sync-margin` describe.
fn flow_control(args: &Args) -> Result<FlowControl, String> {
    let vc = |cfg: VcConfig| Ok(FlowControl::VirtualChannel(cfg, args.timing));
    let fr = |base: FrConfig| {
        Ok(FlowControl::FlitReservation(FrConfig {
            timing: args.timing,
            horizon: args.horizon,
            sync_margin: args.sync_margin,
            ..base
        }))
    };
    match args.flow.as_str() {
        "vc8" => vc(VcConfig::vc8()),
        "vc16" => vc(VcConfig::vc16()),
        "vc32" => vc(VcConfig::vc32()),
        "vc8-shared" => vc(VcConfig::vc8().with_shared_pool()),
        "fr6" => fr(FrConfig::fr6()),
        "fr13" => fr(FrConfig::fr13()),
        other => match other.strip_prefix("wormhole:") {
            Some(bufs) => vc(VcConfig {
                queue_depth: bufs
                    .parse()
                    .map_err(|_| format!("bad buffer count {bufs}"))?,
                ..VcConfig::wormhole(1)
            }),
            None => Err(format!("unknown flow control {other}")),
        },
    }
}

/// The one run the flags describe. Blackbox mode swaps the schedule for
/// inject-then-drain and arms the flight ring and watchdog; flow,
/// traffic and seed are the same in both modes.
fn run_spec(args: &Args) -> Result<RunSpec, String> {
    let blackbox = args.blackbox_mode();
    let schedule = if blackbox {
        let inject_cycles = match args.scale.as_str() {
            "tiny" => 500,
            "quick" => 2_000,
            "paper" => 10_000,
            other => return Err(format!("unknown scale {other}")),
        };
        Schedule::InjectThenDrain {
            inject_cycles,
            drain_cap: 20 * inject_cycles,
        }
    } else {
        Schedule::Methodology(sim_for_scale(&args.scale, args.seed)?)
    };
    let telemetry = args.telemetry_out.is_some();
    let spec = RunSpec {
        flow: flow_control(args)?,
        mesh_width: args.mesh.0,
        mesh_height: args.mesh.1,
        load: args.load,
        packet_flits: args.length,
        seed: args.seed,
        pattern: args.pattern,
        injection: args.injection,
        schedule,
        threads: 1,
        fault: None,
        control_error_rate: args.error_rate,
        metrics_period: telemetry.then_some(64),
        telemetry_window_log2: telemetry.then_some(args.window_log2),
        provenance_sample_every: None,
        ring_log2: blackbox.then(|| args.flight_ring.unwrap_or(10)),
        watchdog: blackbox.then(|| args.watchdog.unwrap_or(2_000)),
    };
    spec.validate()?;
    Ok(spec)
}

/// `foo.json` → `foo<suffix>` (e.g. `foo.profile.json`), next to the
/// telemetry sidecar.
fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let stem = path.with_extension("");
    std::path::PathBuf::from(format!("{}{suffix}", stem.display()))
}

fn write(path: &std::path::Path, doc: &impl std::fmt::Display) -> Result<(), String> {
    write_json_file(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the methodology and, with `--telemetry-out`, writes the metrics
/// export (aggregates, series and windowed telemetry) plus the runtime
/// profile and its Chrome trace next to it.
fn run(spec: &RunSpec, args: &Args) -> Result<(RunResult, u64), String> {
    let wall = std::time::Instant::now();
    let out = spec.run()?;
    if let (Some(path), Some(registry), Some(profile)) =
        (&args.telemetry_out, &out.registry, &out.profile)
    {
        let mut manifest =
            RunManifest::new("frfc-sim", args.seed, args.scale.clone(), spec.flow.label());
        manifest.wall_ms = wall.elapsed().as_millis() as u64;
        write(path, &registry.to_json(&manifest))?;
        let profile_path = sibling(path, ".profile.json");
        write(&profile_path, &profile.to_json())?;
        let trace_path = sibling(path, ".trace.json");
        write(&trace_path, &profile.chrome_trace())?;
        eprintln!(
            "telemetry : {} (+ {} / {})",
            path.display(),
            profile_path.display(),
            trace_path.display()
        );
    }
    let result = out.result.ok_or("methodology run produced no result")?;
    Ok((result, out.control_retries))
}

/// Blackbox mode: a fixed inject-then-drain schedule with the flight
/// recorder and progress watchdog armed. Any abnormal ending (watchdog,
/// panic, exhausted drain) captures a crash sidecar; with
/// `--dump-state-out` a clean run also writes an unconditional state
/// capture at its final cycle, which is the checkpoint write path.
fn run_blackbox_mode(spec: &RunSpec, args: &Args) -> Result<(), String> {
    let run = spec
        .run()?
        .blackbox
        .ok_or("blackbox run produced no outcome")?;
    let label = spec.flow.label();
    println!(
        "{label} blackbox on {}x{} mesh | {:.0}% load | seed {} | ring 2^{} | watchdog {}",
        spec.mesh_width,
        spec.mesh_height,
        spec.load * 100.0,
        spec.seed,
        spec.ring_log2.unwrap_or(0),
        spec.watchdog.unwrap_or(0),
    );
    println!(
        "outcome   : {} after {} cycles ({} flits delivered) — {}",
        run.trigger.label(),
        run.cycles,
        run.delivered_flits,
        run.detail
    );
    let sidecar = match run.sidecar {
        Some(sidecar) => Some(sidecar),
        // Clean run: only capture when the caller asked for a dump.
        None if args.dump_state_out.is_some() => {
            let mut text = String::new();
            let state_digest = capture_at_cycle(spec, run.cycles, &mut text)?;
            Some(Sidecar { text, state_digest })
        }
        None => None,
    };
    if let Some(Sidecar { text, state_digest }) = sidecar {
        let default_path = std::path::PathBuf::from(format!(
            "results/state/frfc-sim-{}-{}.json",
            label.to_lowercase(),
            spec.seed
        ));
        let path = args.dump_state_out.clone().unwrap_or(default_path);
        write(&path, &text)?;
        println!(
            "sidecar   : {} (state digest {state_digest})",
            path.display()
        );
        println!("inspect   : frfc-inspect show {}", path.display());
    }
    if run.trigger != Trigger::Completed {
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        eprintln!("run with --help for usage");
        std::process::exit(2);
    };
    let args = parse_args(&argv).unwrap_or_else(|e| fail(e));
    let spec = run_spec(&args).unwrap_or_else(|e| fail(e));
    if args.blackbox_mode() {
        if let Err(e) = run_blackbox_mode(&spec, &args) {
            fail(e);
        }
        return;
    }
    let (r, retries) = run(&spec, &args).unwrap_or_else(|e| fail(e));
    let label = spec.flow.label();
    println!(
        "{label} on {}x{} mesh | {} pattern | {:.0}% load | {}-flit packets | seed {}",
        args.mesh.0,
        args.mesh.1,
        args.pattern.label(),
        args.load * 100.0,
        args.length,
        args.seed
    );
    if r.completed {
        println!(
            "latency   : {:.1} ± {:.1} cycles (p50 {}, p95 {}, p99 {})",
            r.mean_latency(),
            r.latency.ci95_half_width(),
            r.p50_latency.map_or("-".into(), |v| v.to_string()),
            r.p95_latency.map_or("-".into(), |v| v.to_string()),
            r.p99_latency.map_or("-".into(), |v| v.to_string()),
        );
    } else {
        println!(
            "latency   : SATURATED ({} of {} sample packets delivered)",
            r.delivered,
            r.delivered + 1 // at least one outstanding
        );
    }
    println!(
        "throughput: {:.1}% of capacity accepted ({:.4} flits/node/cycle)",
        r.accepted_fraction * 100.0,
        r.accepted_flits_per_node_cycle
    );
    println!(
        "probe     : centre pool full {:.1}% of cycles, mean occupancy {:.1}%",
        r.probe_full_fraction * 100.0,
        r.probe_mean_occupancy * 100.0
    );
    if retries > 0 {
        println!("errors    : {retries} control flits retransmitted");
    }
    println!(
        "window    : warm-up ended at cycle {}, run ended at cycle {}",
        r.measure_start, r.end_cycle
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(flags: &str) -> Result<RunSpec, String> {
        let argv: Vec<String> = flags.split_whitespace().map(String::from).collect();
        parse_args(&argv).and_then(|args| run_spec(&args))
    }

    /// Re-running a command with `--watchdog` to capture it must simulate
    /// the same traffic: the two specs agree on everything but the
    /// observers and the inject-then-drain schedule those select.
    #[test]
    fn watchdog_flag_changes_only_observer_fields() {
        let flags = "--flow vc16 --mesh 4x4 --load 0.3 --scale tiny --pattern transpose \
                     --error-rate 0.01 --seed 7";
        let plain = spec_of(flags).expect("plain spec");
        let watched = spec_of(&format!("{flags} --watchdog 500")).expect("blackbox spec");
        assert_eq!((watched.watchdog, watched.ring_log2), (Some(500), Some(10)));
        assert_eq!((plain.watchdog, plain.ring_log2), (None, None));
        assert!(matches!(watched.schedule, Schedule::InjectThenDrain { .. }));
        let observers_cleared = RunSpec {
            schedule: plain.schedule,
            ring_log2: None,
            watchdog: None,
            ..watched
        };
        assert_eq!(observers_cleared, plain);
    }

    /// The blackbox state digests a refactor of the build path must
    /// keep: the state `--dump-state-out` captures at the final cycle of
    /// a clean run, exactly as `run_blackbox_mode` writes it.
    #[test]
    fn blackbox_state_digests_are_pinned() {
        for (flow, digest) in [("fr6", "634ec15879472cc3"), ("vc8", "b9a2a7b4fbf8da87")] {
            let spec = spec_of(&format!(
                "--flow {flow} --mesh 4x4 --load 0.3 --scale tiny --watchdog 500 \
                 --dump-state-out unused.json"
            ))
            .expect("blackbox spec");
            let run = spec.run().expect("run").blackbox.expect("blackbox outcome");
            assert_eq!(run.trigger, Trigger::Completed, "{flow}: {}", run.detail);
            let captured = capture_at_cycle(&spec, run.cycles, &mut String::new());
            assert_eq!(
                captured.as_deref(),
                Ok(digest),
                "{flow}: blackbox state digest moved"
            );
        }
    }

    #[test]
    fn hostile_flags_are_errors_not_panics() {
        for flags in [
            "--mesh 0x4",
            "--mesh 300x300",
            "--length 0",
            "--flow fr6 --horizon 0",
            "--flow fr6 --timing lead:0",
            "--flow wormhole:0",
            "--pattern hotspot:2",
        ] {
            assert!(spec_of(flags).is_err(), "{flags} must be rejected");
        }
    }
}
