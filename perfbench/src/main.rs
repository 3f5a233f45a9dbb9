//! `perfbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh8_sat [--seed 2000] [--seconds 20] [--trace 0|1]
//! ```
//!
//! Prints every metric with its unit, checks the simulator's outputs,
//! writes the full record under the build directory, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits non-zero when any check fails. See README.md.

mod fidelity;
mod kernel;
mod kernels;
mod layers;
mod nets;
mod report;
mod stats;
mod traced;
mod workloads;

use noc_metrics::{host_cpu_count, Json, RunManifest};
use report::{end_to_end, per_layer, throughput, MetricDecl};
use stats::{median, norm_total, quartiles, raw_total, Meter};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Checks, Ctx, Mode, Pass, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2000, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Prints one metric line and returns it as a result-line entry.
fn metric(decl: &MetricDecl, value: f64, context: &str) -> (String, Json) {
    println!(
        "{:<48} {:>16.6} {:<12} {context}",
        decl.name, value, decl.unit
    );
    (
        decl.name.clone(),
        obj(vec![("value", num(value)), ("unit", Json::str(decl.unit))]),
    )
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end_metrics(
    pass: &Pass,
    setup: &[f64],
    rss: f64,
    record: &mut Vec<(String, Json)>,
) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    let mut families = Vec::new();
    for decl in end_to_end() {
        let (value, context) = match decl.name.as_str() {
            "setup_s" => (
                median(setup),
                format!(
                    "median of {} set-up blocks; not part of host_s",
                    setup.len()
                ),
            ),
            "host_s" => (
                norm_total(&pass.host),
                format!(
                    "raw wall {:.3} s over {} blocks",
                    raw_total(&pass.host),
                    pass.host.len()
                ),
            ),
            "peak_rss_mb" => (rss, "VmHWM at exit".to_string()),
            name => {
                let fi = if name.starts_with("vc8") { 0 } else { 1 };
                let t = throughput(&pass.windows[fi]);
                let tail = t
                    .tail
                    .map_or("no tail (under 20 blocks)".to_string(), |(p, r)| {
                        format!("p{p} block {r:.1}")
                    });
                let context = format!(
                    "median block {:.1}, {tail}, {} blocks, {} cycles; raw {:.1}",
                    t.median_block_rate, t.blocks, t.cycles, t.raw_rate
                );
                families.push((
                    name.trim_end_matches(".cycles_per_s").to_string(),
                    obj(vec![
                        ("cycles", num(t.cycles as f64)),
                        ("blocks", num(t.blocks as f64)),
                        ("cycles_per_s", num(t.rate)),
                        ("raw_cycles_per_s", num(t.raw_rate)),
                        ("median_block_cycles_per_s", num(t.median_block_rate)),
                        (
                            "tail_percentile",
                            t.tail.map_or(Json::Null, |(p, _)| num(p)),
                        ),
                        (
                            "tail_block_cycles_per_s",
                            t.tail.map_or(Json::Null, |(_, r)| num(r)),
                        ),
                        (
                            "blocks_cycles_raw_s_rate",
                            Json::Arr(
                                pass.windows[fi]
                                    .iter()
                                    .map(|b| {
                                        Json::Arr(vec![
                                            num(b.cycles as f64),
                                            num(b.raw_s),
                                            num(b.rate),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
                (t.rate, context)
            }
        };
        out.push(metric(&decl, value, &context));
    }
    record.push(("families".into(), Json::Obj(families)));
    record.push((
        "setup_s_samples".into(),
        Json::Arr(setup.iter().map(|&v| num(v)).collect()),
    ));
    out
}

fn checks_json(checks: &Checks) -> Json {
    obj(vec![
        ("attempted", num(checks.attempted as f64)),
        ("failed", num(checks.failed as f64)),
        (
            "failures",
            Json::Arr(
                checks
                    .failures
                    .iter()
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Writes the full record beside the build outputs.
fn write_record(args: &Args, record: Json) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, record.render()));
    match written {
        Ok(()) => println!("record: {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let w = args.workload;
    let manifest = RunManifest::new("perfbench", args.seed, w.name(), "vc8+fr6");
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cpus={} git_rev={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        host_cpu_count(),
        manifest.git_rev
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        meter: Meter::new(),
        checks: Checks::default(),
        manifest,
    };
    let setup = if args.trace {
        Vec::new()
    } else {
        workloads::setup(&mut ctx, w)
    };
    let untraced = workloads::run(&mut ctx, w, Mode::Untraced);

    let mut record: Vec<(String, Json)> = Vec::new();
    let metrics: Vec<(String, Json)> = if args.trace {
        let traced = workloads::run(&mut ctx, w, Mode::Traced);
        ctx.checks.check(untraced.digests == traced.digests, || {
            "traced run's state digests differ from the untraced run's".to_string()
        });
        ctx.checks.check(untraced.fidelity == traced.fidelity, || {
            "traced run's Table 3 cells differ from the untraced run's".to_string()
        });
        let (mesh, load) = w.traffic();
        let kernels = kernels::run_all(&mut ctx.meter, mesh, load, args.seed);
        let probe = workloads::engine_probe(&mut ctx, w);
        let values = layers::assemble(&untraced, &traced, &probe, &kernels);
        record.push(("spans".into(), layers::spans(&traced)));
        per_layer()
            .iter()
            .map(|decl| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == decl.name)
                    .map(|&(_, v)| v);
                ctx.checks.check(value.is_some_and(f64::is_finite), || {
                    format!("per-layer metric {} missing or not finite", decl.name)
                });
                metric(decl, value.unwrap_or(0.0), "")
            })
            .collect()
    } else {
        end_to_end_metrics(&untraced, &setup, peak_rss_mb(), &mut record)
    };

    for cell in &untraced.fidelity {
        println!(
            "fidelity {:<40} {:>10.3} {:<6} ours {:.3} paper {} tolerance {} ({})",
            cell.name,
            cell.err(),
            cell.unit,
            cell.ours,
            cell.paper,
            cell.tolerance,
            cell.reason
        );
    }
    for d in &untraced.derived {
        println!(
            "derived  {:<40} {:>10.3} ({}; not gated)",
            d.name, d.value, d.base
        );
    }
    for failure in &ctx.checks.failures {
        println!("FAILED   {failure}");
    }
    let samples = ctx.meter.samples();
    let [q1, q2, q3] = quartiles(samples);
    println!(
        "kernel   {} rate samples: median {:.4e} (q1 {:.4e}, q3 {:.4e}) loads/s; R_nominal {:.4e}",
        samples.len(),
        q2,
        q1,
        q3,
        kernel::R_NOMINAL
    );

    let correct = ctx.checks.failed == 0;
    record.extend([
        ("workload".to_string(), Json::str(w.name())),
        ("seed".to_string(), num(args.seed as f64)),
        ("seconds".to_string(), num(args.seconds as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host_cpus".to_string(), num(host_cpu_count() as f64)),
        (
            "git_rev".to_string(),
            Json::str(ctx.manifest.git_rev.clone()),
        ),
        (
            "raw_wall_s".to_string(),
            num(started.elapsed().as_secs_f64()),
        ),
        (
            "kernel".to_string(),
            obj(vec![
                ("r_nominal", num(kernel::R_NOMINAL)),
                ("median", num(q2)),
                ("q1", num(q1)),
                ("q3", num(q3)),
                ("samples", num(samples.len() as f64)),
            ]),
        ),
        ("metrics".to_string(), Json::Obj(metrics.clone())),
        (
            "digests".to_string(),
            Json::Obj(
                untraced
                    .digests
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "fidelity".to_string(),
            Json::Arr(
                untraced
                    .fidelity
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("name", Json::str(c.name.clone())),
                            ("unit", Json::str(c.unit)),
                            ("paper", num(c.paper)),
                            ("ours", num(c.ours)),
                            ("err", num(c.err())),
                            ("tolerance", num(c.tolerance)),
                            ("reason", Json::str(c.reason)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "derived".to_string(),
            Json::Arr(
                untraced
                    .derived
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", Json::str(d.name.clone())),
                            ("value", num(d.value)),
                            ("base", Json::str(d.base.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("checks".to_string(), checks_json(&ctx.checks)),
    ]);
    write_record(&args, Json::Obj(record));

    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(ctx.checks.attempted as f64)),
        ("failed", num(ctx.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    // One line: the pretty writer only breaks lines between tokens.
    let compact: String = line.render().lines().map(str::trim_start).collect();
    println!("{compact}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
