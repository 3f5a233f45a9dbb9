//! Engine-throughput regression gate: compares a fresh
//! `BENCH_engine.json` (written by the `engine_throughput` bin) against
//! a committed baseline and exits nonzero when any configuration
//! regressed beyond tolerance.
//!
//! Rows are matched by their `config` key (`vc8-0.40-idle-skip`, ...)
//! and compared on `cycles_per_sec`. A row regresses when
//! `fresh < baseline * (1 - tolerance)`; a baseline row missing from
//! the fresh run also fails. Extra fresh rows are reported but pass —
//! they have no baseline to regress against. A row whose `threads`
//! exceed the fresh file's `host_cpus` is printed as `oversubscribed`
//! and never gated: its threads time-share cores, so its rate measures
//! the host's scheduler rather than the code.
//!
//! Usage:
//!
//! ```text
//! bench_compare [--baseline bench_baselines/BENCH_engine.json]
//!               [--fresh BENCH_engine.json] [--tolerance 0.15]
//! ```
//!
//! The default 15% tolerance suits same-machine comparisons (full-scale
//! runs, pinned host). CI compares a `--quick` run on a shared runner
//! against the committed full-scale baseline and passes a much looser
//! tolerance — there the gate is a tripwire for order-of-magnitude
//! regressions (an accidentally-enabled trace path, a lost fast path),
//! not a precision benchmark.

use noc_metrics::Json;

struct Args {
    baseline: String,
    fresh: String,
    tolerance: f64,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}; usage: bench_compare [--baseline <path>] [--fresh <path>] [--tolerance <frac>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        baseline: "bench_baselines/BENCH_engine.json".into(),
        fresh: "BENCH_engine.json".into(),
        tolerance: 0.15,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--baseline" => parsed.baseline = value("--baseline"),
            "--fresh" => parsed.fresh = value("--fresh"),
            "--tolerance" => {
                parsed.tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| usage("--tolerance wants a fraction like 0.15"));
                if !(0.0..1.0).contains(&parsed.tolerance) {
                    usage("--tolerance must be in [0, 1)");
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    parsed
}

/// One `BENCH_engine.json` document: its `(config, threads,
/// cycles_per_sec)` rows, its `quick` flag and the `host_cpus` it was
/// measured on (`None` in files written before the header carried it).
struct Bench {
    rows: Vec<(String, u64, f64)>,
    quick: bool,
    host_cpus: Option<u64>,
}

fn load_bench(path: &str) -> Bench {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        eprintln!("(run `cargo run -p noc-bench --release --bin engine_throughput` first)");
        std::process::exit(2)
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not valid JSON: {e}");
        std::process::exit(2)
    });
    let quick = doc.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let host_cpus = doc
        .get("host_cpus")
        .and_then(Json::as_f64)
        .map(|n| n as u64);
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| {
            eprintln!("{path} has no rows array");
            std::process::exit(2)
        })
        .iter()
        .map(|row| {
            let config = row
                .get("config")
                .and_then(Json::as_str)
                .unwrap_or_else(|| {
                    eprintln!("{path}: row without a config key");
                    std::process::exit(2)
                })
                .to_string();
            let number = |key: &str| {
                row.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
                    eprintln!("{path}: row {config} without {key}");
                    std::process::exit(2)
                })
            };
            let (threads, cps) = (number("threads") as u64, number("cycles_per_sec"));
            (config, threads, cps)
        })
        .collect();
    Bench {
        rows,
        quick,
        host_cpus,
    }
}

/// `host_cpus` for the header line: the count, or `unrecorded`.
fn cpus(bench: &Bench) -> String {
    bench
        .host_cpus
        .map_or_else(|| "unrecorded".into(), |n| n.to_string())
}

fn main() {
    let args = parse_args();
    let base = load_bench(&args.baseline);
    let fresh = load_bench(&args.fresh);

    println!(
        "bench_compare: {} (baseline{}) vs {} (fresh{}), tolerance {:.0}%",
        args.baseline,
        if base.quick { ", quick" } else { "" },
        args.fresh,
        if fresh.quick { ", quick" } else { "" },
        args.tolerance * 100.0
    );
    println!(
        "host_cpus: baseline {}, fresh {}",
        cpus(&base),
        cpus(&fresh)
    );
    if base.quick != fresh.quick {
        println!("note: comparing runs of different scales; rates are only roughly comparable");
    }
    // Rows need as many cores as threads to be gated; with the core
    // count unrecorded, every row is.
    let oversubscribed = |threads: u64| fresh.host_cpus.is_some_and(|cpus| threads > cpus);
    let (baseline, fresh) = (base.rows, fresh.rows);
    println!(
        "{:<24} {:>14} {:>14} {:>8}  status",
        "config", "baseline c/s", "fresh c/s", "ratio"
    );

    let (mut failures, mut gated) = (0usize, 0usize);
    for (config, threads, base_cps) in &baseline {
        let ungated = oversubscribed(*threads);
        gated += usize::from(!ungated);
        let Some((_, _, fresh_cps)) = fresh.iter().find(|(c, ..)| c == config) else {
            let status = if ungated { "oversubscribed" } else { "MISSING" };
            println!(
                "{config:<24} {base_cps:>14.0} {:>14} {:>8}  {status}",
                "-", "-"
            );
            failures += usize::from(!ungated);
            continue;
        };
        let ratio = fresh_cps / base_cps.max(1e-9);
        let regressed = !ungated && *fresh_cps < base_cps * (1.0 - args.tolerance);
        if regressed {
            failures += 1;
        }
        println!(
            "{config:<24} {base_cps:>14.0} {fresh_cps:>14.0} {ratio:>8.2}  {}",
            match (ungated, regressed) {
                (true, _) => "oversubscribed",
                (_, true) => "REGRESSED",
                _ => "ok",
            }
        );
    }
    for (config, _, cps) in &fresh {
        if !baseline.iter().any(|(c, ..)| c == config) {
            println!("{config:<24} {:>14} {cps:>14.0} {:>8}  new", "-", "-");
        }
    }

    if failures > 0 {
        eprintln!(
            "\n{failures} configuration(s) regressed more than {:.0}% (or went missing)",
            args.tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "\nall {gated} gated configurations within tolerance ({} oversubscribed, not gated)",
        baseline.len() - gated
    );
}
