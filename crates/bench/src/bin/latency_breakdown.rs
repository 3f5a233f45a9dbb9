//! Bottleneck attribution: where every cycle of packet latency goes.
//!
//! Runs the headline VC8 and FR6 configurations with latency-provenance
//! tracing at a low and a near-saturation offered load, and prints one
//! stacked attribution table per (config, load): mean cycles per flit
//! charged to each [`noc_provenance::Phase`], its share of the total,
//! and the per-flit p95. This is the paper's causal argument made
//! measurable — under flit reservation, routing and buffer-turnaround
//! time move off the data path (control lead replaces route compute,
//! credit stalls go to zero), which the table shows directly.
//!
//! Flags and knobs:
//!
//! * `--loads 0.10,0.55` — override the offered-load points;
//! * `--trace-out <name>` — additionally write one Chrome-trace /
//!   Perfetto file per (config, load) to
//!   `results/<name>-<config>-<load>.trace.json`;
//! * `FRFC_PROV_SAMPLE` — packet sampling divisor (default 4; 1 traces
//!   every packet).
//!
//! A `latency_breakdown.json` sidecar carries the same rows.

use noc_bench::report::{manifest, write_chrome_trace, write_rows_json};
use noc_bench::{seed_from_env, Scale};
use noc_metrics::Json;
use noc_network::{FlowControl, RunSpec};
use noc_provenance::{chrome_trace, Phase, ProvenanceReport};
use noc_topology::Mesh;

/// Packet sampling divisor from `FRFC_PROV_SAMPLE` (default 4).
fn sample_every() -> u64 {
    std::env::var("FRFC_PROV_SAMPLE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn parse_args() -> (Vec<f64>, Option<String>) {
    let mut loads = vec![0.10, 0.55];
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--loads" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage("--loads needs a value"));
                loads = spec
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--loads wants comma-separated fractions"))
                    })
                    .collect();
            }
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a name")),
                );
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (loads, trace_out)
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}; usage: latency_breakdown [--loads 0.1,0.55] [--trace-out <name>]");
    std::process::exit(2)
}

fn print_table(label: &str, load: f64, report: &ProvenanceReport) {
    println!(
        "\n{label} @ {:.0}% offered ({} flit records, sample 1/{}{}):",
        load * 100.0,
        report.records.len(),
        report.sample_every,
        if report.open_flits > 0 {
            format!(", {} still in flight", report.open_flits)
        } else {
            String::new()
        }
    );
    println!(
        "  {:<18} {:>10} {:>8} {:>6}",
        "phase", "mean cyc", "share", "p95"
    );
    for row in report.phase_table() {
        if row.total == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>10.2} {:>7.1}% {:>6}",
            row.phase.name(),
            row.mean,
            row.share * 100.0,
            row.p95
        );
    }
    println!(
        "  {:<18} {:>10.2}",
        "= end-to-end",
        report.mean_end_to_end()
    );
}

/// Mean cycles per flit charged to `phase`.
fn mean_of(report: &ProvenanceReport, phase: Phase) -> f64 {
    report
        .phase_table()
        .into_iter()
        .find(|r| r.phase == phase)
        .map(|r| r.mean)
        .unwrap_or(0.0)
}

fn main() {
    let (loads, trace_out) = parse_args();
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim(seed);
    let sample = sample_every();
    let configs = [FlowControl::vc8(), FlowControl::fr6()];

    println!("Latency provenance: per-phase attribution, 8x8 mesh, 5-flit packets, fast control");
    println!("(FR moves routing into the control lead and drops credit/turnaround stalls to ~0)");

    let mut rows: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    // (load, label) -> credit-stall mean, for the headline comparison.
    let mut credit_means: Vec<(f64, String, f64)> = Vec::new();
    for fc in &configs {
        let label = fc.label();
        for &load in &loads {
            let out = RunSpec {
                provenance_sample_every: Some(sample),
                ..RunSpec::new(fc.clone(), mesh, load, 5, sim)
            }
            .run()
            .expect("provenance specs are valid");
            let (result, report) = (out.result.expect("result"), out.provenance.expect("report"));
            assert_eq!(
                report.malformed, 0,
                "{label}@{load}: provenance reconstruction is malformed"
            );
            print_table(&label, load, &report);
            if !result.completed {
                println!("  (run saturated; attribution covers delivered flits only)");
            }
            credit_means.push((load, label.clone(), mean_of(&report, Phase::CreditStall)));
            if let Some(name) = &trace_out {
                let doc = chrome_trace(&report, mesh.width());
                write_chrome_trace(&format!("{name}-{}-{load:.2}", label.to_lowercase()), &doc);
            }
            let mut cells: Vec<(String, Json)> = vec![
                ("offered".into(), Json::Num(load)),
                ("records".into(), Json::Num(report.records.len() as f64)),
                (
                    "mean_end_to_end".into(),
                    Json::Num(report.mean_end_to_end()),
                ),
            ];
            for row in report.phase_table() {
                cells.push((format!("mean_{}", row.phase.name()), Json::Num(row.mean)));
                cells.push((
                    format!("p95_{}", row.phase.name()),
                    Json::Num(row.p95 as f64),
                ));
            }
            rows.push((format!("{label}@{load:.2}"), cells));
        }
    }

    // The paper's headline claim, per load point: FR pre-reserves
    // downstream buffers on the control network, so its data flits never
    // stall on credits; the VC baseline pays that wait at the switch.
    println!();
    for &load in &loads {
        let at = |prefix: &str| {
            credit_means
                .iter()
                .find(|(l, n, _)| *l == load && n.starts_with(prefix))
                .map(|&(_, _, m)| m)
                .unwrap_or(0.0)
        };
        println!(
            "credit/turnaround stall @ {:.0}%: VC8 {:.2} cyc/flit vs FR6 {:.2} cyc/flit",
            load * 100.0,
            at("VC"),
            at("FR")
        );
    }

    let m = manifest("latency_breakdown", scale, seed, "VC8/FR6");
    write_rows_json(&m, &rows);
}
