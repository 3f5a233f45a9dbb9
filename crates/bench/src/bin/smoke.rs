//! Quick health check: base latencies and knee positions for the four
//! headline configurations (internal validation harness).
//!
//! Flags:
//!
//! * `--quick` — a much smaller sample so CI finishes in seconds;
//! * `--metrics` — additionally run metered VC8/FR6 points, write
//!   `*.metrics.json` sidecars, then parse them back and validate the
//!   export contract (schema version, manifest keys, nonzero FR
//!   reservation hits, sane link utilization, same-seed determinism).
//!   Any violation panics, failing the process loudly. The same flag
//!   also validates the latency-provenance layer: traced VC8/FR6 runs
//!   must not perturb the simulation, every reconstructed flit record
//!   must decompose exactly to its measured latency, the Chrome-trace
//!   export must satisfy the trace-event contract (valid JSON, `ph`,
//!   `ts`/`dur` on complete events, phase tiles nested inside their hop
//!   spans), and same-seed exports must be byte-identical.
//! * `--faults` — chaos stage: run VC8/FR6 under a randomized fault plan
//!   (data corruption, control-flit drops, a dead link) and assert the
//!   reliability layer delivers the full sample, that an inactive plan is
//!   bit-identical to no plan at all, and that fault schedules replay
//!   deterministically.

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_chrome_trace, write_metrics_json};
use noc_bench::{seed_from_env, Scale};
use noc_faults::FaultPlan;
use noc_flow::LinkTiming;
use noc_metrics::{strip_nondeterministic, Json, RunManifest, SCHEMA_VERSION};
use noc_network::{FaultSummary, FlowControl, RunOutput, RunResult, RunSpec, SimConfig};
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

/// Runs one smoke spec; every spec here is valid by construction.
fn run(spec: RunSpec) -> RunOutput {
    spec.run().expect("smoke specs are valid")
}

/// Asserts two `RunResult`s from the same seed are identical — the
/// metered run must not perturb the simulation in any way.
fn assert_zero_perturbation(plain: &RunResult, metered: &RunResult, label: &str) {
    assert_eq!(
        plain.delivered, metered.delivered,
        "{label}: metered run delivered a different packet count"
    );
    assert_eq!(
        plain.end_cycle, metered.end_cycle,
        "{label}: metered run ended on a different cycle"
    );
    assert_eq!(
        plain.mean_latency().to_bits(),
        metered.mean_latency().to_bits(),
        "{label}: metered run changed the measured latency"
    );
    assert_eq!(
        plain.accepted_fraction.to_bits(),
        metered.accepted_fraction.to_bits(),
        "{label}: metered run changed the accepted throughput"
    );
}

/// Parses a written sidecar back and checks the export contract.
fn validate_export(path: &std::path::Path, config: &str, offered: f64) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read back {}: {e}", path.display()));
    let doc =
        Json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION),
        "{}: wrong or missing schema_version",
        path.display()
    );
    let m = doc.get("manifest").expect("export has a manifest");
    for key in [
        "experiment",
        "seed",
        "scale",
        "config",
        "git_rev",
        "toolchain",
        "threads",
        "host_cpus",
        "wall_ms",
    ] {
        assert!(
            m.get(key).is_some(),
            "{}: manifest missing key {key}",
            path.display()
        );
    }
    assert_eq!(m.get("config").and_then(Json::as_str), Some(config));
    let counters = doc.get("counters").expect("export has counters");
    let gauges = doc.get("gauges").expect("export has gauges");
    assert!(
        counters
            .get("net.cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{}: no cycles recorded",
        path.display()
    );
    // Data links must have carried flits, and mean utilization must be a
    // sane fraction consistent with a loaded network: nonzero, below 1,
    // and not wildly above the offered load.
    let data_util = gauges
        .get("net.mean_data_link_utilization")
        .and_then(Json::as_f64)
        .expect("data-link utilization gauge");
    assert!(
        data_util > 0.0 && data_util < 1.0,
        "{}: implausible data-link utilization {data_util}",
        path.display()
    );
    assert!(
        data_util < offered * 2.0 + 0.05,
        "{}: data-link utilization {data_util} inconsistent with offered load {offered}",
        path.display()
    );
    if config.starts_with("FR") {
        let hits = counters
            .get("total.reservation_hits")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(
            hits > 0,
            "{}: FR run recorded no reservation-table hits",
            path.display()
        );
        assert!(
            counters
                .get("total.control_flits_sent")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
            "{}: FR run sent no control flits",
            path.display()
        );
    }
    let run_offered = gauges
        .get("run.offered_fraction")
        .and_then(Json::as_f64)
        .expect("run.offered_fraction gauge");
    assert!(
        (run_offered - offered).abs() < 1e-9,
        "{}: run.offered_fraction {run_offered} != {offered}",
        path.display()
    );
    doc
}

fn metrics_check(scale: Scale, seed: u64, sim: &SimConfig) {
    let mesh = Mesh::new(8, 8);
    let offered = 0.5;
    println!("\nmetrics validation (offered {:.0}%):", offered * 100.0);
    for fc in [FlowControl::vc8(), FlowControl::fr6()] {
        let label = fc.label();
        // Zero perturbation: plain and metered runs must agree exactly.
        let plain = fc.run(mesh, offered, 5, sim);
        let metered_spec = RunSpec {
            metrics_period: Some(64),
            ..RunSpec::new(fc.clone(), mesh, offered, 5, *sim)
        };
        let out = run(metered_spec.clone());
        let (metered, registry) = (out.result.expect("result"), out.registry.expect("registry"));
        assert_zero_perturbation(&plain, &metered, &label);

        // Export, parse back, validate the contract.
        let m = manifest(
            &format!("smoke_{}", label.to_lowercase()),
            scale,
            seed,
            &label,
        );
        let path = write_metrics_json(&m, &registry);
        let doc = validate_export(&path, &label, offered);

        // Same-seed determinism: a second metered run must export
        // byte-identical JSON once wall-clock data is stripped.
        let registry2 = run(metered_spec).registry.expect("registry");
        let m2 = RunManifest::new(m.experiment.clone(), seed, scale.name(), label.clone());
        let mut doc2 = registry2.to_json(&m2);
        let mut doc1 = doc;
        strip_nondeterministic(&mut doc1);
        strip_nondeterministic(&mut doc2);
        assert_eq!(
            doc1.render(),
            doc2.render(),
            "{label}: same-seed metered runs exported different metrics"
        );
        println!(
            "  {label}: zero-perturbation ok, schema ok, determinism ok ({})",
            path.display()
        );
    }
    println!("metrics validation passed");
}

/// Validates the Chrome-trace export contract on a parsed document:
/// every event is named and carries `ph`/`pid`; complete events carry
/// `ts`/`dur`/`tid`; and every phase tile lies inside a hop span of the
/// same flit on the same router track.
fn validate_chrome_trace(doc: &Json, label: &str) {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{label}: export has no traceEvents array"));
    assert!(!events.is_empty(), "{label}: export has no events");
    let tile_names = [
        "route_compute",
        "vc_alloc_stall",
        "credit_stall",
        "buffer_wait",
        "switch_traversal",
        "ejection",
    ];
    // (pid, tid) -> hop-span [start, end) intervals.
    let mut hops: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut tiles: Vec<(u64, u64, u64, u64)> = Vec::new();
    for e in events {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{label}: event without a name"));
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{label}: event {name} without ph"));
        assert!(
            ph == "X" || ph == "M",
            "{label}: unexpected event phase {ph}"
        );
        let pid = e
            .get("pid")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{label}: event {name} without pid"));
        if ph != "X" {
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{label}: X event {name} without ts"));
        let dur = e
            .get("dur")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{label}: X event {name} without dur"));
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{label}: X event {name} without tid"));
        if name.starts_with("pkt ") {
            hops.entry((pid, tid)).or_default().push((ts, ts + dur));
        } else if tile_names.contains(&name) {
            tiles.push((pid, tid, ts, ts + dur));
        }
    }
    assert!(!hops.is_empty(), "{label}: export has no hop spans");
    for (pid, tid, start, end) in tiles {
        let inside = hops
            .get(&(pid, tid))
            .is_some_and(|spans| spans.iter().any(|&(s, e)| s <= start && end <= e));
        assert!(
            inside,
            "{label}: phase tile [{start}, {end}) on track ({pid}, {tid}) \
             is not nested in any hop span"
        );
    }
}

fn provenance_check(sim: &SimConfig) {
    let mesh = Mesh::new(8, 8);
    let offered = 0.5;
    println!(
        "\nprovenance validation (offered {:.0}%, sample 1/2):",
        offered * 100.0
    );
    let mut credit_stalls: Vec<(String, u64)> = Vec::new();
    for fc in [FlowControl::vc8(), FlowControl::fr6()] {
        let label = fc.label();
        // Zero perturbation: the traced run's RunResult must be
        // bit-identical to the plain run's.
        let plain = fc.run(mesh, offered, 5, sim);
        let traced_spec = RunSpec {
            provenance_sample_every: Some(2),
            ..RunSpec::new(fc.clone(), mesh, offered, 5, *sim)
        };
        let out = run(traced_spec.clone());
        let (traced, report) = (out.result.expect("result"), out.provenance.expect("report"));
        assert_zero_perturbation(&plain, &traced, &label);

        // Reconstruction: clean fold, and every record's phase cycles
        // sum exactly to its measured end-to-end latency.
        assert_eq!(report.malformed, 0, "{label}: malformed provenance");
        assert!(!report.records.is_empty(), "{label}: no flit records");
        for r in &report.records {
            assert_eq!(
                r.attributed(),
                r.end_to_end(),
                "{label}: flit ({}, {}) attribution does not sum to latency",
                r.packet,
                r.seq
            );
        }
        // The tracker's packet latency is pegged to its last-ejected
        // flit (FR flits may eject out of seq order), so per packet the
        // max record ejection must reproduce it exactly.
        let mut last_eject = std::collections::BTreeMap::new();
        for r in &report.records {
            let e = last_eject.entry(r.packet).or_insert((r.created, 0u64));
            e.1 = e.1.max(r.ejected);
        }
        for &(packet, latency) in &report.delivered {
            if let Some(&(created, ejected)) = last_eject.get(&packet) {
                assert_eq!(
                    ejected - created,
                    latency,
                    "{label}: packet {packet} latency disagrees with tracker"
                );
            }
        }
        credit_stalls.push((
            label.clone(),
            report
                .records
                .iter()
                .map(|r| r.phases[noc_provenance::Phase::CreditStall.index()])
                .sum(),
        ));

        // Export contract + same-seed byte-identity.
        let doc = noc_provenance::chrome_trace(&report, mesh.width());
        let path = write_chrome_trace(&format!("smoke_{}", label.to_lowercase()), &doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read back {}: {e}", path.display()));
        let parsed = Json::parse(&text)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        validate_chrome_trace(&parsed, &label);
        let report2 = run(traced_spec).provenance.expect("report");
        assert_eq!(
            doc.render(),
            noc_provenance::chrome_trace(&report2, mesh.width()).render(),
            "{label}: same-seed traced runs exported different Chrome traces"
        );
        println!(
            "  {label}: zero-perturbation ok, {} records exact, trace contract ok, determinism ok",
            report.records.len()
        );
    }
    // The paper's structural claim: FR data flits never wait on credits.
    let fr_stalls = credit_stalls
        .iter()
        .find(|(l, _)| l.starts_with("FR"))
        .map(|&(_, s)| s)
        .unwrap_or(0);
    assert_eq!(
        fr_stalls, 0,
        "FR run attributed credit-stall cycles; reservations should preclude them"
    );
    println!("provenance validation passed (FR credit stalls: 0 by construction)");
}

/// Runs VC8 and FR6 under a randomized-but-reproducible fault plan and
/// checks the reliability layer end to end: an inactive plan must be
/// bit-identical to no plan at all (zero-cost-when-off), an active plan
/// must still deliver the full sample despite corruption, control-flit
/// drops and a dead link, the protocol counters must be internally
/// consistent, and the fault schedule itself must be reproducible.
fn faults_check(sim: &SimConfig, seed: u64) {
    let mesh = Mesh::new(8, 8);
    let offered = 0.4;
    println!("\nfault validation (offered {:.0}%):", offered * 100.0);
    for fc in [FlowControl::vc8(), FlowControl::fr6()] {
        let label = fc.label();
        let plain = fc.run(mesh, offered, 5, sim);

        // Zero-cost-when-off: an inactive plan must not perturb anything.
        let faulty_run = |plan: &FaultPlan| {
            let out = run(RunSpec {
                fault: Some(plan.clone()),
                ..RunSpec::new(fc.clone(), mesh, offered, 5, *sim)
            });
            (out.result.expect("result"), out.faults.unwrap_or_default())
        };
        let (quiet, qs) = faulty_run(&FaultPlan::quiet(seed));
        assert_zero_perturbation(&plain, &quiet, &label);
        assert_eq!(
            qs,
            FaultSummary::default(),
            "{label}: inactive plan armed the fault layer"
        );

        // An active plan must still deliver the full sample. Pull the
        // dead link early so even the quick scale exercises masking.
        let mut plan = FaultPlan::randomized(seed, mesh);
        for d in &mut plan.dead_links {
            d.at_cycle = d.at_cycle.min(64);
        }
        let (faulty, fs) = faulty_run(&plan);
        assert!(
            faulty.completed,
            "{label}: fault run saturated under {}",
            plan.summary()
        );
        // Adaptive warmup may shift the measured window under faults, so
        // the sample count need not match the fault-free run exactly;
        // `completed` already proves every measured packet drained.
        assert!(faulty.delivered > 0, "{label}: fault run delivered nothing");
        let c = fs.counters;
        assert!(
            c.corrupt_discarded <= c.data_corrupted,
            "{label}: discarded more corrupt flits than were corrupted"
        );
        assert!(
            c.retransmits <= c.nacks + c.timeout_retransmits,
            "{label}: retransmits unaccounted for by NACKs and timeouts"
        );
        assert_eq!(
            c.links_masked,
            plan.dead_links.len() as u64,
            "{label}: dead links not applied"
        );

        // Same plan, same seed: the fault schedule is part of the run's
        // identity, so a repeat must reproduce it exactly.
        let (again, fs2) = faulty_run(&plan);
        assert_eq!(
            faulty.end_cycle, again.end_cycle,
            "{label}: same-plan fault runs diverged"
        );
        assert_eq!(fs, fs2, "{label}: same-plan fault counters diverged");
        println!(
            "  {label}: zero-cost-off ok, delivered {} ({} corrupt, {} dropped, {} retransmits, {} dead links), determinism ok",
            faulty.delivered, c.data_corrupted, c.control_dropped, c.retransmits, c.links_masked
        );
    }
    println!("fault validation passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let faults = args.iter().any(|a| a == "--faults");
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "--quick" && *a != "--metrics" && *a != "--faults")
    {
        eprintln!("unknown flag {unknown}; usage: smoke [--quick] [--metrics] [--faults]");
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
        metrics_check(scale, seed, &msim);
        provenance_check(&msim);
    }

    if faults {
        let mut fsim = scale.sim(seed);
        if quick {
            fsim.sample_packets = fsim.sample_packets.min(500);
        }
        faults_check(&fsim, seed);
    }
}
