//! Well-formedness of the latency-provenance layer, end to end.
//!
//! Drives real simulations (both flow controls, randomized seed, load
//! and sampling divisor) with the provenance collector attached and
//! checks the properties the layer is built on:
//!
//! * every reconstructed span closes: the collector reports zero
//!   malformed folds, and every hop's components tile its residency;
//! * exactness: each flit record's phase cycles sum to its measured
//!   end-to-end latency, and tail-flit records agree with the delivery
//!   tracker's ground-truth latencies;
//! * structural claims: FR data flits are never charged credit-stall or
//!   route-compute cycles (both happen on the control network);
//! * zero perturbation: a traced run's `RunResult` equals the plain
//!   run's at the same seed;
//! * determinism: same-seed runs export byte-identical Chrome traces,
//!   and every phase tile of an export nests inside its hop span;
//! * exhaustiveness: `stall_phase` maps exactly the stall-marker trace
//!   kinds (the compile-time guard that every `TraceKind` variant has a
//!   decided provenance treatment).

use frfc::engine::propcheck::{check, AnyBool};
use frfc::engine::trace::TraceKind;
use frfc::engine::warmup::WarmupConfig;
use frfc::metrics::Json;
use frfc::network::{FlowControl, RunSpec, SimConfig};
use frfc::provenance::{chrome_trace, stall_phase, Phase, ProvenanceReport};
use frfc::topology::Mesh;
use std::collections::BTreeMap;

/// A seconds-fast measurement config on the 4x4 mesh.
fn tiny_sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        warmup: WarmupConfig {
            min_cycles: 300,
            max_cycles: 2_000,
            window: 4,
            tolerance: 0.1,
        },
        sample_packets: 150,
        drain_cap: 10_000,
        warmup_probe_period: 16,
    }
}

fn assert_well_formed(label: &str, report: &ProvenanceReport) {
    assert_eq!(report.malformed, 0, "{label}: malformed folds");
    assert!(
        !report.records.is_empty(),
        "{label}: no flit records collected"
    );
    for r in &report.records {
        // Spans close: hops are ordered and each hop's components tile
        // its residency exactly.
        let mut prev_depart = 0;
        for hop in &r.hops {
            assert!(hop.arrive >= prev_depart, "{label}: hops out of order");
            assert!(hop.depart >= hop.arrive, "{label}: negative residency");
            prev_depart = hop.depart;
            let tiled = hop.route
                + hop.vc_alloc_stall
                + hop.credit_stall
                + hop.buffer_wait
                + hop.switch
                + hop.ejection;
            assert_eq!(
                tiled,
                hop.residency(),
                "{label}: hop at node {} does not tile its residency",
                hop.node
            );
        }
        // Exactness: phases sum to the measured end-to-end latency.
        assert_eq!(
            r.attributed(),
            r.end_to_end(),
            "{label}: flit ({}, {}) attribution != latency",
            r.packet,
            r.seq
        );
    }
    // The delivery tracker pegs a packet's latency to its last-ejected
    // flit (FR flits may eject out of seq order), so the max record
    // ejection per packet must reproduce the tracker's ground truth.
    let mut last_eject = BTreeMap::new();
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
}

/// Checks a parsed Chrome export against the trace-event contract:
/// every event is named and carries `ph` (`X` or `M`) and `pid`,
/// complete events carry `ts`, `dur` and `tid`, and every phase tile
/// lies inside a `pkt` hop span on the same (pid, tid) track.
fn assert_tiles_nest_in_hop_spans(label: &str, doc: &Json) {
    let tile_names = [
        Phase::RouteCompute,
        Phase::VcAllocStall,
        Phase::CreditStall,
        Phase::BufferWait,
        Phase::SwitchTraversal,
        Phase::Ejection,
    ]
    .map(Phase::name);
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{label}: export has no traceEvents array"));
    let mut hops: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut tiles: Vec<((u64, u64), (u64, u64))> = Vec::new();
    for e in events {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{label}: event without a name"));
        let field = |key: &str| {
            e.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{label}: event {name} without {key}"))
        };
        let ph = e.get("ph").and_then(Json::as_str);
        assert!(
            matches!(ph, Some("X" | "M")),
            "{label}: event {name} has phase {ph:?}"
        );
        let pid = field("pid");
        if ph != Some("X") {
            continue;
        }
        let (ts, dur, tid) = (field("ts"), field("dur"), field("tid"));
        if name.starts_with("pkt ") {
            hops.entry((pid, tid)).or_default().push((ts, ts + dur));
        } else if tile_names.contains(&name) {
            tiles.push(((pid, tid), (ts, ts + dur)));
        }
    }
    assert!(!hops.is_empty(), "{label}: export has no hop spans");
    for (track, (start, end)) in tiles {
        assert!(
            hops.get(&track)
                .is_some_and(|spans| spans.iter().any(|&(s, e)| s <= start && end <= e)),
            "{label}: phase tile [{start}, {end}) on track {track:?} is not nested in any hop span"
        );
    }
}

/// Randomized runs of both flow controls: spans close, components sum
/// exactly, FR is structurally free of credit/route cycles, tracing
/// does not perturb the run, and the Chrome export nests its phase
/// tiles and is byte-stable across same-seed runs.
#[test]
fn traced_runs_are_well_formed_and_deterministic() {
    let mesh = Mesh::new(4, 4);
    let strategy = (1u64..1_000, 0usize..3, 1u64..4, AnyBool);
    check(6, strategy, |(seed, load_idx, sample_every, use_fr)| {
        let load = [0.15, 0.35, 0.55][load_idx];
        let fc = if use_fr {
            FlowControl::fr6()
        } else {
            FlowControl::vc8()
        };
        let label = format!("{}@{load}/s{seed}/k{sample_every}", fc.label());
        let sim = tiny_sim(seed);
        let spec = RunSpec {
            provenance_sample_every: Some(sample_every),
            ..RunSpec::new(fc.clone(), mesh, load, 5, sim)
        };
        let traced = || spec.run().expect("valid spec");
        let out = traced();
        let (result, report) = (out.result.expect("result"), out.provenance.expect("report"));
        assert_well_formed(&label, &report);
        let plain = fc.run(mesh, load, 5, &sim);
        assert_eq!(plain.delivered, result.delivered, "{label}: delivered");
        assert_eq!(plain.end_cycle, result.end_cycle, "{label}: end cycle");
        assert_eq!(
            plain.mean_latency().to_bits(),
            result.mean_latency().to_bits(),
            "{label}: tracing changed the measured latency"
        );
        assert_eq!(
            plain.accepted_fraction.to_bits(),
            result.accepted_fraction.to_bits(),
            "{label}: tracing changed the accepted throughput"
        );
        if use_fr {
            for r in &report.records {
                assert_eq!(
                    r.phases[Phase::CreditStall.index()],
                    0,
                    "{label}: FR flit charged credit stalls"
                );
                assert_eq!(
                    r.phases[Phase::RouteCompute.index()],
                    0,
                    "{label}: FR flit charged route compute"
                );
            }
        }
        let export = chrome_trace(&report, mesh.width()).render();
        let parsed = Json::parse(&export).expect("the Chrome export parses");
        assert_tiles_nest_in_hop_spans(&label, &parsed);
        // Byte-identical export on a same-seed rerun.
        let report2 = traced().provenance.expect("report");
        assert_eq!(
            export,
            chrome_trace(&report2, mesh.width()).render(),
            "{label}: same-seed export differs"
        );
    });
}

/// `stall_phase` is the crate's exhaustiveness guard: adding a
/// `TraceKind` variant without deciding its provenance treatment fails
/// to compile. This pins the mapping it encodes.
#[test]
fn stall_phase_maps_exactly_the_stall_markers() {
    assert_eq!(
        stall_phase(&TraceKind::VcAllocStall { packet: 1, seq: 0 }),
        Some(Phase::VcAllocStall)
    );
    assert_eq!(
        stall_phase(&TraceKind::CreditStall { packet: 1, seq: 0 }),
        Some(Phase::CreditStall)
    );
    assert_eq!(
        stall_phase(&TraceKind::SwitchStall { packet: 1, seq: 0 }),
        Some(Phase::SwitchTraversal)
    );
    assert_eq!(
        stall_phase(&TraceKind::ControlStall { packet: 1 }),
        Some(Phase::ControlLead)
    );
    // Non-stall kinds map to nothing.
    assert_eq!(
        stall_phase(&TraceKind::FlitEjected { packet: 1, seq: 0 }),
        None
    );
    assert_eq!(
        stall_phase(&TraceKind::PacketDelivered {
            packet: 1,
            latency: 9
        }),
        None
    );
}
