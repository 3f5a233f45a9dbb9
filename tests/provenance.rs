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
//! * determinism: same-seed runs export byte-identical Chrome traces;
//! * exhaustiveness: `stall_phase` maps exactly the stall-marker trace
//!   kinds (the compile-time guard that every `TraceKind` variant has a
//!   decided provenance treatment).

use frfc::engine::propcheck::{check, AnyBool};
use frfc::engine::trace::TraceKind;
use frfc::engine::warmup::WarmupConfig;
use frfc::network::{FlowControl, RunSpec, SimConfig};
use frfc::provenance::{chrome_trace, stall_phase, Phase, ProvenanceReport};
use frfc::topology::Mesh;

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
}

/// Randomized runs of both flow controls: spans close, components sum
/// exactly, FR is structurally free of credit/route cycles, and the
/// Chrome export is byte-stable across same-seed runs.
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
        let traced = || spec.run().expect("valid spec").provenance.expect("report");
        let report = traced();
        assert_well_formed(&label, &report);
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
        // Byte-identical export on a same-seed rerun.
        let report2 = traced();
        assert_eq!(
            chrome_trace(&report, mesh.width()).render(),
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
