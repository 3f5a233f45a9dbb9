//! Fault-layer determinism: the entire fault schedule is part of the
//! seed path.
//!
//! Three claims, each load-bearing for reproducibility:
//!
//! * **same seed, same faults** — two runs under the same randomized
//!   [`FaultPlan`] replay bit-identical event streams and export
//!   byte-identical metrics JSON (after stripping wall-clock data);
//! * **zero-cost when off** — a rate-zero (inactive) plan produces an
//!   event stream bit-identical to a run that never loaded the fault
//!   layer at all, and no `fault.*` metrics keys appear;
//! * **plans matter** — changing only the fault rates changes the
//!   stream, so the determinism above is not vacuous.

mod common;

use common::mesh4_net;
use frfc::engine::trace::{SharedSink, TraceEvent, VecSink};
use frfc::faults::FaultPlan;
use frfc::metrics::{strip_nondeterministic, Json, NullRecorder, RunManifest};
use frfc::network::{FlowControl, RunSpec, SimConfig};
use frfc::topology::Mesh;

/// A short-run plan derived from [`FaultPlan::randomized`] with the
/// recovery knobs tightened so the drain converges quickly.
fn fast_plan(seed: u64, mesh: Mesh) -> FaultPlan {
    let mut plan = FaultPlan::randomized(seed, mesh);
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    for d in &mut plan.dead_links {
        d.at_cycle = d.at_cycle.min(256);
    }
    plan
}

/// Event stream of one fully traced run on the 4×4 mesh (traffic
/// stream 99), optionally under a fault plan.
fn trace(flow: &FlowControl, load: f64, seed: u64, plan: Option<&FaultPlan>) -> Vec<TraceEvent> {
    let shared = SharedSink::new(VecSink::new());
    let mut net = mesh4_net(
        flow,
        load,
        seed,
        shared.clone(),
        shared.clone(),
        NullRecorder,
    );
    if let Some(p) = plan {
        net.set_fault_plan(p.clone());
    }
    net.run_cycles(1_500);
    net.stop_injection();
    net.run_cycles(8_000);
    assert_eq!(net.tracker().in_flight(), 0, "run must drain");
    drop(net);
    shared.into_inner().into_events()
}

/// Stripped metrics export of one metered methodology run at load 0.4,
/// which must complete: every measured packet drains, faults or not.
fn export(flow: FlowControl, sim: SimConfig, plan: Option<FaultPlan>, config: String) -> Json {
    let spec = RunSpec {
        metrics_period: Some(64),
        fault: plan,
        ..RunSpec::new(flow, Mesh::new(4, 4), 0.4, 5, sim)
    };
    let out = spec.run().expect("valid spec");
    assert!(
        out.result.expect("methodology result").completed,
        "{config}: the run saturated"
    );
    let registry = out.registry.expect("metered run");
    let mut manifest = RunManifest::new("fault_determinism", sim.seed, "test", "");
    manifest.config = config;
    let mut doc = registry.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    doc
}

#[test]
fn same_seed_fault_runs_replay_identical_event_streams() {
    let mesh = Mesh::new(4, 4);
    for plan_seed in [11u64, 12, 13] {
        let plan = fast_plan(plan_seed, mesh);
        let a = trace(&FlowControl::fr6(), 0.4, 21, Some(&plan));
        let b = trace(&FlowControl::fr6(), 0.4, 21, Some(&plan));
        assert!(!a.is_empty());
        assert_eq!(a, b, "plan seed {plan_seed}: fault runs diverged");
        let va = trace(&FlowControl::vc8(), 0.4, 21, Some(&plan));
        let vb = trace(&FlowControl::vc8(), 0.4, 21, Some(&plan));
        assert_eq!(va, vb, "plan seed {plan_seed}: VC fault runs diverged");
    }
}

#[test]
fn inactive_plan_is_bit_identical_to_no_fault_layer() {
    let quiet = FaultPlan::quiet(5);
    assert!(!quiet.is_active());
    let bare = trace(&FlowControl::fr6(), 0.4, 22, None);
    let quieted = trace(&FlowControl::fr6(), 0.4, 22, Some(&quiet));
    assert!(!bare.is_empty());
    assert_eq!(
        bare, quieted,
        "a rate-zero plan must not perturb a single event"
    );
    let bare_vc = trace(&FlowControl::vc8(), 0.4, 22, None);
    let quieted_vc = trace(&FlowControl::vc8(), 0.4, 22, Some(&quiet));
    assert_eq!(bare_vc, quieted_vc);
}

#[test]
fn fault_rates_actually_change_the_stream() {
    let mesh = Mesh::new(4, 4);
    let mut low = fast_plan(31, mesh);
    low.data_corrupt_rate = 1e-3;
    low.control_drop_rate = 1e-3;
    let mut high = low.clone();
    high.data_corrupt_rate = 5e-3;
    high.control_drop_rate = 5e-3;
    let a = trace(&FlowControl::fr6(), 0.4, 23, Some(&low));
    let b = trace(&FlowControl::fr6(), 0.4, 23, Some(&high));
    assert_ne!(a, b, "different fault rates must diverge somewhere");
}

/// Metrics export under a randomized plan: two same-seed runs must
/// render byte-identical JSON once nondeterministic fields (wall-clock)
/// are stripped, and the export must carry the `fault.*` counters.
#[test]
fn fault_metrics_exports_are_byte_identical_across_reruns() {
    let mesh = Mesh::new(4, 4);
    let plan = fast_plan(41, mesh);
    let sim = SimConfig {
        seed: 24,
        sample_packets: 300,
        ..SimConfig::quick(24)
    };
    let export = || export(FlowControl::fr6(), sim, Some(plan.clone()), plan.summary());
    let a = export();
    let b = export();
    let counters = a.get("counters").expect("export has counters");
    for key in ["fault.data_corrupted", "fault.retransmits", "fault.acks"] {
        assert!(
            counters.get(key).is_some(),
            "faulty export missing counter {key}"
        );
    }
    assert_eq!(
        a.render(),
        b.render(),
        "same-seed faulty metrics exports differ"
    );
}

/// Zero-cost-when-off at the metrics layer: no plan and an inactive
/// plan must both export without any `fault.*` keys, byte-identically.
#[test]
fn inactive_plan_exports_no_fault_keys() {
    let sim = SimConfig {
        seed: 25,
        sample_packets: 300,
        ..SimConfig::quick(25)
    };
    let export = |plan: Option<FaultPlan>| export(FlowControl::vc8(), sim, plan, "VC8".into());
    let bare = export(None);
    let quieted = export(Some(FaultPlan::quiet(9)));
    let counters = bare.get("counters").expect("export has counters");
    assert!(
        counters.get("fault.retransmits").is_none(),
        "fault keys must not appear in a fault-free export"
    );
    assert_eq!(bare.render(), quieted.render());
}
