//! Shape-level reproduction of the paper's headline claims, at reduced
//! scale so the suite stays fast. Absolute numbers are checked loosely
//! (our router pipeline is a reconstruction, see DESIGN.md); *orderings*
//! — who wins, and roughly by how much — are checked strictly.

use frfc::engine::warmup::WarmupConfig;
use frfc::flow::LinkTiming;
use frfc::fr::FrConfig;
use frfc::network::{FlowControl, SimConfig};
use frfc::topology::Mesh;
use frfc::vc::VcConfig;

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        warmup: WarmupConfig {
            min_cycles: 800,
            max_cycles: 5_000,
            window: 8,
            tolerance: 0.08,
        },
        sample_packets: 400,
        drain_cap: 15_000,
        warmup_probe_period: 32,
    }
}

fn latency(flow: &FlowControl, load: f64, length: u32) -> f64 {
    let r = flow.run(Mesh::new(8, 8), load, length, &sim(2000));
    assert!(r.completed, "{} must sustain {load}", flow.label());
    r.mean_latency()
}

fn sustains(flow: &FlowControl, load: f64, length: u32, limit: f64) -> bool {
    let r = flow.run(Mesh::new(8, 8), load, length, &sim(2000));
    r.completed && r.mean_latency() <= limit
}

fn vc16() -> FlowControl {
    FlowControl::VirtualChannel(VcConfig::vc16(), LinkTiming::fast_control())
}

fn fr13() -> FlowControl {
    FlowControl::FlitReservation(FrConfig::fr13())
}

/// Section 4.1: FR has lower base latency than VC (paper: 27 vs 32
/// cycles, a 15.6% saving) because routing and arbitration are done in
/// advance by the control flits.
#[test]
fn fr_base_latency_beats_vc() {
    let vc = latency(&FlowControl::vc8(), 0.1, 5);
    let fr = latency(&FlowControl::fr6(), 0.1, 5);
    assert!(fr < vc, "FR base latency {fr:.1} must undercut VC {vc:.1}");
    let saving = (vc - fr) / vc;
    assert!(
        (0.05..0.35).contains(&saving),
        "latency saving {saving:.2} out of the paper's ballpark"
    );
}

/// Section 4.1: with equal storage, FR6 sustains loads that saturate VC8
/// (paper: 77% vs 63%).
#[test]
fn fr6_outlives_vc8_saturation() {
    let limit = 3.0 * latency(&FlowControl::vc8(), 0.1, 5);
    assert!(
        sustains(&FlowControl::vc8(), 0.45, 5, limit),
        "VC8 sustains 45%"
    );
    assert!(
        !sustains(&FlowControl::vc8(), 0.72, 5, limit),
        "VC8 must be saturated at 72% (paper: 63%)"
    );
    assert!(
        sustains(&FlowControl::fr6(), 0.72, 5, limit),
        "FR6 must sustain 72% (paper: 77%)"
    );
}

/// Section 4.1: FR6 (6 buffers) approaches VC16 (16 buffers) — the
/// buffer-savings claim.
#[test]
fn fr6_matches_vc16_class_throughput() {
    let limit = 3.0 * latency(&vc16(), 0.1, 5);
    let load = 0.7;
    assert!(sustains(&vc16(), load, 5, limit), "VC16 sustains {load}");
    assert!(
        sustains(&FlowControl::fr6(), load, 5, limit),
        "FR6 with 6 buffers must keep up with VC16's 16 buffers at {load}"
    );
}

/// Section 4.1: FR13 extends throughput beyond VC16 (paper: 85% vs 80%).
#[test]
fn fr13_extends_vc16() {
    let limit = 3.0 * latency(&vc16(), 0.1, 5);
    let load = 0.82;
    assert!(
        !sustains(&vc16(), load, 5, limit),
        "VC16 saturates by {load}"
    );
    assert!(sustains(&fr13(), load, 5, limit), "FR13 sustains {load}");
}

/// Section 4.2: with 21-flit packets and only 6 buffers, FR6's edge is
/// tempered — it saturates well below its 5-flit saturation point.
#[test]
fn long_packets_temper_fr6() {
    let limit = 3.0 * latency(&FlowControl::fr6(), 0.1, 21);
    assert!(
        !sustains(&FlowControl::fr6(), 0.72, 21, limit),
        "FR6 must saturate below 72% with 21-flit packets (paper: 60%)"
    );
    assert!(
        sustains(&FlowControl::fr6(), 0.4, 21, limit),
        "FR6 sustains 40%"
    );
}

/// Section 4.3: throughput is relatively insensitive to the scheduling
/// horizon — 16 vs 128 cycles changes mid-load latency only modestly.
#[test]
fn horizon_insensitivity() {
    let l16 = latency(
        &FlowControl::FlitReservation(FrConfig::fr6().with_horizon(16)),
        0.5,
        5,
    );
    let l128 = latency(
        &FlowControl::FlitReservation(FrConfig::fr6().with_horizon(128)),
        0.5,
        5,
    );
    let rel = (l16 - l128).abs() / l128;
    assert!(
        rel < 0.15,
        "horizon 16 vs 128 latency gap {rel:.2} too large at 50% load"
    );
}

/// Section 4.4: with leading control on uniform 1-cycle wires, FR and VC
/// have (approximately) equal base latency, and FR still wins at 50%
/// load (paper: 19 vs 21 cycles).
#[test]
fn leading_control_base_latency_parity_and_midload_win() {
    let wires = LinkTiming::leading_control(1);
    let fr = FlowControl::FlitReservation(FrConfig::fr6().with_timing(wires));
    let vc = FlowControl::VirtualChannel(VcConfig::vc8(), wires.vc_baseline_of());
    let fr_base = latency(&fr, 0.1, 5);
    let vc_base = latency(&vc, 0.1, 5);
    let rel = (fr_base - vc_base).abs() / vc_base;
    assert!(
        rel < 0.2,
        "leading-control base latencies should be close: FR {fr_base:.1} vs VC {vc_base:.1}"
    );
    let fr_mid = latency(&fr, 0.5, 5);
    let vc_mid = latency(&vc, 0.5, 5);
    assert!(
        fr_mid < vc_mid,
        "FR must win under load: {fr_mid:.1} vs {vc_mid:.1}"
    );
}

/// Section 4.4: throughput with leading control is independent of the
/// lead time (1 vs 4 cycles).
#[test]
fn lead_time_independence() {
    let mk = |lead| {
        FlowControl::FlitReservation(FrConfig::fr6().with_timing(LinkTiming::leading_control(lead)))
    };
    let l1 = latency(&mk(1), 0.55, 5);
    let l4 = latency(&mk(4), 0.55, 5);
    let rel = (l1 - l4).abs() / l1;
    assert!(
        rel < 0.25,
        "lead 1 vs 4 should perform alike at 55% load: {l1:.1} vs {l4:.1}"
    );
}

/// Section 5: the shared buffer pool does not rescue VC throughput — the
/// FR win comes from advance scheduling, not pooling.
#[test]
fn shared_pool_does_not_save_vc() {
    let shared = FlowControl::VirtualChannel(
        VcConfig::vc8().with_shared_pool(),
        LinkTiming::fast_control(),
    );
    let limit = 3.0 * latency(&shared, 0.1, 5);
    assert!(
        !sustains(&shared, 0.72, 5, limit),
        "shared-pool VC8 must still saturate where FR6 does not"
    );
}
