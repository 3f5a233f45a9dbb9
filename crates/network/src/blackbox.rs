//! Black-box flight recording, crash sidecars and manifest-driven replay.
//!
//! The observability layer's "what happened?" machinery: a [`RunSpec`]
//! on the inject-then-drain schedule carries a bounded [`RingSink`]
//! flight recorder and a progress watchdog; when the watchdog fires, or
//! a conservation/contract panic unwinds out of the cycle loop, the
//! harness captures a **crash sidecar** — one JSON document
//! holding the ring's recent events, the complete
//! [`crate::Network::state_snapshot`] dump with its digest, the
//! reproduction manifest and the [`RunSpec`] that rebuilds the run.
//!
//! Because the whole simulator is deterministic from its seed, the
//! sidecar is *executable*: [`replay_to_cycle`] reconstructs the network
//! from the spec through [`crate::FlowControl::build`], re-runs it to the
//! captured cycle (on any thread count) and verifies that the live
//! [`crate::Network::state_digest`] matches the dump bit for bit. That
//! replay check is also the state-serialization substrate for
//! checkpoint / restore: a state dump that replays bit-identically is a
//! state dump that can be trusted to restore from.

use crate::spec::obj;
use crate::{AnyNetwork, RunSpec, Schedule};
use noc_engine::trace::{NullSink, RingSink};
use noc_metrics::{json_diff, Json, JsonDiff, NullRecorder, RunManifest};

/// Version of the crash-sidecar document layout, whose replay section
/// is a full [`RunSpec`]. Any change to that layout bumps it; sidecars
/// of another version are refused, not migrated.
pub const SIDECAR_SCHEMA_VERSION: u64 = 3;

/// A network armed with the flight recorder.
type RingNet = AnyNetwork<NullSink, RingSink, NullRecorder>;

/// Validates a blackbox spec and builds its network, the flight ring as
/// the network-level sink; returns it with the injection and drain
/// budgets.
fn build(spec: &RunSpec) -> Result<(RingNet, u64, u64), String> {
    spec.validate()?;
    let Schedule::InjectThenDrain {
        inject_cycles,
        drain_cap,
    } = spec.schedule
    else {
        return Err("blackbox runs need the inject-then-drain schedule".into());
    };
    let ring = RingSink::new(1usize << spec.ring_log2.unwrap_or(0));
    let net = spec.build(NullSink, ring, NullRecorder);
    Ok((net, inject_cycles, drain_cap))
}

/// What ended a blackbox run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The run drained cleanly: nothing to capture.
    Completed,
    /// The progress watchdog fired (no delivery progress with traffic in
    /// flight).
    Watchdog,
    /// A panic — invariant, contract or conservation violation — unwound
    /// out of the cycle loop; the payload message rides in the sidecar.
    Panic,
    /// The drain cap elapsed with traffic still in flight (throughput
    /// collapse rather than a hard deadlock).
    DrainCap,
}

impl Trigger {
    /// Stable lower-case label used in sidecar documents.
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::Completed => "completed",
            Trigger::Watchdog => "watchdog",
            Trigger::Panic => "panic",
            Trigger::DrainCap => "drain_cap",
        }
    }
}

/// Outcome of a blackbox run: the trigger, a human-readable detail
/// line, and — for every non-clean trigger — the captured crash sidecar.
#[derive(Clone, Debug)]
pub struct BlackboxRun {
    /// What ended the run.
    pub trigger: Trigger,
    /// One-line diagnosis (panic message, stall length, ...).
    pub detail: String,
    /// The crash sidecar; `None` when the run completed cleanly.
    pub sidecar: Option<Json>,
    /// Cycles executed.
    pub cycles: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Steps one cycle catching panics, so invariant violations become
/// capturable triggers instead of aborting the harness.
fn step_caught(net: &mut RingNet, threads: usize) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.step(threads)))
        .map_err(|p| panic_message(p.as_ref()))
}

/// Assembles a crash sidecar: schema version, trigger, manifest, replay
/// spec, ring contents and the full state dump with its digest.
fn capture_sidecar(net: &RingNet, spec: &RunSpec, trigger: &Trigger, detail: &str) -> Json {
    let mut manifest = RunManifest::new(
        "blackbox",
        spec.seed,
        format!("{}x{}@{:.2}", spec.mesh_width, spec.mesh_height, spec.load),
        spec.flow.label(),
    );
    manifest.threads = spec.threads.max(1) as u64;
    let ring = net.tracer();
    let events: Vec<Json> = ring.events().map(|e| Json::Str(format!("{e:?}"))).collect();
    let state = net.state_snapshot();
    let digest = noc_metrics::state_digest(&state);
    let tracker = net.tracker();
    obj([
        ("schema_version", Json::Num(SIDECAR_SCHEMA_VERSION as f64)),
        ("trigger", Json::str(trigger.label())),
        ("detail", Json::str(detail)),
        ("cycle", Json::Num(net.now().raw() as f64)),
        ("in_flight", Json::Num(tracker.in_flight() as f64)),
        (
            "delivered_flits",
            Json::Num(tracker.delivered_flits() as f64),
        ),
        ("manifest", manifest.to_json()),
        ("replay", spec.to_json()),
        (
            "ring",
            obj([
                ("capacity", Json::Num(ring.capacity() as f64)),
                ("dropped", Json::Num(ring.dropped() as f64)),
                ("events", Json::Arr(events)),
            ]),
        ),
        ("state", state),
        ("state_digest", Json::Str(digest)),
    ])
}

/// Runs a validated blackbox `spec` end to end: `inject_cycles` of
/// traffic, then a drain of at most `drain_cap` cycles. A watchdog trip,
/// a panic out of the cycle loop, or an exhausted drain cap each capture
/// a crash sidecar; a clean drain returns [`Trigger::Completed`] with no
/// sidecar. Reached through [`RunSpec::run`].
///
/// The progress watchdog counts the cycles that end with packets in
/// flight and no more flits delivered than at the last progress; any
/// delivered flit, or an empty network, resets the count, and
/// `spec.watchdog` consecutive stalled cycles trip it. It only reads the
/// delivery tracker, which no router sees, so arming it cannot perturb
/// the run.
pub(crate) fn run(spec: &RunSpec) -> BlackboxRun {
    let (mut net, inject_cycles, drain_cap) = build(spec).expect("validated blackbox spec");
    let capture = |net: &RingNet, trigger: Trigger, detail: String| BlackboxRun {
        sidecar: Some(capture_sidecar(net, spec, &trigger, &detail)),
        cycles: net.now().raw(),
        delivered_flits: net.tracker().delivered_flits(),
        trigger,
        detail,
    };
    let mut drained = false;
    let mut progress = net.tracker().delivered_flits();
    let mut stalled = 0u64;
    for phase in ["inject", "drain"] {
        let budget = if phase == "inject" {
            inject_cycles
        } else {
            net.stop_injection();
            drain_cap
        };
        for _ in 0..budget {
            if phase == "drain" && net.tracker().in_flight() == 0 {
                drained = true;
                break;
            }
            if let Err(message) = step_caught(&mut net, spec.threads) {
                return capture(&net, Trigger::Panic, message);
            }
            let Some(limit) = spec.watchdog else {
                continue;
            };
            let delivered = net.tracker().delivered_flits();
            if delivered != progress || net.tracker().in_flight() == 0 {
                progress = delivered;
                stalled = 0;
                continue;
            }
            stalled += 1;
            if stalled >= limit {
                let detail = format!(
                    "no delivery progress for {limit} cycles with {} packets in flight",
                    net.tracker().in_flight()
                );
                return capture(&net, Trigger::Watchdog, detail);
            }
        }
    }
    if !drained && net.tracker().in_flight() > 0 {
        let detail = format!(
            "drain cap of {drain_cap} cycles elapsed with {} packets in flight",
            net.tracker().in_flight()
        );
        return capture(&net, Trigger::DrainCap, detail);
    }
    BlackboxRun {
        trigger: Trigger::Completed,
        detail: format!("drained at cycle {}", net.now().raw()),
        sidecar: None,
        cycles: net.now().raw(),
        delivered_flits: net.tracker().delivered_flits(),
    }
}

/// Runs `spec` to exactly `cycle` cycles (honouring the injection-stop
/// schedule) on `spec.threads` workers and captures an unconditional
/// sidecar — the checkpoint write path, and the harness the
/// replay-equality tests drive.
pub fn capture_at_cycle(spec: &RunSpec, cycle: u64) -> Result<Json, String> {
    let net = run_to_cycle(spec, cycle)?;
    Ok(capture_sidecar(
        &net,
        spec,
        &Trigger::Completed,
        &format!("manual capture at cycle {cycle}"),
    ))
}

/// Rebuilds `spec`'s network and steps it to exactly `cycle` cycles,
/// stopping injection at `inject_cycles` just as the capture run did.
fn run_to_cycle(spec: &RunSpec, cycle: u64) -> Result<RingNet, String> {
    let (mut net, inject_cycles, _) = build(spec)?;
    for t in 0..cycle {
        if t == inject_cycles {
            net.stop_injection();
        }
        net.step(spec.threads);
    }
    if cycle >= inject_cycles {
        // The capture run may have stopped injection on the boundary
        // cycle itself; stopping again is idempotent.
        net.stop_injection();
    }
    Ok(net)
}

/// Result of replaying a sidecar: the captured and live digests plus any
/// structural differences between the dumps.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Cycle the replay ran to.
    pub cycle: u64,
    /// Digest recorded in the sidecar.
    pub expected_digest: String,
    /// Digest of the replayed network's live state.
    pub live_digest: String,
    /// Structural differences between the captured and live dumps
    /// (empty when the live state renders to the captured dump's bytes).
    pub diffs: Vec<JsonDiff>,
}

impl ReplayReport {
    /// True when the live state matched the capture bit for bit.
    pub fn matches(&self) -> bool {
        self.expected_digest == self.live_digest && self.diffs.is_empty()
    }
}

/// Replays a crash sidecar: rebuilds the network from its `replay`
/// section, runs to the captured cycle on `threads` workers, and
/// compares the live state dump against the captured one bit for bit.
/// The live dump is hashed as it is written; its tree is built only
/// when the hashes differ, to list the differences.
pub fn replay_to_cycle(sidecar: &Json, threads: usize) -> Result<ReplayReport, String> {
    match sidecar.get("schema_version").and_then(Json::as_u64) {
        Some(SIDECAR_SCHEMA_VERSION) => {}
        Some(v) => {
            return Err(format!(
                "sidecar schema v{v} is not replayable: this build reads v{SIDECAR_SCHEMA_VERSION} \
                 only; re-capture the run"
            ))
        }
        None => return Err("sidecar: missing `schema_version`".into()),
    }
    let spec = RunSpec {
        threads,
        ..RunSpec::from_json(sidecar.get("replay").ok_or("sidecar: missing `replay`")?)?
    };
    let cycle = sidecar
        .get("cycle")
        .and_then(Json::as_u64)
        .ok_or("sidecar: missing `cycle`")?;
    let expected_digest = sidecar
        .get("state_digest")
        .and_then(Json::as_str)
        .ok_or("sidecar: missing `state_digest`")?
        .to_string();
    let expected_state = sidecar.get("state").ok_or("sidecar: missing `state`")?;
    let net = run_to_cycle(&spec, cycle)?;
    // The live state is hashed as it is written; its tree is built only
    // to explain a difference from the captured dump.
    let live_digest = net.state_digest();
    let diffs = if live_digest == noc_metrics::state_digest(expected_state) {
        Vec::new()
    } else {
        json_diff(expected_state, &net.state_snapshot())
    };
    Ok(ReplayReport {
        cycle,
        expected_digest,
        live_digest,
        diffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_faults::{DeadLink, FaultPlan};
    use noc_topology::{NodeId, Port};

    fn inject_for(spec: &mut RunSpec, inject_cycles: u64) {
        spec.schedule = Schedule::InjectThenDrain {
            inject_cycles,
            drain_cap: 20_000,
        };
    }

    #[test]
    fn replay_spec_round_trips_through_json() {
        let mut spec = RunSpec::fr6_small(77);
        spec.fault = Some(FaultPlan {
            data_corrupt_rate: 1e-3,
            dead_links: vec![DeadLink {
                node: NodeId::new(5),
                port: Port::West,
                at_cycle: 123,
            }],
            ..FaultPlan::quiet(9)
        });
        let doc = spec.to_json();
        let back = RunSpec::from_json(&doc).expect("parse");
        assert_eq!(spec, back);
        // And through the text renderer too.
        let text = doc.render();
        let reparsed = Json::parse(&text).expect("reparse");
        assert_eq!(RunSpec::from_json(&reparsed).expect("parse"), spec);
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let text = RunSpec::fr6_small(1).to_json().render();
        let unknown = text.replace("\"fr\"", "\"saf\"");
        assert_ne!(text, unknown, "the flow family is spelled out");
        assert!(RunSpec::from_json(&Json::parse(&unknown).expect("parse")).is_err());
        let mut spec = RunSpec::fr6_small(1);
        spec.ring_log2 = None;
        assert!(spec.validate().is_err());
        assert!(spec.run().is_err());
        assert!(capture_at_cycle(&spec, 10).is_err());
    }

    #[test]
    fn clean_run_produces_no_sidecar() {
        let mut spec = RunSpec::fr6_small(0x0B_5E);
        inject_for(&mut spec, 120);
        let run = spec.run().expect("run").blackbox.expect("blackbox run");
        assert_eq!(run.trigger, Trigger::Completed);
        assert!(run.sidecar.is_none());
        assert!(run.delivered_flits > 0);
    }

    #[test]
    fn capture_and_replay_agree_on_the_digest() {
        let mut spec = RunSpec::fr6_small(0xD1_6E);
        inject_for(&mut spec, 150);
        let sidecar = capture_at_cycle(&spec, 200).expect("capture");
        let report = replay_to_cycle(&sidecar, 1).expect("replay");
        assert!(
            report.matches(),
            "replay diverged: {:?}",
            report.diffs.first()
        );
    }

    #[test]
    fn version_one_sidecars_are_refused() {
        let spec = RunSpec::fr6_small(3);
        for old in [1, 2] {
            let mut sidecar = capture_at_cycle(&spec, 5).expect("capture");
            if let Json::Obj(pairs) = &mut sidecar {
                pairs[0].1 = Json::Num(old as f64);
            }
            let err = replay_to_cycle(&sidecar, 1).expect_err("old schema must be refused");
            assert!(err.contains(&format!("schema v{old}")), "{err}");
        }
    }
}
