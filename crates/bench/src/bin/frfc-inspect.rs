//! Post-mortem inspection of blackbox crash sidecars.
//!
//! A crash sidecar (written by `frfc-sim`'s blackbox mode, by
//! a blackbox `RunSpec` on a watchdog/panic/drain-cap trigger, or by
//! `capture_at_cycle` as a checkpoint) is one JSON document holding the
//! flight-recorder ring, the complete network state dump with its
//! digest, and the `RunSpec` that rebuilds the run. This bin reads
//! those documents back:
//!
//! * `show <sidecar>` — pretty-prints the trigger, manifest, the ring's
//!   recent events, the delivery tracker's stuck packets, and — for
//!   flit-reservation routers — the per-output-port reservation-table
//!   timelines as ASCII slot occupancy (`X` reserved, `.` free), the
//!   paper's Figure 4 rendered from the dump.
//! * `diff <a> <b>` — structural diff of two sidecars' state dumps
//!   (full documents when either lacks a `state` section).
//! * `replay <sidecar> [--threads N]` — rebuilds the run from the
//!   sidecar's replay spec, re-runs it to the captured cycle and
//!   verifies the live state digest matches the dump bit for bit.
//! * `--self-check` — constructs a dead-link livelock, proves the
//!   progress watchdog trips, round-trips the sidecar through disk and
//!   verifies replay digests at 1/4/8 threads. CI runs this stage.

use noc_faults::{DeadLink, FaultPlan};
use noc_metrics::{json_diff, write_json_file, Json, JsonDiff};
use noc_network::{replay_to_cycle, RunSpec, Trigger};
use noc_topology::{Mesh, Port};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
frfc-inspect — post-mortem inspection of blackbox crash sidecars

USAGE:
    frfc-inspect show <sidecar.json>
    frfc-inspect diff <a.json> <b.json>
    frfc-inspect replay <sidecar.json> [--threads N]
    frfc-inspect --self-check

Sidecars come from `frfc-sim --watchdog/--flight-ring/--dump-state-out`
or from any inject-then-drain noc_network::RunSpec.";

/// How many of the ring's newest events `show` prints.
const RING_TAIL: usize = 12;
/// How many stuck packets `show` lists from the tracker.
const STUCK_TAIL: usize = 8;
/// Cap on printed diff entries before summarizing the remainder.
const DIFF_CAP: usize = 40;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match strs.as_slice() {
        ["show", path] => load(path).map(|doc| {
            show(&doc);
            true
        }),
        ["diff", a, b] => match (load(a), load(b)) {
            (Ok(da), Ok(db)) => Ok(diff(&da, &db, a, b)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        ["replay", path, rest @ ..] => parse_threads(rest)
            .and_then(|threads| load(path).map(|doc| (doc, threads)))
            .and_then(|(doc, threads)| replay(&doc, threads)),
        ["--self-check"] => self_check().map(|()| true),
        ["--help"] | ["-h"] | [] => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unrecognised arguments {other:?}\n\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("frfc-inspect: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the optional `--threads N` tail of `replay`.
fn parse_threads(rest: &[&str]) -> Result<usize, String> {
    match rest {
        [] => Ok(1),
        ["--threads", n] => n
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("--threads needs a positive integer, got `{n}`")),
        other => Err(format!("unrecognised replay arguments {other:?}")),
    }
}

/// Reads and parses a sidecar document.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Field access helpers: sidecars are schema-versioned but hand-edited
/// or truncated files should degrade to `?` rather than panic.
fn num(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("?")
}

// ---------------------------------------------------------------- show

fn show(doc: &Json) {
    println!(
        "sidecar  : schema v{}",
        num(doc, "schema_version").unwrap_or(0)
    );
    println!("trigger  : {}", text(doc, "trigger"));
    println!("detail   : {}", text(doc, "detail"));
    println!(
        "cycle    : {}  ({} packets in flight, {} flits delivered)",
        num(doc, "cycle").unwrap_or(0),
        num(doc, "in_flight").unwrap_or(0),
        num(doc, "delivered_flits").unwrap_or(0)
    );
    if let Some(m) = doc.get("manifest") {
        println!(
            "manifest : {} | seed {} | scale {} | config {} | {} threads on {} cpus | rev {}",
            text(m, "experiment"),
            num(m, "seed").unwrap_or(0),
            text(m, "scale"),
            text(m, "config"),
            num(m, "threads").unwrap_or(0),
            num(m, "host_cpus").unwrap_or(0),
            text(m, "git_rev"),
        );
    }
    match doc.get("replay").map(RunSpec::from_json) {
        Some(Ok(spec)) => println!(
            "replay   : {} {}x{} @ load {:.2} | {:?} | ring 2^{} | watchdog {} | faults {}",
            spec.flow.label(),
            spec.mesh_width,
            spec.mesh_height,
            spec.load,
            spec.schedule,
            spec.ring_log2.unwrap_or(0),
            spec.watchdog.map_or("off".into(), |w| w.to_string()),
            spec.fault.map_or("none".into(), |f| format!(
                "armed ({} dead links)",
                f.dead_links.len()
            )),
        ),
        Some(Err(e)) => println!("replay   : unreadable ({e})"),
        None => {}
    }
    println!("digest   : {}", text(doc, "state_digest"));
    show_ring(doc);
    let Some(state) = doc.get("state") else {
        println!("\n(no state section)");
        return;
    };
    show_tracker(state);
    show_routers(state);
}

/// The flight recorder's tail: the newest `RING_TAIL` events.
fn show_ring(doc: &Json) {
    let Some(ring) = doc.get("ring") else { return };
    let events = ring.get("events").and_then(Json::as_array).unwrap_or(&[]);
    println!(
        "\nflight recorder: {} events held (capacity {}, {} older events dropped)",
        events.len(),
        num(ring, "capacity").unwrap_or(0),
        num(ring, "dropped").unwrap_or(0)
    );
    let skip = events.len().saturating_sub(RING_TAIL);
    if skip > 0 {
        println!("  ... {skip} earlier events ...");
    }
    for e in &events[skip..] {
        println!("  {}", e.as_str().unwrap_or("?"));
    }
}

/// Delivery-tracker summary plus the oldest stuck packets — the first
/// thing to read on a watchdog trip.
fn show_tracker(state: &Json) {
    let Some(t) = state.get("tracker") else {
        return;
    };
    println!(
        "\ntracker: {} packets delivered ({} flits), {} in flight",
        num(t, "delivered_packets").unwrap_or(0),
        num(t, "delivered_flits").unwrap_or(0),
        t.get("in_flight")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len)
    );
    let inflight = t.get("in_flight").and_then(Json::as_array).unwrap_or(&[]);
    let mut by_age: Vec<&Json> = inflight.iter().collect();
    by_age.sort_by_key(|p| num(p, "created_at").unwrap_or(0));
    for p in by_age.iter().take(STUCK_TAIL) {
        println!(
            "  packet {:>6} -> node {:<3} created at cycle {:<8} {} of {} flits seen",
            num(p, "packet").unwrap_or(0),
            num(p, "dest").unwrap_or(0),
            num(p, "created_at").unwrap_or(0),
            num(p, "seen_count").unwrap_or(0),
            num(p, "length").unwrap_or(0)
        );
    }
    if inflight.len() > STUCK_TAIL {
        println!("  ... and {} more", inflight.len() - STUCK_TAIL);
    }
}

/// Per-router pipeline summaries. Flit-reservation routers additionally
/// get their output reservation tables rendered as ASCII timelines.
fn show_routers(state: &Json) {
    let width = state
        .get("mesh")
        .and_then(|m| num(m, "width"))
        .unwrap_or(1)
        .max(1);
    let routers = state.get("routers").and_then(Json::as_array).unwrap_or(&[]);
    if routers.is_empty() {
        return;
    }
    let family = text(&routers[0], "family");
    println!(
        "\nrouters: {} ({} family){}",
        routers.len(),
        family,
        if family == "fr" {
            "  —  output reservation timelines, oldest slot first, X=reserved .=free"
        } else {
            ""
        }
    );
    for r in routers {
        let node = num(r, "node").unwrap_or(0);
        let (x, y) = (node % width, node / width);
        match text(r, "family") {
            "fr" => show_fr_router(r, node, x, y),
            _ => println!("  router {node:>3} ({x},{y})"),
        }
    }
}

/// One flit-reservation router: reservation timelines per output port
/// plus the stage counters that matter post-mortem.
fn show_fr_router(r: &Json, node: u64, x: u64, y: u64) {
    let res = r.get("reservation");
    let sched = res.and_then(|s| num(s, "scheduled_flits")).unwrap_or(0);
    let misses = res.and_then(|s| num(s, "reservation_misses")).unwrap_or(0);
    let parked = r
        .get("data")
        .and_then(|d| num(d, "parked_arrivals"))
        .unwrap_or(0);
    println!(
        "  router {node:>3} ({x},{y})  scheduled {sched} flits, {misses} reservation misses, {parked} parked arrivals"
    );
    let Some(tables) = res.and_then(|s| s.get("tables")).and_then(Json::as_array) else {
        return;
    };
    for entry in tables {
        let Some(table) = entry.get("table") else {
            continue;
        };
        let busy = text(table, "busy");
        // An all-free table says nothing; keep the dump readable.
        if !busy.contains('X') {
            continue;
        }
        println!(
            "    {:<5} base {:>8} |{}|  horizon {}",
            text(entry, "port"),
            num(table, "base").unwrap_or(0),
            busy,
            num(table, "horizon").unwrap_or(0)
        );
    }
}

// ---------------------------------------------------------------- diff

/// Structural diff of two sidecars. Compares the `state` sections when
/// both documents have one (the usual dump-vs-dump case), whole
/// documents otherwise. Returns true when identical.
fn diff(a: &Json, b: &Json, name_a: &str, name_b: &str) -> bool {
    let (da, db, scope) = match (a.get("state"), b.get("state")) {
        (Some(sa), Some(sb)) => (sa, sb, "state sections"),
        _ => (a, b, "documents"),
    };
    let diffs = json_diff(da, db);
    if diffs.is_empty() {
        println!("identical: {scope} of {name_a} and {name_b} match");
        return true;
    }
    println!(
        "{} differences between the {scope} of {name_a} and {name_b}:",
        diffs.len()
    );
    print_diffs(&diffs);
    false
}

fn print_diffs(diffs: &[JsonDiff]) {
    for d in diffs.iter().take(DIFF_CAP) {
        println!("  {}: {}", d.path, d.detail);
    }
    if diffs.len() > DIFF_CAP {
        println!("  ... and {} more", diffs.len() - DIFF_CAP);
    }
}

// -------------------------------------------------------------- replay

/// Replays a sidecar to its captured cycle and verifies the live state
/// digest against the dump. Returns true on a bit-for-bit match.
fn replay(doc: &Json, threads: usize) -> Result<bool, String> {
    let report = replay_to_cycle(doc, threads)?;
    println!(
        "replay   : {} cycles on {} thread(s)",
        report.cycle, threads
    );
    println!("expected : {}", report.expected_digest);
    println!("live     : {}", report.live_digest);
    if report.matches() {
        println!("result   : MATCH — live state equals the dump bit for bit");
        Ok(true)
    } else {
        println!(
            "result   : MISMATCH — {} structural difference(s)",
            report.diffs.len()
        );
        print_diffs(&report.diffs);
        Ok(false)
    }
}

// ---------------------------------------------------------- self-check

/// The spec the self-check runs: FR6 on a 4×4 mesh where every
/// eastbound link out of column 0 dies at cycle 0. Packets injected in
/// column 0 for destinations east of it can never deliver, so once the
/// deliverable traffic drains the network makes no progress with
/// packets still in flight — the constructed livelock the progress
/// watchdog must catch.
fn livelock_spec() -> RunSpec {
    let mesh = Mesh::new(4, 4);
    let mut spec = RunSpec::fr6_small(0xDEAD_0001);
    spec.watchdog = Some(500);
    spec.fault = Some(FaultPlan {
        dead_links: (0..4)
            .map(|y| DeadLink {
                node: mesh.node_at(0, y),
                port: Port::East,
                at_cycle: 0,
            })
            .collect(),
        ..FaultPlan::quiet(0xFA_11)
    });
    spec
}

/// End-to-end validation of the blackbox layer, run by CI: the watchdog
/// fires on a dead-link livelock, the sidecar round-trips through disk,
/// diffs clean against itself, and replays to an identical state digest
/// at 1, 4 and 8 threads.
fn self_check() -> Result<(), String> {
    println!("frfc-inspect self-check");
    let spec = livelock_spec();
    println!(
        "  [1/4] running the dead-link livelock (watchdog {} cycles) ...",
        spec.watchdog.unwrap_or(0)
    );
    let run = spec
        .run()?
        .blackbox
        .ok_or("blackbox spec produced no outcome")?;
    if run.trigger != Trigger::Watchdog {
        return Err(format!(
            "expected the watchdog to trip, got {:?} after {} cycles ({})",
            run.trigger, run.cycles, run.detail
        ));
    }
    let sidecar = run
        .sidecar
        .ok_or("watchdog tripped but no sidecar was captured")?;
    println!("        tripped at cycle {}: {}", run.cycles, run.detail);

    println!("  [2/4] round-tripping the sidecar through disk ...");
    let dir = std::env::var("FRFC_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let dir = Path::new(&dir).join("state");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("self-check.json");
    write_json_file(&path, &sidecar).map_err(|e| format!("cannot write sidecar: {e}"))?;
    let reloaded = load(path.to_str().unwrap_or_default())?;
    let round_trip = json_diff(&sidecar, &reloaded);
    if !round_trip.is_empty() {
        print_diffs(&round_trip);
        return Err(format!(
            "sidecar changed across the disk round trip ({} diffs)",
            round_trip.len()
        ));
    }
    println!("        wrote and reloaded {} — identical", path.display());

    println!(
        "  [3/4] replaying to cycle {} at 1/4/8 threads ...",
        run.cycles
    );
    for threads in [1usize, 4, 8] {
        let report = replay_to_cycle(&reloaded, threads)?;
        if !report.matches() {
            print_diffs(&report.diffs);
            return Err(format!(
                "replay at {threads} threads diverged: expected {} got {}",
                report.expected_digest, report.live_digest
            ));
        }
        println!(
            "        {} thread(s): digest {} — match",
            threads, report.live_digest
        );
    }

    println!("  [4/4] rendering the dump ...\n");
    show(&reloaded);
    println!("\nself-check: PASS");
    Ok(())
}
