//! Post-mortem inspection of blackbox crash sidecars, and the renderer
//! of metrics exports.
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
//! * `metrics [FILE...]` — renders metrics-registry exports
//!   (`*.metrics.json`): a per-router occupancy heatmap for each file
//!   plus a utilization-vs-load table across files. With no files it
//!   reads every export in the results directory (`FRFC_RESULTS_DIR`,
//!   default `results/`).

use noc_bench::report::results_dir;
use noc_metrics::{json_diff, Json, JsonDiff};
use noc_network::{replay_to_cycle, RunSpec};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
frfc-inspect — inspection of blackbox crash sidecars and metrics exports

USAGE:
    frfc-inspect show <sidecar.json>
    frfc-inspect diff <a.json> <b.json>
    frfc-inspect replay <sidecar.json> [--threads N]
    frfc-inspect metrics [<export.metrics.json>...]

Sidecars come from `frfc-sim --watchdog/--flight-ring/--dump-state-out`
or from any inject-then-drain noc_network::RunSpec. Metrics exports come
from any metered run (e.g. `smoke --metrics`); with no files, `metrics`
reads every *.metrics.json in the results directory.";

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
        ["metrics", paths @ ..] => {
            metrics(paths);
            Ok(true)
        }
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

// ------------------------------------------------------------- metrics

/// Renders metrics exports: per file a header and an occupancy heatmap,
/// then one utilization-vs-load table across all files. Unreadable
/// files are skipped with a warning.
fn metrics(paths: &[&str]) {
    let paths: Vec<String> = if paths.is_empty() {
        scan_results_dir()
    } else {
        paths.iter().map(|p| p.to_string()).collect()
    };
    if paths.is_empty() {
        println!(
            "no *.metrics.json exports found in {} — run a bin with metrics \
             enabled first (e.g. `smoke --metrics`)",
            results_dir().display()
        );
        return;
    }
    let exports: Vec<(String, Json)> = paths
        .into_iter()
        .filter_map(|path| match load(&path) {
            Ok(doc) => Some((path, doc)),
            Err(e) => {
                eprintln!("frfc-inspect: {e}; skipping it");
                None
            }
        })
        .collect();
    for (path, doc) in &exports {
        show_export(path, doc);
    }
    if !exports.is_empty() {
        print_load_table(&exports);
    }
}

/// Every `*.metrics.json` in the results directory, sorted.
fn scan_results_dir() -> Vec<String> {
    let mut paths: Vec<String> = std::fs::read_dir(results_dir())
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path().display().to_string())
                .filter(|p| p.ends_with(".metrics.json"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
}

fn counter(doc: &Json, key: &str) -> Option<u64> {
    doc.get("counters").and_then(|c| num(c, key))
}

fn gauge(doc: &Json, key: &str) -> Option<f64> {
    doc.get("gauges")?.get(key)?.as_f64()
}

/// One export's header, mesh summary, occupancy heatmap and
/// reservation counts.
fn show_export(path: &str, doc: &Json) {
    let m = doc.get("manifest").unwrap_or(&Json::Null);
    println!("\n=== {path} ===");
    println!(
        "  {} | config {} | scale {} | seed {} | git {} ",
        text(m, "experiment"),
        text(m, "config"),
        text(m, "scale"),
        num(m, "seed").unwrap_or(0),
        text(m, "git_rev"),
    );
    if let (Some(cycles), Some(routers)) = (counter(doc, "net.cycles"), counter(doc, "net.routers"))
    {
        let idle_skip = gauge(doc, "net.idle_skip_fraction").unwrap_or(0.0);
        println!(
            "  {cycles} cycles, {routers} routers, idle-skip {:.1}%",
            idle_skip * 100.0
        );
    }
    show_heatmap(doc);
    let hits = counter(doc, "total.reservation_hits").unwrap_or(0);
    let misses = counter(doc, "total.reservation_misses").unwrap_or(0);
    let zt = counter(doc, "total.zero_turnaround_departures").unwrap_or(0);
    if hits + misses + zt > 0 {
        println!("  reservations: {hits} hits, {misses} misses, {zt} zero-turnaround departures");
    }
}

/// Mean buffer occupancy of router `i`, averaged over its input ports
/// (0..=1), from the per-port `router.<i>.<port>.occupancy_avg` gauges.
fn router_occupancy(doc: &Json, i: u64) -> Option<f64> {
    let prefix = format!("router.{i}.");
    let mut sum = 0.0;
    let mut n = 0u32;
    for (key, value) in doc.get("gauges")?.entries()? {
        if let Some(rest) = key.strip_prefix(&prefix) {
            if rest.ends_with(".occupancy_avg") {
                sum += value.as_f64()?;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / f64::from(n))
}

fn show_heatmap(doc: &Json) {
    let (Some(width), Some(height)) = (
        counter(doc, "net.mesh_width"),
        counter(doc, "net.mesh_height"),
    ) else {
        println!("  (no mesh dimensions in export — heatmap skipped)");
        return;
    };
    println!("  per-router mean buffer occupancy (%):");
    for y in 0..height {
        print!("   ");
        for x in 0..width {
            match router_occupancy(doc, y * width + x) {
                Some(occ) => print!(" {:>3.0}", occ * 100.0),
                None => print!("   ."),
            }
        }
        println!();
    }
}

fn print_load_table(exports: &[(String, Json)]) {
    println!(
        "\n{:<28} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "file", "offered", "accepted", "data-util", "ctrl-util", "res-hits", "zero-turn"
    );
    for (path, doc) in exports {
        let name = Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .trim_end_matches(".metrics.json");
        let pct =
            |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{:.1}%", v * 100.0));
        let cnt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        println!(
            "{name:<28} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10}",
            pct(gauge(doc, "run.offered_fraction")),
            pct(gauge(doc, "run.accepted_fraction")),
            pct(gauge(doc, "net.mean_data_link_utilization")),
            pct(gauge(doc, "net.mean_control_link_utilization")),
            cnt(counter(doc, "total.reservation_hits")),
            cnt(counter(doc, "total.zero_turnaround_departures")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_bench::Scale;
    use noc_engine::propcheck::check;
    use noc_engine::Rng;
    use noc_metrics::RunManifest;
    use noc_network::{capture_at_cycle, FlowControl};
    use noc_topology::Mesh;

    /// A real crash sidecar and a real metrics export.
    fn real_documents() -> [Json; 2] {
        let mut sidecar = String::new();
        capture_at_cycle(&RunSpec::fr6_small(0x1D), 40, &mut sidecar).expect("capture");
        let sidecar = Json::parse(&sidecar).expect("a sidecar parses");
        let spec = RunSpec {
            metrics_period: Some(32),
            ..RunSpec::new(
                FlowControl::vc8(),
                Mesh::new(4, 4),
                0.4,
                5,
                Scale::Tiny.sim(7),
            )
        };
        let registry = spec.run().expect("run").registry.expect("registry");
        let manifest = RunManifest::new("inspect_fuzz", 7, "tiny", "VC8");
        [sidecar, registry.to_json(&manifest)]
    }

    /// Replaces one value of `doc` with `value`. The walk from the root
    /// stops at each container with probability 1/8 and otherwise
    /// descends into a random child, so every depth gets hit, not just
    /// the leaf-heavy state dump.
    fn replace_on_walk(doc: &mut Json, rng: &mut Rng, value: Json) {
        let children = match doc {
            Json::Obj(pairs) => pairs.len(),
            Json::Arr(items) => items.len(),
            _ => 0,
        };
        if children == 0 || rng.chance(0.125) {
            *doc = value;
            return;
        }
        let i = rng.below(children as u64) as usize;
        match doc {
            Json::Obj(pairs) => replace_on_walk(&mut pairs[i].1, rng, value),
            Json::Arr(items) => replace_on_walk(&mut items[i], rng, value),
            _ => unreachable!("only containers have children"),
        }
    }

    /// Values and bytes a hand-edited or corrupted file might carry.
    fn hostile(i: usize) -> (Json, u8) {
        let values = [
            Json::Null,
            Json::Bool(true),
            Json::Num(-1.0),
            Json::Num(1e300),
            Json::Num(0.5),
            Json::Num(70_000.0),
            Json::str("X"),
            Json::Arr(Vec::new()),
            Json::Obj(Vec::new()),
        ];
        let bytes = *b"[]{}\",:\\-0en ";
        (values[i % values.len()].clone(), bytes[i % bytes.len()])
    }

    /// Cutting a real sidecar or metrics export anywhere, replacing any
    /// one of its values, or overwriting any one byte never panics:
    /// `Json::parse` either rejects the text or `show`, `diff` and the
    /// `metrics` view render the parsed document.
    #[test]
    fn truncated_and_mutated_documents_never_panic() {
        let docs = real_documents();
        let texts = docs.each_ref().map(Json::render);
        check(
            192,
            (0usize..2, 0usize..3, 0usize..1_000_000, 0usize..126),
            |(d, mode, at, pick)| {
                let (doc, text) = (&docs[d], &texts[d]);
                let (value, byte) = hostile(pick);
                let mutated = match mode {
                    0 => {
                        let cut = (0..=at % text.len())
                            .rev()
                            .find(|&i| text.is_char_boundary(i));
                        text[..cut.unwrap_or(0)].to_string()
                    }
                    1 => {
                        let mut copy = doc.clone();
                        replace_on_walk(&mut copy, &mut Rng::from_seed(at as u64), value);
                        copy.render()
                    }
                    _ => {
                        let mut bytes = text.clone().into_bytes();
                        bytes[at % text.len()] = byte;
                        let Ok(text) = String::from_utf8(bytes) else {
                            return;
                        };
                        text
                    }
                };
                let Ok(parsed) = Json::parse(&mutated) else {
                    return;
                };
                show(&parsed);
                diff(doc, &parsed, "original", "mutated");
                diff(&parsed, doc, "mutated", "original");
                let exports = [("mutated.metrics.json".to_string(), parsed)];
                show_export(&exports[0].0, &exports[0].1);
                print_load_table(&exports);
            },
        );
    }
}
