//! Per-layer figures of a traced run, from three outside-in sources: the
//! router decorator, `Network::engine_profile()` and the hot-structure
//! kernels. Every nanosecond figure is scaled to the reference host with
//! the traced pass's own kernel rate.

use crate::nets::Family;
use crate::report::TAILS;
use crate::stats::{norm_total, raw_total};
use crate::workloads::{LayerData, Pass, Probe};

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one workload as `(name, value)` pairs.
/// `untraced` is the plain pass of the same process, `traced` the
/// decorated one, `probe` the other engine mode on the same traffic;
/// `kernels` the hot-structure kernels.
///
/// Per-phase figures come from sequential stepping and tail, lock and
/// barrier figures from sharded stepping: from the traced pass when the
/// workload steps that way, from the probe otherwise. The metrics flush
/// is `mesh8_instrumented`'s own, elsewhere the probe's.
pub fn assemble(
    untraced: &Pass,
    traced: &Pass,
    probe: &Probe,
    kernels: &[(&'static str, f64)],
) -> Vec<(String, f64)> {
    // Wall-clock ns → reference-host ns over the traced pass.
    let k = ratio(norm_total(&traced.host), raw_total(&traced.host));
    let kernel = |name: &str| {
        kernels
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("kernel ran")
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, value: f64| out.push((name, value));

    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let l: &LayerData = &traced.layers[fi];
        let c = &l.calls;
        let x = family.layer();
        for (call, span) in [("step", c.step), ("receive", c.receive)] {
            put(
                format!("{x}.{call}_ns_per_call"),
                k * ratio(span.ns as f64, span.calls as f64),
            );
            put(
                format!("{x}.{call}_calls_per_cycle"),
                ratio(span.calls as f64, l.cycles as f64),
            );
        }
        put(
            format!("{x}.inject_accept_ratio"),
            ratio(c.injects_accepted as f64, c.inject.calls as f64),
        );
        put(
            format!("{x}.busy_frac"),
            ratio(c.busy_steps as f64, c.step.calls as f64),
        );
        let per_flit = |v: u64| ratio(v as f64, l.counters.data_flits_sent as f64);
        if family == Family::Vc8 {
            put(
                "vc.credit_stalls_per_flit".into(),
                per_flit(l.counters.credit_stalls),
            );
            put(
                "vc.vc_alloc_conflicts_per_flit".into(),
                per_flit(l.counters.vc_alloc_conflicts),
            );
            put(
                "vc.switch_arb_retries_per_flit".into(),
                per_flit(l.counters.switch_arb_retries),
            );
        } else {
            let n = &l.counters;
            put(
                "flit-reservation.reservation_hit_ratio".into(),
                ratio(
                    n.reservation_hits as f64,
                    (n.reservation_hits + n.reservation_misses) as f64,
                ),
            );
            put(
                "flit-reservation.zero_turnaround_frac".into(),
                per_flit(n.zero_turnaround_departures),
            );
            put(
                "flit-reservation.parked_arrival_frac".into(),
                per_flit(n.parked_arrivals),
            );
            put(
                "flit-reservation.switch_arb_retries_per_flit".into(),
                per_flit(n.switch_arb_retries),
            );
        }
    }
    for name in [
        "flit-reservation.output_table.ns_per_op",
        "flit-reservation.output_table.full_scan_ns",
        "flit-reservation.input_table.ns_per_op",
        "flow.buffer_pool.ns_per_op",
        "flow.link.ns_per_op",
    ] {
        put(name.into(), kernel(name));
    }
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let main = &traced.layers[fi];
        let sharded = main.profile.threads > 1;
        let (seq, par) = if sharded {
            (&probe.seq[fi], main)
        } else {
            (main, &probe.par[fi])
        };
        let f = family.key();
        let per_cycle = |l: &LayerData, ns: u64| k * ratio(ns as f64, l.cycles as f64);
        let p = &seq.profile;
        put(
            format!("network.{f}.self_ns_per_cycle"),
            per_cycle(seq, p.cycle_wall_ns.saturating_sub(seq.calls.router_ns())),
        );
        for (i, phase) in noc_network::profile::PROFILE_PHASES.iter().enumerate() {
            put(
                format!("network.{f}.{phase}_ns_per_cycle"),
                per_cycle(seq, p.phase_ns[i]),
            );
        }
        put(
            format!("network.{f}.skip_ratio"),
            1.0 - ratio(seq.calls.step.calls as f64, seq.router_cycles as f64),
        );
        put(
            format!("network.{f}.ns_per_flit"),
            k * ratio(p.cycle_wall_ns as f64, seq.delivered_flits as f64),
        );
        put(
            format!("network.{f}.warmup_cycles"),
            main.warmup_cycles as f64,
        );
        put(
            format!("network.{f}.drain_cycles"),
            main.drain_cycles as f64,
        );
        for (i, tail) in TAILS {
            put(
                format!("network.{f}.tail.{tail}_ns_per_cycle"),
                per_cycle(par, par.profile.tail_ns[i]),
            );
        }
        put(
            format!("network.{f}.lock_ns_per_cycle"),
            per_cycle(par, par.profile.lock_ns.iter().sum()),
        );
    }
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let main = &traced.layers[fi];
        let sharded = main.profile.threads > 1;
        let p = if sharded {
            &main.profile
        } else {
            &probe.par[fi].profile
        };
        let f = family.key();
        put(
            format!("engine.{f}.barrier_wait_frac"),
            ratio(p.barrier_wait_ns as f64, p.round_wall_ns as f64),
        );
        put(
            format!("engine.{f}.worker_idle_frac"),
            p.worker_idle_fraction(),
        );
        let speedup = if sharded {
            untraced.shard_speedup[fi]
        } else {
            probe.speedup[fi]
        };
        put(format!("engine.{f}.shard_speedup"), speedup);
    }
    put(
        "engine.rng.ns_per_op".into(),
        kernel("engine.rng.ns_per_op"),
    );
    put(
        "traffic.generator.ns_per_cycle".into(),
        kernel("traffic.generator.ns_per_cycle"),
    );
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let l = &traced.layers[fi];
        let f = family.key();
        let flushed = if l.export_bytes > 0 {
            l
        } else {
            &probe.seq[fi]
        };
        put(format!("metrics.{f}.flush_ns"), flushed.flush_ns);
        put(
            format!("metrics.{f}.export_bytes"),
            flushed.export_bytes as f64,
        );
        let per_packet = |v: u64| ratio(v as f64, l.delivered_packets as f64);
        put(
            format!("faults.{f}.retransmits_per_packet"),
            per_packet(l.retransmits),
        );
        put(
            format!("faults.{f}.crc_discards_per_packet"),
            per_packet(l.crc_discards),
        );
    }
    put(
        "bench.trace_overhead_frac".into(),
        norm_total(&traced.host) / norm_total(&untraced.host) - 1.0,
    );
    out
}

/// The traced pass's span table, written to the run record: per layer and
/// call, the call count, total wall-clock nanoseconds and self time (total
/// minus the child spans it contains). Router calls have no children; an
/// engine phase contains the router calls it makes (summed over workers
/// when sharded, so a sharded phase's self time is a lower bound); a cycle
/// contains its phases.
pub fn spans(traced: &Pass) -> noc_metrics::Json {
    use noc_metrics::Json;
    let mut rows = Vec::new();
    let mut row = |layer: String, call: &str, count: u64, total: u64, children: u64| {
        rows.push(Json::Obj(vec![
            ("layer".into(), Json::str(layer)),
            ("call".into(), Json::str(call)),
            ("count".into(), Json::Num(count as f64)),
            ("total_ns".into(), Json::Num(total as f64)),
            (
                "self_ns".into(),
                Json::Num(total.saturating_sub(children) as f64),
            ),
        ]));
    };
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let l = &traced.layers[fi];
        let c = &l.calls;
        let p = &l.profile;
        for (call, span) in [
            ("receive", c.receive),
            ("try_inject", c.inject),
            ("step", c.step),
        ] {
            row(family.layer().to_string(), call, span.calls, span.ns, 0);
        }
        let network = format!("network.{}", family.key());
        let phases: u64 = p.phase_ns.iter().sum();
        row(network.clone(), "cycle", l.cycles, p.cycle_wall_ns, phases);
        let children = [c.receive.ns, c.inject.ns, c.step.ns, 0, 0];
        for (i, phase) in noc_network::profile::PROFILE_PHASES.iter().enumerate() {
            row(network.clone(), phase, l.cycles, p.phase_ns[i], children[i]);
        }
    }
    Json::Arr(rows)
}
