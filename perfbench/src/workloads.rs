//! The four workloads. Each is a batch simulation through the public
//! simulator API whose inputs follow from the seed alone; its size follows
//! from `--seconds` alone, so two runs with the same arguments simulate
//! exactly the same cycles and end in the same state.

use crate::fidelity::{self, Cell};
use crate::nets::{Family, Instr, Net, NetSpec};
use crate::stats::{Block, Meter};
use crate::traced::CallStats;
use noc_engine::{Cycle, Rng};
use noc_faults::FaultPlan;
use noc_flow::RouterCounters;
use noc_metrics::RunManifest;
use noc_network::{Curve, EngineProfile, LoadPoint, SimConfig};
use noc_topology::Mesh;
use noc_traffic::{LoadSpec, TrafficGenerator};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8×8 at load 0.8: fixed windows of VC8 and FR6, interleaved,
    /// idle-skip on.
    Mesh8Sat,
    /// Table 3's 5-flit grid through `run_simulation`, plus the
    /// leading-control base-latency points.
    Mesh8Sweep,
    /// 16×16 at load 0.8 stepped by `run_cycles_sharded` on 2 threads.
    Mesh16Sharded,
    /// 8×8 at load 0.5 with metrics, telemetry windows and a transient
    /// fault plan, ending in a metrics flush and export.
    Mesh8Instrumented,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Mesh8Sat,
        Workload::Mesh8Sweep,
        Workload::Mesh16Sharded,
        Workload::Mesh8Instrumented,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh8Sat => "mesh8_sat",
            Workload::Mesh8Sweep => "mesh8_sweep",
            Workload::Mesh16Sharded => "mesh16_sharded",
            Workload::Mesh8Instrumented => "mesh8_instrumented",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mesh and offered load of the workload's traffic (for the sweep,
    /// the grid's lowest load; its points set their own).
    pub fn traffic(self) -> (Mesh, f64) {
        match self {
            Workload::Mesh8Sat => (Mesh::new(8, 8), 0.8),
            Workload::Mesh8Sweep => (Mesh::new(8, 8), 0.05),
            Workload::Mesh16Sharded => (Mesh::new(16, 16), 0.8),
            Workload::Mesh8Instrumented => (Mesh::new(8, 8), 0.5),
        }
    }
}

/// Whether a pass runs the networks as users do or traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Plain networks (metered for `mesh8_instrumented`): the timed pass.
    Untraced,
    /// Every router wrapped in the decorator, the profiler on.
    Traced,
}

/// Output checks: attempted and failed, with the failures' text.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a check that reports its own failure text.
    pub fn result(&mut self, label: &str, r: Result<(), String>) {
        self.check(r.is_ok(), || {
            format!("{label}: {}", r.err().unwrap_or_default())
        });
    }
}

/// Shared state of one benchmark process.
pub struct Ctx {
    /// Root seed of every input.
    pub seed: u64,
    /// `--seconds`: scales the windowed workloads.
    pub seconds: u64,
    /// The normalising block clock.
    pub meter: Meter,
    /// Output checks.
    pub checks: Checks,
    /// Manifest for metrics exports (built once: it runs `git` and
    /// `rustc` to fill in the revision and toolchain).
    pub manifest: RunManifest,
}

/// What the traced pass collects for one family.
#[derive(Clone, Debug, Default)]
pub struct LayerData {
    /// Decorator statistics over every router of every network.
    pub calls: CallStats,
    /// Router event counters.
    pub counters: RouterCounters,
    /// Engine profiles, summed.
    pub profile: EngineProfile,
    /// Simulated cycles.
    pub cycles: u64,
    /// Router-cycles (routers × cycles), the denominator of the skip ratio.
    pub router_cycles: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Packets delivered.
    pub delivered_packets: u64,
    /// Cycles spent warming up (`mesh8_sweep`: the detector's choice).
    pub warmup_cycles: u64,
    /// Cycles spent draining the measured sample (`mesh8_sweep`).
    pub drain_cycles: u64,
    /// Wall-clock nanoseconds of the final `flush_metrics` plus export.
    pub flush_ns: f64,
    /// Bytes of the metrics export.
    pub export_bytes: u64,
    /// Source retransmissions under the fault plan.
    pub retransmits: u64,
    /// Corrupted flits discarded at their destination.
    pub crc_discards: u64,
}

impl LayerData {
    fn absorb_net(&mut self, net: &Net) {
        if let Some(calls) = net.call_stats() {
            self.calls.absorb(&calls);
        }
        let c = net.counters();
        self.counters.absorb(&c);
        let p = net.engine_profile();
        let acc = &mut self.profile;
        acc.threads = acc.threads.max(p.threads);
        acc.cycles += p.cycles;
        acc.cycle_wall_ns += p.cycle_wall_ns;
        for i in 0..5 {
            acc.phase_ns[i] += p.phase_ns[i];
            acc.tail_ns[i] += p.tail_ns[i];
        }
        acc.rounds += p.rounds;
        acc.round_wall_ns += p.round_wall_ns;
        acc.barrier_wait_ns += p.barrier_wait_ns;
        add_vec(&mut acc.worker_busy_ns, &p.worker_busy_ns);
        add_vec(&mut acc.lock_ns, &p.lock_ns);
        add_vec(&mut acc.lock_count, &p.lock_count);
        self.cycles += net.now();
        self.router_cycles += net.now() * net.routers();
        self.delivered_flits += net.delivered_flits();
        self.delivered_packets += net.delivered_packets();
        if let Some(f) = net.fault_summary() {
            self.retransmits += f.counters.retransmits;
            self.crc_discards += f.counters.corrupt_discarded;
        }
    }
}

fn add_vec(acc: &mut Vec<u64>, v: &[u64]) {
    if acc.len() < v.len() {
        acc.resize(v.len(), 0);
    }
    for (a, b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

/// A derived figure, printed with its base and never gated.
#[derive(Clone, Debug)]
pub struct Derived {
    /// Figure name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// What it was computed from.
    pub base: String,
}

/// Everything one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every block of work a user of the workload waits for: building,
    /// warm-up, timed windows, sweep points, metrics flush and export.
    pub host: Vec<Block>,
    /// Timed blocks of each family (index 0 = VC8, 1 = FR6).
    pub windows: [Vec<Block>; 2],
    /// End-of-run state digests, labelled.
    pub digests: Vec<(String, String)>,
    /// Table 3 cells (`mesh8_sweep`).
    pub fidelity: Vec<Cell>,
    /// Derived figures.
    pub derived: Vec<Derived>,
    /// Traced-pass data per family.
    pub layers: [LayerData; 2],
    /// Sharded over sequential speed-up per family (`mesh16_sharded`).
    pub shard_speedup: [f64; 2],
}

/// Timed blocks per family for a windowed workload: about 13 blocks of
/// ~30 ms per second of `--seconds`, split over two families.
fn window_blocks(seconds: u64) -> u64 {
    13 * seconds
}

/// Cycles per timed block, per family, sized so a block takes ~30 ms on
/// the reference host.
fn block_cycles(w: Workload, f: Family) -> u64 {
    match (w, f) {
        (Workload::Mesh8Sat, Family::Vc8) => 330,
        (Workload::Mesh8Sat, Family::Fr6) => 170,
        (Workload::Mesh16Sharded, Family::Vc8) => 80,
        (Workload::Mesh16Sharded, Family::Fr6) => 40,
        (Workload::Mesh8Instrumented, Family::Vc8) => 380,
        (Workload::Mesh8Instrumented, Family::Fr6) => 200,
        (Workload::Mesh8Sweep, _) => 0,
    }
}

/// Untimed-for-throughput warm-up before the windows.
fn warmup_cycles(w: Workload) -> u64 {
    match w {
        Workload::Mesh16Sharded => 500,
        _ => 2_000,
    }
}

/// Worker threads of the sharded workload (the host has 2 CPUs).
pub const SHARD_THREADS: usize = 2;

/// Table 3's 5-flit offered-load grid.
pub const GRID: [f64; 11] = [0.05, 0.3, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9];

/// Seed of grid point `i`, as the simulator's `sweep_loads` derives it.
fn point_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9)
}

/// The transient fault plan of `mesh8_instrumented`: CRC-caught data
/// corruption and dropped control flits, no dead links. At load 0.5 about
/// one packet in twenty is retransmitted.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        data_corrupt_rate: 2e-3,
        control_drop_rate: 2e-3,
        ..FaultPlan::quiet(seed ^ 0xFA17)
    }
}

fn spec(w: Workload, family: Family, seed: u64) -> NetSpec {
    let (mesh, load) = w.traffic();
    NetSpec {
        family,
        mesh,
        load,
        seed,
        lead: false,
    }
}

/// Every network specification the workload builds, in build order.
pub fn specs(w: Workload, seed: u64) -> Vec<NetSpec> {
    match w {
        Workload::Mesh8Sweep => {
            // The families alternate point by point, so both sample the
            // host over the whole run.
            let mut out = Vec::new();
            for (i, &load) in GRID.iter().enumerate() {
                for family in Family::BOTH {
                    out.push(NetSpec {
                        load,
                        seed: point_seed(seed, i),
                        ..spec(w, family, seed)
                    });
                }
            }
            for family in Family::BOTH {
                out.push(NetSpec {
                    load: GRID[0],
                    seed: point_seed(seed, 0),
                    lead: true,
                    ..spec(w, family, seed)
                });
            }
            out
        }
        _ => Family::BOTH.iter().map(|&f| spec(w, f, seed)).collect(),
    }
}

fn instr_for(w: Workload, mode: Mode) -> Instr {
    match (mode, w) {
        (Mode::Traced, _) => Instr::Traced,
        (Mode::Untraced, Workload::Mesh8Instrumented) => Instr::Metered,
        (Mode::Untraced, _) => Instr::Plain,
    }
}

/// Set-up time: every network the workload builds, built `reps` times
/// per block (about 20 ms of building) over 9 blocks; returns each
/// block's reference-host seconds per set-up. Each set is dropped, untimed, before the next is built, so
/// the repetitions do not raise the peak memory the run reports.
pub fn setup(ctx: &mut Ctx, w: Workload) -> Vec<f64> {
    let specs = specs(w, ctx.seed);
    let instr = instr_for(w, Mode::Untraced);
    let reps: u32 = match w {
        Workload::Mesh8Sweep => 5,
        Workload::Mesh16Sharded => 20,
        _ => 100,
    };
    (0..9)
        .map(|_| {
            let (build_s, block) = ctx.meter.time(0, || {
                let mut build_s = 0.0;
                for _ in 0..reps {
                    let start = Instant::now();
                    let built: Vec<Net> = specs.iter().map(|s| Net::build(s, instr)).collect();
                    build_s += start.elapsed().as_secs_f64();
                    drop(built);
                }
                build_s
            });
            Block {
                raw_s: build_s,
                ..block
            }
            .norm_s()
                / f64::from(reps)
        })
        .collect()
}

/// Runs one pass of workload `w`.
pub fn run(ctx: &mut Ctx, w: Workload, mode: Mode) -> Pass {
    match w {
        Workload::Mesh8Sweep => sweep(ctx, mode),
        _ => windowed(ctx, w, mode),
    }
}

/// The windowed workloads: build and warm up both families, then time
/// fixed windows with the two families' blocks interleaved, so both
/// sample the host over the whole run.
fn windowed(ctx: &mut Ctx, w: Workload, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let instr = instr_for(w, mode);
    let sharded = w == Workload::Mesh16Sharded;
    let step = |net: &mut Net, cycles: u64| {
        if sharded {
            net.run_cycles_sharded(cycles, SHARD_THREADS);
        } else {
            net.run_cycles(cycles);
        }
    };
    let warmup = warmup_cycles(w);
    let mut nets: Vec<Net> = Vec::new();
    for family in Family::BOTH {
        let s = spec(w, family, ctx.seed);
        let (mut net, b) = ctx.meter.time(0, || Net::build(&s, instr));
        pass.host.push(b);
        if w == Workload::Mesh8Instrumented {
            net.arm_telemetry(64, 10);
            net.set_fault_plan(&fault_plan(ctx.seed));
        }
        let (_, b) = ctx.meter.time(warmup, || step(&mut net, warmup));
        pass.host.push(b);
        nets.push(net);
    }
    for _ in 0..window_blocks(ctx.seconds) {
        for (fi, family) in Family::BOTH.into_iter().enumerate() {
            let bc = block_cycles(w, family);
            let (_, b) = ctx.meter.time(bc, || step(&mut nets[fi], bc));
            pass.host.push(b);
            pass.windows[fi].push(b);
        }
    }
    for (fi, (family, mut net)) in Family::BOTH.into_iter().zip(nets).enumerate() {
        let label = format!("{}/{}", w.name(), family.key());
        ctx.checks.result(&label, net.check_conservation());
        if w == Workload::Mesh8Instrumented {
            let manifest = &ctx.manifest;
            let (bytes, b) = ctx.meter.time(0, || net.flush_and_export(manifest));
            pass.host.push(b);
            let retransmits = net.fault_summary().map_or(0, |f| f.counters.retransmits);
            ctx.checks.check(retransmits > 0, || {
                format!("{label}: the fault plan caused no retransmission")
            });
            ctx.checks
                .check(bytes > 0, || format!("{label}: empty metrics export"));
            pass.layers[fi].flush_ns = b.norm_s() * 1e9;
            pass.layers[fi].export_bytes = bytes as u64;
        }
        pass.digests.push((label.clone(), net.state_digest()));
        pass.layers[fi].warmup_cycles = warmup;
        pass.layers[fi].absorb_net(&net);
        if let Some(calls) = net.call_stats() {
            let delivered = net.delivered_flits();
            let ok = if w == Workload::Mesh8Instrumented {
                calls.ejections >= delivered
            } else {
                calls.ejections == delivered
            };
            ctx.checks.check(ok, || {
                format!(
                    "{label}: routers ejected {} flits, tracker counted {delivered}",
                    calls.ejections
                )
            });
        }
    }
    if w == Workload::Mesh8Sat {
        let rate = |blocks: &[Block]| crate::report::aggregate_rate(blocks);
        let (vc, fr) = (rate(&pass.windows[0]), rate(&pass.windows[1]));
        pass.derived.push(Derived {
            name: "fr6_vc8.cost_ratio".into(),
            value: vc / fr,
            base: format!("vc8 {vc:.1} / fr6 {fr:.1} cycles/s; target <= 1.5"),
        });
    }
    if sharded && mode == Mode::Untraced {
        shard_prefix(ctx, &mut pass);
    }
    pass
}

/// `mesh16_sharded`'s equivalence check, outside the timed windows: the
/// same prefix stepped sequentially and sharded must end in the same
/// state. Its post-warm-up blocks also give the sharded over sequential
/// speed-up (printed, never gated).
fn shard_prefix(ctx: &mut Ctx, pass: &mut Pass) {
    let w = Workload::Mesh16Sharded;
    const WARM: u64 = 200;
    const BLOCKS: u64 = 8;
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let s = spec(w, family, ctx.seed);
        let bc = block_cycles(w, family);
        let mut seq = Net::build(&s, Instr::Plain);
        let mut par = Net::build(&s, Instr::Plain);
        seq.run_cycles(WARM);
        par.run_cycles_sharded(WARM, SHARD_THREADS);
        let (mut t_seq, mut t_par) = (0.0, 0.0);
        for _ in 0..BLOCKS {
            t_seq += ctx.meter.time(bc, || seq.run_cycles(bc)).1.norm_s();
            t_par += ctx
                .meter
                .time(bc, || par.run_cycles_sharded(bc, SHARD_THREADS))
                .1
                .norm_s();
        }
        let label = format!("{}/{}", w.name(), family.key());
        let (a, b) = (seq.state_digest(), par.state_digest());
        ctx.checks.check(a == b, || {
            format!("{label}: sequential digest {a} != sharded digest {b}")
        });
        let speedup = t_seq / t_par;
        pass.shard_speedup[fi] = speedup;
        let cycles = (BLOCKS * bc) as f64;
        pass.derived.push(Derived {
            name: format!("{}.shard_speedup", family.key()),
            value: speedup,
            base: format!(
                "sequential {:.1} vs sharded({SHARD_THREADS}) {:.1} cycles/s over {} cycles; target >= 1.7",
                cycles / t_seq,
                cycles / t_par,
                BLOCKS * bc
            ),
        });
    }
}

/// The other engine mode on the workload's traffic, for the traced run:
/// per family, one fresh traced network stepped sequentially and one
/// sharded over [`SHARD_THREADS`], each for [`PROBE_WARM`] cycles and
/// then a timed stretch. Sequential workloads take their tail, lock and
/// barrier figures from the sharded side, `mesh16_sharded` its per-phase
/// figures from the sequential side. Both sides must end in equal
/// digests.
#[derive(Debug, Default)]
pub struct Probe {
    /// The sequentially stepped networks, per family.
    pub seq: [LayerData; 2],
    /// The sharded networks, per family.
    pub par: [LayerData; 2],
    /// Sequential over sharded time of the timed stretch, per family.
    pub speedup: [f64; 2],
}

/// Warm-up cycles of both sides of the engine probe.
const PROBE_WARM: u64 = 200;

/// Runs the engine probe for workload `w`.
pub fn engine_probe(ctx: &mut Ctx, w: Workload) -> Probe {
    let mut probe = Probe::default();
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let s = spec(w, family, ctx.seed);
        let cycles = match w {
            Workload::Mesh8Sweep => 1_000,
            _ => 8 * block_cycles(w, family),
        };
        let mut seq = Net::build(&s, Instr::Traced);
        let mut par = Net::build(&s, Instr::Traced);
        seq.run_cycles(PROBE_WARM);
        par.run_cycles_sharded(PROBE_WARM, SHARD_THREADS);
        let t_seq = ctx.meter.time(cycles, || seq.run_cycles(cycles)).1.norm_s();
        let t_par = ctx
            .meter
            .time(cycles, || par.run_cycles_sharded(cycles, SHARD_THREADS))
            .1
            .norm_s();
        probe.speedup[fi] = t_seq / t_par;
        let label = format!("{}/{} engine probe", w.name(), family.key());
        let (a, b) = (seq.state_digest(), par.state_digest());
        ctx.checks.check(a == b, || {
            format!("{label}: sequential digest {a} != sharded digest {b}")
        });
        let manifest = &ctx.manifest;
        let (bytes, b) = ctx.meter.time(0, || seq.flush_and_export(manifest));
        probe.seq[fi].flush_ns = b.norm_s() * 1e9;
        probe.seq[fi].export_bytes = bytes as u64;
        probe.seq[fi].absorb_net(&seq);
        probe.par[fi].absorb_net(&par);
    }
    probe
}

/// Cycle at which `run_simulation` stopped marking new packets as part of
/// the sample: replays the point's traffic generator (open loop, so it
/// does not depend on the network) from cycle 0 and counts packets
/// created from `measure_start` on until the sample is full.
fn injection_end(s: &NetSpec, measure_start: u64, sample: u64) -> u64 {
    let root = Rng::from_seed(s.seed);
    let load = LoadSpec::fraction_of_capacity(s.load, crate::nets::PACKET_FLITS);
    let mut generator =
        TrafficGenerator::uniform(s.mesh, load, root.fork(crate::nets::TRAFFIC_STREAM));
    let mut out = Vec::new();
    let mut counted = 0u64;
    for c in 0.. {
        out.clear();
        generator.tick_into(Cycle::new(c), &mut out);
        if c >= measure_start {
            counted += out.len() as u64;
            if counted >= sample {
                return c + 1;
            }
        }
    }
    unreachable!("the generator never stops")
}

/// `mesh8_sweep`: every grid point of both families plus the two
/// leading-control base-latency points, each one block.
fn sweep(ctx: &mut Ctx, mode: Mode) -> Pass {
    let w = Workload::Mesh8Sweep;
    let mut pass = Pass::default();
    let instr = instr_for(w, mode);
    let mut curves = Family::BOTH.map(|f| Curve {
        label: f.key().to_uppercase(),
        points: Vec::new(),
    });
    let mut lead_base = [0.0; 2];
    for s in specs(w, ctx.seed) {
        let fi = s.family as usize;
        let sim = SimConfig::quick(s.seed);
        let ((net, result), mut b) = ctx.meter.time(0, || {
            let mut net = Net::build(&s, instr);
            let result = net.run_simulation(&sim);
            (net, result)
        });
        b.cycles = result.end_cycle;
        pass.host.push(b);
        pass.windows[fi].push(b);
        let label = format!(
            "{}/{}{}@{:.2}",
            w.name(),
            s.family.key(),
            if s.lead { "-lead" } else { "" },
            s.load
        );
        let outstanding = net.measured_outstanding();
        ctx.checks.check(
            result.delivered + outstanding >= sim.sample_packets
                && (!result.completed || (outstanding == 0 && result.delivered >= sim.sample_packets)),
            || {
                format!(
                    "{label}: sample of {} not accounted for ({} delivered, {outstanding} outstanding, completed {})",
                    sim.sample_packets, result.delivered, result.completed
                )
            },
        );
        ctx.checks.result(&label, net.check_conservation());
        pass.digests.push((label, net.state_digest()));
        let layer = &mut pass.layers[fi];
        layer.absorb_net(&net);
        if mode == Mode::Traced {
            layer.warmup_cycles += result.measure_start;
            let end = injection_end(&s, result.measure_start, sim.sample_packets);
            layer.drain_cycles += result.end_cycle.saturating_sub(end);
        }
        if s.lead {
            lead_base[fi] = result.mean_latency();
        } else {
            curves[fi].points.push(LoadPoint {
                offered: s.load,
                result,
            });
        }
    }
    for (fi, family) in Family::BOTH.into_iter().enumerate() {
        let paper = match family {
            Family::Vc8 => fidelity::PAPER_VC8,
            Family::Fr6 => fidelity::PAPER_FR6,
        };
        for cell in fidelity::cells(family.key(), paper, &curves[fi], lead_base[fi]) {
            ctx.checks.check(cell.passes(), || {
                format!(
                    "{}: ours {:.3} vs paper {} {}, error {:.3} > tolerance {}",
                    cell.name,
                    cell.ours,
                    cell.paper,
                    cell.unit,
                    cell.err(),
                    cell.tolerance
                )
            });
            pass.fidelity.push(cell);
        }
    }
    pass
}
