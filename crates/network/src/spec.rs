//! One description of a run.
//!
//! A [`RunSpec`] names everything that determines a simulation — flow
//! control, mesh, traffic, seed and schedule — plus the observers armed
//! on it. It round-trips through JSON field by field (the `replay`
//! section of a crash sidecar is one), [`RunSpec::validate`] rejects
//! anything the build or the run would panic on, and [`RunSpec::run`]
//! builds the network through [`FlowControl::build`] and returns what the
//! spec asked for.

use crate::blackbox::{self, BlackboxRun};
use crate::tracker::EXACT_DUPLICATE_FLITS;
use crate::{
    AnyNetwork, EngineProfile, FaultSummary, FlowControl, RunResult, SimConfig, TRAFFIC_STREAM,
};
use flit_reservation::{BufferAllocPolicy, FrConfig, SchedulingPolicy};
use noc_engine::trace::{NullSink, SharedSink, TraceSink};
use noc_engine::warmup::WarmupConfig;
use noc_engine::Rng;
use noc_faults::{DeadLink, FaultPlan};
use noc_flow::LinkTiming;
use noc_metrics::{Json, MetricsRegistry, NullRecorder, Recorder};
use noc_provenance::{ProvenanceCollector, ProvenanceReport};
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::{
    BitComplement, Hotspot, InjectionKind, LoadSpec, Tornado, TrafficGenerator, TrafficPattern,
    Transpose, Uniform,
};
use noc_vc::{AllocationUnit, CreditMode, VcConfig};

/// Upper bound on the packet length and warm-up window a spec may ask
/// for, so a hostile document cannot request an allocation that aborts;
/// `VcConfig::check` and `FrConfig::check` bound buffers, queues and the
/// horizon the same way.
const MAX_SIZE: u64 = 4096;
/// Upper bound on the control lead.
const MAX_SMALL: u64 = 64;
/// Upper bound on fault-layer latencies, so cycle arithmetic never
/// overflows.
const MAX_FAULT_DELAY: u64 = 1 << 32;
/// Upper bound on worker threads.
const MAX_THREADS: usize = 256;

/// Returns `Err` from the enclosing function naming the first rule
/// (`condition => "reason"`) that does not hold; later rules are not
/// evaluated.
macro_rules! rules {
    ($($ok:expr => $why:literal,)*) => {{
        $(rule($ok, $why)?;)*
    }};
}

fn rule(ok: bool, why: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("invalid run spec: {why}"))
    }
}

/// Spatial traffic pattern, written as on the `frfc-sim` command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Uniform random destinations (the paper's workload).
    Uniform,
    /// Matrix transpose.
    Transpose,
    /// Halfway around the row.
    Tornado,
    /// Bit complement.
    BitComplement,
    /// This fraction of packets targets the mesh centre.
    Hotspot(f64),
}

impl Pattern {
    /// Parses `uniform`, `transpose`, `tornado`, `bitcomp` or
    /// `hotspot:<fraction>`.
    pub fn parse(text: &str) -> Result<Pattern, String> {
        Ok(match text {
            "uniform" => Pattern::Uniform,
            "transpose" => Pattern::Transpose,
            "tornado" => Pattern::Tornado,
            "bitcomp" => Pattern::BitComplement,
            other => match other.strip_prefix("hotspot:") {
                Some(frac) => {
                    Pattern::Hotspot(frac.parse().map_err(|_| format!("bad fraction {frac}"))?)
                }
                None => return Err(format!("unknown pattern {other}")),
            },
        })
    }

    /// The label [`Pattern::parse`] reads back.
    pub fn label(&self) -> String {
        match self {
            Pattern::Uniform => "uniform".into(),
            Pattern::Transpose => "transpose".into(),
            Pattern::Tornado => "tornado".into(),
            Pattern::BitComplement => "bitcomp".into(),
            Pattern::Hotspot(f) => format!("hotspot:{f}"),
        }
    }

    fn build(&self, mesh: Mesh) -> Box<dyn TrafficPattern> {
        match *self {
            Pattern::Uniform => Box::new(Uniform),
            Pattern::Transpose => Box::new(Transpose),
            Pattern::Tornado => Box::new(Tornado),
            Pattern::BitComplement => Box::new(BitComplement),
            Pattern::Hotspot(f) => {
                let centre = mesh.node_at(mesh.width() / 2, mesh.height() / 2);
                Box::new(Hotspot::new(centre, f))
            }
        }
    }
}

/// Parses an injection process: `constant`, `bernoulli` or
/// `onoff:<peak>,<mean_on>`.
pub fn parse_injection(text: &str) -> Result<InjectionKind, String> {
    Ok(match text {
        "constant" => InjectionKind::ConstantRate,
        "bernoulli" => InjectionKind::Bernoulli,
        other => {
            let spec = other
                .strip_prefix("onoff:")
                .ok_or_else(|| format!("unknown injection {other}"))?;
            let (peak, on) = spec
                .split_once(',')
                .ok_or_else(|| format!("onoff needs <peak>,<mean_on>, got {spec}"))?;
            InjectionKind::OnOff {
                peak_rate: peak.parse().map_err(|_| format!("bad peak {peak}"))?,
                mean_on: on.parse().map_err(|_| format!("bad mean_on {on}"))?,
            }
        }
    })
}

/// The label [`parse_injection`] reads back.
pub fn injection_label(kind: InjectionKind) -> String {
    match kind {
        InjectionKind::ConstantRate => "constant".into(),
        InjectionKind::Bernoulli => "bernoulli".into(),
        InjectionKind::OnOff { peak_rate, mean_on } => format!("onoff:{peak_rate},{mean_on}"),
    }
}

/// How long a run lasts and what it measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// The paper's warm-up / measure / drain methodology. The run takes
    /// its seed from [`RunSpec::seed`], never from this config.
    Methodology(SimConfig),
    /// The blackbox schedule: `inject_cycles` of traffic, then a drain of
    /// at most `drain_cap` cycles.
    InjectThenDrain {
        /// Cycles of active injection.
        inject_cycles: u64,
        /// Maximum drain cycles after injection stops.
        drain_cap: u64,
    },
}

/// Everything that determines one run, plus the observers armed on it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Flow control with its full configuration.
    pub flow: FlowControl,
    /// Mesh width in nodes.
    pub mesh_width: u16,
    /// Mesh height in nodes.
    pub mesh_height: u16,
    /// Offered load as a fraction of capacity.
    pub load: f64,
    /// Packet length in flits.
    pub packet_flits: u32,
    /// Root seed: traffic forks [`TRAFFIC_STREAM`], routers fork their
    /// node id.
    pub seed: u64,
    /// Spatial traffic pattern.
    pub pattern: Pattern,
    /// Temporal injection process.
    pub injection: InjectionKind,
    /// Methodology or inject-then-drain.
    pub schedule: Schedule,
    /// Worker threads; `<= 1` steps sequentially. Results do not depend
    /// on it. Only metered and blackbox runs step sharded.
    pub threads: usize,
    /// Fault plan to arm, if any.
    pub fault: Option<FaultPlan>,
    /// Control-wire error probability (0 disables the error model).
    pub control_error_rate: f64,
    /// Metrics registry with series sampled every this many cycles (0:
    /// aggregates only); `None` runs without metrics.
    pub metrics_period: Option<u64>,
    /// Telemetry windows of `1 << log2` cycles plus the runtime profiler.
    pub telemetry_window_log2: Option<u32>,
    /// Latency provenance for packets with `id % n == 0`.
    pub provenance_sample_every: Option<u64>,
    /// Flight recorder holding the newest `1 << log2` events.
    pub ring_log2: Option<u32>,
    /// Progress-watchdog threshold in cycles.
    pub watchdog: Option<u64>,
}

/// What [`RunSpec::run`] produced. Each part is present exactly when the
/// spec asked for it.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// The measurement record of a methodology run.
    pub result: Option<RunResult>,
    /// The outcome of an inject-then-drain run.
    pub blackbox: Option<BlackboxRun>,
    /// The filled metrics registry.
    pub registry: Option<MetricsRegistry>,
    /// The engine's wall-clock profile (telemetry runs).
    pub profile: Option<EngineProfile>,
    /// The fault layer's activity (runs with an active fault plan).
    pub faults: Option<FaultSummary>,
    /// Latency provenance.
    pub provenance: Option<ProvenanceReport>,
    /// Control flits retransmitted under the control-wire error model.
    pub control_retries: u64,
}

impl RunSpec {
    /// A methodology run of `flow` on `mesh` at `sim`'s seed: uniform
    /// constant-rate traffic, sequential stepping, nothing observed.
    pub fn new(
        flow: FlowControl,
        mesh: Mesh,
        load: f64,
        packet_flits: u32,
        sim: SimConfig,
    ) -> Self {
        RunSpec {
            flow,
            mesh_width: mesh.width(),
            mesh_height: mesh.height(),
            load,
            packet_flits,
            seed: sim.seed,
            pattern: Pattern::Uniform,
            injection: InjectionKind::ConstantRate,
            schedule: Schedule::Methodology(sim),
            threads: 1,
            fault: None,
            control_error_rate: 0.0,
            metrics_period: None,
            telemetry_window_log2: None,
            provenance_sample_every: None,
            ring_log2: None,
            watchdog: None,
        }
    }

    /// A small blackbox spec: FR6 on a 4×4 mesh at moderate load, 500
    /// cycles of injection, a 2^10-event flight ring and a 500-cycle
    /// watchdog.
    pub fn fr6_small(seed: u64) -> Self {
        let fr6 = FlowControl::fr6();
        RunSpec {
            schedule: Schedule::InjectThenDrain {
                inject_cycles: 500,
                drain_cap: 20_000,
            },
            ring_log2: Some(10),
            watchdog: Some(500),
            ..RunSpec::new(fr6, Mesh::new(4, 4), 0.3, 5, SimConfig::quick(seed))
        }
    }

    /// The mesh this spec runs on. Call [`RunSpec::validate`] first: an
    /// empty mesh panics.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.mesh_width, self.mesh_height)
    }

    /// Builds the spec's network with the given sinks and recorder —
    /// traffic forked from the root seed on [`TRAFFIC_STREAM`] — and arms
    /// its fault plan and control-wire errors.
    pub(crate) fn build<RS: TraceSink + Clone, S: TraceSink, M: Recorder>(
        &self,
        router_sink: RS,
        sink: S,
        metrics: M,
    ) -> AnyNetwork<RS, S, M> {
        let mesh = self.mesh();
        let root = Rng::from_seed(self.seed);
        let generator = TrafficGenerator::new(
            mesh,
            LoadSpec::fraction_of_capacity(self.load, self.packet_flits),
            self.pattern.build(mesh),
            self.injection,
            root.fork(TRAFFIC_STREAM),
        );
        let mut net = self
            .flow
            .build(mesh, generator, &root, router_sink, sink, metrics);
        if let Some(plan) = &self.fault {
            net.set_fault_plan(plan.clone());
        }
        if self.control_error_rate > 0.0 {
            net.set_control_error_rate(self.control_error_rate, self.seed ^ 0xE44);
        }
        net
    }

    /// Validates, builds and runs the spec.
    ///
    /// Each observer selects the network type it needs, so a plain
    /// methodology run stays `Network<_, NullSink, NullRecorder>`:
    /// metrics plug in a [`MetricsRegistry`], provenance a shared
    /// [`ProvenanceCollector`] on every router, and the inject-then-drain
    /// schedule a flight-recorder ring.
    pub fn run(&self) -> Result<RunOutput, String> {
        self.validate()?;
        let sim = match self.schedule {
            Schedule::InjectThenDrain { .. } => {
                return Ok(RunOutput {
                    blackbox: Some(blackbox::run(self)),
                    ..RunOutput::default()
                })
            }
            Schedule::Methodology(sim) => SimConfig {
                seed: self.seed,
                ..sim
            },
        };
        if let Some(every) = self.provenance_sample_every {
            let sink = SharedSink::new(ProvenanceCollector::new(every));
            let mut net = self.build(sink.clone(), sink.clone(), NullRecorder);
            let result = net.simulate(&sim);
            let mut out = outcome(&net, result);
            drop(net);
            out.provenance = Some(sink.into_inner().finish());
            return Ok(out);
        }
        let Some(period) = self.metrics_period else {
            let mut net = self.build(NullSink, NullSink, NullRecorder);
            let result = net.simulate(&sim);
            return Ok(outcome(&net, result));
        };
        let mut net = self.build(NullSink, NullSink, MetricsRegistry::new());
        net.set_metrics_period(period);
        if let Some(log2) = self.telemetry_window_log2 {
            net.set_telemetry_windows(log2);
            net.set_profiling(true);
        }
        // Widths 0 and 1 both step the sequential engine.
        let threads = if self.threads > 1 { self.threads } else { 0 };
        let result = net.simulate_on(&sim, threads);
        let mut out = outcome(&net, result);
        if self.telemetry_window_log2.is_some() {
            out.profile = Some(net.engine_profile());
        }
        out.registry = Some(std::mem::take(net.metrics_mut()));
        Ok(out)
    }

    /// Returns `Err` for anything [`RunSpec::run`] would panic on, and
    /// for observer combinations no harness builds: each observer picks
    /// its own network type, so two of them never share a run.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = u32::from(self.mesh_width) * u32::from(self.mesh_height);
        let metered = self.metrics_period.is_some();
        let traced = self.provenance_sample_every.is_some();
        let blackbox = matches!(self.schedule, Schedule::InjectThenDrain { .. });
        let hotspot = match self.pattern {
            Pattern::Hotspot(f) => f,
            _ => 0.0,
        };
        rules! {
            self.mesh_width > 0 && self.mesh_height > 0 => "mesh dimensions must be positive",
            nodes >= 2 => "the mesh needs at least two nodes",
            nodes <= 1 << 16 => "mesh too large for u16 node ids",
            self.load > 0.0 && self.load <= 1.5 => "load must be in (0, 1.5]",
            in_size(self.packet_flits) => "packet length must be in 1..=4096 flits",
            (0.0..=1.0).contains(&hotspot) => "hotspot fraction must be in [0, 1]",
            self.threads <= MAX_THREADS => "thread count must be at most 256",
            self.threads <= 1 || metered || blackbox => "only metered and blackbox runs step sharded",
            (0.0..1.0).contains(&self.control_error_rate) => "control error rate must be in [0, 1)",
            self.telemetry_window_log2.is_none_or(|l| l < 32) => "window log2 must be below 32",
            self.telemetry_window_log2.is_none() || metered => "telemetry needs metrics",
            self.provenance_sample_every != Some(0) => "provenance sampling must be positive",
            !traced || !metered => "provenance runs alone and sequentially",
            self.ring_log2.is_none_or(|l| l < 24) => "flight ring log2 must be below 24",
            self.watchdog != Some(0) => "watchdog threshold must be positive",
            blackbox == self.ring_log2.is_some() => "a flight ring is the blackbox schedule's",
            blackbox || self.watchdog.is_none() => "the watchdog needs the blackbox schedule",
            !blackbox || !(metered || traced) => "metrics and provenance need the methodology",
        }
        if let Schedule::Methodology(sim) = self.schedule {
            let w = sim.warmup;
            rules! {
                sim.sample_packets > 0 => "sample must be non-empty",
                sim.warmup_probe_period > 0 => "warm-up probe period must be positive",
                w.max_cycles >= w.min_cycles => "warm-up max below min",
                in_size(w.window as u64) => "warm-up window must be in 1..=4096",
                w.tolerance >= 0.0 => "warm-up tolerance must be non-negative",
            }
        }
        validate_flow(&self.flow, self.packet_flits)?;
        let mesh = self.mesh();
        if let Some(plan) = &self.fault {
            validate_fault_plan(plan, mesh, self.packet_flits)?;
        }
        let rate = LoadSpec::fraction_of_capacity(self.load, self.packet_flits)
            .packets_per_node_cycle(mesh);
        let bursts = match self.injection {
            InjectionKind::OnOff { peak_rate, mean_on } => {
                // The off-state length `mean_on * (peak / rate - 1)` must
                // stay finite too.
                rate < peak_rate
                    && peak_rate <= 1.0
                    && mean_on >= 1.0
                    && (mean_on * peak_rate / rate).is_finite()
            }
            _ => true,
        };
        rules! {
            rate <= 1.0 => "load exceeds one packet per node per cycle on this mesh",
            bursts => "onoff needs mean rate < peak <= 1 and bursts of at least 1 cycle",
        }
        Ok(())
    }

    /// Renders the spec as a JSON object, field by field.
    pub fn to_json(&self) -> Json {
        let schedule = match self.schedule {
            Schedule::Methodology(sim) => obj([
                ("kind", Json::str("methodology")),
                ("warmup_min_cycles", num(sim.warmup.min_cycles)),
                ("warmup_max_cycles", num(sim.warmup.max_cycles)),
                ("warmup_window", num(sim.warmup.window as u64)),
                ("warmup_tolerance", Json::Num(sim.warmup.tolerance)),
                ("sample_packets", num(sim.sample_packets)),
                ("drain_cap", num(sim.drain_cap)),
                ("warmup_probe_period", num(sim.warmup_probe_period)),
            ]),
            Schedule::InjectThenDrain {
                inject_cycles,
                drain_cap,
            } => obj([
                ("kind", Json::str("inject_then_drain")),
                ("inject_cycles", num(inject_cycles)),
                ("drain_cap", num(drain_cap)),
            ]),
        };
        obj([
            ("flow", flow_to_json(&self.flow)),
            ("mesh_width", num(self.mesh_width)),
            ("mesh_height", num(self.mesh_height)),
            ("load", Json::Num(self.load)),
            ("packet_flits", num(self.packet_flits)),
            ("seed", num(self.seed)),
            ("pattern", Json::str(self.pattern.label())),
            ("injection", Json::str(injection_label(self.injection))),
            ("schedule", schedule),
            ("threads", num(self.threads as u64)),
            (
                "fault",
                self.fault.as_ref().map_or(Json::Null, fault_plan_to_json),
            ),
            ("control_error_rate", Json::Num(self.control_error_rate)),
            ("metrics_period", opt(self.metrics_period)),
            ("telemetry_window_log2", opt(self.telemetry_window_log2)),
            ("provenance_sample_every", opt(self.provenance_sample_every)),
            ("ring_log2", opt(self.ring_log2)),
            ("watchdog", opt(self.watchdog)),
        ])
    }

    /// Parses [`RunSpec::to_json`]'s layout. Integers that do not fit
    /// their field are rejected, never cast; [`RunSpec::validate`] still
    /// has to pass before the spec can run.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let f = Fields::new(doc, "run spec")?;
        let seed = f.int("seed")?;
        let s = Fields::new(f.get("schedule")?, "schedule")?;
        let schedule = match s.str("kind")? {
            "methodology" => Schedule::Methodology(SimConfig {
                seed,
                warmup: WarmupConfig {
                    min_cycles: s.int("warmup_min_cycles")?,
                    max_cycles: s.int("warmup_max_cycles")?,
                    window: s.int("warmup_window")?,
                    tolerance: s.f64("warmup_tolerance")?,
                },
                sample_packets: s.int("sample_packets")?,
                drain_cap: s.int("drain_cap")?,
                warmup_probe_period: s.int("warmup_probe_period")?,
            }),
            "inject_then_drain" => Schedule::InjectThenDrain {
                inject_cycles: s.int("inject_cycles")?,
                drain_cap: s.int("drain_cap")?,
            },
            other => return Err(format!("schedule: unknown kind `{other}`")),
        };
        Ok(RunSpec {
            flow: flow_from_json(f.get("flow")?)?,
            mesh_width: f.int("mesh_width")?,
            mesh_height: f.int("mesh_height")?,
            load: f.f64("load")?,
            packet_flits: f.int("packet_flits")?,
            seed,
            pattern: Pattern::parse(f.str("pattern")?)?,
            injection: parse_injection(f.str("injection")?)?,
            schedule,
            threads: f.int("threads")?,
            fault: match f.get("fault")? {
                Json::Null => None,
                plan => Some(fault_plan_from_json(plan)?),
            },
            control_error_rate: f.f64("control_error_rate")?,
            metrics_period: f.opt_int("metrics_period")?,
            telemetry_window_log2: f.opt_int("telemetry_window_log2")?,
            provenance_sample_every: f.opt_int("provenance_sample_every")?,
            ring_log2: f.opt_int("ring_log2")?,
            watchdog: f.opt_int("watchdog")?,
        })
    }
}

/// Collects a run's common outputs off its network.
fn outcome<RS: TraceSink, S: TraceSink, M: Recorder>(
    net: &AnyNetwork<RS, S, M>,
    result: RunResult,
) -> RunOutput {
    RunOutput {
        result: Some(result),
        faults: net.fault_summary(),
        control_retries: net.control_retries(),
        ..RunOutput::default()
    }
}

fn in_size(v: impl Into<u64>) -> bool {
    (1..=MAX_SIZE).contains(&v.into())
}

fn validate_flow(flow: &FlowControl, packet_flits: u32) -> Result<(), String> {
    // The wire timings the paper evaluates: fast control, or leading
    // control (whose VC baseline carries no lead; `FrConfig::check` holds
    // FR's need for one).
    let t = flow.timing();
    let leading =
        (t.data_delay, t.control_delay, t.credit_delay) == (1, 1, 1) && t.control_lead <= MAX_SMALL;
    rules! {
        t == LinkTiming::fast_control() || leading => "timing must be fast or leading control",
    }
    match flow {
        FlowControl::VirtualChannel(cfg, _) => {
            cfg.check().or_else(|why| rule(false, &why))?;
            rules! {
                cfg.allocation == AllocationUnit::Flit || cfg.queue_depth >= packet_flits as usize
                    => "packet-sized allocation needs a buffer at least one packet long",
            }
        }
        FlowControl::FlitReservation(cfg) => cfg.check().or_else(|why| rule(false, &why))?,
    }
    Ok(())
}

fn validate_fault_plan(plan: &FaultPlan, mesh: Mesh, packet_flits: u32) -> Result<(), String> {
    let rate = |r: f64| (0.0..=1.0).contains(&r);
    let delays = [plan.repair_delay, plan.ack_latency, plan.retransmit_timeout];
    let link = |d: &DeadLink| {
        d.node.index() < mesh.node_count() && mesh.neighbor(d.node, d.port).is_some()
    };
    rules! {
        rate(plan.data_corrupt_rate) && rate(plan.control_drop_rate) => "fault rates must be in [0, 1]",
        delays.iter().all(|&d| d <= MAX_FAULT_DELAY) => "fault-layer delays must be at most 2^32",
        plan.dead_links.iter().all(link) => "dead links must name a link of the mesh",
        // Retransmitted copies are caught per flit only this far.
        !plan.is_active() || packet_flits <= EXACT_DUPLICATE_FLITS => "fault plans need packets of at most 64 flits",
    }
    Ok(())
}

fn num(v: impl Into<u64>) -> Json {
    Json::Num(v.into() as f64)
}

fn opt(v: Option<impl Into<u64>>) -> Json {
    v.map_or(Json::Null, num)
}

/// An enum written as its `Debug` name.
fn name(v: impl std::fmt::Debug) -> Json {
    Json::Str(format!("{v:?}"))
}

/// A JSON object from `(key, value)` pairs.
pub(crate) fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Typed field access for the `from_json` parsers; every error names
/// the section and key.
struct Fields<'a> {
    doc: &'a Json,
    what: &'static str,
}

impl<'a> Fields<'a> {
    fn new(doc: &'a Json, what: &'static str) -> Result<Self, String> {
        match doc {
            Json::Obj(_) => Ok(Fields { doc, what }),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.doc
            .get(key)
            .ok_or_else(|| format!("{}: missing `{key}`", self.what))
    }

    fn typed<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.get(key)?).ok_or_else(|| format!("{}: `{key}` must be {kind}", self.what))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.typed(key, "a non-negative integer", Json::as_u64)?;
        T::try_from(n).map_err(|_| format!("{}: `{key}` = {n} is out of range", self.what))
    }

    fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key)? {
            Json::Null => Ok(None),
            _ => self.int(key).map(Some),
        }
    }

    /// An enum written as its `Debug` name.
    fn variant<T: Copy + std::fmt::Debug>(&self, key: &str, all: &[T]) -> Result<T, String> {
        let text = self.str(key)?;
        all.iter()
            .copied()
            .find(|v| format!("{v:?}") == text)
            .ok_or_else(|| format!("{}: unknown `{key}` `{text}`", self.what))
    }
}

fn flow_to_json(flow: &FlowControl) -> Json {
    let t = flow.timing();
    let timing = obj([
        ("data_delay", num(t.data_delay)),
        ("control_delay", num(t.control_delay)),
        ("credit_delay", num(t.credit_delay)),
        ("control_lead", num(t.control_lead)),
    ]);
    match flow {
        FlowControl::VirtualChannel(cfg, _) => obj([
            ("family", Json::str("vc")),
            ("num_vcs", num(cfg.num_vcs as u64)),
            ("queue_depth", num(cfg.queue_depth as u64)),
            ("credit_mode", name(cfg.credit_mode)),
            ("allocation", name(cfg.allocation)),
            ("timing", timing),
        ]),
        FlowControl::FlitReservation(cfg) => obj([
            ("family", Json::str("fr")),
            ("data_buffers", num(cfg.data_buffers as u64)),
            ("control_vcs", num(cfg.control_vcs as u64)),
            ("control_queue_depth", num(cfg.control_queue_depth as u64)),
            ("control_lanes", num(cfg.control_lanes)),
            ("horizon", num(cfg.horizon)),
            ("flits_per_control", num(cfg.flits_per_control)),
            ("policy", name(cfg.policy)),
            ("buffer_alloc", name(cfg.buffer_alloc)),
            ("sync_margin", num(cfg.sync_margin)),
            ("timing", timing),
        ]),
    }
}

fn flow_from_json(doc: &Json) -> Result<FlowControl, String> {
    use AllocationUnit::{CutThrough, Flit, StoreAndForward};
    use SchedulingPolicy::{AllOrNothing, PerFlit, PerFlitGreedy};
    let f = Fields::new(doc, "flow")?;
    let t = Fields::new(f.get("timing")?, "timing")?;
    let timing = LinkTiming {
        data_delay: t.int("data_delay")?,
        control_delay: t.int("control_delay")?,
        credit_delay: t.int("credit_delay")?,
        control_lead: t.int("control_lead")?,
    };
    let binding = [
        BufferAllocPolicy::JustBeforeArrival,
        BufferAllocPolicy::AtReservation,
    ];
    Ok(match f.str("family")? {
        "vc" => FlowControl::VirtualChannel(
            VcConfig {
                num_vcs: f.int("num_vcs")?,
                queue_depth: f.int("queue_depth")?,
                credit_mode: f
                    .variant("credit_mode", &[CreditMode::PerVc, CreditMode::SharedPool])?,
                allocation: f.variant("allocation", &[Flit, CutThrough, StoreAndForward])?,
            },
            timing,
        ),
        "fr" => FlowControl::FlitReservation(FrConfig {
            data_buffers: f.int("data_buffers")?,
            control_vcs: f.int("control_vcs")?,
            control_queue_depth: f.int("control_queue_depth")?,
            control_lanes: f.int("control_lanes")?,
            horizon: f.int("horizon")?,
            flits_per_control: f.int("flits_per_control")?,
            policy: f.variant("policy", &[PerFlit, AllOrNothing, PerFlitGreedy])?,
            buffer_alloc: f.variant("buffer_alloc", &binding)?,
            timing,
            sync_margin: f.int("sync_margin")?,
        }),
        other => return Err(format!("flow: unknown family `{other}`")),
    })
}

/// Renders a fault plan as JSON (a run spec's `fault` section).
fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    let dead_link = |d: &DeadLink| {
        obj([
            ("node", num(d.node.raw())),
            ("port", name(d.port)),
            ("at_cycle", num(d.at_cycle)),
        ])
    };
    obj([
        ("seed", num(plan.seed)),
        ("data_corrupt_rate", Json::Num(plan.data_corrupt_rate)),
        ("control_drop_rate", Json::Num(plan.control_drop_rate)),
        ("repair_delay", num(plan.repair_delay)),
        ("ack_latency", num(plan.ack_latency)),
        ("retransmit_timeout", num(plan.retransmit_timeout)),
        ("max_backoff_exp", num(plan.max_backoff_exp)),
        (
            "dead_links",
            Json::Arr(plan.dead_links.iter().map(dead_link).collect()),
        ),
    ])
}

/// Parses a fault plan from [`fault_plan_to_json`]'s layout.
fn fault_plan_from_json(doc: &Json) -> Result<FaultPlan, String> {
    let f = Fields::new(doc, "fault plan")?;
    let dead_links = f
        .typed("dead_links", "an array", Json::as_array)?
        .iter()
        .map(|entry| {
            let d = Fields::new(entry, "dead link")?;
            Ok(DeadLink {
                node: NodeId::new(d.int("node")?),
                port: d.variant("port", &Port::ALL)?,
                at_cycle: d.int("at_cycle")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(FaultPlan {
        seed: f.int("seed")?,
        data_corrupt_rate: f.f64("data_corrupt_rate")?,
        control_drop_rate: f.f64("control_drop_rate")?,
        repair_delay: f.int("repair_delay")?,
        ack_latency: f.int("ack_latency")?,
        retransmit_timeout: f.int("retransmit_timeout")?,
        max_backoff_exp: f.int("max_backoff_exp")?,
        dead_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::{capture_at_cycle, replay_to_cycle};
    use noc_engine::propcheck::check;
    use noc_engine::trace::RingSink;

    /// Every flow a harness builds today.
    fn flows() -> Vec<FlowControl> {
        let fast = LinkTiming::fast_control();
        let lead = LinkTiming::leading_control(1);
        let vc = |cfg| FlowControl::VirtualChannel(cfg, fast);
        let fr = FlowControl::FlitReservation;
        let mut flows = vec![
            vc(VcConfig::vc8()),
            vc(VcConfig::vc16()),
            vc(VcConfig::vc32()),
            vc(VcConfig::vc8().with_shared_pool()),
            vc(VcConfig::store_and_forward(8)),
            vc(VcConfig::virtual_cut_through(8)),
            vc(VcConfig::wormhole(8)),
            FlowControl::VirtualChannel(VcConfig::vc16(), lead.vc_baseline_of()),
            fr(FrConfig::fr6().with_horizon(128)),
            fr(FrConfig::fr6().with_sync_margin(2)),
            fr(FrConfig::fr6().with_timing(lead)),
            fr(FrConfig::fr13().with_timing(LinkTiming::leading_control(4))),
            fr(FrConfig {
                buffer_alloc: BufferAllocPolicy::AtReservation,
                ..FrConfig::fr6()
            }),
        ];
        for policy in [
            SchedulingPolicy::PerFlit,
            SchedulingPolicy::AllOrNothing,
            SchedulingPolicy::PerFlitGreedy,
        ] {
            flows.push(fr(FrConfig::fr13()
                .with_flits_per_control(4)
                .with_policy(policy)));
        }
        flows
    }

    /// Each observer option on its own, plus the spec with none.
    fn observed(base: &RunSpec) -> Vec<RunSpec> {
        let blackbox = RunSpec {
            schedule: Schedule::InjectThenDrain {
                inject_cycles: 500,
                drain_cap: 10_000,
            },
            ring_log2: Some(10),
            ..base.clone()
        };
        vec![
            base.clone(),
            RunSpec {
                metrics_period: Some(64),
                ..base.clone()
            },
            RunSpec {
                metrics_period: Some(0),
                telemetry_window_log2: Some(7),
                threads: 4,
                ..base.clone()
            },
            RunSpec {
                provenance_sample_every: Some(3),
                ..base.clone()
            },
            RunSpec {
                fault: Some(FaultPlan::randomized(7, base.mesh())),
                control_error_rate: 0.01,
                pattern: Pattern::Hotspot(0.2),
                injection: InjectionKind::OnOff {
                    peak_rate: 0.5,
                    mean_on: 16.0,
                },
                ..base.clone()
            },
            RunSpec {
                watchdog: Some(500),
                ..blackbox.clone()
            },
            blackbox,
        ]
    }

    #[test]
    fn every_flow_round_trips_with_each_observer() {
        for flow in flows() {
            let base = RunSpec::new(flow, Mesh::new(8, 8), 0.3, 5, SimConfig::quick(0x5EED));
            for spec in observed(&base) {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.flow.label()));
                let text = spec.to_json().render();
                let back =
                    RunSpec::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
                assert_eq!(back, spec, "{text}");
            }
        }
    }

    /// Sets the leaf at `path` of a JSON document.
    fn set(doc: &mut Json, path: &[&str], value: Json) {
        let Json::Obj(pairs) = doc else {
            panic!("not an object at {path:?}")
        };
        let (key, rest) = path.split_first().expect("non-empty path");
        let slot = &mut pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1;
        if rest.is_empty() {
            *slot = value;
        } else {
            set(slot, rest, value);
        }
    }

    /// Hand-edited `replay` sections that would otherwise panic, abort on
    /// an allocation or replay a different run: each is an `Err` from
    /// parsing, validation and replay.
    #[test]
    fn hostile_replay_sections_are_errors() {
        let spec = RunSpec::fr6_small(0x4057);
        let sidecar = capture_at_cycle(&spec, 20).expect("capture");
        let dead_link = Json::Arr(vec![Json::obj(vec![
            ("node".into(), Json::Num(999.0)),
            ("port".into(), Json::str("East")),
            ("at_cycle".into(), Json::Num(0.0)),
        ])]);
        let mut faulted = spec.to_json();
        set(
            &mut faulted,
            &["fault"],
            fault_plan_to_json(&FaultPlan::quiet(1)),
        );
        let cases: Vec<(&[&str], Json)> = vec![
            (&["load"], Json::Num(0.0)),
            (&["mesh_width"], Json::Num(0.0)),
            (&["packet_flits"], Json::Num(0.0)),
            (&["ring_log2"], Json::Num(40.0)),
            (&["ring_log2"], Json::Num(64.0)),
            (&["mesh_width"], Json::Num(70_000.0)),
            (&["fault", "dead_links"], dead_link),
            (&["fault", "data_corrupt_rate"], Json::Num(7.5)),
            (&["flow", "horizon"], Json::Num(0.0)),
            (&["schedule", "kind"], Json::str("methodology")),
        ];
        // Replay runs on the caller's thread count, but the spec itself
        // still bounds it.
        let threads = RunSpec {
            threads: 1_000_000,
            ..spec.clone()
        };
        assert!(threads.validate().is_err());
        for (path, value) in cases {
            let mut replay = faulted.clone();
            set(&mut replay, path, value.clone());
            let parsed = RunSpec::from_json(&replay).and_then(|s| s.validate());
            assert!(parsed.is_err(), "{path:?} = {value:?} was accepted");
            let mut hostile = sidecar.clone();
            set(&mut hostile, &["replay"], replay);
            assert!(
                replay_to_cycle(&hostile, 1).is_err(),
                "{path:?} = {value:?} replayed"
            );
        }
        // Duplicate detection is exact up to 64 flits, so an active
        // fault plan refuses longer packets.
        let mut active = faulted.clone();
        set(
            &mut active,
            &["fault", "data_corrupt_rate"],
            Json::Num(2e-3),
        );
        for (flits, ok) in [(64.0, true), (65.0, false)] {
            set(&mut active, &["packet_flits"], Json::Num(flits));
            let parsed = RunSpec::from_json(&active).and_then(|s| s.validate());
            assert_eq!(parsed.is_ok(), ok, "{flits} flits under an active plan");
            let mut replay = sidecar.clone();
            set(&mut replay, &["replay"], active.clone());
            let replayed = replay_to_cycle(&replay, 1);
            assert_eq!(replayed.is_ok(), ok, "{flits} flits replayed");
        }
    }

    /// Leaf values a hand-edited or corrupted document might carry.
    fn hostile_value(i: usize) -> Json {
        [
            Json::Num(0.0),
            Json::Num(1.0),
            Json::Num(3.0),
            Json::Num(40.0),
            Json::Num(64.0),
            Json::Num(999.0),
            Json::Num(70_000.0),
            Json::Num(7.5),
            Json::Num(-1.0),
            Json::Num(1e300),
            Json::Num(18_446_744_073_709_551_616.0),
            Json::Num(0.5),
            Json::str("x"),
            Json::Null,
            Json::Bool(true),
        ][i]
            .clone()
    }

    /// Paths to every leaf of `doc`, depth first.
    fn leaves(doc: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match doc {
            Json::Obj(pairs) => {
                for (k, v) in pairs {
                    path.push(k.clone());
                    leaves(v, path, out);
                    path.pop();
                }
            }
            _ => out.push(path.clone()),
        }
    }

    /// Truncating a valid document anywhere, or replacing any one leaf
    /// with a hostile value, never panics: parse, `from_json`, `validate`
    /// and the build either reject the document or build its network.
    #[test]
    fn truncated_and_mutated_specs_never_panic() {
        let mut metered = RunSpec::new(
            FlowControl::vc8(),
            Mesh::new(4, 4),
            0.4,
            5,
            SimConfig::quick(9),
        );
        metered.metrics_period = Some(32);
        let mut blackbox = RunSpec::fr6_small(11);
        blackbox.fault = Some(FaultPlan::randomized(5, blackbox.mesh()));
        let docs: Vec<Json> = [metered, blackbox].iter().map(RunSpec::to_json).collect();
        check(
            256,
            (0usize..2, 0usize..2, 0usize..100_000, 0usize..15),
            |case| {
                let (doc, truncate, at, value) = case;
                let doc = &docs[doc];
                let text = if truncate == 1 {
                    let text = doc.render();
                    let cut = (0..=at % text.len())
                        .rev()
                        .find(|&i| text.is_char_boundary(i));
                    text[..cut.unwrap_or(0)].to_string()
                } else {
                    let mut paths = Vec::new();
                    leaves(doc, &mut Vec::new(), &mut paths);
                    let path = &paths[at % paths.len()];
                    let path: Vec<&str> = path.iter().map(String::as_str).collect();
                    let mut mutated = doc.clone();
                    set(&mut mutated, &path, hostile_value(value));
                    mutated.render()
                };
                let Ok(parsed) = Json::parse(&text) else {
                    return;
                };
                let Ok(spec) = RunSpec::from_json(&parsed) else {
                    return;
                };
                if spec.validate().is_ok() {
                    let ring = RingSink::new(1 << spec.ring_log2.unwrap_or(0));
                    drop(spec.build(NullSink, ring, NullRecorder));
                }
            },
        );
    }
}
