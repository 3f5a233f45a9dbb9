//! `capture_at_cycle` streams the crash sidecar as it is written, its
//! `state` section straight from the network, so capturing a clogged
//! network must not raise the process's peak memory by anything near the
//! sidecar's length. The file holds this one test so that it runs as its
//! own binary, where nothing else moves the high-water mark it reads.

use frfc::engine::trace::{NullSink, RingSink};
use frfc::engine::Rng;
use frfc::metrics::NullRecorder;
use frfc::network::{capture_at_cycle, FlowControl, RunSpec, Schedule, SimConfig, TRAFFIC_STREAM};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};
use std::fmt;

/// Counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// The process's peak resident set (`VmHWM`) in bytes, where the kernel
/// reports it.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: usize = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn capturing_a_saturated_network_streams_its_sidecar() {
    // VC8 past its saturation knee: the delivery tracker and the source
    // backlogs fill with packets, the state the capture must not copy.
    const CYCLE: u64 = 5_000;
    const RING_LOG2: u32 = 6;
    let mesh = Mesh::new(4, 4);
    let spec = RunSpec {
        schedule: Schedule::InjectThenDrain {
            inject_cycles: CYCLE,
            drain_cap: 0,
        },
        ring_log2: Some(RING_LOG2),
        ..RunSpec::new(FlowControl::vc8(), mesh, 0.95, 5, SimConfig::quick(0xCA_97))
    };

    // The same network run to the same cycle without a capture sets the
    // high-water mark the capture is measured against.
    let root = Rng::from_seed(spec.seed);
    let load = LoadSpec::fraction_of_capacity(spec.load, spec.packet_flits);
    let generator = TrafficGenerator::uniform(mesh, load, root.fork(TRAFFIC_STREAM));
    let ring = RingSink::new(1 << RING_LOG2);
    let mut net = spec
        .flow
        .build(mesh, generator, &root, NullSink, ring, NullRecorder);
    net.run_cycles(CYCLE);
    let Some(before) = peak_rss_bytes() else {
        eprintln!("VmHWM is not reported here; skipping the memory check");
        return;
    };
    drop(net);

    let mut counter = ByteCount(0);
    let digest = capture_at_cycle(&spec, CYCLE, &mut counter).expect("capture");
    let after = peak_rss_bytes().expect("VmHWM was readable a moment ago");
    assert_eq!(digest.len(), 16);
    let len = counter.0;
    assert!(
        len > 2 << 20,
        "a {len}-byte sidecar is too small to measure"
    );
    let raised = after - before;
    eprintln!("{len}-byte sidecar; the capture raised VmHWM by {raised} bytes");
    assert!(
        raised < len / 4,
        "the capture raised VmHWM by {raised} bytes for a {len}-byte sidecar"
    );
}
