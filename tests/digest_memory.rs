//! `Network::state_digest` hashes the state document as it is written,
//! so digesting a clogged network must not raise the process's peak
//! memory by anything near the document's size. The file holds this one
//! test so that it runs as its own binary, where nothing else moves the
//! high-water mark it reads.

use frfc::engine::trace::NullSink;
use frfc::engine::Rng;
use frfc::metrics::{JsonWriter, NullRecorder};
use frfc::network::{AnyNetwork, FlowControl};
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
fn digesting_a_saturated_network_streams_its_document() {
    // VC8 past its saturation knee: the delivery tracker and the source
    // backlogs fill with packets, the state the digest must not copy.
    let mesh = Mesh::new(4, 4);
    let root = Rng::from_seed(0x00D1_6E57);
    let load = LoadSpec::fraction_of_capacity(0.95, 5);
    let generator = TrafficGenerator::uniform(mesh, load, root.fork(99));
    let built = FlowControl::vc8().build(mesh, generator, &root, NullSink, NullSink, NullRecorder);
    let AnyNetwork::Vc(mut net) = built else {
        unreachable!("a VC flow builds a VC network")
    };
    net.run_cycles(2_000);
    let Some(before) = peak_rss_bytes() else {
        eprintln!("VmHWM is not reported here; skipping the memory check");
        return;
    };
    let digest = net.state_digest();
    let after = peak_rss_bytes().expect("VmHWM was readable a moment ago");
    assert_eq!(digest.len(), 16);

    let mut counter = JsonWriter::new(ByteCount(0));
    net.write_state(&mut counter);
    let len = counter.finish().expect("counting cannot fail").0;
    assert!(
        len > 1 << 20,
        "a {len}-byte document is too small to measure"
    );
    let raised = after - before;
    eprintln!("{len}-byte document; state_digest raised VmHWM by {raised} bytes");
    assert!(
        raised < len / 4,
        "state_digest raised VmHWM by {raised} bytes for a {len}-byte document"
    );
}
