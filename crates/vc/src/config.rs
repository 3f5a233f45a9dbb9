//! Virtual-channel router configuration.

/// Granularity at which buffers and bandwidth are claimed (the paper's
/// related-work lineage: store-and-forward → virtual cut-through →
/// wormhole/VC allocate in ever smaller units).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocationUnit {
    /// Flit-sized units: wormhole / virtual-channel flow control.
    #[default]
    Flit,
    /// Packet-sized buffer claim downstream, but transmission may begin
    /// before the whole packet has arrived (virtual cut-through,
    /// [KerKle79]).
    CutThrough,
    /// Packet-sized claim *and* the entire packet must be buffered before
    /// any of it is forwarded (store-and-forward).
    StoreAndForward,
}

/// How downstream buffer space is accounted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CreditMode {
    /// Classic virtual-channel flow control: each VC owns a private
    /// `queue_depth`-flit queue and its own credit counter (Dally '92).
    #[default]
    PerVc,
    /// Dynamically-allocated shared pool [TamFra92]: the VCs of an input
    /// port share one pool of `num_vcs * queue_depth` buffers; credits
    /// count pool slots. The paper simulated this variant and "saw no
    /// improvement in network throughput" (Section 5).
    SharedPool,
}

/// Configuration of the virtual-channel baseline router.
///
/// # Examples
///
/// ```
/// use noc_vc::VcConfig;
///
/// let vc8 = VcConfig::vc8();
/// assert_eq!(vc8.num_vcs, 2);
/// assert_eq!(vc8.queue_depth, 4);
/// assert_eq!(vc8.buffers_per_input(), 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcConfig {
    /// Virtual channels per physical channel (`v_d`).
    pub num_vcs: usize,
    /// Flit buffers per virtual channel.
    pub queue_depth: usize,
    /// Buffer accounting mode.
    pub credit_mode: CreditMode,
    /// Buffer/bandwidth allocation granularity.
    pub allocation: AllocationUnit,
}

impl VcConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`VcConfig::check`]'s message if the configuration
    /// breaks a rule.
    pub fn new(num_vcs: usize, queue_depth: usize, credit_mode: CreditMode) -> Self {
        let config = VcConfig {
            num_vcs,
            queue_depth,
            credit_mode,
            allocation: AllocationUnit::Flit,
        };
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        config
    }

    /// Returns `Err` naming the first rule the configuration breaks: VC
    /// ids fit a `u8`, and every queue holds between one flit and a size
    /// no run spec can turn into an aborting allocation.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=255).contains(&self.num_vcs) {
            return Err("VC count must be in 1..=255".into());
        }
        if !(1..=4096).contains(&self.queue_depth) {
            return Err("VC queue depth must be in 1..=4096".into());
        }
        Ok(())
    }

    /// Virtual cut-through flow control [KerKle79]: a single queue per
    /// input sized for whole packets; the head claims a full packet
    /// buffer downstream before advancing, but cuts through as soon as it
    /// arrives.
    pub fn virtual_cut_through(packet_buffer: usize) -> Self {
        VcConfig {
            allocation: AllocationUnit::CutThrough,
            ..VcConfig::new(1, packet_buffer, CreditMode::PerVc)
        }
    }

    /// Store-and-forward flow control: like cut-through, but a packet is
    /// only forwarded once it has been received in full.
    pub fn store_and_forward(packet_buffer: usize) -> Self {
        VcConfig {
            allocation: AllocationUnit::StoreAndForward,
            ..VcConfig::new(1, packet_buffer, CreditMode::PerVc)
        }
    }

    /// Paper configuration VC8: 8 buffers per input as 2 VCs × 4 flits
    /// ("4 buffers in each virtual channel ... found to realize the best
    /// performance", footnote 10).
    pub fn vc8() -> Self {
        VcConfig::new(2, 4, CreditMode::PerVc)
    }

    /// Paper configuration VC16: 16 buffers per input as 4 VCs × 4 flits.
    pub fn vc16() -> Self {
        VcConfig::new(4, 4, CreditMode::PerVc)
    }

    /// Paper configuration VC32: 32 buffers per input as 8 VCs × 4 flits.
    pub fn vc32() -> Self {
        VcConfig::new(8, 4, CreditMode::PerVc)
    }

    /// Wormhole flow control: a single VC whose queue is the whole input
    /// buffer (the degenerate case the paper's related work starts from).
    pub fn wormhole(buffers_per_input: usize) -> Self {
        VcConfig::new(1, buffers_per_input, CreditMode::PerVc)
    }

    /// Shared-pool variant of an existing configuration [TamFra92].
    pub fn with_shared_pool(self) -> Self {
        VcConfig {
            credit_mode: CreditMode::SharedPool,
            ..self
        }
    }

    /// Total data buffers per input channel (`b_d`).
    pub fn buffers_per_input(&self) -> usize {
        self.num_vcs * self.queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets() {
        assert_eq!(VcConfig::vc8().buffers_per_input(), 8);
        assert_eq!(VcConfig::vc16().buffers_per_input(), 16);
        assert_eq!(VcConfig::vc32().buffers_per_input(), 32);
        assert_eq!(VcConfig::vc16().num_vcs, 4);
        assert_eq!(VcConfig::vc32().num_vcs, 8);
        assert_eq!(VcConfig::vc8().credit_mode, CreditMode::PerVc);
    }

    #[test]
    fn wormhole_is_single_vc() {
        let w = VcConfig::wormhole(8);
        assert_eq!(w.num_vcs, 1);
        assert_eq!(w.queue_depth, 8);
        assert_eq!(w.buffers_per_input(), 8);
    }

    #[test]
    fn shared_pool_preserves_buffers() {
        let s = VcConfig::vc8().with_shared_pool();
        assert_eq!(s.credit_mode, CreditMode::SharedPool);
        assert_eq!(s.buffers_per_input(), 8);
    }

    #[test]
    #[should_panic(expected = "VC count must be in 1..=255")]
    fn zero_vcs_panics() {
        VcConfig::new(0, 4, CreditMode::PerVc);
    }

    #[test]
    #[should_panic(expected = "VC queue depth must be in 1..=4096")]
    fn zero_depth_panics() {
        VcConfig::new(2, 0, CreditMode::PerVc);
    }
}
