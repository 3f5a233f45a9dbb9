//! Flit-reservation router configuration.

use noc_flow::LinkTiming;

/// Whether a control flit's data flits are scheduled independently or
/// atomically (paper Section 5, "All-or-nothing versus per-flit
/// scheduling").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Each data flit moves on as soon as its own reservation succeeds
    /// (the paper's choice: higher throughput because scheduled flits free
    /// their buffers for others).
    #[default]
    PerFlit,
    /// Data flits are only forwarded once the control flit has reservations
    /// for *all* of them. No schedule list is needed, but flits stall in
    /// the buffer pool more often.
    AllOrNothing,
    /// The paper's literal per-flit rule: each booking only requires one
    /// free downstream buffer. Fastest, but a partially scheduled control
    /// flit whose forwarded data flits fill the next node's pool can
    /// deadlock (the extended deadlock theory the paper's Section 5 calls
    /// for); [`SchedulingPolicy::PerFlit`] closes that hole by requiring
    /// as many free buffers as the control flit still has to schedule.
    /// Only meaningful for `d > 1`.
    PerFlitGreedy,
}

/// When a concrete buffer is bound to a reservation (paper Section 5,
/// "Buffer allocation at scheduling time versus just before arrival").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BufferAllocPolicy {
    /// Bind a buffer one cycle before the data flit arrives (the paper's
    /// choice; never needs buffer-to-buffer transfers).
    #[default]
    JustBeforeArrival,
    /// Bind a buffer when the reservation is made. Can force a flit to be
    /// transferred between buffers mid-residency (Figure 10); the router
    /// counts those transfers for the ablation study.
    AtReservation,
}

/// Configuration of a flit-reservation router.
///
/// # Examples
///
/// ```
/// use flit_reservation::FrConfig;
///
/// let fr6 = FrConfig::fr6();
/// assert_eq!(fr6.data_buffers, 6);
/// assert_eq!(fr6.control_vcs, 2);
/// assert_eq!(fr6.control_buffers(), 6);
/// assert_eq!(fr6.horizon, 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrConfig {
    /// Data buffers per input channel (`b_d`; 6 in FR6, 13 in FR13).
    pub data_buffers: usize,
    /// Control virtual channels per control link (`v_c`).
    pub control_vcs: usize,
    /// Control flit buffers per control VC (3 in both paper configs).
    pub control_queue_depth: usize,
    /// Control flits transferred per control link per cycle, and processed
    /// per output scheduler per cycle (2 in the paper).
    pub control_lanes: u32,
    /// Scheduling horizon `s` in cycles (32 in the paper; Figure 7 sweeps
    /// 16–128).
    pub horizon: u64,
    /// Data flits led by one control flit (`d`; 1 in the paper's runs).
    pub flits_per_control: u32,
    /// Per-flit or all-or-nothing scheduling.
    pub policy: SchedulingPolicy,
    /// Buffer binding time.
    pub buffer_alloc: BufferAllocPolicy,
    /// Wire delays and control lead.
    pub timing: LinkTiming,
    /// Extra cycles a buffer is *accounted* busy after its flit departs.
    /// Models the paper's plesiochronous links (Section 5,
    /// "Synchronization issues"): "buffers must be held for one extra
    /// cycle before releasing them to avoid buffer conflicts when the
    /// transmit clock slips a cycle". 0 = mesochronous (the default).
    pub sync_margin: u64,
}

impl FrConfig {
    /// Paper configuration FR6: 6 data buffers, 2 control VCs × 3, fast
    /// control — storage-matched to VC8.
    pub fn fr6() -> Self {
        FrConfig {
            data_buffers: 6,
            control_vcs: 2,
            control_queue_depth: 3,
            control_lanes: 2,
            horizon: 32,
            flits_per_control: 1,
            policy: SchedulingPolicy::PerFlit,
            buffer_alloc: BufferAllocPolicy::JustBeforeArrival,
            timing: LinkTiming::fast_control(),
            sync_margin: 0,
        }
    }

    /// Paper configuration FR13: 13 data buffers, 4 control VCs × 3 —
    /// storage-matched to VC16.
    pub fn fr13() -> Self {
        FrConfig {
            data_buffers: 13,
            control_vcs: 4,
            ..FrConfig::fr6()
        }
    }

    /// Replaces the timing (e.g. [`LinkTiming::leading_control`]).
    #[must_use]
    pub fn with_timing(self, timing: LinkTiming) -> Self {
        FrConfig { timing, ..self }
    }

    /// Replaces the scheduling horizon (Figure 7's sweep).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    #[must_use]
    pub fn with_horizon(self, horizon: u64) -> Self {
        assert!(horizon > 0, "scheduling horizon must be positive");
        FrConfig { horizon, ..self }
    }

    /// Replaces the scheduling policy (Section 5 ablation).
    #[must_use]
    pub fn with_policy(self, policy: SchedulingPolicy) -> Self {
        FrConfig { policy, ..self }
    }

    /// Sets the plesiochronous buffer-release margin (Section 5).
    #[must_use]
    pub fn with_sync_margin(self, sync_margin: u64) -> Self {
        FrConfig {
            sync_margin,
            ..self
        }
    }

    /// Replaces the number of data flits led per control flit.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn with_flits_per_control(self, d: u32) -> Self {
        assert!(d > 0, "a control flit must lead at least one data flit");
        FrConfig {
            flits_per_control: d,
            ..self
        }
    }

    /// Total control flit buffers per input channel (`b_c`).
    pub fn control_buffers(&self) -> usize {
        self.control_vcs * self.control_queue_depth
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero where that is meaningless, or if a
    /// control VC id would not fit the `u8` control flits carry.
    pub fn validate(&self) {
        assert!(self.data_buffers > 0, "need at least one data buffer");
        assert!(self.control_vcs > 0, "need at least one control VC");
        assert!(self.control_vcs <= 256, "control VC ids travel as a u8");
        assert!(self.control_queue_depth > 0, "control queues need a slot");
        assert!(self.control_lanes > 0, "need control bandwidth");
        assert!(self.horizon > 0, "scheduling horizon must be positive");
        assert!(self.flits_per_control > 0, "d must be positive");
    }
}

impl Default for FrConfig {
    fn default() -> Self {
        FrConfig::fr6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table1() {
        let fr6 = FrConfig::fr6();
        assert_eq!(fr6.data_buffers, 6);
        assert_eq!(fr6.control_vcs, 2);
        assert_eq!(fr6.control_buffers(), 6);
        let fr13 = FrConfig::fr13();
        assert_eq!(fr13.data_buffers, 13);
        assert_eq!(fr13.control_vcs, 4);
        assert_eq!(fr13.control_buffers(), 12);
        fr6.validate();
        fr13.validate();
    }

    #[test]
    fn builders_replace_fields() {
        let c = FrConfig::fr6()
            .with_horizon(64)
            .with_policy(SchedulingPolicy::AllOrNothing)
            .with_flits_per_control(4)
            .with_timing(LinkTiming::leading_control(2));
        assert_eq!(c.horizon, 64);
        assert_eq!(c.policy, SchedulingPolicy::AllOrNothing);
        assert_eq!(c.flits_per_control, 4);
        assert_eq!(c.timing.control_lead, 2);
        assert_eq!(c.data_buffers, 6);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = FrConfig::fr6().with_horizon(0);
    }

    #[test]
    fn default_is_fr6() {
        assert_eq!(FrConfig::default(), FrConfig::fr6());
    }
}
