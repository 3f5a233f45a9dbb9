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
    /// Panics with [`FrConfig::check`]'s message if `horizon` breaks a
    /// rule.
    #[must_use]
    pub fn with_horizon(self, horizon: u64) -> Self {
        FrConfig { horizon, ..self }.checked()
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
    /// Panics with [`FrConfig::check`]'s message if `d` breaks a rule.
    #[must_use]
    pub fn with_flits_per_control(self, d: u32) -> Self {
        FrConfig {
            flits_per_control: d,
            ..self
        }
        .checked()
    }

    /// Total control flit buffers per input channel (`b_c`).
    pub fn control_buffers(&self) -> usize {
        self.control_vcs * self.control_queue_depth
    }

    /// Returns `Err` naming the first rule the configuration breaks:
    /// every count is positive, control VC ids fit the `u8` control
    /// flits carry, sizes stay small enough that no allocation a run
    /// spec can ask for aborts, and control flits can get ahead of their
    /// data (a lead, or control wires faster than data wires).
    pub fn check(&self) -> Result<(), String> {
        let size = |v: usize| (1..=4096).contains(&v);
        let small = |v: u32| (1..=64).contains(&v);
        let why = if !size(self.data_buffers) {
            "data buffers must be in 1..=4096"
        } else if !(1..=255).contains(&self.control_vcs) {
            "control VC count must be in 1..=255"
        } else if !size(self.control_queue_depth) {
            "control queue depth must be in 1..=4096"
        } else if !small(self.control_lanes) {
            "control lanes must be in 1..=64"
        } else if !(1..=4096).contains(&self.horizon) {
            "scheduling horizon must be in 1..=4096"
        } else if !small(self.flits_per_control) {
            "flits per control must be in 1..=64"
        } else if self.sync_margin > 64 {
            "sync margin must be at most 64"
        } else if self.timing.control_lead == 0
            && self.timing.control_delay >= self.timing.data_delay
        {
            "FR needs a lead of at least one cycle unless control wires are faster than data wires"
        } else {
            return Ok(());
        };
        Err(why.into())
    }

    /// `self`, or a panic with [`FrConfig::check`]'s message.
    pub(crate) fn checked(self) -> Self {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
        self
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
        assert_eq!(fr6.check(), Ok(()));
        assert_eq!(fr13.check(), Ok(()));
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
    #[should_panic(expected = "scheduling horizon must be in 1..=4096")]
    fn zero_horizon_panics() {
        let _ = FrConfig::fr6().with_horizon(0);
    }

    #[test]
    fn zero_lead_needs_faster_control_wires() {
        let no_lead = LinkTiming {
            control_lead: 0,
            ..LinkTiming::leading_control(1)
        };
        let why = FrConfig::fr6().with_timing(no_lead).check().unwrap_err();
        assert_eq!(
            why,
            "FR needs a lead of at least one cycle unless control wires are faster than data wires"
        );
        let fast = FrConfig::fr6().with_timing(LinkTiming::fast_control());
        assert_eq!(fast.check(), Ok(()));
    }

    #[test]
    fn default_is_fr6() {
        assert_eq!(FrConfig::default(), FrConfig::fr6());
    }
}
