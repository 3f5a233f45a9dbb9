//! Wire and pipeline timing configuration.
//!
//! The paper evaluates two physical realisations of the control lead:
//!
//! * **Fast control** — control and credit signals travel on wires 4×
//!   faster than the data wires (thicker top-metal wires, footnote 9):
//!   1-cycle control/credit links, 4-cycle data links.
//! * **Leading control** — every wire has the same 1-cycle delay, and
//!   control flits are injected N cycles ahead of their data flits.

/// Propagation delays and control lead for one experiment configuration.
///
/// # Examples
///
/// ```
/// use noc_flow::LinkTiming;
///
/// let fast = LinkTiming::fast_control();
/// assert_eq!(fast.data_delay, 4);
/// assert_eq!(fast.control_delay, 1);
/// let leading = LinkTiming::leading_control(2);
/// assert_eq!(leading.data_delay, 1);
/// assert_eq!(leading.control_lead, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkTiming {
    /// Propagation delay of data-network links, in cycles.
    pub data_delay: u64,
    /// Propagation delay of control-network links, in cycles.
    pub control_delay: u64,
    /// Propagation delay of credit wires (both directions), in cycles.
    pub credit_delay: u64,
    /// Cycles by which control flits are injected ahead of their data
    /// flits at the source (0 under fast control, N ≥ 1 under leading
    /// control).
    pub control_lead: u64,
}

impl LinkTiming {
    /// The paper's on-chip configuration: control and credit wires 4×
    /// faster than data wires.
    pub fn fast_control() -> Self {
        LinkTiming {
            data_delay: 4,
            control_delay: 1,
            credit_delay: 1,
            control_lead: 0,
        }
    }

    /// The paper's off-chip configuration: all wires 1 cycle, control
    /// flits injected `lead` cycles ahead of data flits. Flit reservation
    /// needs `lead >= 1` here (`FrConfig::check` holds that rule): with
    /// no lead and equal wire speeds, control flits could never get ahead
    /// of their data.
    pub fn leading_control(lead: u64) -> Self {
        LinkTiming {
            data_delay: 1,
            control_delay: 1,
            credit_delay: 1,
            control_lead: lead,
        }
    }

    /// Timing used for the *virtual-channel baseline* matching a given FR
    /// configuration: the VC network uses the same data wires, and its
    /// credits use the fast credit wires.
    pub fn vc_baseline_of(self) -> LinkTiming {
        LinkTiming {
            control_lead: 0,
            ..self
        }
    }
}

impl Default for LinkTiming {
    /// Defaults to the paper's primary (fast control) configuration.
    fn default() -> Self {
        LinkTiming::fast_control()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_control_matches_paper() {
        let t = LinkTiming::fast_control();
        assert_eq!(t.data_delay, 4);
        assert_eq!(t.control_delay, 1);
        assert_eq!(t.credit_delay, 1);
        assert_eq!(t.control_lead, 0);
    }

    #[test]
    fn leading_control_uniform_wires() {
        for lead in [1, 2, 4] {
            let t = LinkTiming::leading_control(lead);
            assert_eq!(t.data_delay, 1);
            assert_eq!(t.control_delay, 1);
            assert_eq!(t.credit_delay, 1);
            assert_eq!(t.control_lead, lead);
        }
    }

    #[test]
    fn default_is_fast_control() {
        assert_eq!(LinkTiming::default(), LinkTiming::fast_control());
    }

    #[test]
    fn vc_baseline_strips_lead() {
        let t = LinkTiming::leading_control(4).vc_baseline_of();
        assert_eq!(t.control_lead, 0);
        assert_eq!(t.data_delay, 1);
    }
}
