//! Flit wire formats.
//!
//! Two families of flits cross the simulated wires:
//!
//! * [`DataFlit`] — the wide payload flits (f = 256 bits in the paper).
//!   Under flit-reservation flow control they carry *no* control
//!   information at all ("The data flits themselves contain only payload
//!   information. They are identified solely by their time of arrival.");
//!   under virtual-channel flow control the link tags them with a VC id
//!   and a type field, represented by [`VcTag`].
//! * [`ControlFlit`] — the narrow flits of the FR control network. A
//!   control head flit carries the packet destination; every control flit
//!   carries a control-VC id and the arrival times of up to `d` data flits
//!   it leads (paper Figure 2).
//!
//! The `packet`/`seq` fields on [`DataFlit`] are simulator metadata used
//! for end-to-end checking and latency accounting; they do not model
//! transmitted bits (the overhead models in `noc-overhead` account for
//! real bit costs).

use noc_engine::Cycle;
use noc_topology::NodeId;
use noc_traffic::PacketId;

/// Position of a flit within its packet, as encoded by the type field of
/// virtual-channel flow control.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlitType {
    /// First flit; carries the route information.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases the virtual channel.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitType {
    /// Classifies flit `seq` of a packet with `length` flits.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= length` or `length == 0`.
    pub fn for_position(seq: u32, length: u32) -> FlitType {
        assert!(length > 0, "packets have at least one flit");
        assert!(seq < length, "flit sequence out of range");
        match (seq, length) {
            (0, 1) => FlitType::HeadTail,
            (0, _) => FlitType::Head,
            (s, l) if s + 1 == l => FlitType::Tail,
            _ => FlitType::Body,
        }
    }

    /// `true` for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitType::Head | FlitType::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitType::Tail | FlitType::HeadTail)
    }
}

/// One payload flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataFlit {
    /// Owning packet (simulator metadata).
    pub packet: PacketId,
    /// Position within the packet, `0..length` (simulator metadata).
    pub seq: u32,
    /// Packet length in flits (simulator metadata).
    pub length: u32,
    /// Final destination (simulator metadata; on the VC network the head
    /// flit genuinely carries this, on the FR data network it is carried
    /// by the control flits instead).
    pub dest: NodeId,
    /// Creation time of the packet, for latency accounting.
    pub created_at: Cycle,
    /// Per-flit CRC status: `true` while the payload checksum verifies.
    /// Link-level fault injection clears the bit in place of flipping
    /// payload bits; the destination network interface discards flits
    /// whose CRC fails and NACKs the source (see `noc-faults`).
    pub crc_ok: bool,
}

/// The VC-network tag padded onto each data flit by virtual-channel flow
/// control: `log2(v)` bits of VC id plus a `t`-bit type field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VcTag {
    /// Virtual channel the flit travels on.
    pub vc: u8,
    /// Head/body/tail marker.
    pub ty: FlitType,
}

/// Role of a control flit (paper Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Control head flit: carries the packet destination, performs routing
    /// and leads the first data flit.
    Head {
        /// Packet destination used by the routing step.
        dest: NodeId,
    },
    /// Control body flit: looks up its route by control-VC id.
    Body,
}

/// A data flit led by a control flit, identified by its arrival time.
///
/// `arrival` is rewritten at every hop: once the output scheduler picks a
/// departure time `t_d`, the field becomes `t_d + t_p`, the arrival time
/// at the next router. `scheduled` marks whether the current router has
/// already booked this flit; it is cleared whenever the control flit
/// arrives at the next router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LedFlit {
    /// Arrival time of the data flit at the router currently holding this
    /// control flit.
    pub arrival: Cycle,
    /// Whether the current router has already reserved this flit's
    /// departure (per-flit scheduling can leave a control flit partially
    /// scheduled across cycles).
    pub scheduled: bool,
    /// The data flit being led (simulator metadata for checking).
    pub flit: DataFlit,
}

/// One flit of the FR control network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlFlit {
    /// Control virtual channel id, tying the control flits of one packet
    /// together.
    pub vc: u8,
    /// Head (routes) or body (follows).
    pub kind: ControlKind,
    /// `true` on the last control flit of the packet; releases the
    /// control VC.
    pub is_tail: bool,
    /// The up-to-`d` data flits this control flit leads; empty for pure
    /// control packets.
    pub led: Vec<LedFlit>,
    /// Owning packet (simulator metadata).
    pub packet: PacketId,
}

impl ControlFlit {
    /// `true` if every led data flit has been scheduled at the current
    /// router (tracked externally); convenience for head detection.
    pub fn is_head(&self) -> bool {
        matches!(self.kind, ControlKind::Head { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_type_classification() {
        assert_eq!(FlitType::for_position(0, 1), FlitType::HeadTail);
        assert_eq!(FlitType::for_position(0, 5), FlitType::Head);
        assert_eq!(FlitType::for_position(2, 5), FlitType::Body);
        assert_eq!(FlitType::for_position(4, 5), FlitType::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitType::Head.is_head());
        assert!(FlitType::HeadTail.is_head());
        assert!(FlitType::HeadTail.is_tail());
        assert!(FlitType::Tail.is_tail());
        assert!(!FlitType::Body.is_head());
        assert!(!FlitType::Body.is_tail());
    }

    #[test]
    #[should_panic(expected = "sequence out of range")]
    fn out_of_range_seq_panics() {
        FlitType::for_position(5, 5);
    }

    #[test]
    fn control_head_detection() {
        let head = ControlFlit {
            vc: 0,
            kind: ControlKind::Head {
                dest: NodeId::new(3),
            },
            is_tail: false,
            led: Vec::new(),
            packet: PacketId::new(0),
        };
        assert!(head.is_head());
        let body = ControlFlit {
            kind: ControlKind::Body,
            ..head
        };
        assert!(!body.is_head());
    }
}
