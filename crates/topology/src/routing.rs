//! Routing functions.
//!
//! The paper's network uses "deterministic dimension-ordered routing"; on
//! a 2-D mesh that is XY routing: correct the x offset fully, then the y
//! offset. Dimension-ordered routing on a mesh is minimal and deadlock-free
//! [Dally87], which is what lets both flow-control schemes run without
//! extra escape channels.

use crate::{Mesh, NodeId, Port};

/// Dimension-ordered XY route: travel east/west first, then north/south.
/// Returns `None` when `at == dest` (the flit ejects via `Local`).
///
/// # Examples
///
/// ```
/// use noc_topology::{xy_route, Mesh, Port};
///
/// let mesh = Mesh::new(8, 8);
/// let src = mesh.node_at(0, 0);
/// let dst = mesh.node_at(2, 1);
/// assert_eq!(xy_route(mesh, src, dst), Some(Port::East));
/// assert_eq!(xy_route(mesh, dst, dst), None);
/// ```
pub fn xy_route(mesh: Mesh, at: NodeId, dest: NodeId) -> Option<Port> {
    let a = mesh.coord(at);
    let d = mesh.coord(dest);
    if a.x < d.x {
        Some(Port::East)
    } else if a.x > d.x {
        Some(Port::West)
    } else if a.y < d.y {
        Some(Port::South)
    } else if a.y > d.y {
        Some(Port::North)
    } else {
        None
    }
}

/// Fault-aware XY route: dimension-ordered routing that detours around
/// permanently dead output links.
///
/// `dead_mask` has bit `1 << port.index()` set for every outgoing link of
/// `at` that has been taken out of service. With a zero mask this is
/// bit-for-bit [`xy_route`], so fault-free runs are unperturbed.
///
/// The detour rules keep the route livelock-free and deadlock-free for a
/// single failed link, using only node-local knowledge:
///
/// * **Dead horizontal link, vertical offset remaining** — correct the Y
///   offset first (a productive Y-before-X detour); the row reached
///   crosses the failed column on its own, live, horizontal link.
/// * **Dead horizontal link, destination in the same row** — misroute one
///   hop vertically (south if possible, else north); the adjacent row
///   then resumes XY east/west past the failure without ever routing
///   back, because its preferred direction is horizontal, not the return
///   hop.
/// * **Dead vertical link** — XY only travels vertically in the
///   destination's column, where no local detour exists that the
///   neighbouring column would not immediately undo (it would route
///   straight back and ping-pong). The route falls back to the
///   out-of-service link, which in this fault model is administratively
///   masked rather than severed, so the flit still drains — degraded, not
///   lost.
///
/// Every Y-before-X corner a single dead link induces sits in the failed
/// link's column; a channel-dependency cycle needs illegal corners in two
/// distinct columns, so single-failure masking preserves deadlock
/// freedom. Multiple simultaneous failures are routed best-effort.
///
/// # Examples
///
/// ```
/// use noc_topology::{masked_xy_route, xy_route, Mesh, Port};
///
/// let mesh = Mesh::new(8, 8);
/// let src = mesh.node_at(0, 0);
/// let dst = mesh.node_at(2, 0);
/// // No faults: identical to plain XY.
/// assert_eq!(masked_xy_route(mesh, src, dst, 0), xy_route(mesh, src, dst));
/// // East link dead, destination in the same row: misroute south.
/// let dead = 1 << Port::East.index();
/// assert_eq!(masked_xy_route(mesh, src, dst, dead as u8), Some(Port::South));
/// ```
pub fn masked_xy_route(mesh: Mesh, at: NodeId, dest: NodeId, dead_mask: u8) -> Option<Port> {
    let is_dead = |p: Port| dead_mask & (1u8 << p.index()) != 0;
    let preferred = xy_route(mesh, at, dest)?;
    if dead_mask == 0 || !is_dead(preferred) {
        return Some(preferred);
    }
    match preferred {
        Port::East | Port::West => {
            let a = mesh.coord(at);
            let d = mesh.coord(dest);
            let productive = if a.y < d.y {
                Some(Port::South)
            } else if a.y > d.y {
                Some(Port::North)
            } else {
                None
            };
            if let Some(v) = productive {
                if !is_dead(v) && mesh.neighbor(at, v).is_some() {
                    return Some(v);
                }
            }
            for v in [Port::South, Port::North] {
                if !is_dead(v) && mesh.neighbor(at, v).is_some() {
                    return Some(v);
                }
            }
            // Boxed in: every detour is dead or off the mesh edge.
            Some(preferred)
        }
        // Vertical hops happen only in the destination column; see above.
        Port::North | Port::South => Some(preferred),
        Port::Local => unreachable!("xy_route never yields Local"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_is_minimal_for_all_pairs() {
        let mesh = Mesh::new(8, 8);
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                let path = masked_path(mesh, src, dst, src, 0);
                let dist = mesh.coord(src).manhattan_distance(mesh.coord(dst));
                assert_eq!(path.len(), dist as usize, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn xy_orders_dimensions() {
        let mesh = Mesh::new(8, 8);
        let (src, dst) = (mesh.node_at(0, 0), mesh.node_at(2, 2));
        let path = masked_path(mesh, src, dst, src, 0);
        assert_eq!(path, vec![Port::East, Port::East, Port::South, Port::South]);
    }

    #[test]
    fn route_to_self_is_none() {
        let mesh = Mesh::new(3, 3);
        let n = mesh.node_at(1, 1);
        assert_eq!(xy_route(mesh, n, n), None);
    }

    /// Walks masked XY hops from `src` to `dest` with `dead` applied at
    /// `dead_node` only, panicking if the walk cycles.
    fn masked_path(
        mesh: Mesh,
        src: NodeId,
        dest: NodeId,
        dead_node: NodeId,
        dead: u8,
    ) -> Vec<Port> {
        let mut path = Vec::new();
        let mut at = src;
        let mut hops = 0;
        loop {
            let mask = if at == dead_node { dead } else { 0 };
            let Some(port) = masked_xy_route(mesh, at, dest, mask) else {
                return path;
            };
            path.push(port);
            at = mesh.neighbor(at, port).expect("route follows links");
            hops += 1;
            assert!(hops <= 4 * mesh.node_count(), "masked route is cycling");
        }
    }

    #[test]
    fn masked_route_with_zero_mask_is_plain_xy() {
        let mesh = Mesh::new(8, 8);
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                assert_eq!(masked_xy_route(mesh, src, dst, 0), xy_route(mesh, src, dst));
            }
        }
    }

    #[test]
    fn masked_route_detours_a_dead_horizontal_link_for_all_pairs() {
        let mesh = Mesh::new(6, 6);
        let dead_node = mesh.node_at(2, 3);
        let dead = 1u8 << Port::East.index();
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                let path = masked_path(mesh, src, dst, dead_node, dead);
                // The walk terminated (asserted inside) and never used the
                // dead link.
                let mut at = src;
                for &p in &path {
                    assert!(
                        !(at == dead_node && p == Port::East),
                        "{src}->{dst} used the dead link"
                    );
                    at = mesh.neighbor(at, p).unwrap();
                }
                assert_eq!(at, dst, "{src}->{dst} ended at {at}");
            }
        }
    }

    #[test]
    fn masked_route_productive_detour_stays_minimal() {
        let mesh = Mesh::new(6, 6);
        // East dead at (1,1); destination has a remaining Y offset, so the
        // detour corrects Y first and stays minimal.
        let dead_node = mesh.node_at(1, 1);
        let dead = 1u8 << Port::East.index();
        let src = mesh.node_at(1, 1);
        let dst = mesh.node_at(4, 3);
        let path = masked_path(mesh, src, dst, dead_node, dead);
        let dist = mesh.coord(src).manhattan_distance(mesh.coord(dst)) as usize;
        assert_eq!(path.len(), dist);
        assert_eq!(path[0], Port::South);
    }

    #[test]
    fn masked_route_same_row_misroute_costs_two_extra_hops() {
        let mesh = Mesh::new(6, 6);
        let dead_node = mesh.node_at(1, 2);
        let dead = 1u8 << Port::East.index();
        let src = mesh.node_at(1, 2);
        let dst = mesh.node_at(4, 2);
        let path = masked_path(mesh, src, dst, dead_node, dead);
        let dist = mesh.coord(src).manhattan_distance(mesh.coord(dst)) as usize;
        assert_eq!(path.len(), dist + 2);
        assert_eq!(path[0], Port::South);
        assert_eq!(*path.last().unwrap(), Port::North);
    }

    #[test]
    fn masked_route_falls_back_on_dead_vertical_links() {
        let mesh = Mesh::new(4, 4);
        let at = mesh.node_at(2, 1);
        let dst = mesh.node_at(2, 3);
        let dead = 1u8 << Port::South.index();
        // No sound local detour exists; the out-of-service link is used.
        assert_eq!(masked_xy_route(mesh, at, dst, dead), Some(Port::South));
    }

    /// Dimension-ordered routing admits no cyclic channel dependencies on
    /// a mesh. We verify the classic turn restriction: XY never takes a
    /// vertical-then-horizontal turn.
    #[test]
    fn xy_never_turns_from_y_to_x() {
        let mesh = Mesh::new(8, 8);
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                let path = masked_path(mesh, src, dst, src, 0);
                let mut seen_vertical = false;
                for p in path {
                    match p {
                        Port::North | Port::South => seen_vertical = true,
                        Port::East | Port::West => {
                            assert!(!seen_vertical, "illegal turn in XY routing")
                        }
                        Port::Local => unreachable!(),
                    }
                }
            }
        }
    }
}
