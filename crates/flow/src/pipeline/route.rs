//! The route-compute stage, shared by both router families.

use noc_topology::{masked_xy_route, xy_route, Mesh, NodeId, Port};

/// Route computation for one router: dimension-ordered (XY) routing
/// with dead-link masking and a detour counter.
///
/// Owns the routing function's whole state — the mesh geometry, this
/// router's coordinates, the mask of permanently failed output links —
/// so neither router family touches a routing field directly.
///
/// # Examples
///
/// ```
/// use noc_flow::pipeline::RouteCompute;
/// use noc_topology::{Mesh, Port};
///
/// let mesh = Mesh::new(4, 4);
/// let mut rc = RouteCompute::new(mesh, mesh.node_at(0, 0));
/// assert_eq!(rc.route(mesh.node_at(3, 0)), Port::East);
/// assert_eq!(rc.route(mesh.node_at(0, 0)), Port::Local);
/// ```
#[derive(Clone, Debug)]
pub struct RouteCompute {
    mesh: Mesh,
    node: NodeId,
    /// Output ports masked out of routing after a permanent link
    /// failure (bit `1 << port.index()`).
    dead_mask: u8,
    /// Route computations that detoured around a dead output link.
    masked_routes: u64,
}

impl RouteCompute {
    /// Creates the stage for `node` of `mesh` with no links masked.
    pub fn new(mesh: Mesh, node: NodeId) -> Self {
        RouteCompute {
            mesh,
            node,
            dead_mask: 0,
            masked_routes: 0,
        }
    }

    /// Computes the output port towards `dest`; `Local` when `dest` is
    /// this router's own node.
    ///
    /// # Panics
    ///
    /// Panics if masking has disconnected every route to `dest`.
    pub fn route(&mut self, dest: NodeId) -> Port {
        if dest == self.node {
            return Port::Local;
        }
        let out = masked_xy_route(self.mesh, self.node, dest, self.dead_mask)
            .expect("non-local destination must route");
        if self.dead_mask != 0 && Some(out) != xy_route(self.mesh, self.node, dest) {
            self.masked_routes += 1;
        }
        out
    }

    /// Masks `port` out of the routing function after a permanent link
    /// failure.
    pub fn mask_dead(&mut self, port: Port) {
        self.dead_mask |= 1 << port.index();
    }

    /// Cumulative count of routes that detoured around a dead link.
    pub fn masked_routes(&self) -> u64 {
        self.masked_routes
    }

    /// Dumps the node, its dead-port mask and the masked-route count.
    pub fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        Json::obj(vec![
            ("node".into(), Json::Num(self.node.raw() as f64)),
            ("dead_mask".into(), Json::Num(self.dead_mask as f64)),
            ("masked_routes".into(), Json::Num(self.masked_routes as f64)),
        ])
    }
}
