//! The k-ary 2-mesh topology of the paper's evaluation (8×8).

use crate::{Coord, NodeId, Port};

/// A `width × height` 2-D mesh.
///
/// Nodes are numbered row-major; each node connects to its north, south,
/// east and west neighbours where they exist (no wrap-around).
///
/// # Examples
///
/// ```
/// use noc_topology::{Mesh, Port};
///
/// let mesh = Mesh::new(8, 8);
/// assert_eq!(mesh.node_count(), 64);
/// let origin = mesh.node_at(0, 0);
/// assert_eq!(mesh.neighbor(origin, Port::North), None);
/// let east = mesh.neighbor(origin, Port::East).unwrap();
/// assert_eq!(mesh.coord(east).x, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count exceeds
    /// `u16::MAX`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "mesh too large for u16 node ids"
        );
        Mesh { width, height }
    }

    /// Width (number of columns).
    #[inline]
    pub fn width(self) -> u16 {
        self.width
    }

    /// Height (number of rows).
    #[inline]
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Node id at coordinate `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "coordinate out of mesh");
        NodeId::new(y * self.width + x)
    }

    /// Node id for a [`Coord`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn node(self, c: Coord) -> NodeId {
        self.node_at(c.x, c.y)
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is outside the mesh.
    #[inline]
    pub fn coord(self, n: NodeId) -> Coord {
        assert!(n.index() < self.node_count(), "node id out of mesh");
        Coord::new(n.raw() % self.width, n.raw() / self.width)
    }

    /// The neighbour reached by leaving `n` through `port`, or `None` at a
    /// mesh edge or for the `Local` port.
    pub fn neighbor(self, n: NodeId, port: Port) -> Option<NodeId> {
        let c = self.coord(n);
        let (x, y) = match port {
            Port::North => (Some(c.x), c.y.checked_sub(1)),
            Port::South => (
                Some(c.x),
                if c.y + 1 < self.height {
                    Some(c.y + 1)
                } else {
                    None
                },
            ),
            Port::East => (
                if c.x + 1 < self.width {
                    Some(c.x + 1)
                } else {
                    None
                },
                Some(c.y),
            ),
            Port::West => (c.x.checked_sub(1), Some(c.y)),
            Port::Local => (None, None),
        };
        Some(self.node_at(x?, y?))
    }

    /// Iterates over all node ids.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u16).map(NodeId::new)
    }

    /// Average Manhattan distance over ordered pairs of *distinct* nodes —
    /// the expected hop count of uniform random traffic.
    ///
    /// For the paper's 8×8 mesh this is 5.33 hops.
    pub fn average_distance(self) -> f64 {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in self.nodes() {
            for b in self.nodes() {
                if a != b {
                    total += self.coord(a).manhattan_distance(self.coord(b)) as u64;
                    pairs += 1;
                }
            }
        }
        total as f64 / pairs as f64
    }

    /// Network capacity under uniform random traffic with dimension-ordered
    /// routing, in flits per node per cycle.
    ///
    /// The mesh is bisection-limited: with XY routing the most loaded
    /// channels are the ones crossing the vertical mid-line, and each
    /// carries `k/4` flits per cycle per unit of injection bandwidth, so
    /// saturation injection is `4/k` flits/node/cycle (`k` the larger
    /// dimension; 0.5 for the paper's 8×8 mesh). Offered loads elsewhere in
    /// this workspace are expressed as a fraction of this capacity.
    pub fn capacity_flits_per_node_cycle(self) -> f64 {
        4.0 / self.width.max(self.height) as f64
    }

    /// Exact worst-case channel load per unit injection under uniform
    /// random traffic and XY routing, computed by enumerating all
    /// source-destination paths. [`Self::capacity_flits_per_node_cycle`] is
    /// the closed-form of `1 / max_load` for square meshes; this method
    /// exists to validate it and to handle rectangular meshes exactly.
    pub fn max_channel_load_xy(self) -> f64 {
        let n = self.node_count();
        let mut load = vec![[0u64; Port::COUNT]; n];
        for src in self.nodes() {
            for dst in self.nodes() {
                if src == dst {
                    continue;
                }
                // Walk the XY path, crediting each traversed channel.
                let mut at = src;
                while let Some(port) = crate::xy_route(self, at, dst) {
                    load[at.index()][port.index()] += 1;
                    at = self
                        .neighbor(at, port)
                        .expect("XY route must follow an existing link");
                }
            }
        }
        let flows = (n * (n - 1)) as f64;
        let max = load
            .iter()
            .flat_map(|ports| ports.iter())
            .copied()
            .max()
            .unwrap_or(0);
        // Each node injects 1 flit/cycle split evenly over (n-1) flows.
        max as f64 * n as f64 / flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_round_trip() {
        let mesh = Mesh::new(8, 8);
        for n in mesh.nodes() {
            assert_eq!(mesh.node(mesh.coord(n)), n);
        }
    }

    #[test]
    fn edges_have_no_neighbors() {
        let mesh = Mesh::new(4, 3);
        assert_eq!(mesh.neighbor(mesh.node_at(0, 0), Port::North), None);
        assert_eq!(mesh.neighbor(mesh.node_at(0, 0), Port::West), None);
        assert_eq!(mesh.neighbor(mesh.node_at(3, 2), Port::South), None);
        assert_eq!(mesh.neighbor(mesh.node_at(3, 2), Port::East), None);
        assert_eq!(mesh.neighbor(mesh.node_at(1, 1), Port::Local), None);
    }

    #[test]
    fn neighbors_are_symmetric_and_count_every_link() {
        // A w×h mesh has 2*(w*(h-1) + h*(w-1)) unidirectional links.
        for (w, h) in [(5u16, 4u16), (8, 8), (3, 2)] {
            let mesh = Mesh::new(w, h);
            let mut links = 0;
            for from in mesh.nodes() {
                for port in Port::MESH {
                    if let Some(to) = mesh.neighbor(from, port) {
                        assert_eq!(mesh.neighbor(to, port.opposite().unwrap()), Some(from));
                        links += 1;
                    }
                }
            }
            let (w, h) = (usize::from(w), usize::from(h));
            assert_eq!(links, 2 * (w * (h - 1) + h * (w - 1)), "{w}x{h}");
        }
    }

    #[test]
    fn average_distance_of_paper_mesh() {
        // Sum of |x1-x2| over an 8-point line is 168; over the full mesh
        // each dimension contributes 168*64, so the mean over the 64*63
        // ordered distinct pairs is 2*168*64/4032 = 16/3.
        let mesh = Mesh::new(8, 8);
        assert!((mesh.average_distance() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_of_paper_mesh_is_half_flit() {
        assert_eq!(Mesh::new(8, 8).capacity_flits_per_node_cycle(), 0.5);
    }

    #[test]
    fn capacity_matches_enumerated_channel_load() {
        // The closed form 4/k counts self-addressed traffic; the enumerated
        // load excludes it, so they differ by exactly (n-1)/n on square,
        // even-k meshes.
        for (w, h) in [(4u16, 4u16), (8, 8), (6, 6)] {
            let mesh = Mesh::new(w, h);
            let n = mesh.node_count() as f64;
            let enumerated = 1.0 / mesh.max_channel_load_xy();
            let closed_form = mesh.capacity_flits_per_node_cycle() * (n - 1.0) / n;
            assert!(
                (enumerated - closed_form).abs() < 1e-9,
                "{w}x{h}: enumerated {enumerated} vs closed form {closed_form}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        Mesh::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "coordinate out of mesh")]
    fn out_of_range_coordinate_panics() {
        Mesh::new(2, 2).node_at(2, 0);
    }

    #[test]
    #[should_panic(expected = "node id out of mesh")]
    fn out_of_range_node_panics() {
        Mesh::new(2, 2).coord(NodeId::new(4));
    }
}
