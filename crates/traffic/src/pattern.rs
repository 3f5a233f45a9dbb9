//! Spatial traffic patterns: which destination each packet targets.
//!
//! The paper evaluates uniformly distributed traffic to random
//! destinations ([`Uniform`]). The standard synthetic permutations used in
//! interconnection-network studies are also provided so that users of the
//! library can stress flow control under adversarial spatial loads.

use noc_engine::Rng;
use noc_topology::{Coord, Mesh, NodeId};

/// A spatial traffic pattern: maps a source node to a destination node,
/// possibly randomly.
pub trait TrafficPattern {
    /// Picks the destination for a packet injected at `src`.
    ///
    /// Implementations must never return `src` itself; self-addressed
    /// packets never enter the network and would distort load accounting.
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId;

    /// Name used in experiment logs.
    fn name(&self) -> &'static str;
}

/// Uniform random traffic: each packet targets a destination drawn
/// uniformly from all nodes other than the source (the paper's workload).
///
/// # Examples
///
/// ```
/// use noc_engine::Rng;
/// use noc_topology::Mesh;
/// use noc_traffic::{TrafficPattern, Uniform};
///
/// let mesh = Mesh::new(8, 8);
/// let mut rng = Rng::from_seed(1);
/// let src = mesh.node_at(3, 3);
/// let dst = Uniform.destination(mesh, src, &mut rng);
/// assert_ne!(dst, src);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Uniform;

impl TrafficPattern for Uniform {
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId {
        // Draw from n-1 values and skip over the source: uniform over all
        // other nodes without rejection sampling.
        let n = mesh.node_count();
        let mut raw = rng.index(n - 1);
        if raw >= src.index() {
            raw += 1;
        }
        NodeId::new(raw as u16)
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Matrix-transpose permutation: `(x, y)` sends to `(y, x)`.
///
/// Nodes on the diagonal (whose transpose is themselves) fall back to
/// uniform random destinations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Transpose;

impl TrafficPattern for Transpose {
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId {
        let c = mesh.coord(src);
        if c.x == c.y || c.y >= mesh.width() || c.x >= mesh.height() {
            return Uniform.destination(mesh, src, rng);
        }
        mesh.node(Coord::new(c.y, c.x))
    }

    fn name(&self) -> &'static str {
        "transpose"
    }
}

/// Bit-complement permutation: node `i` sends to `n - 1 - i`.
///
/// On an even-sized mesh this is a fixed-point-free permutation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitComplement;

impl TrafficPattern for BitComplement {
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId {
        let dest = NodeId::new((mesh.node_count() - 1 - src.index()) as u16);
        if dest == src {
            return Uniform.destination(mesh, src, rng);
        }
        dest
    }

    fn name(&self) -> &'static str {
        "bit-complement"
    }
}

/// Tornado traffic: each node sends halfway around its row, a classic
/// adversary for dimension-ordered routing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tornado;

impl TrafficPattern for Tornado {
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId {
        let c = mesh.coord(src);
        let half = mesh.width() / 2;
        if half == 0 {
            return Uniform.destination(mesh, src, rng);
        }
        let dest = mesh.node(Coord::new((c.x + half) % mesh.width(), c.y));
        if dest == src {
            Uniform.destination(mesh, src, rng)
        } else {
            dest
        }
    }

    fn name(&self) -> &'static str {
        "tornado"
    }
}

/// Hotspot traffic: with probability `fraction`, packets target one fixed
/// hotspot node; otherwise they pick a uniform destination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hotspot {
    /// The node that receives the concentrated share of traffic.
    pub hotspot: NodeId,
    /// Probability that any given packet targets the hotspot.
    pub fraction: f64,
}

impl Hotspot {
    /// Creates a hotspot pattern.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn new(hotspot: NodeId, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hotspot fraction must be within [0, 1]"
        );
        Hotspot { hotspot, fraction }
    }
}

impl TrafficPattern for Hotspot {
    fn destination(&self, mesh: Mesh, src: NodeId, rng: &mut Rng) -> NodeId {
        if src != self.hotspot && rng.chance(self.fraction) {
            self.hotspot
        } else {
            Uniform.destination(mesh, src, rng)
        }
    }

    fn name(&self) -> &'static str {
        "hotspot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(11);
        let src = mesh.node_at(2, 2);
        let mut seen = vec![false; mesh.node_count()];
        for _ in 0..20_000 {
            let d = Uniform.destination(mesh, src, &mut rng);
            assert_ne!(d, src);
            seen[d.index()] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, mesh.node_count() - 1);
    }

    #[test]
    fn uniform_is_unbiased() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(5);
        let src = mesh.node_at(0, 0);
        let mut counts = vec![0u32; mesh.node_count()];
        let trials = 63_000;
        for _ in 0..trials {
            counts[Uniform.destination(mesh, src, &mut rng).index()] += 1;
        }
        let expected = trials as f64 / 63.0;
        for (i, &c) in counts.iter().enumerate() {
            if i == src.index() {
                assert_eq!(c, 0);
            } else {
                assert!(
                    (c as f64 - expected).abs() < expected * 0.2,
                    "node {i} count {c} too far from {expected}"
                );
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(0);
        let src = mesh.node_at(2, 5);
        let d = Transpose.destination(mesh, src, &mut rng);
        assert_eq!(mesh.coord(d), Coord::new(5, 2));
    }

    #[test]
    fn transpose_diagonal_falls_back_to_uniform() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(0);
        let src = mesh.node_at(3, 3);
        for _ in 0..100 {
            assert_ne!(Transpose.destination(mesh, src, &mut rng), src);
        }
    }

    #[test]
    fn bit_complement_mirrors() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(0);
        let src = mesh.node_at(0, 0);
        let d = BitComplement.destination(mesh, src, &mut rng);
        assert_eq!(mesh.coord(d), Coord::new(7, 7));
    }

    #[test]
    fn tornado_goes_halfway_around_row() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(0);
        let d = Tornado.destination(mesh, mesh.node_at(1, 4), &mut rng);
        assert_eq!(mesh.coord(d), Coord::new(5, 4));
    }

    #[test]
    fn hotspot_concentration() {
        let mesh = mesh();
        let mut rng = Rng::from_seed(9);
        let hs = Hotspot::new(mesh.node_at(4, 4), 0.5);
        let src = mesh.node_at(0, 0);
        let hits = (0..10_000)
            .filter(|_| hs.destination(mesh, src, &mut rng) == mesh.node_at(4, 4))
            .count();
        // 50% targeted plus ~1/63 of the uniform remainder.
        let expected = 10_000.0 * (0.5 + 0.5 / 63.0);
        assert!((hits as f64 - expected).abs() < 300.0, "hits {hits}");
    }

    #[test]
    #[should_panic(expected = "fraction must be within")]
    fn hotspot_bad_fraction_panics() {
        Hotspot::new(NodeId::new(0), 1.5);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Uniform.name(),
            Transpose.name(),
            BitComplement.name(),
            Tornado.name(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
