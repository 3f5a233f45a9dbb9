//! Mesh partitioning for parallel sharded stepping.
//!
//! A [`ShardPlan`] splits the mesh's node index space `0..nodes` into
//! consecutive, non-overlapping ranges — one per worker thread. Because
//! the network keeps its hot per-node state (router slots, backlogs,
//! inbound links) in dense arrays ordered by node index, a contiguous
//! range is also a contiguous slab of memory, so shards touch disjoint
//! cache lines while they step concurrently.
//!
//! The plan is pure data: it says *who owns which nodes*, nothing about
//! threads. [`crate::Network::set_shard_plan`] pairs a plan with a
//! `WorkerPool` of matching width.
//!
//! # Examples
//!
//! ```
//! use noc_network::ShardPlan;
//!
//! let plan = ShardPlan::contiguous(10, 4);
//! assert_eq!(plan.shards(), 4);
//! assert_eq!(plan.range(0), 0..3);
//! assert_eq!(plan.range(3), 8..10);
//! // Every node is owned by exactly one shard.
//! let owned: usize = (0..plan.shards()).map(|s| plan.range(s).len()).sum();
//! assert_eq!(owned, 10);
//! ```

use std::ops::Range;

/// A partition of node indices `0..nodes` into contiguous shard ranges.
///
/// Shards may be empty (more shards than nodes is allowed); together they
/// always cover every node exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `bounds[s]..bounds[s + 1]` is shard `s`; `bounds.len() == shards + 1`,
    /// non-decreasing, first 0, last `nodes`.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Splits `nodes` into `shards` near-equal contiguous ranges, the
    /// remainder spread one node each over the leading shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn contiguous(nodes: usize, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let base = nodes / shards;
        let extra = nodes % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0;
        bounds.push(at);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        ShardPlan { bounds }
    }

    /// Builds a plan from explicit cut points: each cut `c` starts a new
    /// shard at node `c`. Cuts are sorted, deduplicated, and clamped to
    /// `0..=nodes`, so any list of indices — e.g. a randomly generated one
    /// in a property test — yields a valid plan of `cuts + 1` (or fewer,
    /// after dedup) shards.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_network::ShardPlan;
    ///
    /// let plan = ShardPlan::from_cuts(16, &[12, 4, 4, 90]);
    /// assert_eq!(plan.shards(), 3);
    /// assert_eq!(plan.range(0), 0..4);
    /// assert_eq!(plan.range(1), 4..12);
    /// assert_eq!(plan.range(2), 12..16);
    /// ```
    pub fn from_cuts(nodes: usize, cuts: &[usize]) -> Self {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(nodes)).collect();
        bounds.push(0);
        bounds.push(nodes);
        bounds.sort_unstable();
        bounds.dedup();
        // Dedup can merge the 0 and `nodes` sentinels with cuts; the
        // invariant (first 0, last nodes) survives because both are
        // always present before dedup.
        ShardPlan { bounds }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of nodes the plan covers.
    pub fn nodes(&self) -> usize {
        *self.bounds.last().expect("plan has bounds")
    }

    /// The node index range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards()`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_covers_all_nodes_in_order() {
        for nodes in [0usize, 1, 5, 16, 17, 64] {
            for shards in [1usize, 2, 3, 4, 8] {
                let plan = ShardPlan::contiguous(nodes, shards);
                assert_eq!(plan.shards(), shards);
                assert_eq!(plan.nodes(), nodes);
                let mut at = 0;
                for s in 0..shards {
                    let r = plan.range(s);
                    assert_eq!(r.start, at);
                    at = r.end;
                }
                assert_eq!(at, nodes);
            }
        }
    }

    #[test]
    fn contiguous_balances_within_one() {
        let plan = ShardPlan::contiguous(10, 3);
        let sizes: Vec<usize> = (0..3).map(|s| plan.range(s).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn more_shards_than_nodes_gives_empty_tails() {
        let plan = ShardPlan::contiguous(2, 4);
        assert_eq!(plan.range(0), 0..1);
        assert_eq!(plan.range(1), 1..2);
        assert!(plan.range(2).is_empty());
        assert!(plan.range(3).is_empty());
    }

    #[test]
    fn from_cuts_sorts_dedups_and_clamps() {
        let plan = ShardPlan::from_cuts(16, &[12, 4, 4, 90]);
        assert_eq!(plan.shards(), 3);
        let ranges: Vec<_> = (0..3).map(|s| plan.range(s)).collect();
        assert_eq!(ranges, vec![0..4, 4..12, 12..16]);
    }

    #[test]
    fn from_cuts_with_no_cuts_is_one_shard() {
        let plan = ShardPlan::from_cuts(9, &[]);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.range(0), 0..9);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        ShardPlan::contiguous(4, 0);
    }
}
