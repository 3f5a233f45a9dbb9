//! Table 3 fidelity gates: the error of base latency and knee saturation
//! against the paper, each gated by a per-cell tolerance. The arithmetic
//! itself is the simulator's own `Curve`, so the cells read exactly what
//! `table3` prints.

use noc_network::Curve;

/// One gated Table 3 cell: (paper, ours, tolerance, reason).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Metric name, e.g. `fr6.base_latency_err_cycles`.
    pub name: String,
    /// Unit of `paper`, `ours` and the error.
    pub unit: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This run's value.
    pub ours: f64,
    /// Largest error that still passes.
    pub tolerance: f64,
    /// Why the tolerance is what it is.
    pub reason: &'static str,
}

impl Cell {
    /// |ours − paper|.
    pub fn err(&self) -> f64 {
        (self.ours - self.paper).abs()
    }

    /// Whether the error is within the tolerance.
    pub fn passes(&self) -> bool {
        self.err() <= self.tolerance
    }
}

/// Paper values (Table 3, 5-flit packets) for one family.
#[derive(Clone, Copy, Debug)]
pub struct Paper {
    /// Base latency under fast control, cycles.
    pub base: f64,
    /// Base latency under 1-cycle leading control, cycles.
    pub lead_base: f64,
    /// Saturation throughput under fast control, percent of capacity.
    pub sat_pct: f64,
}

/// FR6: 27 / 15 cycles, 77%.
pub const PAPER_FR6: Paper = Paper {
    base: 27.0,
    lead_base: 15.0,
    sat_pct: 77.0,
};

/// VC8: 32 / 15 cycles, 63%.
pub const PAPER_VC8: Paper = Paper {
    base: 32.0,
    lead_base: 15.0,
    sat_pct: 63.0,
};

/// Base-latency tolerance in cycles. Across seeds the quick-scale sample
/// puts FR6 at 27.2–28.1 and VC8 at 33.5–34.3 against 27 and 32.
pub const BASE_TOL_CYCLES: f64 = 3.0;

/// Saturation tolerance in percentage points. The knee is read on Table
/// 3's 5-point load grid and moves one step with the seed at quick scale
/// (VC8 55–60%, FR6 70–75%); a second step down fails.
pub const SAT_TOL_PCT: f64 = 10.0;

/// The three gated cells of one family: fast-control base latency and
/// saturation throughput at the 3×base knee from its curve, and the
/// leading-control base latency.
pub fn cells(key: &str, paper: Paper, curve: &Curve, lead_base: f64) -> Vec<Cell> {
    let base = curve.base_latency();
    vec![
        Cell {
            name: format!("{key}.base_latency_err_cycles"),
            unit: "cycles",
            paper: paper.base,
            ours: base,
            tolerance: BASE_TOL_CYCLES,
            reason: "quick-scale sample; the model sits 0-2.3 cycles above the paper",
        },
        Cell {
            name: format!("{key}.lead_base_latency_err_cycles"),
            unit: "cycles",
            paper: paper.lead_base,
            ours: lead_base,
            tolerance: BASE_TOL_CYCLES,
            reason: "known leading-control gap (FR ~17, VC ~16 vs 15), not yet attributed",
        },
        Cell {
            name: format!("{key}.sat_err_pct"),
            unit: "pp",
            paper: paper.sat_pct,
            ours: 100.0 * curve.saturation_throughput(3.0 * base),
            tolerance: SAT_TOL_PCT,
            reason: "knee is read on a 5-point grid and moves one step with the seed",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::stats::RunningStats;
    use noc_network::{LoadPoint, RunResult};

    fn pt(offered: f64, completed: bool, latency: f64) -> LoadPoint {
        let mut stats = RunningStats::new();
        stats.record(latency);
        LoadPoint {
            offered,
            result: RunResult {
                offered_fraction: offered,
                packet_length: 5,
                latency: stats,
                accepted_flits_per_node_cycle: 0.0,
                accepted_fraction: 0.0,
                completed,
                measure_start: 0,
                end_cycle: 0,
                probe_full_fraction: 0.0,
                probe_mean_occupancy: 0.0,
                delivered: 1,
                p50_latency: None,
                p95_latency: None,
                p99_latency: None,
            },
        }
    }

    /// A hand-made FR6-like curve: base 28 at 5%, knee limit 84.
    fn curve(points: usize) -> Curve {
        let all = vec![
            pt(0.05, true, 28.0),
            pt(0.3, true, 30.5),
            pt(0.7, true, 43.0),
            pt(0.75, true, 84.0),  // exactly on the limit: still sustained
            pt(0.8, true, 472.0),  // completed but far past the knee
            pt(0.85, false, 30.0), // never drained: excluded despite low mean
        ];
        Curve {
            label: "FR6".into(),
            points: all.into_iter().take(points).collect(),
        }
    }

    #[test]
    fn cells_read_base_and_knee_off_the_curve() {
        let cells = cells("fr6", PAPER_FR6, &curve(6), 17.4);
        let by_name = |n: &str| cells.iter().find(|c| c.name == n).expect("cell");
        let base = by_name("fr6.base_latency_err_cycles");
        assert_eq!((base.ours, base.err()), (28.0, 1.0));
        assert!(base.passes());
        let lead = by_name("fr6.lead_base_latency_err_cycles");
        assert!((lead.err() - 2.4).abs() < 1e-9);
        assert!(lead.passes());
        let sat = by_name("fr6.sat_err_pct");
        assert_eq!((sat.ours, sat.err()), (75.0, 2.0));
        assert!(sat.passes());
    }

    #[test]
    fn a_point_just_past_three_times_base_is_not_sustained() {
        let mut c = curve(6);
        c.points[3] = pt(0.75, true, 84.5);
        let sat = &cells("fr6", PAPER_FR6, &c, 17.4)[2];
        assert_eq!((sat.ours, sat.err()), (70.0, 7.0));
        assert!(sat.passes(), "one grid step low is within tolerance");
    }

    #[test]
    fn gates_fail_beyond_their_tolerance() {
        // A curve that stops at 30% puts the knee 47 points low.
        let short = cells("fr6", PAPER_FR6, &curve(2), 17.4);
        assert_eq!(short[2].ours, 30.0);
        assert!(!short[2].passes());
        // A leading-control base 3.5 cycles off the paper fails too.
        assert!(!cells("fr6", PAPER_FR6, &curve(6), 18.5)[1].passes());
    }
}
