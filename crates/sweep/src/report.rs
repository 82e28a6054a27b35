//! Cross-replica aggregation: per-cell scalar summaries, per-timestep
//! distribution bands, and the capacity frontier.

use serde::Serialize;

use s2m3_core::sketch::percentile_sorted;
use s2m3_serve::{ReplanRecord, ServeReport, WindowSnapshot};

/// p50/p95/p99 of one metric across a cell's replicas.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Band {
    /// Median across replicas.
    pub p50: f64,
    /// 95th percentile across replicas.
    pub p95: f64,
    /// 99th percentile across replicas.
    pub p99: f64,
}

impl Band {
    /// Ceil-rank percentile bands over `samples` (order irrelevant —
    /// the values are sorted here, which is what makes the aggregate
    /// independent of replica completion order).
    pub(crate) fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Band {
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }
}

/// Distribution bands of the serving metrics in one aggregation bin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeBand {
    /// End of the bin, virtual seconds.
    pub t_s: f64,
    /// Replicas that produced a window snapshot in this bin.
    pub replicas: usize,
    /// p95 request latency across replicas, seconds.
    pub latency_p95_s: Band,
    /// Rolling deadline-miss rate across replicas.
    pub miss_rate: Band,
    /// Fleet utilization across replicas.
    pub utilization: Band,
}

/// A 95% confidence interval from the replica-indexed bootstrap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Ci95 {
    /// Lower bound (2.5th percentile of the bootstrap distribution).
    pub lo: f64,
    /// Upper bound (97.5th percentile of the bootstrap distribution).
    pub hi: f64,
}

/// Bootstrap resamples per interval. Enough for stable 2.5/97.5
/// percentile ranks; small enough that aggregation stays trivial next
/// to replica execution.
const BOOTSTRAP_RESAMPLES: usize = 200;

/// 95% CI on the mean of `samples` via a deterministic bootstrap.
///
/// Resample `b` draws its indices from a SplitMix64 stream seeded by
/// `b` alone, so the interval depends only on the sample values *in
/// slice order* — and cells aggregate replicas in replica-index order,
/// which makes the CI byte-identical at any sweep thread count. `None`
/// when `samples` is empty.
#[must_use]
pub fn bootstrap_ci95(samples: &[f64]) -> Option<Ci95> {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mut means = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    for b in 0..BOOTSTRAP_RESAMPLES {
        let mut state = (b as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let mut sum = 0.0;
        for _ in 0..n {
            sum += samples[(splitmix64(&mut state) % n as u64) as usize];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(Ci95 {
        lo: percentile_sorted(&means, 0.025),
        hi: percentile_sorted(&means, 0.975),
    })
}

/// One replica's replan gain: the drop in rolling deadline-miss rate
/// across its accepted replans. For each accepted replan at time `t`,
/// the gain is (mean window miss rate over `[t − horizon, t)`) minus
/// (mean over `[t, t + horizon)`) — positive when replanning helped.
/// The replica's gain averages over the accepted replans that have
/// window snapshots on both sides; `None` when none do (including runs
/// that never accepted a replan).
#[must_use]
pub fn replan_gain(
    replans: &[ReplanRecord],
    windows: &[WindowSnapshot],
    horizon_s: f64,
) -> Option<f64> {
    let mut gains = Vec::new();
    for r in replans.iter().filter(|r| r.accepted) {
        let mean_miss = |lo: f64, hi: f64| {
            let vals: Vec<f64> = windows
                .iter()
                .filter(|w| w.at_s >= lo && w.at_s < hi)
                .map(|w| w.miss_rate)
                .collect();
            (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
        };
        if let (Some(before), Some(after)) = (
            mean_miss(r.at_s - horizon_s, r.at_s),
            mean_miss(r.at_s, r.at_s + horizon_s),
        ) {
            gains.push(before - after);
        }
    }
    (!gains.is_empty()).then(|| gains.iter().sum::<f64>() / gains.len() as f64)
}

/// Scalar whole-run summaries of one cell, averaged over replicas.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellScalars {
    /// Mean deadline-miss rate: (late + shed) / arrived.
    pub miss_rate_mean: f64,
    /// 95% bootstrap CI on the mean miss rate (`null` for empty cells).
    pub miss_rate_ci95: Option<Ci95>,
    /// Worst replica's miss rate.
    pub miss_rate_max: f64,
    /// Mean replan gain over replicas with a measurable gain (`null`
    /// when no replica accepted a replan with windows on both sides).
    pub replan_gain_mean: Option<f64>,
    /// 95% bootstrap CI on the mean replan gain.
    pub replan_gain_ci95: Option<Ci95>,
    /// Mean of per-replica p95 latency, seconds.
    pub latency_p95_mean_s: f64,
    /// Mean completion throughput, requests per virtual second.
    pub throughput_mean_per_s: f64,
    /// Mean shed count.
    pub shed_mean: f64,
    /// Mean of per-replica makespan, virtual seconds.
    pub makespan_mean_s: f64,
    /// Mean budget adherence (fraction of windows at or under the cap)
    /// over replicas that served under a budget; `null` when none did.
    pub budget_adherence_mean: Option<f64>,
    /// p50/p95/p99 of per-replica budget adherence.
    pub budget_adherence_band: Option<Band>,
    /// Mean per-window budget spend across budgeted replicas.
    pub budget_spend_mean_per_window: Option<f64>,
    /// Mean total queueing delay charged to the budget gate, seconds.
    pub budget_latency_price_mean_s: Option<f64>,
}

/// One (rate-scale × fleet-size) grid cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellReport {
    /// Active devices at t = 0.
    pub fleet_size: usize,
    /// Arrival-rate multiplier applied to the base workload.
    pub rate_scale: f64,
    /// Mean offered arrival rate, requests/s (`null` when the workload
    /// has no mean rate, e.g. simultaneous bursts).
    pub offered_rate_per_s: Option<f64>,
    /// Replicas aggregated into this cell.
    pub replicas: usize,
    /// Whole-run scalar summaries.
    pub scalars: CellScalars,
    /// Per-timestep distribution bands, in time order.
    pub bands: Vec<TimeBand>,
}

/// The largest sustainable rate scale for one fleet size.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierPoint {
    /// Active devices at t = 0.
    pub fleet_size: usize,
    /// Largest swept rate scale whose mean miss rate stayed within the
    /// budget (`null` when even the smallest scale breached it).
    pub max_rate_scale: Option<f64>,
    /// The offered rate at that scale, requests/s.
    pub max_rate_per_s: Option<f64>,
    /// Mean miss rate observed at the frontier scale.
    pub miss_rate: Option<f64>,
    /// 95% bootstrap CI on that miss rate.
    pub miss_rate_ci95: Option<Ci95>,
    /// Mean replan gain at the frontier scale (see
    /// [`CellScalars::replan_gain_mean`]).
    pub replan_gain: Option<f64>,
    /// 95% bootstrap CI on that replan gain.
    pub replan_gain_ci95: Option<Ci95>,
}

/// One cell's position on the cost × SLO frontier: what the budget
/// bought (per-window spend, adherence) against what it cost in
/// service quality (p95 latency, miss rate, queueing delay).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostSloPoint {
    /// Active devices at t = 0.
    pub fleet_size: usize,
    /// Arrival-rate multiplier applied to the base workload.
    pub rate_scale: f64,
    /// Mean per-window budget spend across the cell's replicas.
    pub spend_per_window: f64,
    /// Mean fraction of windows at or under the cap.
    pub adherence: f64,
    /// Mean of per-replica p95 latency, seconds.
    pub latency_p95_s: f64,
    /// Mean deadline-miss rate.
    pub miss_rate: f64,
    /// Mean total queueing delay charged to the budget gate, seconds.
    pub latency_price_s: f64,
}

/// The deterministic product of a sweep: same spec ⇒ byte-identical
/// JSON at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// Base seed label the replica seeds derive from.
    pub seed: String,
    /// Replicas per cell.
    pub seeds_per_cell: usize,
    /// Total replicas executed.
    pub replicas: usize,
    /// Miss budget the frontier was computed against.
    pub miss_budget: f64,
    /// Aggregation bin width, virtual seconds.
    pub bin_s: f64,
    /// Grid cells, fleet-size-major then rate-scale order.
    pub cells: Vec<CellReport>,
    /// Max sustainable rate per fleet size (the capacity frontier).
    pub frontier: Vec<FrontierPoint>,
    /// Cost × SLO frontier: one point per cell whose replicas served
    /// under a budget, in cell order. `None` (JSON `null`) for
    /// budget-free sweeps.
    pub cost_slo: Option<Vec<CostSloPoint>>,
}

impl SweepReport {
    /// JSON export.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure (not expected for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Human-readable frontier + per-cell table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep  seed {}  {} cells x {} seeds = {} replicas\n",
            self.seed,
            self.cells.len(),
            self.seeds_per_cell,
            self.replicas
        ));
        out.push_str(&format!(
            "{:>6}  {:>6}  {:>9}  {:>9}  {:>17}  {:>9}  {:>9}  {:>15}\n",
            "fleet", "scale", "rate/s", "miss", "miss 95% CI", "p95 s", "thru/s", "replan gain"
        ));
        let pct_ci = |ci: Option<Ci95>| {
            ci.map_or_else(
                || "-".to_string(),
                |c| format!("[{:.2}, {:.2}]%", c.lo * 100.0, c.hi * 100.0),
            )
        };
        for c in &self.cells {
            let gain = match (c.scalars.replan_gain_mean, c.scalars.replan_gain_ci95) {
                (Some(g), Some(ci)) => {
                    format!(
                        "{:+.2} [{:+.2},{:+.2}]pp",
                        g * 100.0,
                        ci.lo * 100.0,
                        ci.hi * 100.0
                    )
                }
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:>6}  {:>6.2}  {:>9}  {:>8.2}%  {:>17}  {:>9.3}  {:>9.3}  {:>15}\n",
                c.fleet_size,
                c.rate_scale,
                c.offered_rate_per_s
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.3}")),
                c.scalars.miss_rate_mean * 100.0,
                pct_ci(c.scalars.miss_rate_ci95),
                c.scalars.latency_p95_mean_s,
                c.scalars.throughput_mean_per_s,
                gain,
            ));
        }
        out.push_str(&format!(
            "capacity frontier (miss <= {:.2}%):\n",
            self.miss_budget * 100.0
        ));
        for f in &self.frontier {
            match f.max_rate_scale {
                Some(scale) => out.push_str(&format!(
                    "  {} devices: up to x{:.2}{} ({:.2}% miss{}{})\n",
                    f.fleet_size,
                    scale,
                    f.max_rate_per_s
                        .map_or_else(String::new, |r| format!(" = {r:.3} req/s")),
                    f.miss_rate.unwrap_or(0.0) * 100.0,
                    f.miss_rate_ci95.map_or_else(String::new, |ci| format!(
                        ", 95% CI [{:.2}, {:.2}]%",
                        ci.lo * 100.0,
                        ci.hi * 100.0
                    )),
                    match (f.replan_gain, f.replan_gain_ci95) {
                        (Some(g), Some(ci)) => format!(
                            ", replan gain {:+.2}pp [{:+.2}, {:+.2}]",
                            g * 100.0,
                            ci.lo * 100.0,
                            ci.hi * 100.0
                        ),
                        _ => String::new(),
                    },
                )),
                None => out.push_str(&format!(
                    "  {} devices: no swept rate met the budget\n",
                    f.fleet_size
                )),
            }
        }
        if let Some(points) = self.cost_slo.as_deref().filter(|p| !p.is_empty()) {
            out.push_str("cost x SLO frontier:\n");
            for p in points {
                out.push_str(&format!(
                    "  {} devices x{:.2}: spend {:.2}/window  adherence {:.1}%  p95 {:.3} s  miss {:.2}%  latency price {:.1} s\n",
                    p.fleet_size,
                    p.rate_scale,
                    p.spend_per_window,
                    p.adherence * 100.0,
                    p.latency_p95_s,
                    p.miss_rate * 100.0,
                    p.latency_price_s,
                ));
            }
        }
        out
    }
}

/// One replica's contribution to its cell: the scalars plus the last
/// window snapshot per time bin, reduced from the full [`ServeReport`]
/// so the sweep never holds per-request data for the whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSummary {
    /// Whole-run deadline-miss rate.
    pub miss_rate: f64,
    /// p95 latency over completed requests, seconds.
    pub latency_p95_s: f64,
    /// Completion throughput, requests per virtual second.
    pub throughput_per_s: f64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Virtual time when the last request finished, seconds.
    pub makespan_s: f64,
    /// Miss-rate drop across accepted replans (see [`replan_gain`]);
    /// `None` when the run has no measurable replan.
    pub replan_gain: Option<f64>,
    /// Budget adherence (fraction of windows at or under the cap);
    /// `None` when the replica served without a budget.
    pub budget_adherence: Option<f64>,
    /// Mean per-window budget spend.
    pub budget_spend_per_window: Option<f64>,
    /// Total queueing delay charged to the budget gate, seconds.
    pub budget_latency_price_s: Option<f64>,
    /// `(bin index, latency p95, miss rate, utilization)` — the last
    /// window snapshot falling in each bin, in bin order.
    pub bins: Vec<(usize, f64, f64, f64)>,
}

impl ReplicaSummary {
    /// Reduces a full serving report to the sweep's per-replica view,
    /// binning window snapshots at `bin_s`.
    pub(crate) fn from_report(report: &ServeReport, bin_s: f64) -> Self {
        let mut bins: Vec<(usize, f64, f64, f64)> = Vec::new();
        for w in &report.windows {
            let idx = (w.at_s / bin_s).floor() as usize;
            let entry = (idx, w.p95_s, w.miss_rate, w.utilization);
            match bins.last_mut() {
                // Later snapshot in the same bin wins: it reflects the
                // window state at the bin boundary.
                Some(last) if last.0 == idx => *last = entry,
                _ => bins.push(entry),
            }
        }
        let budget = report.budget.as_ref();
        ReplicaSummary {
            miss_rate: report.miss_rate,
            latency_p95_s: report.latency.p95_s,
            throughput_per_s: report.throughput_per_s,
            shed: report.shed,
            makespan_s: report.makespan_s,
            replan_gain: replan_gain(&report.replans, &report.windows, bin_s),
            budget_adherence: budget.map(|b| b.adherence),
            budget_spend_per_window: budget.map(|b| b.spend_total / b.windows_total.max(1) as f64),
            budget_latency_price_s: budget.map(|b| b.latency_price_s),
            bins,
        }
    }
}

/// Aggregates one cell's replicas (in replica-index order — the caller
/// guarantees the slice order, which fixes every floating-point sum).
pub(crate) fn aggregate_cell(
    fleet_size: usize,
    rate_scale: f64,
    offered_rate_per_s: Option<f64>,
    replicas: &[ReplicaSummary],
    bin_s: f64,
) -> CellReport {
    let n = replicas.len().max(1) as f64;
    // Replica-index order fixes both the float sums and the bootstrap
    // index stream, so these scalars are thread-count-invariant.
    let miss: Vec<f64> = replicas.iter().map(|r| r.miss_rate).collect();
    let gains: Vec<f64> = replicas.iter().filter_map(|r| r.replan_gain).collect();
    let adherence: Vec<f64> = replicas.iter().filter_map(|r| r.budget_adherence).collect();
    let mean_of =
        |vals: &[f64]| (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64);
    let spends: Vec<f64> = replicas
        .iter()
        .filter_map(|r| r.budget_spend_per_window)
        .collect();
    let prices: Vec<f64> = replicas
        .iter()
        .filter_map(|r| r.budget_latency_price_s)
        .collect();
    let scalars = CellScalars {
        miss_rate_mean: replicas.iter().map(|r| r.miss_rate).sum::<f64>() / n,
        miss_rate_ci95: bootstrap_ci95(&miss),
        miss_rate_max: replicas.iter().map(|r| r.miss_rate).fold(0.0, f64::max),
        replan_gain_mean: (!gains.is_empty())
            .then(|| gains.iter().sum::<f64>() / gains.len() as f64),
        replan_gain_ci95: bootstrap_ci95(&gains),
        latency_p95_mean_s: replicas.iter().map(|r| r.latency_p95_s).sum::<f64>() / n,
        throughput_mean_per_s: replicas.iter().map(|r| r.throughput_per_s).sum::<f64>() / n,
        shed_mean: replicas.iter().map(|r| r.shed as f64).sum::<f64>() / n,
        makespan_mean_s: replicas.iter().map(|r| r.makespan_s).sum::<f64>() / n,
        budget_adherence_mean: mean_of(&adherence),
        budget_adherence_band: Band::from_samples(&adherence),
        budget_spend_mean_per_window: mean_of(&spends),
        budget_latency_price_mean_s: mean_of(&prices),
    };
    // Only the bins some replica occupies, ascending: a tiny `bin_s`
    // spreads a run over indices far too many to walk one by one.
    let mut occupied: Vec<usize> = replicas
        .iter()
        .flat_map(|r| r.bins.iter().map(|b| b.0))
        .collect();
    occupied.sort_unstable();
    occupied.dedup();
    let mut bands = Vec::new();
    for idx in occupied {
        // Replica-index order again: each replica contributes at
        // most one snapshot per bin.
        let mut lat = Vec::new();
        let mut miss = Vec::new();
        let mut util = Vec::new();
        for r in replicas {
            if let Some(b) = r.bins.iter().find(|b| b.0 == idx) {
                lat.push(b.1);
                miss.push(b.2);
                util.push(b.3);
            }
        }
        let (Some(latency_p95_s), Some(miss_rate), Some(utilization)) = (
            Band::from_samples(&lat),
            Band::from_samples(&miss),
            Band::from_samples(&util),
        ) else {
            continue;
        };
        bands.push(TimeBand {
            t_s: (idx + 1) as f64 * bin_s,
            replicas: lat.len(),
            latency_p95_s,
            miss_rate,
            utilization,
        });
    }
    CellReport {
        fleet_size,
        rate_scale,
        offered_rate_per_s,
        replicas: replicas.len(),
        scalars,
        bands,
    }
}

/// Scans each fleet size's cells in ascending rate-scale order and
/// keeps the largest scale whose mean miss rate stays within `budget`.
pub(crate) fn capacity_frontier(cells: &[CellReport], budget: f64) -> Vec<FrontierPoint> {
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.fleet_size).collect();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|fleet_size| {
            let mut row: Vec<&CellReport> = cells
                .iter()
                .filter(|c| c.fleet_size == fleet_size)
                .collect();
            row.sort_by(|a, b| {
                a.rate_scale
                    .partial_cmp(&b.rate_scale)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let best = row
                .iter()
                .take_while(|c| c.scalars.miss_rate_mean <= budget)
                .last();
            FrontierPoint {
                fleet_size,
                max_rate_scale: best.map(|c| c.rate_scale),
                max_rate_per_s: best.and_then(|c| c.offered_rate_per_s),
                miss_rate: best.map(|c| c.scalars.miss_rate_mean),
                miss_rate_ci95: best.and_then(|c| c.scalars.miss_rate_ci95),
                replan_gain: best.and_then(|c| c.scalars.replan_gain_mean),
                replan_gain_ci95: best.and_then(|c| c.scalars.replan_gain_ci95),
            }
        })
        .collect()
}

/// Pairs each budgeted cell's cost (mean per-window spend, adherence)
/// with its service quality (p95 latency, miss rate, queueing delay) —
/// the table the cap-vs-SLO trade-off is read from. Cells whose
/// replicas ran without a budget are skipped, so the frontier is empty
/// for budget-free sweeps.
pub fn cost_slo_frontier(cells: &[CellReport]) -> Vec<CostSloPoint> {
    cells
        .iter()
        .filter_map(|c| {
            Some(CostSloPoint {
                fleet_size: c.fleet_size,
                rate_scale: c.rate_scale,
                spend_per_window: c.scalars.budget_spend_mean_per_window?,
                adherence: c.scalars.budget_adherence_mean?,
                latency_p95_s: c.scalars.latency_p95_mean_s,
                miss_rate: c.scalars.miss_rate_mean,
                latency_price_s: c.scalars.budget_latency_price_mean_s?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_percentiles_use_ceil_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let b = Band::from_samples(&samples).unwrap();
        assert_eq!(b.p50, 50.0);
        assert_eq!(b.p95, 95.0);
        assert_eq!(b.p99, 99.0);
        let one = Band::from_samples(&[7.0]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99), (7.0, 7.0, 7.0));
        assert!(Band::from_samples(&[]).is_none());
    }

    #[test]
    fn band_is_order_independent() {
        let a = Band::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        let b = Band::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    fn summary(miss: f64, bins: Vec<(usize, f64, f64, f64)>) -> ReplicaSummary {
        ReplicaSummary {
            miss_rate: miss,
            latency_p95_s: 1.0,
            throughput_per_s: 2.0,
            shed: 1,
            makespan_s: 100.0,
            replan_gain: None,
            budget_adherence: None,
            budget_spend_per_window: None,
            budget_latency_price_s: None,
            bins,
        }
    }

    #[test]
    fn aggregate_bins_align_across_replicas() {
        let cell = aggregate_cell(
            3,
            1.0,
            Some(0.3),
            &[
                summary(0.0, vec![(0, 1.0, 0.0, 0.5), (1, 2.0, 0.1, 0.6)]),
                summary(0.2, vec![(0, 3.0, 0.0, 0.7)]),
            ],
            600.0,
        );
        assert_eq!(cell.replicas, 2);
        assert_eq!(cell.bands.len(), 2);
        assert_eq!(cell.bands[0].t_s, 600.0);
        assert_eq!(cell.bands[0].replicas, 2);
        assert_eq!(cell.bands[1].replicas, 1);
        assert!((cell.scalars.miss_rate_mean - 0.1).abs() < 1e-12);
        assert_eq!(cell.scalars.miss_rate_max, 0.2);
    }

    #[test]
    fn aggregate_visits_only_occupied_bins() {
        let far = 1_000_000_000_000;
        let cell = aggregate_cell(
            3,
            1.0,
            None,
            &[
                summary(0.0, vec![(0, 1.0, 0.0, 0.5), (far, 2.0, 0.1, 0.6)]),
                summary(0.0, vec![(far, 3.0, 0.2, 0.7)]),
            ],
            1.0,
        );
        let at: Vec<(f64, usize)> = cell.bands.iter().map(|b| (b.t_s, b.replicas)).collect();
        assert_eq!(at, vec![(1.0, 1), ((far + 1) as f64, 2)]);
    }

    fn cell(fleet: usize, scale: f64, miss: f64) -> CellReport {
        CellReport {
            fleet_size: fleet,
            rate_scale: scale,
            offered_rate_per_s: Some(0.3 * scale),
            replicas: 1,
            scalars: CellScalars {
                miss_rate_mean: miss,
                miss_rate_ci95: Some(Ci95 { lo: miss, hi: miss }),
                miss_rate_max: miss,
                replan_gain_mean: None,
                replan_gain_ci95: None,
                latency_p95_mean_s: 1.0,
                throughput_mean_per_s: 1.0,
                shed_mean: 0.0,
                makespan_mean_s: 10.0,
                budget_adherence_mean: None,
                budget_adherence_band: None,
                budget_spend_mean_per_window: None,
                budget_latency_price_mean_s: None,
            },
            bands: Vec::new(),
        }
    }

    #[test]
    fn frontier_finds_largest_sustainable_scale() {
        let cells = vec![
            cell(2, 0.5, 0.0),
            cell(2, 1.0, 0.005),
            cell(2, 2.0, 0.3),
            cell(4, 0.5, 0.0),
            cell(4, 1.0, 0.0),
            cell(4, 2.0, 0.002),
        ];
        let f = capacity_frontier(&cells, 0.01);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].fleet_size, 2);
        assert_eq!(f[0].max_rate_scale, Some(1.0));
        assert_eq!(f[1].max_rate_scale, Some(2.0));
        assert_eq!(f[1].max_rate_per_s, Some(0.6));
    }

    #[test]
    fn frontier_reports_unsustainable_rows_as_none() {
        let f = capacity_frontier(&[cell(2, 0.5, 0.9)], 0.01);
        assert_eq!(f[0].max_rate_scale, None);
        assert_eq!(f[0].miss_rate, None);
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_brackets_the_mean() {
        let samples: Vec<f64> = (0..40).map(|i| f64::from(i) / 40.0).collect();
        let a = bootstrap_ci95(&samples).unwrap();
        let b = bootstrap_ci95(&samples).unwrap();
        assert_eq!(a, b, "same samples in same order ⇒ same interval");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(a.lo <= mean && mean <= a.hi);
        assert!(a.lo < a.hi, "spread samples get a non-degenerate CI");
        // Degenerate cases.
        let one = bootstrap_ci95(&[0.25]).unwrap();
        assert_eq!((one.lo, one.hi), (0.25, 0.25));
        assert!(bootstrap_ci95(&[]).is_none());
    }

    fn window(at_s: f64, miss_rate: f64) -> WindowSnapshot {
        WindowSnapshot {
            at_s,
            window: 16,
            p50_s: 1.0,
            p95_s: 2.0,
            p99_s: 3.0,
            miss_rate,
            utilization: 0.5,
        }
    }

    fn replan(at_s: f64, accepted: bool) -> ReplanRecord {
        ReplanRecord {
            at_s,
            trigger: "test".into(),
            mandatory: false,
            break_even_requests: Some(10),
            observed_rate_per_s: 0.3,
            accepted,
            switching_cost_s: if accepted { 1.0 } else { 0.0 },
            migrations: usize::from(accepted),
        }
    }

    #[test]
    fn replan_gain_measures_before_after_miss_drop() {
        let windows = vec![
            window(80.0, 0.4),
            window(95.0, 0.2),
            window(110.0, 0.1),
            window(120.0, 0.0),
        ];
        // Accepted replan at t=100 with a 100 s horizon: before mean
        // (0.4 + 0.2)/2 = 0.3, after mean (0.1 + 0.0)/2 = 0.05.
        let g = replan_gain(&[replan(100.0, true)], &windows, 100.0).unwrap();
        assert!((g - 0.25).abs() < 1e-12, "{g}");
        // Rejected replans and replans without windows on both sides
        // contribute nothing.
        assert!(replan_gain(&[replan(100.0, false)], &windows, 100.0).is_none());
        assert!(replan_gain(&[replan(100.0, true)], &windows[..2], 100.0).is_none());
        assert!(replan_gain(&[], &windows, 100.0).is_none());
    }

    #[test]
    fn aggregate_cell_bootstraps_miss_and_gain() {
        let mut a = summary(0.1, vec![]);
        a.replan_gain = Some(0.05);
        let mut b = summary(0.3, vec![]);
        b.replan_gain = Some(0.15);
        let c = summary(0.2, vec![]); // no measurable replan
        let cell = aggregate_cell(4, 1.0, Some(0.3), &[a, b, c], 600.0);
        let ci = cell.scalars.miss_rate_ci95.unwrap();
        assert!(ci.lo >= 0.1 && ci.hi <= 0.3 && ci.lo <= ci.hi);
        let gain = cell.scalars.replan_gain_mean.unwrap();
        assert!((gain - 0.10).abs() < 1e-12);
        let gci = cell.scalars.replan_gain_ci95.unwrap();
        assert!(gci.lo >= 0.05 && gci.hi <= 0.15);
        // A cell with no measurable replans reports null gains.
        let none = aggregate_cell(4, 1.0, Some(0.3), &[summary(0.1, vec![])], 600.0);
        assert!(none.scalars.replan_gain_mean.is_none());
        assert!(none.scalars.replan_gain_ci95.is_none());
        assert!(none.scalars.miss_rate_ci95.is_some());
    }

    #[test]
    fn summary_renders_ci_columns() {
        let mut c = cell(2, 1.0, 0.005);
        c.scalars.replan_gain_mean = Some(0.02);
        c.scalars.replan_gain_ci95 = Some(Ci95 { lo: 0.01, hi: 0.03 });
        let report = SweepReport {
            seed: "s".into(),
            seeds_per_cell: 1,
            replicas: 1,
            miss_budget: 0.01,
            bin_s: 600.0,
            cells: vec![c.clone()],
            frontier: capacity_frontier(&[c], 0.01),
            cost_slo: None,
        };
        let text = report.render_summary();
        assert!(text.contains("miss 95% CI"), "{text}");
        assert!(
            !text.contains("cost x SLO"),
            "budget-free sweeps skip the section: {text}"
        );
        assert!(text.contains("[0.50, 0.50]%"), "{text}");
        assert!(text.contains("replan gain"), "{text}");
        assert!(text.contains("+2.00"), "{text}");
        assert!(text.contains("95% CI [0.50, 0.50]%"), "{text}");
    }

    #[test]
    fn report_json_roundtrip() {
        let report = SweepReport {
            seed: "s".into(),
            seeds_per_cell: 1,
            replicas: 1,
            miss_budget: 0.01,
            bin_s: 600.0,
            cells: vec![cell(2, 1.0, 0.0)],
            frontier: capacity_frontier(&[cell(2, 1.0, 0.0)], 0.01),
            cost_slo: None,
        };
        let json = report.to_json().unwrap();
        assert!(json.contains("\"fleet_size\": 2,"), "{json}");
        assert!(json.contains("\"budget_adherence_band\": null,"), "{json}");
        assert!(json.ends_with("\"cost_slo\": null\n}"), "{json}");
        let text = report.render_summary();
        assert!(text.contains("capacity frontier"));
        assert!(text.contains("2 devices"));
    }

    fn budget_summary(adherence: f64, spend: f64, price: f64) -> ReplicaSummary {
        let mut s = summary(0.1, vec![]);
        s.budget_adherence = Some(adherence);
        s.budget_spend_per_window = Some(spend);
        s.budget_latency_price_s = Some(price);
        s
    }

    #[test]
    fn aggregate_cell_bands_budget_adherence() {
        let cell = aggregate_cell(
            4,
            1.0,
            Some(0.3),
            &[
                budget_summary(1.0, 3.0, 0.5),
                budget_summary(0.8, 5.0, 1.5),
                summary(0.1, vec![]), // budget-free replica contributes nothing
            ],
            600.0,
        );
        let s = &cell.scalars;
        assert!((s.budget_adherence_mean.unwrap() - 0.9).abs() < 1e-12);
        let band = s.budget_adherence_band.as_ref().unwrap();
        assert_eq!((band.p50, band.p99), (0.8, 1.0));
        assert!((s.budget_spend_mean_per_window.unwrap() - 4.0).abs() < 1e-12);
        assert!((s.budget_latency_price_mean_s.unwrap() - 1.0).abs() < 1e-12);
        // A budget-free cell reports nulls across the board.
        let none = aggregate_cell(4, 1.0, Some(0.3), &[summary(0.1, vec![])], 600.0);
        assert!(none.scalars.budget_adherence_mean.is_none());
        assert!(none.scalars.budget_adherence_band.is_none());
        assert!(none.scalars.budget_spend_mean_per_window.is_none());
        assert!(none.scalars.budget_latency_price_mean_s.is_none());
    }

    #[test]
    fn cost_slo_frontier_pairs_spend_with_service_quality() {
        let budgeted = aggregate_cell(2, 1.0, Some(0.3), &[budget_summary(0.95, 4.0, 2.0)], 600.0);
        let free = cell(4, 1.0, 0.0);
        let points = cost_slo_frontier(&[budgeted.clone(), free]);
        assert_eq!(points.len(), 1, "budget-free cells are skipped");
        let p = &points[0];
        assert_eq!((p.fleet_size, p.rate_scale), (2, 1.0));
        assert!((p.spend_per_window - 4.0).abs() < 1e-12);
        assert!((p.adherence - 0.95).abs() < 1e-12);
        assert!((p.latency_price_s - 2.0).abs() < 1e-12);
        let report = SweepReport {
            seed: "s".into(),
            seeds_per_cell: 1,
            replicas: 1,
            miss_budget: 0.01,
            bin_s: 600.0,
            cells: vec![budgeted.clone()],
            frontier: capacity_frontier(&[budgeted], 0.01),
            cost_slo: Some(points),
        };
        let text = report.render_summary();
        assert!(text.contains("cost x SLO frontier"), "{text}");
        assert!(text.contains("spend 4.00/window"), "{text}");
        assert!(text.contains("adherence 95.0%"), "{text}");
        let json = report.to_json().unwrap();
        assert!(
            json.contains("\"cost_slo\": [\n    {\n      \"fleet_size\": 2,"),
            "{json}"
        );
    }
}
