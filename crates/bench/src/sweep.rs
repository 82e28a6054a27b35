//! Monte Carlo sweep: capacity frontier of the churn scenario.
//!
//! Where `churn` runs one seeded stream per policy, this experiment
//! fans the same scenario over a (seed × arrival-rate × fleet-size)
//! grid on the `s2m3-sweep` thread pool and reports the cross-replica
//! view: mean/worst deadline-miss rates per cell and the capacity
//! frontier — the largest rate scale each fleet size sustains within a
//! 1% miss budget. Replica seeds are shared across cells (common random
//! numbers), so the cell-to-cell movement is treatment effect, not
//! sampling noise.

use s2m3_serve::ServeScenario;
use s2m3_sweep::{run_sweep, SweepReport, SweepSpec};

use crate::table::Table;

/// Requests per replica (the grid multiplies this by
/// `seeds x scales x fleet sizes`, so it stays below [`crate::churn::REQUESTS`]).
const REQUESTS: usize = 400;

/// The sweep grid: 3 seeds x 3 rate scales x 3 fleet sizes over the
/// churn scenario.
fn spec() -> SweepSpec {
    let mut base = ServeScenario::churn_default();
    base.requests = REQUESTS;
    base.snapshot_every = 50;
    SweepSpec {
        base,
        seeds: 3,
        rate_scales: vec![0.5, 1.0, 2.0],
        fleet_sizes: vec![2, 3, 4],
        bin_s: 600.0,
        miss_budget: 0.01,
        threads: 0,
    }
}

/// Runs the sweep grid.
///
/// # Panics
///
/// On sweep failures (the grid above is valid).
fn report() -> SweepReport {
    run_sweep(&spec()).expect("sweep grid runs")
}

/// Regenerates the capacity-frontier table.
pub(crate) fn run() -> Table {
    let r = report();
    let mut t = Table::new(
        "Monte Carlo sweep — churn scenario over 3 seeds x 3 rates x 3 fleet sizes",
        &[
            "Fleet",
            "Rate x",
            "Offered /s",
            "Miss % (mean)",
            "Miss % (max)",
            "p95 (s)",
            "Thru /s",
        ],
    );
    for c in &r.cells {
        t.push_row(vec![
            c.fleet_size.to_string(),
            format!("{:.1}", c.rate_scale),
            c.offered_rate_per_s
                .map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            format!("{:.1}", 100.0 * c.scalars.miss_rate_mean),
            format!("{:.1}", 100.0 * c.scalars.miss_rate_max),
            format!("{:.2}", c.scalars.latency_p95_mean_s),
            format!("{:.3}", c.scalars.throughput_mean_per_s),
        ]);
    }
    let frontier = r
        .frontier
        .iter()
        .map(|f| match f.max_rate_scale {
            Some(s) => format!("{} devices up to x{s:.1}", f.fleet_size),
            None => format!("{} devices none", f.fleet_size),
        })
        .collect::<Vec<_>>()
        .join("; ");
    t.push_note(format!(
        "Capacity frontier at <=1% miss: {frontier}. Replicas run in parallel on all cores; \
         the aggregate is byte-identical at any thread count (replica-index-order folds).",
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_table_covers_the_grid() {
        let t = run();
        assert_eq!(t.rows.len(), 9);
        assert!(t.render().contains("frontier"));
    }

    #[test]
    fn report_is_deterministic_across_thread_counts() {
        let mut one = spec();
        one.base.requests = 60;
        one.seeds = 1;
        one.threads = 1;
        let mut four = one.clone();
        four.threads = 4;
        let a = run_sweep(&one).unwrap().to_json().unwrap();
        let b = run_sweep(&four).unwrap().to_json().unwrap();
        assert_eq!(a, b);
    }
}
