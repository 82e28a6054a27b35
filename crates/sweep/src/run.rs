//! Replica execution: the grid fanned over a work-stealing pool, with
//! results re-assembled in replica-index order so the aggregate is
//! byte-identical at any thread count.

use std::sync::Arc;

use rayon_lite::{ThreadPool, ThreadPoolBuilder};

use s2m3_serve::{prepare, ServeSession, SharedStart};

use crate::report::{
    aggregate_cell, capacity_frontier, cost_slo_frontier, CellReport, ReplicaSummary, SweepReport,
};
use crate::spec::SweepSpec;
use crate::SweepError;

/// One replica's work order: grid coordinates, the derived scenario,
/// and the cell-shared start (instance + interned tables + placement,
/// built once per fleet size and shared via [`Arc`]).
struct ReplicaJob {
    cell: usize,
    scenario: s2m3_serve::ServeScenario,
    shared: Arc<SharedStart>,
}

/// Runs the sweep on a fresh pool of `spec.threads` threads
/// (0 = all available cores).
///
/// # Errors
///
/// [`SweepError::BadSpec`] for an invalid grid; [`SweepError::Serve`]
/// when any replica fails to prepare or execute.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    let pool = ThreadPoolBuilder::new().num_threads(spec.threads).build();
    run_sweep_on(spec, &pool)
}

/// Runs the sweep on a caller-provided pool.
///
/// The pool is an execution detail only: the returned report is
/// byte-identical for any pool size (the thread-invariance proptest
/// pins this).
///
/// # Errors
///
/// As [`run_sweep`].
pub fn run_sweep_on(spec: &SweepSpec, pool: &ThreadPool) -> Result<SweepReport, SweepError> {
    spec.validate()?;

    // Cells are fleet-size-major so one SharedStart (the replica-
    // invariant prefix: instance, interned view, greedy placement)
    // serves every rate scale and seed of that fleet size — rate
    // scaling touches arrivals only, which with_shared re-reads from
    // the scenario.
    let mut jobs: Vec<ReplicaJob> = Vec::with_capacity(spec.replica_count());
    let mut cells_meta: Vec<(usize, f64)> = Vec::with_capacity(spec.cell_count());
    for &fleet_size in &spec.fleet_sizes {
        let representative = spec.cell_scenario(spec.rate_scales[0], fleet_size, 0)?;
        let shared =
            Arc::new(prepare(&representative).map_err(|e| SweepError::Serve(e.to_string()))?);
        for &rate_scale in &spec.rate_scales {
            let cell = cells_meta.len();
            cells_meta.push((fleet_size, rate_scale));
            for seed_idx in 0..spec.seeds {
                jobs.push(ReplicaJob {
                    cell,
                    scenario: spec.cell_scenario(rate_scale, fleet_size, seed_idx)?,
                    shared: Arc::clone(&shared),
                });
            }
        }
    }

    let bin_s = spec.bin_s;
    // par_map returns results in job order regardless of which worker
    // ran what; each result carries its cell index so aggregation below
    // is a deterministic in-order pass.
    let outcomes = pool.par_map(
        jobs,
        move |job| -> Result<(usize, ReplicaSummary), String> {
            let mut session =
                ServeSession::with_shared(&job.scenario, &job.shared).map_err(|e| e.to_string())?;
            session.run_to_idle().map_err(|e| e.to_string())?;
            let report = session.finish();
            Ok((job.cell, ReplicaSummary::from_report(&report, bin_s)))
        },
    );

    let mut per_cell: Vec<Vec<ReplicaSummary>> = cells_meta.iter().map(|_| Vec::new()).collect();
    for outcome in outcomes {
        let (cell, summary) = outcome.map_err(SweepError::Serve)?;
        per_cell[cell].push(summary);
    }

    let cells: Vec<CellReport> = cells_meta
        .iter()
        .zip(&per_cell)
        .map(|(&(fleet_size, rate_scale), replicas)| {
            aggregate_cell(
                fleet_size,
                rate_scale,
                spec.offered_rate_per_s(rate_scale),
                replicas,
                bin_s,
            )
        })
        .collect();
    let frontier = capacity_frontier(&cells, spec.miss_budget);
    let points = cost_slo_frontier(&cells);
    let cost_slo = (!points.is_empty()).then_some(points);
    Ok(SweepReport {
        seed: spec.base.seed.clone(),
        seeds_per_cell: spec.seeds,
        replicas: spec.replica_count(),
        miss_budget: spec.miss_budget,
        bin_s: spec.bin_s,
        cells,
        frontier,
        cost_slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_serve::ServeScenario;

    fn tiny_spec() -> SweepSpec {
        let mut base = ServeScenario::churn_default();
        base.requests = 40;
        base.snapshot_every = 10;
        SweepSpec {
            base,
            seeds: 2,
            rate_scales: vec![1.0, 4.0],
            fleet_sizes: vec![2, 4],
            bin_s: 200.0,
            miss_budget: 0.05,
            threads: 1,
        }
    }

    #[test]
    fn sweep_runs_the_full_grid() {
        let spec = tiny_spec();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.replicas, 8);
        assert!(report.cells.iter().all(|c| c.replicas == 2));
        assert_eq!(report.frontier.len(), 2);
        // Every replica produced time bands.
        assert!(report.cells.iter().all(|c| !c.bands.is_empty()));
    }

    #[test]
    fn same_spec_is_reproducible() {
        let spec = tiny_spec();
        let a = run_sweep(&spec).unwrap().to_json().unwrap();
        let b = run_sweep(&spec).unwrap().to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_pool_matches_fresh_pool() {
        let spec = tiny_spec();
        let pool = ThreadPoolBuilder::new().num_threads(3).build();
        let a = run_sweep_on(&spec, &pool).unwrap().to_json().unwrap();
        let b = run_sweep(&spec).unwrap().to_json().unwrap();
        assert_eq!(a, b, "report never depends on the executing pool");
    }

    #[test]
    fn budgeted_base_scenario_flows_into_every_cell() {
        let mut spec = tiny_spec();
        spec.base.budget = Some(s2m3_serve::BudgetPolicy::device_seconds(2.0));
        let report = run_sweep(&spec).unwrap();
        assert_eq!(
            report.cost_slo.as_ref().map(Vec::len),
            Some(report.cells.len())
        );
        for c in &report.cells {
            // Reserve-at-dispatch accounting never lets a window
            // overspend, so adherence is 1.0 across the grid.
            assert_eq!(c.scalars.budget_adherence_mean, Some(1.0));
            assert!(c.scalars.budget_spend_mean_per_window.unwrap() <= 2.0 + 1e-9);
        }
        let text = report.render_summary();
        assert!(text.contains("cost x SLO frontier"), "{text}");
        // And the budget-free grid keeps the section out entirely.
        let free = run_sweep(&tiny_spec()).unwrap();
        assert!(free.cost_slo.is_none());
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_work() {
        let mut spec = tiny_spec();
        spec.rate_scales.clear();
        assert!(matches!(run_sweep(&spec), Err(SweepError::BadSpec(_))));
    }
}
