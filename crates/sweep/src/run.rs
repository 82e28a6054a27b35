//! Replica execution: the grid fanned over scoped threads, with
//! results re-assembled in replica-index order so the aggregate is
//! byte-identical at any thread count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use s2m3_serve::{prepare, ServeError, ServeSession, SharedStart};

use crate::report::{
    aggregate_cell, capacity_frontier, cost_slo_frontier, CellReport, ReplicaSummary, SweepReport,
};
use crate::spec::SweepSpec;
use crate::SweepError;

/// One replica's work order: its grid coordinates and the cell-shared
/// start (instance + interned tables + placement, built once per fleet
/// size and shared via [`Arc`]). The worker derives the scenario.
struct ReplicaJob {
    cell: usize,
    seed_idx: usize,
    shared: Arc<SharedStart>,
}

/// Runs the sweep on `spec.threads` threads (0 = all available cores).
///
/// The thread count is an execution detail only: the returned report is
/// byte-identical at any thread count (the thread-invariance proptest
/// pins this).
///
/// # Errors
///
/// [`SweepError::BadSpec`] for an invalid grid; [`SweepError::Serve`]
/// when any replica fails to prepare or execute.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    spec.validate()?;

    // Cells are fleet-size-major so one SharedStart (the replica-
    // invariant prefix: instance, interned view, greedy placement)
    // serves every rate scale and seed of that fleet size — rate
    // scaling touches arrivals only, which with_shared re-reads from
    // the scenario. Deriving the representative here also surfaces a
    // cell that cannot be derived before any replica runs: only the
    // fleet size decides whether `cell_scenario` fails.
    let mut jobs: Vec<ReplicaJob> = Vec::with_capacity(spec.replica_count());
    let mut cells_meta: Vec<(usize, f64)> = Vec::with_capacity(spec.cell_count());
    for &fleet_size in &spec.fleet_sizes {
        let representative = spec.cell_scenario(spec.rate_scales[0], fleet_size, 0)?;
        let shared = Arc::new(prepare(&representative).map_err(serve_error)?);
        for &rate_scale in &spec.rate_scales {
            let cell = cells_meta.len();
            cells_meta.push((fleet_size, rate_scale));
            for seed_idx in 0..spec.seeds {
                jobs.push(ReplicaJob {
                    cell,
                    seed_idx,
                    shared: Arc::clone(&shared),
                });
            }
        }
    }

    let outcomes = par_map(&jobs, spec.threads, |job| {
        let (fleet_size, rate_scale) = cells_meta[job.cell];
        let scenario = spec.cell_scenario(rate_scale, fleet_size, job.seed_idx)?;
        let mut session = ServeSession::with_shared(&scenario, &job.shared).map_err(serve_error)?;
        session.run_to_idle().map_err(serve_error)?;
        Ok(ReplicaSummary::from_report(&session.finish(), spec.bin_s))
    });

    // Outcomes are in job order, so each cell's replicas land in
    // replica-index order and the first failure in job order wins.
    let mut per_cell: Vec<Vec<ReplicaSummary>> = cells_meta.iter().map(|_| Vec::new()).collect();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        per_cell[job.cell].push(outcome?);
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
                spec.bin_s,
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

fn serve_error(e: ServeError) -> SweepError {
    SweepError::Serve(e.to_string())
}

/// Maps `items` through `f` on `threads` scoped threads (0 = all
/// available cores), the caller among them, capped at the item count.
/// Each thread claims the next unclaimed index and fills that index's
/// slot, so the returned results are in input order at any thread
/// count. A panicking item panics the caller, with the item's own
/// payload, once every thread stops.
pub(crate) fn par_map<T: Sync, R: Send + Sync>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
    .min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    // `Relaxed` suffices: the cursor only hands out indices; results
    // publish through their `OnceLock`s and the scope's join.
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let _ = slots[i].set(f(item));
    };
    thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        work();
        // Joining by hand re-raises a worker's own panic payload rather
        // than the scope's generic "a scoped thread panicked".
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index is claimed once"))
        .collect()
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
    fn zero_threads_match_one_thread() {
        let one = tiny_spec();
        let all = SweepSpec {
            threads: 0,
            ..tiny_spec()
        };
        let a = run_sweep(&all).unwrap().to_json().unwrap();
        let b = run_sweep(&one).unwrap().to_json().unwrap();
        assert_eq!(a, b, "report never depends on the thread count");
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

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        assert_eq!(par_map(&[] as &[u8], 4, |&x| x), Vec::<u8>::new());
        // More threads than items.
        assert_eq!(par_map(&[41], 4, |&x| x + 1), vec![42]);
        assert_eq!(par_map(&[1, 2, 3], 8, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn panics_propagate_to_the_caller() {
        par_map(&(0..32u32).collect::<Vec<_>>(), 4, |&x| {
            assert_ne!(x, 13, "boom at 13");
            x
        });
    }
}
