//! Replica execution: threads claim replicas one at a time; the thread
//! that lands a cell's last replica folds it in seed order, so only
//! running cells hold summaries and any thread count gives the same bytes.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use s2m3_serve::{prepare, ServeError, ServeSession};

use crate::report::{
    aggregate_cell, capacity_frontier, cost_slo_frontier, CellReport, ReplicaSummary, SweepReport,
};
use crate::spec::SweepSpec;
use crate::SweepError;

/// One grid cell: each landed replica's seed index and outcome until the
/// last lands, then its report or its first failure in seed order.
#[derive(Default)]
struct Cell {
    landed: Vec<(usize, Result<ReplicaSummary, SweepError>)>,
    folded: Option<Result<CellReport, SweepError>>,
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
/// when a replica fails to prepare or execute (the first in job order).
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    let order = spec.validated_order()?;

    // Cells are fleet-size-major so one SharedStart (the replica-
    // invariant prefix: instance, interned view, greedy placement)
    // serves every rate scale and seed of that fleet size — rate
    // scaling touches arrivals only, which with_shared re-reads from
    // the scenario. Deriving the representative here also surfaces a
    // cell that cannot be derived before any replica runs: only the
    // fleet size decides whether `cell_scenario` fails.
    let starts = spec
        .fleet_sizes
        .iter()
        .map(|&fleet_size| {
            let representative = spec.cell_scenario(&order, spec.rate_scales[0], fleet_size, 0)?;
            prepare(&representative).map_err(serve_error)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<Mutex<Cell>> = (0..spec.cell_count()).map(|_| Mutex::default()).collect();

    // Replica `i` is seed `i % seeds` of cell `i / seeds`, and cell `c`
    // is rate scale `c % scales` of fleet size `c / scales`. Replicas
    // are claimed in that order, so a cell holding summaries has one in
    // progress: at most `threads` cells hold summaries.
    let scales = spec.rate_scales.len();
    par_each(spec.replica_count(), spec.threads, |i| {
        let (cell, seed_idx) = (i / spec.seeds, i % spec.seeds);
        let (fleet, rate_scale) = (cell / scales, spec.rate_scales[cell % scales]);
        let fleet_size = spec.fleet_sizes[fleet];
        let outcome = spec
            .cell_scenario(&order, rate_scale, fleet_size, seed_idx)
            .and_then(|scenario| {
                let mut session =
                    ServeSession::with_shared(&scenario, &starts[fleet]).map_err(serve_error)?;
                session.run_to_idle().map_err(serve_error)?;
                Ok(ReplicaSummary::from_report(&session.finish(), spec.bin_s))
            });
        let mut guard = cells[cell].lock().expect("a cell's fold is its last lock");
        let Cell { landed, folded } = &mut *guard;
        // Sized on the cell's first landing: no growth slack.
        landed.reserve_exact(spec.seeds - landed.len());
        landed.push((seed_idx, outcome));
        if landed.len() == spec.seeds {
            // Seed order fixes every float sum and the bootstrap stream,
            // and picks the cell's first failure.
            let mut landed = std::mem::take(landed);
            landed.sort_unstable_by_key(|&(seed_idx, _)| seed_idx);
            let replicas: Result<Vec<_>, _> = landed.into_iter().map(|(_, o)| o).collect();
            *folded = Some(replicas.map(|replicas| {
                let offered = spec.offered_rate_per_s(rate_scale);
                aggregate_cell(fleet_size, rate_scale, offered, &replicas, spec.bin_s)
            }));
        }
    });

    // Cells in order, each holding its first failure in seed order: the
    // first failure in replica-index order wins.
    let cells = cells
        .into_iter()
        .map(|cell| {
            let cell = cell.into_inner().expect("par_each re-raises panics");
            cell.folded.expect("every replica lands")
        })
        .collect::<Result<Vec<_>, _>>()?;
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

/// Calls `f` on every index in `0..n` on `threads` scoped threads (0 =
/// all available cores), the caller among them, capped at `n`. Each
/// thread claims the next unclaimed index, so every index runs exactly
/// once and they start in ascending order. A panicking call panics the
/// caller, with its own payload, once every thread stops.
pub(crate) fn par_each(n: usize, threads: usize, f: impl Fn(usize) + Sync) {
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        t => t,
    }
    .min(n);
    let next = AtomicUsize::new(0);
    // `Relaxed` suffices: the cursor only hands out indices; results
    // publish through `f`'s own synchronization and the scope's join.
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let work = || {
        while let Some(i) = claim() {
            f(i);
        }
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
    fn a_failing_cell_fails_the_sweep_with_its_first_replica_error() {
        // A 1e-300 rate scale draws the second arrival past the clock's
        // range, so that cell's replicas prepare but fail mid-run, each
        // naming its own arrival time. The first failing cell in job
        // order is (2 devices, 1e-300), and its first failure in seed
        // order is seed 0's; the 1e-299 cells fail with other times.
        let spec = SweepSpec {
            rate_scales: vec![1.0, 1e-300, 1e-299],
            ..tiny_spec()
        };
        let first = SweepSpec {
            seeds: 1,
            rate_scales: vec![1e-300],
            fleet_sizes: vec![2],
            ..tiny_spec()
        };
        let expected = run_sweep(&first).unwrap_err();
        assert!(
            matches!(&expected, SweepError::Serve(msg) if msg.contains("at_s must be at most")),
            "{expected:?}"
        );
        for threads in [1, 2, 4] {
            let spec = SweepSpec {
                threads,
                ..spec.clone()
            };
            assert_eq!(run_sweep(&spec).unwrap_err(), expected, "{threads} threads");
        }
    }

    #[test]
    fn par_each_handles_empty_and_singleton_grids() {
        let visits = |n: usize, threads: usize| {
            let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par_each(n, threads, |i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
            seen.into_iter()
                .map(AtomicUsize::into_inner)
                .collect::<Vec<_>>()
        };
        assert_eq!(visits(0, 4), Vec::<usize>::new());
        // More threads than indices.
        assert_eq!(visits(1, 4), vec![1]);
        assert_eq!(visits(3, 8), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn panics_propagate_to_the_caller() {
        par_each(32, 4, |i| assert_ne!(i, 13, "boom at 13"));
    }
}
