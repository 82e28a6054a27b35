//! Property tests for the sweep's two load-bearing invariants: the
//! report is byte-identical at any thread count, and the grid conserves
//! replicas (cells × seeds, each run exactly once).

use proptest::prelude::*;

use s2m3_serve::{ServeScenario, StreamingConfig};

use crate::run::run_sweep;
use crate::spec::SweepSpec;

/// Three to six seeds per cell, and up to 120 requests so the seeds of
/// a cell run for different lengths: replicas running side by side land
/// out of seed order, so a fold that skipped the seed sort would change
/// the report's bytes at 2 or 4 threads.
fn arb_spec() -> impl Strategy<Value = SweepSpec> {
    (
        3usize..=6, // seeds
        proptest::sample::subsequence(vec![0.5f64, 1.0, 3.0], 1..=2),
        proptest::sample::subsequence(vec![2usize, 3, 4], 1..=2),
        20usize..=120, // requests
        0usize..=1,    // memory-flat streaming mode
    )
        .prop_map(|(seeds, rate_scales, fleet_sizes, requests, streaming)| {
            let mut base = ServeScenario::churn_default();
            base.requests = requests;
            base.snapshot_every = 8;
            if streaming == 1 {
                base.streaming = Some(StreamingConfig::default());
            }
            SweepSpec {
                base,
                seeds,
                rate_scales,
                fleet_sizes,
                bin_s: 300.0,
                miss_budget: 0.01,
                threads: 1,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same grid at 1, 2, and 4 threads ⇒ byte-identical JSON report —
    /// in both latency-aggregation modes (`arb_spec` flips streaming),
    /// since replicas are aggregated in index order.
    #[test]
    fn report_is_thread_count_invariant(mut spec in arb_spec()) {
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4] {
            spec.threads = threads;
            reports.push(run_sweep(&spec).unwrap().to_json().unwrap());
        }
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
    }

    /// Replica conservation: every cell aggregates exactly `seeds`
    /// replicas and the report totals match the grid.
    #[test]
    fn replicas_are_conserved(mut spec in arb_spec()) {
        spec.threads = 2;
        let report = run_sweep(&spec).unwrap();
        prop_assert_eq!(report.cells.len(), spec.cell_count());
        prop_assert_eq!(report.replicas, spec.replica_count());
        prop_assert_eq!(report.seeds_per_cell, spec.seeds);
        for cell in &report.cells {
            prop_assert_eq!(cell.replicas, spec.seeds);
        }
        // One frontier point per distinct fleet size.
        let mut sizes = spec.fleet_sizes.clone();
        sizes.dedup();
        prop_assert_eq!(report.frontier.len(), sizes.len());
    }
}
