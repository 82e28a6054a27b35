//! # s2m3-sweep
//!
//! Parallel Monte Carlo sweeps over the S2M3 serving stack: a
//! [`SweepSpec`] fans one base [`ServeScenario`](s2m3_serve::ServeScenario)
//! across a (seed × arrival-rate-scale × fleet-size) grid, executes
//! every seeded replica on `threads` scoped threads that claim replicas
//! one at a time, and folds the replica reports into one
//! deterministic [`SweepReport`]:
//!
//! - **per-timestep bands** — p50/p95/p99 across replicas of rolling
//!   latency, deadline-miss rate, and fleet utilization, binned in
//!   virtual time;
//! - **per-cell scalars** — whole-run miss rate, p95 latency,
//!   throughput, shed count, makespan, averaged over seeds;
//! - **capacity frontier** — the largest swept arrival-rate scale each
//!   fleet size sustains within a deadline-miss budget (the "max
//!   sustainable rate at <1% miss" curve).
//!
//! Replica seeds derive from the base seed by replica index, so every
//! grid cell sees the *same* random-number streams (common random
//! numbers): cell-to-cell differences are treatment effects, not
//! sampling noise.
//!
//! ## Determinism contract
//!
//! The same spec produces a byte-identical JSON report at **any**
//! thread count. Replicas run in any order, but the thread that lands a
//! cell's last replica folds the cell in seed order, so every aggregate
//! (floating-point sums included) and the error returned are a
//! sequential run's. The thread-invariance proptest pins this.
//!
//! ## Example
//!
//! ```
//! use s2m3_serve::ServeScenario;
//! use s2m3_sweep::{run_sweep, SweepSpec};
//!
//! let mut base = ServeScenario::churn_default();
//! base.requests = 30; // keep the doctest fast
//! let mut spec = SweepSpec::quick(base);
//! spec.seeds = 1;
//! spec.rate_scales = vec![1.0];
//! spec.fleet_sizes = vec![2];
//! spec.threads = 1;
//! let report = run_sweep(&spec).unwrap();
//! assert_eq!(report.cells.len(), 1);
//! assert_eq!(report.frontier.len(), 1);
//! ```

pub mod report;
pub mod run;
pub mod spec;

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::run::{par_each, run_sweep};
    use crate::spec::SweepSpec;

    #[test]
    fn par_each_runs_every_index_once() {
        for threads in [1, 2, 4, 9] {
            let seen: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            par_each(seen.len(), threads, |i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        // Rate scales far apart make replicas of uneven length, so the
        // threads (more of them than cores, too) interleave across cells
        // and fold them out of order.
        let mut base = s2m3_serve::ServeScenario::churn_default();
        base.requests = 24;
        let spec = |threads| SweepSpec {
            seeds: 3,
            rate_scales: vec![0.25, 4.0, 1.0],
            fleet_sizes: vec![1, 4],
            bin_s: 300.0,
            threads,
            ..SweepSpec::quick(base.clone())
        };
        let baseline = run_sweep(&spec(1)).unwrap().to_json().unwrap();
        for threads in [2, 3, 8] {
            let report = run_sweep(&spec(threads)).unwrap().to_json().unwrap();
            assert_eq!(report, baseline, "{threads} threads");
        }
    }
}

pub use report::{
    bootstrap_ci95, cost_slo_frontier, replan_gain, Band, CellReport, CellScalars, Ci95,
    CostSloPoint, FrontierPoint, ReplicaSummary, SweepReport, TimeBand,
};
pub use run::run_sweep;
pub use spec::{scale_arrivals, SweepSpec};

/// Sweep failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec's grid is malformed or underivable from its base
    /// scenario.
    BadSpec(String),
    /// A replica failed to prepare or execute.
    Serve(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::BadSpec(msg) => write!(f, "bad sweep spec: {msg}"),
            SweepError::Serve(msg) => write!(f, "replica failed: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

// Compile-time proof that replica execution is Send-clean end to end:
// replica threads share the spec and the start, and each builds its own
// session and report.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<s2m3_serve::ServeSession>();
    assert_send::<s2m3_serve::ServeReport>();
    assert_send_sync::<s2m3_serve::SharedStart>();
    assert_send_sync::<s2m3_core::resolved::ResolvedInstance>();
    assert_send::<SweepSpec>();
    assert_send::<SweepReport>();
};
