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
//! thread count. Replica execution order varies with scheduling, but
//! each result lands in its replica's slot and every aggregate
//! (floating-point sums included) folds in replica-index order. The
//! thread-invariance proptest pins this.
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
    use crate::run::par_map;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(
                par_map(&items, threads, |x| x * x),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        // Uneven per-item cost so the threads interleave.
        let work =
            |&x: &u64| (0..(x % 7) * 50).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
        let items: Vec<u64> = (0..64).collect();
        let baseline = par_map(&items, 1, work);
        for threads in [2, 3, 8] {
            assert_eq!(
                par_map(&items, threads, work),
                baseline,
                "{threads} threads"
            );
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
