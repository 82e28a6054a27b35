//! Capacity-frontier sweep: how much traffic each fleet size sustains.
//!
//! Fans the churn serving scenario over a (seed × arrival-rate ×
//! fleet-size) grid, runs every seeded replica on scoped threads, and
//! prints the cross-replica distribution bands plus the capacity
//! frontier — the largest arrival-rate scale each fleet size carries
//! while keeping the deadline-miss rate under 1%.
//!
//! The report is deterministic: the same grid produces byte-identical
//! JSON at any thread count.
//!
//! ```sh
//! cargo run --release -p s2m3 --example sweep_frontier
//! ```

use s2m3::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The base scenario: churn serving, trimmed for a demo. ---------
    let mut base = ServeScenario::churn_default();
    base.requests = 800;
    base.snapshot_every = 100;
    base.seed = "example/sweep-frontier".to_string();

    // --- 2. The grid: 4 seeds x 4 rate scales x 3 fleet sizes. ------------
    //
    // Replica seeds are shared across cells (common random numbers), so
    // a cell-to-cell difference is a treatment effect of the rate or
    // the fleet, not sampling noise.
    let spec = SweepSpec {
        base,
        seeds: 4,
        rate_scales: vec![0.5, 1.0, 2.0, 4.0],
        fleet_sizes: vec![2, 3, 4],
        bin_s: 600.0,
        miss_budget: 0.01,
        threads: 0, // all available cores
    };
    println!(
        "sweeping {} cells x {} seeds = {} replicas ...\n",
        spec.cell_count(),
        spec.seeds,
        spec.replica_count()
    );

    // --- 3. Run and print. ------------------------------------------------
    let report = run_sweep(&spec)?;
    print!("{}", report.render_summary());

    // --- 4. The frontier, as data. ----------------------------------------
    //
    // Each point answers "what is the max sustainable offered rate at
    // this fleet size?" — the capacity-planning curve.
    for point in &report.frontier {
        if let (Some(scale), Some(rate)) = (point.max_rate_scale, point.max_rate_per_s) {
            println!(
                "fleet of {}: sustains x{scale:.1} base traffic ({rate:.3} req/s) within budget",
                point.fleet_size
            );
        }
    }
    Ok(())
}
