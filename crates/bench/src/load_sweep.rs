//! Load sweep: sustained multi-task load against the shared deployment.
//!
//! The paper evaluates one simultaneous burst (Table X); this experiment
//! extends the analysis the way its Sec. VI-C discussion points: sweep
//! the offered Poisson rate over the four-task deployment and measure
//! p50/p95 latency for (a) shared modules, (b) dedicated modules, and
//! (c) shared modules with module-level batching. The interesting output
//! is the *knee*: the rate where sharing's queuing delay takes off, and
//! how far batching pushes it.

use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::fleet::Fleet;
use s2m3_sim::workload::{latency_stats, ArrivalProcess, LatencyStats, WorkloadSpec};
use s2m3_sim::{simulate, SimConfig};

use crate::table::Table;

/// Requests per sweep point.
const REQUESTS: usize = 40;
/// Offered rates to sweep, requests/second.
const RATES: [f64; 5] = [0.1, 0.2, 0.4, 0.8, 1.6];

/// The four-task deployment of Table X.
fn instance() -> Instance {
    Instance::on_fleet(
        Fleet::edge_testbed(),
        &[
            ("CLIP ViT-B/16", 101),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 16),
            ("CLIP-Classifier Food-101", 0),
        ],
    )
    .unwrap()
}

/// Runs one sweep point: the offered load is a [`WorkloadSpec`] — the
/// same unified layer `s2m3-serve` streams from — materialized into a
/// bounded request set plus aligned arrival times.
///
/// # Panics
///
/// On internal plan/simulation failures (the standard instance is valid).
fn point(instance: &Instance, rate: f64, max_batch: Option<usize>) -> LatencyStats {
    let spec = WorkloadSpec::single_source(
        ArrivalProcess::Poisson { rate_per_s: rate },
        format!("sweep/{rate}"),
    );
    let (requests, arrivals) = spec
        .materialize(instance, REQUESTS)
        .expect("workload materializes");
    let plan = Plan::greedy(instance, requests).expect("plan builds");
    let report = simulate(
        instance,
        &plan,
        &SimConfig {
            arrivals: Some(arrivals),
            max_batch,
            ..SimConfig::default()
        },
    )
    .expect("simulation runs");
    latency_stats(&report)
}

/// Regenerates the load sweep.
pub(crate) fn run() -> Table {
    let shared = instance();
    let dedicated = shared.dedicated();
    let mut t = Table::new(
        "Load sweep — four-task deployment under Poisson load (p50 / p95 s)",
        &["Rate (req/s)", "Shared", "Dedicated", "Shared+Batching(8)"],
    );
    for rate in RATES {
        let s = point(&shared, rate, None);
        let d = point(&dedicated, rate, None);
        let b = point(&shared, rate, Some(8));
        t.push_row(vec![
            format!("{rate:.1}"),
            format!("{:.2} / {:.2}", s.p50, s.p95),
            format!("{:.2} / {:.2}", d.p50, d.p95),
            format!("{:.2} / {:.2}", b.p50, b.p95),
        ]);
    }
    t.push_note(
        "Sharing matches dedicated at low rates (memory for free), queues earlier as load \
         grows, and module-level batching recovers most of the gap — quantifying the Sec. VI-C \
         discussion.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_rate_sharing_is_free() {
        let shared = instance();
        let dedicated = shared.dedicated();
        let s = point(&shared, 0.1, None);
        let d = point(&dedicated, 0.1, None);
        assert!(
            s.p50 < d.p50 * 1.4 + 0.5,
            "shared p50 {:.2} vs dedicated {:.2}",
            s.p50,
            d.p50
        );
    }

    #[test]
    fn latency_is_monotone_in_offered_load() {
        let shared = instance();
        let lo = point(&shared, 0.1, None);
        let hi = point(&shared, 1.6, None);
        assert!(hi.p95 >= lo.p95, "p95 {:.2} vs {:.2}", hi.p95, lo.p95);
        assert!(hi.mean > lo.mean);
    }

    #[test]
    fn batching_relieves_high_load() {
        let shared = instance();
        let plain = point(&shared, 1.6, None);
        let batched = point(&shared, 1.6, Some(8));
        assert!(
            batched.p95 < plain.p95,
            "batched p95 {:.2} vs plain {:.2}",
            batched.p95,
            plain.p95
        );
    }

    #[test]
    fn sweep_table_has_all_rates() {
        let t = run();
        assert_eq!(t.rows.len(), RATES.len());
    }
}
