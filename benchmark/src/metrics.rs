//! The metric registry: every name the benchmark emits, with its unit
//! and direction. `BENCHMARK.json` lists the same names; `--check`
//! fails when the two (or the emitted set) drift apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Exact for a fixed seed: any difference between two commits is a
    /// behaviour change, not noise.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: defined and non-zero on every workload. Host
/// time says how long the researcher waits and how much memory their
/// box needs; simulated time (units `sim_s`, `1/sim_s`) says what the
/// modelled fleet delivers. The simulated bounds cover seed-to-seed
/// variation; for one seed the values are exact and `--compare` reports
/// any difference.
pub const END_TO_END: [Def; 5] = [
    host("req_per_s", "1/s", Higher, 0.25),
    host("peak_heap_bytes", "bytes", Lower, 0.05),
    host("setup_s", "s", Lower, 0.25),
    sim("sim_latency_s", "sim_s", Lower, 0.10),
    sim("sim_goodput_per_s", "1/sim_s", Higher, 0.10),
];

/// Per-layer metrics. A layer a workload never enters reports 0.
pub const PER_LAYER: [Def; 55] = [
    // The serve event loop, from the traced run's 128 slices.
    timed("serve.run.ns_per_req", "ns"),
    timed("serve.run.ns_per_event", "ns"),
    timed("serve.run.ns_per_event_p90", "ns"),
    count("serve.run.events_per_req", "count", Lower),
    count("serve.run.allocs_per_req", "count", Lower),
    timed("serve.residual_ns_per_req", "ns"),
    timed("serve.residual_share", "ratio"),
    // The kernel alone: scheduler × pending-event depth.
    timed("sim.kernel.heap.ns_per_event.p16", "ns"),
    timed("sim.kernel.heap.ns_per_event.p2k", "ns"),
    timed("sim.kernel.heap.ns_per_event.p64k", "ns"),
    timed("sim.kernel.wheel.ns_per_event.p16", "ns"),
    timed("sim.kernel.wheel.ns_per_event.p2k", "ns"),
    timed("sim.kernel.wheel.ns_per_event.p64k", "ns"),
    timed("sim.kernel.auto.ns_per_event.p16", "ns"),
    timed("sim.kernel.auto.ns_per_event.p2k", "ns"),
    timed("sim.kernel.auto.ns_per_event.p64k", "ns"),
    // Leaf layers of the serve path, replayed with the run's own counts.
    timed("sim.workload.ns_per_req", "ns"),
    timed("serve.queue.ns_per_op", "ns"),
    count("serve.shed_share", "ratio", Lower),
    timed("serve.slab.ns_per_cycle", "ns"),
    timed("serve.slo.ns_per_push", "ns"),
    timed("serve.slo.snapshot_us", "us"),
    timed("core.sketch.ns_per_record", "ns"),
    timed("core.sketch.quantile_ns", "ns"),
    // Per-run set-up and tear-down.
    timed("serve.prepare_us", "us"),
    timed("serve.session_new_us", "us"),
    timed("serve.finish_us", "us"),
    timed("core.resolved.build_us", "us"),
    timed("core.placement.greedy_us", "us"),
    timed("serve.report.json_us", "us"),
    count("serve.report.json_bytes", "bytes", Lower),
    // Control plane.
    count("serve.replans", "count", Lower),
    timed("core.adaptive.replan_us", "us"),
    count("serve.budget.deferred", "count", Lower),
    count("serve.budget.shed", "count", Lower),
    // The bounded path.
    timed("core.plan.greedy_ns_per_req", "ns"),
    timed("core.routing.ns_per_route", "ns"),
    timed("sim.workload.materialize_ns_per_req", "ns"),
    timed("sim.engine.simulate_ns_per_req", "ns"),
    count("sim.engine.spans_per_req", "count", Lower),
    timed("sim.engine.latency_stats_us", "us"),
    // Placement quality.
    timed("core.upper.optimal_us", "us"),
    count("core.placement.optimal_share", "ratio", Higher),
    // The completion sink (no workload writes one today).
    timed("data.sink.ns_per_row", "ns"),
    // The sweep harness.
    timed("sweep.run.us_per_replica", "us"),
    Def {
        name: "sweep.pool.speedup_t2",
        unit: "ratio",
        better: Higher,
        bound: None,
        exact: false,
    },
    timed("sweep.report.json_us", "us"),
    count("sweep.replicas", "count", Higher),
    // Health of the benchmark itself.
    timed("trace_overhead_ratio", "ratio"),
    // Simulated results that are zero or undefined on some workload, so
    // they cannot be bounded end-to-end metrics; exact all the same.
    count("sim_p50_s", "sim_s", Lower),
    count("sim_p99_s", "sim_s", Lower),
    count("sim_miss_rate", "ratio", Lower),
    count("sim_frontier_rate_per_s", "1/sim_s", Higher),
    count("fail_ratio", "ratio", Lower),
    count("descheduled_reps", "count", Lower),
];

/// Looks a metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(find("setup_s").is_some_and(|d| d.unit == "s"));
    }
}
