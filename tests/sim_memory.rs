//! Heap bound for the bounded path, the one place in the repo whose heap
//! is O(requests) by design: `materialize` → `Plan::greedy` → `simulate`
//! → `latency_stats` over a five-model stream keeps the plan, the task
//! table and every Gantt span alive at once. What it must *not* keep is
//! a private copy of a route table or of a model name per request, or the
//! pre-clock spans twice — this pins the per-request price and the
//! sharing that buys it.
//!
//! Own binary, like `serve_memory_flat.rs`: the counting allocator's
//! peak is process-wide.

use std::sync::Mutex;

use peak_alloc::PeakAlloc;
use s2m3::prelude::*;
use s2m3::sim::workload::{
    latency_stats, ArrivalProcess, LatencyStats, ModelMix, ModelWeight, WorkloadSpec,
};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Held for a whole test: `cargo test` runs a binary's tests on parallel
/// threads and the peak is process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

const FIVE_MODELS: [(&str, usize); 5] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("AlignBind-B", 16),
    ("CLIP-Classifier Food-101", 0),
    ("Flint-v0.5-1B", 1),
];

/// A 1:2:3:4:5 mix of the five models arriving far faster than the fleet
/// serves: every arrival is pending before the first completion.
fn burst() -> (Instance, WorkloadSpec) {
    let instance = Instance::on_fleet(Fleet::standard_testbed(), &FIVE_MODELS).unwrap();
    let mut spec =
        WorkloadSpec::single_source(ArrivalProcess::Poisson { rate_per_s: 1000.0 }, "sim-memory");
    spec.mix = ModelMix::Weighted {
        weights: FIVE_MODELS
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| ModelWeight {
                model: name.to_string(),
                weight: (i + 1) as f64,
            })
            .collect(),
    };
    (instance, spec)
}

/// Runs the bounded path over `n` requests; returns the plan, the stats
/// and the peak heap above what was live before, in bytes.
fn run(instance: &Instance, spec: &WorkloadSpec, n: usize) -> (Plan, LatencyStats, usize) {
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let (requests, arrivals) = spec.materialize(instance, n).unwrap();
    let plan = Plan::greedy(instance, requests).unwrap();
    let config = SimConfig {
        arrivals: Some(arrivals),
        ..SimConfig::default()
    };
    let report = simulate(instance, &plan, &config).unwrap();
    let stats = latency_stats(&report);
    (plan, stats, ALLOC.peak_bytes().saturating_sub(before))
}

#[test]
fn bounded_path_peaks_under_a_kilobyte_per_request() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (instance, spec) = burst();
    // Warm-up: one-time lazy allocations stay out of the measurement.
    let _ = run(&instance, &spec, 512);
    for n in [20_000, 100_000] {
        let (_, stats, peak) = run(&instance, &spec, n);
        assert_eq!(stats.n, n);
        let per_request = peak / n;
        // 345 measured at 20k requests and 366 at 100k. The fence sits
        // midway between that and the three cuts below, each reverted on
        // its own: 366 / 386 with a 32 B kernel task row (a `u64` lane
        // epoch) instead of 24 B; 353 / 374 with 24 B fan-in slots (two
        // `usize`s) instead of 16 B; 353 / 374 with a copy of the request
        // ids alive while the clock runs instead of gathered for the
        // report. 382 / 402 before those cuts, when the fence sat at
        // 420 and this trio was its check: 423 / 444 with each task's
        // timing row inline in the kernel's task table instead of one
        // shared row per pricing; 429 / 426 with the arrivals pushed
        // through the event queue instead of staged; 432 / 453 with the
        // kernel still alive while the report is built. Earlier still:
        // 518 / 520 before that trio, 623 with each
        // request owning its model name (104 B and a `String`) instead of
        // sharing one shape per (model, source, class); 855 with each span
        // owning its two names (72 B, two reference counts) instead of a
        // 32 B row over one name table; 1,229 with a private route table
        // per request and the pre-clock spans buffered and then sorted as
        // well.
        assert!(
            per_request <= 370,
            "{n} requests peaked at {peak} B = {per_request} B/request"
        );
    }
}

/// How many of `items` are distinct under the identity test `same`.
fn distinct<T>(items: impl Iterator<Item = T>, same: impl Fn(&T, &T) -> bool) -> usize {
    let mut seen: Vec<T> = Vec::new();
    for item in items {
        if !seen.iter().any(|s| same(s, &item)) {
            seen.push(item);
        }
    }
    seen.len()
}

#[test]
fn a_plan_holds_one_route_table_per_model_and_profile() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (instance, spec) = burst();
    let (plan, _, _) = run(&instance, &spec, 20_000);
    let pairs: std::collections::BTreeSet<_> = plan
        .routed
        .iter()
        .map(|(q, _)| {
            (
                q.model.as_str(),
                q.profile.text_units.to_bits(),
                q.profile.llm_tokens.to_bits(),
            )
        })
        .collect();
    assert_eq!(pairs.len(), FIVE_MODELS.len());
    // One source, no classes: five shapes and five Eq. 7 answers for
    // 20,000 requests, each held once.
    let tables = distinct(plan.routed.iter().map(|(_, r)| r), |a, b| {
        a.shares_assignments(b)
    });
    assert_eq!(tables, pairs.len());
    let shapes = distinct(plan.routed.iter().map(|(q, _)| q), |a, b| a.shares_shape(b));
    assert_eq!(shapes, pairs.len());
}

#[test]
fn a_materialised_workload_holds_one_shape_per_triple_it_emits() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (instance, mut spec) = burst();
    // Two sources and two classes: up to 5 x 2 x 2 shapes, fewer if the
    // stream never draws a combination.
    let mut second = spec.sources[0].clone();
    second.device = Some("laptop".to_string());
    second.label = "sim-memory/laptop".to_string();
    spec.sources.push(second);
    spec.classes = ["interactive", "batch"]
        .iter()
        .map(|name| s2m3::sim::workload::ClassShare {
            class: s2m3::core::problem::DeadlineClass {
                name: name.to_string(),
                deadline_s: 8.0,
                priority: 0,
            },
            weight: 1.0,
        })
        .collect();
    for n in [7, 5_000] {
        let (requests, _) = spec.materialize(&instance, n).unwrap();
        let triples: std::collections::BTreeSet<_> = requests
            .iter()
            .map(|q| {
                (
                    q.model.as_str(),
                    q.source.as_str(),
                    q.class.as_ref().map(|c| c.name.as_str()),
                )
            })
            .collect();
        let shapes = distinct(requests.iter(), |a, b| a.shares_shape(b));
        assert_eq!(shapes, triples.len(), "{n} requests");
        if n == 5_000 {
            assert_eq!(shapes, 20);
        }
    }
}
