//! Heap-bound proof for the one request-lifetime path: request and
//! kernel state is O(in-flight), not O(arrivals), in both serve modes.
//! With `ServeScenario::streaming` on the whole run is flat; exact mode
//! adds exactly what its report needs — the latency samples.
//!
//! The whole test binary runs under the counting [`PeakAlloc`] global
//! allocator (its counters are process-wide, which is why these
//! measurements live in their own integration-test binary: `cargo`
//! gives each `tests/*.rs` file its own process, so no other test's
//! allocations pollute the peaks; the tests within serialize on
//! [`MEASURING`]).
//!
//! The main assertion style is *ratio*, not absolute bytes: scale
//! requests by 10–50× and require the peak-heap delta to stay within a
//! small constant factor, so the test is insensitive to allocator slop
//! and debug-vs-release layout while still catching any O(arrivals)
//! regression (which would scale the peak by the same 10–50×). One
//! absolute bound, with ~2× headroom, catches what a ratio cannot: state
//! reserved up front whatever the load.

use std::sync::Mutex;

use peak_alloc::PeakAlloc;
use s2m3::core::problem::DeadlineClass;
use s2m3::serve::{AdmissionPolicy, ServeReport, ServeScenario, StreamingConfig};
use s2m3::sim::workload::{ArrivalProcess, ClassShare};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Held for a whole test: the allocator's peak is process-wide, and
/// `cargo test` runs the tests of one binary on parallel threads.
static MEASURING: Mutex<()> = Mutex::new(());

fn scenario(n: usize, streaming: bool) -> ServeScenario {
    let mut s = ServeScenario::churn_default();
    s.requests = n;
    // Offered load well above capacity: the shedding bound (not the
    // arrival rate) caps the queues, so in-flight state stays O(1)
    // while arrivals stream through.
    s.arrivals = ArrivalProcess::Poisson { rate_per_s: 3.0 };
    s.admission = AdmissionPolicy::ShedOnOverload { max_queue: 48 };
    if streaming {
        s.streaming = Some(StreamingConfig::default());
        s.max_windows = Some(64);
    }
    s
}

/// Runs the scenario and returns its report with the run's peak-heap
/// delta in bytes (peak live bytes during the run minus live bytes
/// before it).
fn measure(s: &ServeScenario) -> (ServeReport, usize) {
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let report = s2m3::serve::serve(s).unwrap();
    assert_eq!(report.arrived, s.requests as u64);
    assert_eq!(report.completed + report.shed, report.arrived);
    (report, ALLOC.peak_bytes().saturating_sub(before))
}

fn peak_delta_of(s: &ServeScenario) -> usize {
    measure(s).1
}

#[test]
fn streaming_peak_heap_is_flat_in_request_count() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // `cargo test -q` (tier-1) is a debug build — keep it minutes-free
    // there; the release run covers the ISSUE's 5M-request bound.
    let (small_n, big_n) = if cfg!(debug_assertions) {
        (4_000, 100_000)
    } else {
        (100_000, 5_000_000)
    };
    let scale = big_n / small_n; // 25–50×

    // Warm-up run so one-time global/lazy allocations (fleet tables,
    // zoo interning) don't count against the small run's peak.
    let _ = peak_delta_of(&scenario(512, true));

    let small = peak_delta_of(&scenario(small_n, true));
    let big = peak_delta_of(&scenario(big_n, true));
    assert!(
        big < small.saturating_mul(3) + (1 << 20),
        "streaming peak heap must be flat: {small_n} requests peaked at \
         {small} B but {big_n} requests peaked at {big} B ({scale}x more \
         arrivals must not mean more than ~constant heap)"
    );
}

#[test]
fn streaming_state_is_sized_by_what_it_holds() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // The ratio bounds cannot see a reservation made whatever the load:
    // it costs the small run as much as the big one. Under this load a
    // few dozen requests are in flight, so every request, task, event
    // and latency table together must stay well under 100 KiB.
    let _ = peak_delta_of(&scenario(512, true));
    let peak = peak_delta_of(&scenario(4_000, true));
    assert!(
        peak < 96 << 10,
        "a 4,000-request streaming run peaked at {peak} B: some serve state \
         is sized by something other than what it holds"
    );
}

#[test]
fn exact_peak_heap_is_flat_beyond_latency_samples() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Exact mode keeps every latency sample — once for the run and once
    // for the request's class — and nothing else per request.
    let classed = |n: usize| {
        let mut s = scenario(n, false);
        s.classes = [("interactive", 8.0, 2), ("batch", 60.0, 0)]
            .map(|(name, deadline_s, priority)| ClassShare {
                class: DeadlineClass {
                    name: name.to_string(),
                    deadline_s,
                    priority,
                },
                weight: 1.0,
            })
            .to_vec();
        s
    };
    // A sample below 2^40 ns is stored in 4 bytes; the fifth counted
    // here covers the block each bucket of samples is filling.
    let sample_bytes = |r: &ServeReport| 5 * 2 * r.completed as usize;
    let _ = measure(&classed(512));

    let (small_n, big_n) = (20_000, 200_000);
    let (small_report, small) = measure(&classed(small_n));
    let (big_report, big) = measure(&classed(big_n));
    assert!(big_report.completed > 8 * small_report.completed);
    // The samples bound what the aggregators can pin; the rest must not
    // scale.
    let beyond_samples = big.saturating_sub(sample_bytes(&big_report));
    assert!(
        beyond_samples < small.saturating_mul(3) + (1 << 20),
        "exact mode must keep only latency samples per request: {small_n} \
         requests peaked at {small} B, {big_n} requests at {big} B of which \
         {beyond_samples} B is not attributable to {} completions' samples",
        big_report.completed
    );
    // The ratio bound above would pass 8-byte samples too: the peak may
    // grow by at most 2 × 5 B per extra completion (8.4 B today), where
    // 8-byte samples grow it by over 16 B.
    let (added, completions) = (
        big.saturating_sub(small),
        (big_report.completed - small_report.completed) as usize,
    );
    assert!(
        added <= sample_bytes(&big_report) - sample_bytes(&small_report),
        "{completions} more completions added {added} B of peak heap: more than \
         5 B for each of their 2 latency samples"
    );
}

#[test]
fn printing_a_report_holds_only_its_text() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // An exact-mode run that snapshots its SLO window every 20
    // completions: a thousand float-heavy window rows make a report of
    // a few hundred kB.
    let mut s = scenario(20_000, false);
    s.snapshot_every = 20;
    let report = s2m3::serve::serve(&s).unwrap();

    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let json = report.to_json().unwrap();
    let held = ALLOC.peak_bytes().saturating_sub(before);
    assert!(
        json.len() > 100_000,
        "report too small to measure: {} B",
        json.len()
    );
    // A streamed print holds only the output `String`, whose capacity
    // stays under twice its length; a value tree copied first costs
    // about three times the text on top of it.
    assert!(
        held * 2 < json.len() * 5,
        "printing {} B of JSON held {held} B of heap above the live report",
        json.len()
    );
}

#[test]
fn the_replan_log_does_not_grow_with_rejected_evaluations() {
    use s2m3::serve::{
        BatchPolicy, BudgetPolicy, ModelDeployment, ModelMix, ModelWeight, RejectedSloRun,
        ReplanRecord, SloReplanTrigger, WindowSnapshot,
    };
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Five models under MMPP traffic, batched, budget-capped, with the
    // SLO trigger on: the budget gate rejects the memoised candidate at
    // every cooldown, so the run evaluates once per minute of virtual
    // time — over a thousand times here.
    let models = [
        ("CLIP ViT-B/16", 101),
        ("Encoder-only VQA (Small)", 1),
        ("AlignBind-B", 16),
        ("CLIP-Classifier Food-101", 0),
        ("Flint-v0.5-1B", 1),
    ];
    let budget_run = |n: usize| {
        let mut s = ServeScenario::churn_default();
        s.models = models
            .iter()
            .map(|&(name, candidates)| ModelDeployment {
                name: name.to_string(),
                candidates,
            })
            .collect();
        s.mix = Some(ModelMix::Weighted {
            weights: models
                .iter()
                .enumerate()
                .map(|(i, &(name, _))| ModelWeight {
                    model: name.to_string(),
                    weight: (i + 1) as f64,
                })
                .collect(),
        });
        s.arrivals = ArrivalProcess::Mmpp {
            rates_per_s: vec![0.25, 1.0],
            mean_dwell_s: 120.0,
        };
        s.admission = AdmissionPolicy::EarliestDeadlineFirst;
        s.batch = Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        });
        s.budget = Some(BudgetPolicy::device_seconds(30.0));
        s.replan.slo_trigger = Some(SloReplanTrigger::default());
        s.requests = n;
        s
    };
    let _ = measure(&budget_run(512));

    let before = ALLOC.live_bytes();
    let report = s2m3::serve::serve(&budget_run(50_000)).unwrap();
    let held = ALLOC.live_bytes().saturating_sub(before);
    let records = report.replans.len();
    let runs = report.rejected_slo.len();
    let rejected: u64 = report.rejected_slo.iter().map(|r| r.evaluations()).sum();
    assert!(
        rejected >= 1_000,
        "only {rejected} rejected SLO evaluations"
    );
    // The report holds its window rows, its replan records and its
    // rejected runs; 64 KiB covers the rest (budget windows, devices,
    // growth slack). Nothing is held per rejected evaluation: the run
    // holds 32,776 B against this bound's 71,344 B, where a log of one
    // record per evaluation held 130,504 B.
    let bound = report.windows.len() * std::mem::size_of::<WindowSnapshot>()
        + records * std::mem::size_of::<ReplanRecord>()
        + runs * std::mem::size_of::<RejectedSloRun>()
        + (64 << 10);
    assert!(
        held <= bound,
        "the returned report holds {held} B for {records} replan records and \
         {runs} runs of {rejected} rejected SLO evaluations; at most {bound} B expected"
    );
}
