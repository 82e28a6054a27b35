//! Hot-path wall-clock baseline: times placement, the brute-force Upper
//! bound, the offline simulator, the online serving loop, and the raw
//! discrete-event kernel, and records the medians in `BENCH_serve.json`
//! — the repo's performance trajectory.
//!
//! Usage (from the repo root):
//!
//! ```text
//! # Record the "before" side of a comparison (pre-optimization tree):
//! cargo run --release -p s2m3-bench --bin perf_baseline -- --record-before
//!
//! # Record the "after" side and compute speedups against the stored
//! # before numbers:
//! cargo run --release -p s2m3-bench --bin perf_baseline
//!
//! # CI smoke mode: fewer iterations, still writes nothing unless asked.
//! cargo run --release -p s2m3-bench --bin perf_baseline -- --quick --no-write
//!
//! # CI regression gate: fail (exit 1) if any bench regresses more than
//! # 25% against the recorded after-medians. Writes nothing. A bench
//! # over the threshold is re-measured up to twice and judged on its
//! # best of three medians, so a single throttle spike on this ±40%
//! # box does not fail the job.
//! cargo run --release -p s2m3-bench --bin perf_baseline -- --quick --compare BENCH_serve.json
//! ```
//!
//! The output JSON maps bench name → `{before_ns, after_ns, speedup}`
//! (medians, nanoseconds per operation). Only the side being recorded is
//! overwritten, so before/after survive independent runs.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use s2m3_core::placement::greedy_place;
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_core::upper::optimal_placement;
use s2m3_serve::{
    serve, AdmissionPolicy, BatchPolicy, BudgetEnforcement, BudgetPolicy, ModelDeployment,
    ServeScenario, SloReplanTrigger, StreamingConfig,
};
use s2m3_sim::engine::{simulate, SimConfig};
use s2m3_sim::kernel::{Device, Driver, Kernel, Policy, RequestSlot};
use s2m3_sim::workload::{latency_stats, ArrivalProcess, ModelMix, ModelWeight, WorkloadSpec};
use s2m3_sweep::{run_sweep, SweepSpec};

const OUT_PATH: &str = "BENCH_serve.json";

/// One bench's recorded medians.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Entry {
    /// Median ns/op before the optimization under comparison.
    #[serde(skip_serializing_if = "Option::is_none")]
    before_ns: Option<u64>,
    /// Median ns/op on the current tree.
    #[serde(skip_serializing_if = "Option::is_none")]
    after_ns: Option<u64>,
    /// `before_ns / after_ns` when both sides exist.
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup: Option<f64>,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BenchFile {
    generated_by: String,
    benches: BTreeMap<String, Entry>,
}

fn median_ns(iters: usize, mut op: impl FnMut()) -> u64 {
    // One untimed warmup to populate caches/allocator arenas.
    op();
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A no-op driver with fixed 1 ms executions: what remains is the
/// kernel's own event-heap + lane-scheduler overhead.
struct FixedDur;

impl Driver for FixedDur {
    type Custom = u32;
    type Payload = ();
    type Error = std::convert::Infallible;

    fn dispatched(
        &mut self,
        _k: &mut Kernel<u32, ()>,
        _device: usize,
        _group: &[usize],
        now: u64,
    ) -> Result<u64, Self::Error> {
        Ok(now + 1_000_000)
    }

    fn encoder_ready_ns(
        &mut self,
        _k: &mut Kernel<u32, ()>,
        _tid: usize,
        now: u64,
    ) -> Result<u64, Self::Error> {
        Ok(now + 50_000)
    }

    fn head_done(
        &mut self,
        _k: &mut Kernel<u32, ()>,
        _req: usize,
        _now: u64,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// One synthetic kernel run: `n_req` requests, each fanning two encoder
/// tasks across 4 devices plus a head, arrivals staggered 0.5 ms apart.
/// Returns the number of events processed (sanity-checked below).
fn kernel_fanout_run(n_req: usize) -> u64 {
    let mut k: Kernel<u32, ()> = Kernel::new(
        (0..4).map(|_| Device::new(2, 0)).collect(),
        Policy::default(),
    );
    let mut d = FixedDur;
    for req in 0..n_req {
        let head = k.spawn_task(req, 2, req % 4, true, ());
        let at = req as u64 * 500_000;
        for e in 0..2u32 {
            let enc = k.spawn_task(req, e, (req + 1 + e as usize) % 4, false, ());
            k.push_ready(at, enc);
        }
        k.set_request(
            req,
            RequestSlot {
                pending_encoders: 2,
                head_ready_ns: at,
                head_task: head,
            },
        );
    }
    match k.run_until_idle(&mut d) {
        Ok(n) => n,
        Err(e) => match e {},
    }
}

fn serve_scenario(requests: usize, admission: AdmissionPolicy, churn: bool) -> ServeScenario {
    let mut s = ServeScenario {
        requests,
        admission,
        ..ServeScenario::churn_default()
    };
    if !churn {
        s.events.clear();
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record_before = args.iter().any(|a| a == "--record-before");
    let quick = args.iter().any(|a| a == "--quick");
    let no_write = args.iter().any(|a| a == "--no-write");
    let compare: Option<String> = args
        .iter()
        .position(|a| a == "--compare")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let iters = if quick { 5 } else { 21 };

    let single = Instance::single_model("CLIP ViT-B/16", 101).expect("zoo model");
    let five_models = [
        ("CLIP ViT-B/16", 101),
        ("Encoder-only VQA (Small)", 1),
        ("AlignBind-B", 16),
        ("CLIP-Classifier Food-101", 0),
        ("Flint-v0.5-1B", 1),
    ];
    let multi = Instance::on_fleet(s2m3_net::fleet::Fleet::standard_testbed(), &five_models)
        .expect("zoo models");
    let sim_plan = {
        let requests: Vec<_> = (0..32)
            .map(|k| single.request(k, "CLIP ViT-B/16").unwrap())
            .collect();
        Plan::greedy(&single, requests).expect("plan builds")
    };
    // The bounded path end to end at the repo benchmark's `offline_burst`
    // shape: 150k Poisson arrivals over the five-model mix, every one
    // pushed before the clock starts (the only row past the scheduler's
    // spill threshold), routed per request and recorded span by span.
    let burst_spec = {
        let mut spec = WorkloadSpec::single_source(
            ArrivalProcess::Poisson { rate_per_s: 1000.0 },
            "perf/150k_burst",
        );
        spec.mix = ModelMix::Weighted {
            weights: multi
                .deployments()
                .iter()
                .enumerate()
                .map(|(i, d)| ModelWeight {
                    model: d.model.name.clone(),
                    weight: (i + 1) as f64,
                })
                .collect(),
        };
        spec
    };
    let burst_mix = burst_spec.mix.clone();
    let fifo = serve_scenario(500, AdmissionPolicy::Fifo, false);
    let edf = serve_scenario(500, AdmissionPolicy::EarliestDeadlineFirst, false);
    let churn = serve_scenario(500, AdmissionPolicy::ShedOnOverload { max_queue: 48 }, true);
    let batched = {
        let mut s = serve_scenario(500, AdmissionPolicy::Fifo, false);
        s.batch = Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        });
        s
    };
    // A cap tight enough to bind (the 500-request EDF run uses ~12
    // device-seconds per 60 s window uncapped), so the row times the
    // budget gate, the defer heap, and window-boundary re-admission —
    // not just the pricing fast path.
    let budget = {
        let mut s = serve_scenario(500, AdmissionPolicy::EarliestDeadlineFirst, false);
        let mut policy = BudgetPolicy::device_seconds(6.0);
        policy.enforcement = BudgetEnforcement::DeferThenShed;
        s.budget = Some(policy);
        s
    };
    // Exact mode at the repo benchmark's `exact_budget` shape: the five
    // models through both churn events with batching, a binding budget
    // and SLO-breach replans — the request-lifetime tables, the replan
    // trigger and the sorted latency report in one row.
    let exact_budget = {
        let mut s = serve_scenario(500_000, AdmissionPolicy::EarliestDeadlineFirst, true);
        s.models = five_models
            .iter()
            .map(|&(name, candidates)| ModelDeployment {
                name: name.to_string(),
                candidates,
            })
            .collect();
        s.mix = Some(burst_mix);
        s.arrivals = ArrivalProcess::Mmpp {
            rates_per_s: vec![0.25, 1.0],
            mean_dwell_s: 120.0,
        };
        s.batch = Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        });
        s.budget = Some(BudgetPolicy::device_seconds(30.0));
        s.replan.slo_trigger = Some(SloReplanTrigger::default());
        s.seed = "perf/500k_exact_budget".to_string();
        s
    };
    let streaming_scenario = |requests: usize| {
        let mut s = serve_scenario(
            requests,
            AdmissionPolicy::ShedOnOverload { max_queue: 48 },
            true,
        );
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 3.0 };
        s.streaming = Some(StreamingConfig::default());
        s.max_windows = Some(64);
        s
    };
    let streaming_small = streaming_scenario(500);
    // Mid-size streaming row between the 500-request smoke and the 5M
    // headline: large enough that the event loop (not setup) dominates,
    // small enough for `--quick` and the CI regression gate.
    let streaming_50k = streaming_scenario(50_000);
    let streaming_5m = if quick {
        None
    } else {
        Some(streaming_scenario(5_000_000))
    };
    // The sweep harness end to end: 64 replicas (4 seeds x 4 rates x 4
    // fleet sizes) of a short churn stream through the thread pool,
    // shared-start preparation and aggregation included.
    let sweep_spec = {
        let mut base = serve_scenario(48, AdmissionPolicy::Fifo, true);
        base.snapshot_every = 12;
        SweepSpec {
            base,
            seeds: 4,
            rate_scales: vec![0.5, 1.0, 2.0, 4.0],
            fleet_sizes: vec![1, 2, 3, 4],
            bin_s: 600.0,
            miss_budget: 0.01,
            threads: 0,
        }
    };
    assert_eq!(sweep_spec.replica_count(), 64);
    // The shared kernel in isolation: ~2k requests × (2 ready + 2 done
    // + 1 head) events through a no-op driver.
    assert!(kernel_fanout_run(2_000) >= 10_000);

    // Benches as (name, iterations, op) so the `--compare` gate can
    // re-measure an offender instead of failing on one noisy median.
    type Bench<'a> = (&'a str, usize, Box<dyn FnMut() + 'a>);
    let mut benches: Vec<Bench> = Vec::new();
    benches.push((
        "greedy_place/five-task",
        iters * 20,
        Box::new(|| {
            std::hint::black_box(greedy_place(&multi).unwrap());
        }),
    ));
    benches.push((
        "optimal_placement/single-model",
        iters,
        Box::new(|| {
            std::hint::black_box(optimal_placement(&single).unwrap());
        }),
    ));
    benches.push((
        "simulate/32req",
        iters * 4,
        Box::new(|| {
            std::hint::black_box(simulate(&single, &sim_plan, &SimConfig::default()).unwrap());
        }),
    ));
    benches.push((
        "simulate/150k_burst",
        if quick { 3 } else { 5 },
        Box::new(|| {
            let (requests, arrivals) = burst_spec.materialize(&multi, 150_000).unwrap();
            let plan = Plan::greedy(&multi, requests).unwrap();
            let config = SimConfig {
                arrivals: Some(arrivals),
                ..SimConfig::default()
            };
            let report = simulate(&multi, &plan, &config).unwrap();
            std::hint::black_box(latency_stats(&report));
        }),
    ));
    benches.push((
        "serve_loop/500req_fifo",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&fifo).unwrap());
        }),
    ));
    benches.push((
        "serve_loop/500req_edf",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&edf).unwrap());
        }),
    ));
    benches.push((
        "serve_loop/500req_churn_replan",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&churn).unwrap());
        }),
    ));
    // Batched online dispatch: the kernel's group-merge path (absent
    // from the other serve benches, which run the singleton fast path).
    benches.push((
        "serve_loop/500req_batched",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&batched).unwrap());
        }),
    ));
    // The budget gate on the dispatch path: route pricing, per-window
    // reservation, deferral, and BudgetWake re-admission.
    benches.push((
        "serve_loop/500req_budget",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&budget).unwrap());
        }),
    ));
    benches.push((
        "serve_loop/500k_exact_budget",
        if quick { 3 } else { 5 },
        Box::new(|| {
            std::hint::black_box(serve(&exact_budget).unwrap());
        }),
    ));
    // Memory-flat streaming mode: slab recycling + sketch aggregation
    // on the same loop (quick-safe size, for regression visibility).
    benches.push((
        "serve_loop/500req_streaming",
        iters,
        Box::new(|| {
            std::hint::black_box(serve(&streaming_small).unwrap());
        }),
    ));
    benches.push((
        "serve_loop/50k_req_streaming",
        if quick { 3 } else { 7 },
        Box::new(|| {
            std::hint::black_box(serve(&streaming_50k).unwrap());
        }),
    ));
    // The ISSUE's headline run: five million requests through the
    // streaming path in O(in-flight) heap. Seconds per run, so it
    // samples a small fixed count and sits out `--quick` CI smoke.
    if let Some(s5m) = &streaming_5m {
        benches.push((
            "serve_loop/5M_req",
            3,
            Box::new(|| {
                std::hint::black_box(serve(s5m).unwrap());
            }),
        ));
    }
    benches.push((
        "sweep/64rep",
        iters,
        Box::new(|| {
            std::hint::black_box(run_sweep(&sweep_spec).unwrap());
        }),
    ));
    benches.push((
        "kernel_step/2k_req_fanout",
        iters * 4,
        Box::new(|| {
            std::hint::black_box(kernel_fanout_run(2_000));
        }),
    ));

    let mut results: Vec<(&str, u64)> = benches
        .iter_mut()
        .map(|(name, it, op)| (*name, median_ns(*it, &mut **op)))
        .collect();

    let mut file: BenchFile = std::fs::read_to_string(compare.as_deref().unwrap_or(OUT_PATH))
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();

    // Regression gate: judge each bench against its recorded
    // after-median on its *best of three* medians — a single run on
    // this box swings ±40% under throttle, so an offender gets two
    // re-measures before the verdict. Reads only; never writes.
    if let Some(path) = &compare {
        let mut failures: Vec<String> = Vec::new();
        println!(
            "{:<34} {:>14} {:>14}  (gate: best-of-3 vs recorded after)",
            "bench", "measured", "recorded"
        );
        for ((name, it, op), (_, ns)) in benches.iter_mut().zip(results.iter_mut()) {
            let Some(recorded) = file.benches.get(*name).and_then(|e| e.after_ns) else {
                println!("{name:<34} {ns:>14} {:>14}", "-");
                continue;
            };
            let limit = recorded.saturating_mul(5) / 4;
            for _ in 0..2 {
                if *ns <= limit {
                    break;
                }
                *ns = (*ns).min(median_ns(*it, &mut **op));
            }
            println!("{name:<34} {ns:>14} {recorded:>14}");
            if *ns > limit {
                failures.push(format!(
                    "{name}: {ns} ns/op vs recorded {recorded} (+{:.0}% > 25%)",
                    (*ns as f64 / recorded as f64 - 1.0) * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!("perf gate passed: no bench regressed >25% vs {path}");
            return;
        }
        eprintln!("perf gate FAILED vs {path}:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }

    file.generated_by = "cargo run --release -p s2m3-bench --bin perf_baseline".to_string();
    let side = if record_before { "before" } else { "after" };
    println!("{:<34} {:>14}  ({side})", "bench", "median ns/op");
    for (name, ns) in &results {
        println!("{name:<34} {ns:>14}");
        let entry = file.benches.entry((*name).to_string()).or_default();
        if record_before {
            entry.before_ns = Some(*ns);
        } else {
            entry.after_ns = Some(*ns);
        }
        entry.speedup = match (entry.before_ns, entry.after_ns) {
            (Some(b), Some(a)) if a > 0 => Some(b as f64 / a as f64),
            _ => None,
        };
    }

    if no_write {
        println!("--no-write: {OUT_PATH} left untouched");
        return;
    }
    let json = serde_json::to_string_pretty(&file).expect("bench file serializes");
    std::fs::write(OUT_PATH, json + "\n").expect("write BENCH_serve.json");
    println!("wrote {OUT_PATH}");
}
