//! Property-based tests for the simulator's scheduling invariants.

use proptest::prelude::*;

use s2m3_core::placement::PlacementOptions;
use s2m3_core::plan::Plan;
use s2m3_core::problem::{DeadlineClass, Instance, Request, RequestShape};
use s2m3_core::resolved::ResolvedInstance;
use s2m3_net::fleet::Fleet;

use crate::engine::{simulate_caching, simulate_reference, simulate_shared};
use crate::kernel::wheel::TimingWheel;
use crate::kernel::{
    ns, Device, Driver, Kernel, KeyHeap, Policy, RequestSlot, Scheduler, MAX_ARRIVAL_S,
};
use crate::workload::{
    latency_stats, mixed_stream, ArrivalProcess, ClassShare, ModelMix, ModelWeight, SourceSpec,
    WorkloadSpec,
};
use crate::{simulate, SimConfig};

/// Deployments the span-order property draws subsets of: shared and
/// unshared encoders, one to three encoders per model, a generative head.
const MODELS: [(&str, usize); 5] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("AlignBind-B", 16),
    ("CLIP-Classifier Food-101", 0),
    ("Flint-v0.5-1B", 1),
];

fn instance() -> Instance {
    Instance::single_model("CLIP ViT-B/16", 32).unwrap()
}

/// An arbitrary multi-source spec under the legacy round-robin mix.
fn arb_legacy_spec() -> impl Strategy<Value = WorkloadSpec> {
    (1usize..6, "[a-z]{1,6}").prop_map(|(n_sources, seed)| WorkloadSpec {
        sources: (0..n_sources)
            .map(|i| SourceSpec {
                device: None,
                arrivals: ArrivalProcess::Poisson {
                    rate_per_s: 0.5 + i as f64,
                },
                label: format!("{seed}/source-{i}"),
                weight: None,
                mix: None,
            })
            .collect(),
        mix: ModelMix::LegacyRoundRobin,
        classes: Vec::new(),
        seed,
    })
}

fn arb_arrival_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        Just(ArrivalProcess::Simultaneous),
        (0.01f64..10.0).prop_map(|interval_s| ArrivalProcess::Uniform { interval_s }),
        (0.01f64..20.0).prop_map(|rate_per_s| ArrivalProcess::Poisson { rate_per_s }),
        (proptest::collection::vec(0.01f64..20.0, 1..4), 0.1f64..60.0).prop_map(
            |(rates_per_s, mean_dwell_s)| ArrivalProcess::Mmpp {
                rates_per_s,
                mean_dwell_s,
            }
        ),
        (0.01f64..2.0, 0.01f64..20.0, 1.0f64..500.0).prop_map(|(base, extra, period_s)| {
            ArrivalProcess::Diurnal {
                base_rate_per_s: base,
                peak_rate_per_s: base + extra,
                period_s,
            }
        }),
        proptest::collection::vec(-1.0f64..5.0, 0..8)
            .prop_map(|inter_arrival_s| ArrivalProcess::Trace { inter_arrival_s }),
    ]
}

/// One step of an interleaved push/pop schedule against the event
/// queue (`(time_ns, seq)` packed keys).
#[derive(Debug, Clone)]
enum WheelOp {
    /// Push `count` events at `clock + offset_ns` — bursts (`count > 1`)
    /// land on the same tick, exercising seq-order tie-breaks.
    Push { offset_ns: u64, count: usize },
    /// Pop up to `n` events, comparing wheel and heap step by step.
    Pop(usize),
}

/// Arbitrary serve-shaped schedules: mostly in-window offsets, some
/// spilling into the coarse levels, some far past the wheel horizon
/// (the overflow list), plus a near-`u64::MAX` saturation point.
fn arb_offset_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..5_000_000,
        0u64..5_000_000,
        0u64..500_000_000,
        1_000_000_000u64..50_000_000_000_000,
        Just(u64::MAX / 2),
    ]
}

fn arb_wheel_ops() -> impl Strategy<Value = Vec<WheelOp>> {
    proptest::collection::vec(
        prop_oneof![
            (arb_offset_ns(), 1usize..5)
                .prop_map(|(offset_ns, count)| WheelOp::Push { offset_ns, count }),
            (arb_offset_ns(), 1usize..5)
                .prop_map(|(offset_ns, count)| WheelOp::Push { offset_ns, count }),
            (1usize..8).prop_map(WheelOp::Pop),
        ],
        1..250,
    )
}

fn pack(time_ns: u64, seq: u64) -> u128 {
    (u128::from(time_ns) << 64) | u128::from(seq)
}

/// The time grid of the random kernel workloads: arrivals, durations,
/// transfers and device openings are all multiples of it, so arrivals
/// tie with run-time events.
const GRID_NS: u64 = 10;

/// One request of a random kernel workload, in grid ticks: its arrival,
/// its encoders as `(module, device, duration)` and its head as
/// `(device, duration)`. Device picks wrap onto the fleet.
#[derive(Debug, Clone)]
struct TickRequest {
    arrival: u64,
    encoders: Vec<(u32, usize, u64)>,
    head: (usize, u64),
}

/// A random kernel workload: devices as `(lanes, open tick)`, requests,
/// the batch cap (0 = none), the per-module caps and the head-fire
/// policy.
#[derive(Debug, Clone)]
struct TickWorkload {
    devices: Vec<(usize, u64)>,
    requests: Vec<TickRequest>,
    max_batch: usize,
    module_batch_caps: Vec<usize>,
    immediate_head_fire: bool,
}

fn arb_tick_workload() -> impl Strategy<Value = TickWorkload> {
    let request = (
        0u64..12,
        proptest::collection::vec((0u32..3, 0usize..4, 1u64..4), 1..4),
        (0usize..4, 1u64..4),
    )
        .prop_map(|(arrival, encoders, head)| TickRequest {
            arrival,
            encoders,
            head,
        });
    (
        proptest::collection::vec((1usize..3, 0u64..4), 1..4),
        proptest::collection::vec(request, 1..24),
        0usize..4,
        0u8..2,
    )
        .prop_map(|(devices, requests, max_batch, immediate)| TickWorkload {
            devices,
            requests,
            max_batch,
            module_batch_caps: Vec::new(),
            immediate_head_fire: immediate == 1,
        })
}

/// Logs every task completion; a group runs as long as its longest task,
/// and an embedding takes one grid step to reach its head.
#[derive(Default)]
struct CompletionLog(Vec<(usize, u64)>);

impl Driver for CompletionLog {
    type Custom = ();
    type Payload = u64;
    type Error = std::convert::Infallible;

    fn dispatched(
        &mut self,
        k: &mut Kernel<(), u64>,
        _device: usize,
        group: &[usize],
        now: u64,
    ) -> Result<u64, Self::Error> {
        Ok(now
            + group
                .iter()
                .map(|&g| *k.tasks.payload(g))
                .max()
                .unwrap_or(0))
    }

    fn task_finished(
        &mut self,
        _k: &mut Kernel<(), u64>,
        tid: usize,
        now: u64,
        _lane_live: bool,
    ) -> Result<(), Self::Error> {
        self.0.push((tid, now));
        Ok(())
    }

    fn encoder_ready_ns(
        &mut self,
        _k: &mut Kernel<(), u64>,
        _tid: usize,
        now: u64,
    ) -> Result<u64, Self::Error> {
        Ok(now + GRID_NS)
    }

    fn head_done(
        &mut self,
        _k: &mut Kernel<(), u64>,
        _req: usize,
        _now: u64,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Runs `w` under `scheduler` with every arrival pushed before the clock
/// (`pause_at` = `None`) or staged, pausing once at `pause_at` ns; returns
/// the `(task, time)` completion log.
fn run_ticks(w: &TickWorkload, scheduler: Scheduler, pause_at: Option<u64>) -> Vec<(usize, u64)> {
    let nd = w.devices.len();
    let mut k: Kernel<(), u64> = Kernel::new(
        w.devices
            .iter()
            .map(|&(lanes, open)| Device::new(lanes, open * GRID_NS))
            .collect(),
        Policy {
            immediate_head_fire: w.immediate_head_fire,
            max_batch: (w.max_batch > 0).then_some(w.max_batch),
            recycle_tasks: false,
            scheduler,
        },
    );
    k.module_batch_caps.clone_from(&w.module_batch_caps);
    for (req, r) in w.requests.iter().enumerate() {
        let at = r.arrival * GRID_NS;
        let head = k.spawn_task(req, 3, r.head.0 % nd, true, r.head.1 * GRID_NS);
        k.set_request(
            req,
            RequestSlot {
                pending_encoders: r.encoders.len(),
                head_ready_ns: at,
                head_task: head,
            },
        );
        for &(module, device, dur) in &r.encoders {
            let tid = k.spawn_task(req, module, device % nd, false, dur * GRID_NS);
            if pause_at.is_some() {
                k.stage_ready(at, tid);
            } else {
                k.push_ready(at, tid);
            }
        }
    }
    for (di, &(_, open)) in w.devices.iter().enumerate() {
        if open > 0 {
            k.push_device_open(open * GRID_NS, di);
        }
    }
    let mut log = CompletionLog::default();
    if let Some(t) = pause_at {
        k.run_until(&mut log, t).unwrap();
    }
    k.run_until_idle(&mut log).unwrap();
    assert_eq!(k.pending_events(), 0);
    log.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every arrival-process variant yields sorted, non-negative,
    /// zero-based, deterministic arrival times of the requested length.
    #[test]
    fn all_arrival_variants_sorted_nonnegative_deterministic(
        process in arb_arrival_process(),
        n in 1usize..200,
        label in "[a-z]{1,8}",
    ) {
        let a = process.arrivals(n, &label);
        let b = process.arrivals(n, &label);
        prop_assert_eq!(&a, &b, "same label must reproduce the stream");
        prop_assert_eq!(a.len(), n);
        prop_assert_eq!(a[0], 0.0);
        prop_assert!(a.iter().all(|t| t.is_finite() && *t >= 0.0), "{a:?}");
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "unsorted: {a:?}");
    }

    /// `LegacyRoundRobin` over arbitrary source counts is exactly the
    /// historic `rid % n_models` assignment on the merged stream, and
    /// the merge is the historic `(time, source rank, per-source id)`
    /// order.
    #[test]
    fn legacy_round_robin_equals_rid_mod_n_models(
        spec in arb_legacy_spec(),
        n in 1usize..300,
        n_models in 1usize..5,
    ) {
        let models: Vec<String> = (0..n_models).map(|k| format!("model-{k}")).collect();
        let stream: Vec<_> = spec.stream(n, &models).unwrap().collect();
        prop_assert_eq!(stream.len(), n);
        for (rid, wr) in stream.iter().enumerate() {
            prop_assert_eq!(wr.model as usize, rid % n_models, "rid {rid}");
        }
        // The merge is sorted by (time, rank); per-source emission
        // order is preserved (same-source entries sorted by time
        // already implies it; ids are implicit in order).
        prop_assert!(stream
            .windows(2)
            .all(|w| (w[0].at_ns, w[0].source) <= (w[1].at_ns, w[1].source)));
        // The legacy split is round-robin: source counts differ by ≤1
        // and earlier ranks get the remainder.
        let mut counts = vec![0usize; spec.sources.len()];
        for wr in &stream {
            counts[wr.source as usize] += 1;
        }
        let k = counts.len();
        for (rank, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, n / k + usize::from(rank < n % k));
        }
    }

    /// Weighted mixes are deterministic per seed: the same spec streams
    /// identically, a different seed differs (statistically certain for
    /// non-trivial streams), and every drawn model is one of the
    /// weighted ones.
    #[test]
    fn weighted_mix_is_deterministic_and_closed(
        w0 in 0.1f64..10.0,
        w1 in 0.1f64..10.0,
        n in 50usize..300,
        seed in "[a-z]{1,6}",
    ) {
        let models = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let mut spec = WorkloadSpec::single_source(
            ArrivalProcess::Poisson { rate_per_s: 2.0 },
            seed.clone(),
        );
        spec.mix = ModelMix::Weighted {
            weights: vec![
                ModelWeight { model: "a".to_string(), weight: w0 },
                ModelWeight { model: "c".to_string(), weight: w1 },
            ],
        };
        let stream: Vec<_> = spec.stream(n, &models).unwrap().collect();
        prop_assert_eq!(&stream, &spec.stream(n, &models).unwrap().collect::<Vec<_>>());
        // Model "b" (weight 0 ≡ absent) never appears; a and c both
        // can.
        prop_assert!(stream.iter().all(|wr| wr.model == 0 || wr.model == 2));
        let mut other = spec.clone();
        other.sources[0].label = format!("{seed}-x");
        prop_assert_ne!(&stream, &other.stream(n, &models).unwrap().collect::<Vec<_>>());
    }

    /// Weight validation rejects non-finite, non-positive, unknown-model,
    /// and empty weighted mixes — and never panics on valid input.
    #[test]
    fn weight_validation_rejects_degenerate_mixes(
        bad_weight in prop_oneof![
            Just(0.0f64),
            Just(-3.5f64),
            Just(f64::NAN),
            Just(f64::INFINITY)
        ],
    ) {
        let models = vec!["a".to_string()];
        let mut spec = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "w");
        spec.mix = ModelMix::Weighted {
            weights: vec![ModelWeight { model: "a".to_string(), weight: bad_weight }],
        };
        prop_assert!(spec.stream(8, &models).is_err());

        let mut unknown = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "w");
        unknown.mix = ModelMix::Weighted {
            weights: vec![ModelWeight { model: "ghost".to_string(), weight: 1.0 }],
        };
        prop_assert!(unknown.stream(8, &models).is_err());

        let mut empty = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "w");
        empty.mix = ModelMix::Weighted { weights: vec![] };
        prop_assert!(empty.stream(8, &models).is_err());

        let mut source_weight = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "w");
        source_weight.sources[0].weight = Some(bad_weight);
        prop_assert!(source_weight.stream(8, &models).is_err());
    }

    /// Weighted source splits hand out exactly `n` requests whatever the
    /// weights (largest-remainder never loses or invents one).
    #[test]
    fn weighted_source_split_conserves_the_budget(
        weights in proptest::collection::vec(0.1f64..20.0, 1..6),
        n in 0usize..500,
    ) {
        let spec = WorkloadSpec {
            sources: weights
                .iter()
                .enumerate()
                .map(|(i, &w)| SourceSpec {
                    device: None,
                    arrivals: ArrivalProcess::Uniform { interval_s: 1.0 },
                    label: format!("s{i}"),
                    weight: Some(w),
                    mix: None,
                })
                .collect(),
            mix: ModelMix::LegacyRoundRobin,
            classes: Vec::new(),
            seed: "split".to_string(),
        };
        let stream: Vec<_> = spec.stream(n, &["m".to_string()]).unwrap().collect();
        prop_assert_eq!(stream.len(), n);
    }

    /// Batching never increases the burst makespan (it only merges queued
    /// work, amortizing per-execution overhead).
    #[test]
    fn batching_never_hurts_makespan(n in 1usize..10, cap in 1usize..8) {
        let i = instance();
        let requests = mixed_stream(&i, n).unwrap();
        let plan = Plan::greedy(&i, requests).unwrap();
        let plain = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let batched = simulate(
            &i,
            &plan,
            &SimConfig { max_batch: Some(cap), ..SimConfig::default() },
        )
        .unwrap();
        prop_assert!(batched.makespan <= plain.makespan + 1e-6,
            "batched {} vs plain {}", batched.makespan, plain.makespan);
        prop_assert_eq!(batched.requests.len(), n);
    }

    /// Later arrivals never finish before they arrive, and all requests
    /// complete.
    #[test]
    fn arrivals_respected(n in 1usize..8, interval in 0.01f64..5.0) {
        let i = instance();
        let requests = mixed_stream(&i, n).unwrap();
        let plan = Plan::greedy(&i, requests).unwrap();
        let arrivals = ArrivalProcess::Uniform { interval_s: interval }.arrivals(n, "prop");
        let r = simulate(
            &i,
            &plan,
            &SimConfig { arrivals: Some(arrivals.clone()), ..SimConfig::default() },
        )
        .unwrap();
        prop_assert_eq!(r.requests.len(), n);
        for (k, t) in &r.requests {
            prop_assert!((t.arrival - arrivals[*k as usize]).abs() < 1e-9);
            prop_assert!(t.completion > t.arrival);
        }
    }

    /// Slower arrival rates never increase mean latency (less queuing).
    #[test]
    fn load_monotonicity(n in 4usize..10) {
        let i = instance();
        let requests = mixed_stream(&i, n).unwrap();
        let plan = Plan::greedy(&i, requests).unwrap();
        let run = |interval: f64, tag: &str| {
            let arrivals = ArrivalProcess::Uniform { interval_s: interval }.arrivals(n, tag);
            latency_stats(
                &simulate(
                    &i,
                    &plan,
                    &SimConfig { arrivals: Some(arrivals), ..SimConfig::default() },
                )
                .unwrap(),
            )
        };
        let fast = run(0.05, "fast");
        let slow = run(60.0, "slow");
        prop_assert!(slow.mean <= fast.mean + 1e-6,
            "slow mean {} vs fast mean {}", slow.mean, fast.mean);
    }

    /// Spans never overlap beyond a device's lane count (no phantom
    /// parallelism), checking compute spans only.
    #[test]
    fn lane_capacity_respected(n in 1usize..8) {
        let i = instance();
        let requests = mixed_stream(&i, n).unwrap();
        let plan = Plan::greedy(&i, requests).unwrap();
        let r = simulate(&i, &plan, &SimConfig::default()).unwrap();
        for dev in i.fleet().devices() {
            let lanes = dev.parallelism.max(1);
            let mut spans: Vec<(f64, f64)> = r
                .spans
                .iter()
                .filter(|s| {
                    s.device == dev.id
                        && matches!(
                            s.phase,
                            crate::Phase::Encode(_) | crate::Phase::Head(_)
                        )
                })
                .map(|s| (s.start, s.end))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            // Sweep: count concurrent spans at each start point. The
            // engine quantizes event times to nanoseconds, so allow a
            // microsecond of slack at span boundaries.
            for &(start, _) in &spans {
                let live = spans
                    .iter()
                    .filter(|&&(s, e)| s <= start + 1e-6 && e > start + 1e-6)
                    .count();
                prop_assert!(
                    live <= lanes,
                    "{}: {live} concurrent spans > {lanes} lanes",
                    dev.id
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's span order — pre-clock spans merged in as the run
    /// records, then tie groups regrouped by device — is exactly what a
    /// stable `sort_by(start, device)` over the legacy two-part recording
    /// (every pre-clock span, then the run's) yields: the order every
    /// `SimReport` golden was captured with. The oracle shares no
    /// ordering code with the engine and compares device *names*, where
    /// the engine regroups by `device_rank` (ranking by device index
    /// instead fails this: the standard fleet lists `jetson-b` ahead of
    /// `jetson-a`). It also prices every request from scratch, where the
    /// engine reuses one pricing per (shape, table) pair. Covers mixed
    /// models on both fleets, replicated placements, every arrival
    /// process, same-instant bursts, out-of-order arrivals, batching and
    /// model loading; one to three sources and zero to two classes (up
    /// to 30 shapes, shared as `materialize` shares them), every other
    /// request holding a private copy of its shape, two shapes of one
    /// model alternating request by request, and a cache smaller than the
    /// plan's pairs.
    #[test]
    fn merge_ordered_spans_equal_reference_sort(
        models in proptest::sample::subsequence(MODELS.to_vec(), 1..=MODELS.len()),
        standard_fleet in 0u8..2,
        replicate in 0u8..2,
        n in 1usize..48,
        process in arb_arrival_process(),
        burst_s in prop_oneof![Just(0.0), Just(0.5), Just(5.0)],
        reversed in 0u8..2,
        max_batch in 0usize..6,
        include_loading in 0u8..2,
        n_sources in 1usize..4,
        n_classes in 0usize..3,
        layout in 0u8..3,
    ) {
        let fleet = if standard_fleet == 1 {
            Fleet::standard_testbed()
        } else {
            Fleet::edge_testbed()
        };
        let i = Instance::on_fleet(fleet, &models).unwrap();
        let spec = WorkloadSpec {
            sources: [None, Some("laptop"), Some("desktop")][..n_sources]
                .iter()
                .enumerate()
                .map(|(rank, device)| SourceSpec {
                    device: device.map(str::to_string),
                    arrivals: ArrivalProcess::Poisson { rate_per_s: 1.0 + rank as f64 },
                    label: format!("spans/source-{rank}"),
                    weight: None,
                    mix: None,
                })
                .collect(),
            mix: ModelMix::LegacyRoundRobin,
            classes: ["interactive", "batch"][..n_classes]
                .iter()
                .map(|name| ClassShare {
                    class: DeadlineClass {
                        name: name.to_string(),
                        deadline_s: 10.0,
                        priority: 0,
                    },
                    weight: 1.0,
                })
                .collect(),
            seed: "spans".to_string(),
        };
        let (mut requests, _) = spec.materialize(&i, n).unwrap();
        match layout {
            // Every other request holds an equal shape of its own.
            1 => {
                for q in requests.iter_mut().step_by(2) {
                    *q = Request::new(q.id, RequestShape::clone(q));
                }
            }
            // Two shapes of the first model, turn and turn about.
            2 => {
                let near = i.request(0, models[0].0).unwrap();
                let mut far = near.clone();
                far.shape_mut().source = "desktop".into();
                for (k, q) in requests.iter_mut().enumerate() {
                    let id = q.id;
                    *q = [&near, &far][k % 2].clone();
                    q.id = id;
                }
            }
            _ => {}
        }
        let plan =
            Plan::greedy_with(&i, requests, PlacementOptions { replicate: replicate == 1 }).unwrap();
        let mut arrivals = process.arrivals(n, "spans");
        if burst_s > 0.0 {
            // Collapse arrivals onto a coarse grid: same-instant bursts.
            for t in &mut arrivals {
                *t = (*t / burst_s).floor() * burst_s;
            }
        }
        if reversed == 1 {
            arrivals.reverse();
        }
        let config = SimConfig {
            include_loading: include_loading == 1,
            arrivals: Some(arrivals),
            max_batch: (max_batch > 0).then_some(max_batch),
        };
        let resolved = ResolvedInstance::new(&i).unwrap();

        let expected = simulate_reference(&i, &resolved, &plan, &config).unwrap();
        let report = simulate_shared(&i, &resolved, &plan, &config).unwrap();
        prop_assert_eq!(report.spans.len(), report.spans.row_capacity());
        prop_assert_eq!(&report, &expected);
        // A cache too small for the plan's pairs prices the rest afresh.
        let report = simulate_caching(&i, &resolved, &plan, &config, 1 + n % 3).unwrap();
        prop_assert_eq!(&report, &expected);
    }

    /// Staging arrivals is invisible: on a coarse grid where arrivals tie
    /// with completions, device openings and head readiness, a run with
    /// every arrival staged — paused anywhere and resumed — completes the
    /// same tasks at the same times as one with them pushed before the
    /// clock, under every scheduler, batched or not.
    #[test]
    fn staged_arrivals_run_like_pushed_ones(
        w in arb_tick_workload(),
        pause_tick in 0u64..24,
    ) {
        let pushed = run_ticks(&w, Scheduler::Heap, None);
        let completed: usize = w.requests.iter().map(|r| r.encoders.len() + 1).sum();
        prop_assert_eq!(pushed.len(), completed);
        for scheduler in [Scheduler::Heap, Scheduler::Wheel, Scheduler::Auto] {
            prop_assert_eq!(&run_ticks(&w, scheduler, None), &pushed, "{:?} pushed", scheduler);
            let staged = run_ticks(&w, scheduler, Some(pause_tick * GRID_NS));
            prop_assert_eq!(&staged, &pushed, "{:?} staged", scheduler);
        }
    }

    /// The singleton dispatch loop is exactly the batched loop at cap 1:
    /// with no batching, a global cap of 1, or a larger global cap under
    /// an all-ones per-module table, every task completes at the same
    /// time, under every scheduler.
    #[test]
    fn singleton_dispatch_equals_batching_at_cap_one(w in arb_tick_workload()) {
        let unbatched = TickWorkload { max_batch: 0, ..w.clone() };
        let cap_one = TickWorkload { max_batch: 1, ..w.clone() };
        // Encoders use modules 0..3 and heads module 3.
        let all_ones = TickWorkload { max_batch: 3, module_batch_caps: vec![1; 4], ..w };
        for scheduler in [Scheduler::Heap, Scheduler::Wheel, Scheduler::Auto] {
            let want = run_ticks(&unbatched, scheduler, None);
            prop_assert_eq!(&run_ticks(&cap_one, scheduler, None), &want, "{:?} cap 1", scheduler);
            prop_assert_eq!(&run_ticks(&all_ones, scheduler, None), &want, "{:?} all-ones", scheduler);
        }
    }

    /// The timing wheel is a drop-in replacement for the packed-key
    /// heap: under arbitrary interleaved push/pop schedules — same-tick
    /// bursts, far-future overflow spills, `u64`-saturating times — the
    /// two structures pop identical `(key, item)` sequences and agree
    /// on every intermediate `peek_key`.
    #[test]
    fn wheel_matches_heap_on_arbitrary_streams(ops in arb_wheel_ops()) {
        let mut wheel: TimingWheel<u64> = TimingWheel::default();
        let mut heap: KeyHeap<u64> = KeyHeap::with_capacity(0);
        let mut seq = 0u64;
        // Pushes ride the popped clock, like the kernel's `now`-anchored
        // event pushes; the wheel itself accepts any time order.
        let mut clock = 0u64;
        for op in ops {
            match op {
                WheelOp::Push { offset_ns, count } => {
                    for _ in 0..count {
                        let key = pack(clock.saturating_add(offset_ns), seq);
                        wheel.push(key, seq);
                        heap.push(key, seq);
                        seq += 1;
                    }
                }
                WheelOp::Pop(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(wheel.peek_key(), heap.peek_key());
                        let (w, h) = (wheel.pop(), heap.pop());
                        prop_assert_eq!(&w, &h);
                        match w {
                            Some((key, _)) => clock = (key >> 64) as u64,
                            None => break,
                        }
                    }
                }
            }
        }
        // Drain the tail: every remaining event pops in identical order.
        loop {
            prop_assert_eq!(wheel.peek_key(), heap.peek_key());
            prop_assert_eq!(wheel.len(), heap.len());
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&w, &h);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.len(), 0);
    }
}

/// The expression [`ns`] replaced.
fn ns_by_round(t: f64) -> u64 {
    (t * 1e9).round() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `ns` without libm's `round` equals the old expression on
    /// arbitrary bit patterns (either sign) and on fractions near a
    /// half across the clock's working range.
    #[test]
    fn ns_equals_round_on_any_float(
        bits in 0u64..u64::MAX,
        whole in 0u64..1 << 40,
        sixteenths in 0u8..16,
    ) {
        let t = f64::from_bits(bits);
        prop_assert_eq!(ns(t), ns_by_round(t));
        prop_assert_eq!(ns(-t), ns_by_round(-t));
        let t = (whole as f64 + f64::from(sixteenths) / 16.0) / 1e9;
        prop_assert_eq!(ns(t), ns_by_round(t));
    }
}

#[test]
fn ns_equals_round_on_edge_values() {
    let edges = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -0.4e-9,
        -0.5e-9,
        -1.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        MAX_ARRIVAL_S,
        2.0 * MAX_ARRIVAL_S,
        u64::MAX as f64 / 1e9,
        (1u64 << 53) as f64 / 1e9,
    ];
    for t in edges {
        assert_eq!(ns(t), ns_by_round(t), "t = {t:e}");
    }
    // Exact halves round up, like `f64::round` (half away from zero).
    let mut halves = 0;
    for k in 0..2_000u32 {
        let t = (f64::from(k) + 0.5) / 1e9;
        halves += usize::from((t * 1e9).fract() == 0.5);
        assert_eq!(ns(t), ns_by_round(t), "t = {t:e}");
    }
    assert!(halves > 1_000, "only {halves} exact halves reached");
}
