//! Property-based invariants for the serving control plane.
//!
//! The two guarantees the ISSUE demands, stated as properties over
//! randomized scenarios:
//!
//! 1. **Determinism** — the same scenario (including its seed) produces
//!    an identical [`ServeReport`](crate::report::ServeReport);
//! 2. **Conservation** — no request is lost or duplicated across
//!    admission, shedding, device churn, and replanning: every arrival is
//!    exactly one completion or one shed.
//!
//! Plus the kernel-resumability guarantee the shared-event-loop refactor
//! introduced: pausing a [`ServeSession`](crate::engine::ServeSession)
//! at arbitrary virtual times and resuming is invisible — the final
//! report is byte-identical to an uninterrupted run.

use std::collections::BTreeSet;

use proptest::prelude::*;

use s2m3_sim::workload::ArrivalProcess;

use s2m3_core::sketch::{percentile_sorted, LatencySketch};

use crate::accounting::LatAgg;
use crate::budget::{BudgetEnforcement, BudgetMetric, BudgetPolicy};
use crate::config::{
    AdmissionPolicy, FleetEvent, FleetEventKind, ReplanPolicy, ServeScenario, TrafficSource,
};
use crate::engine::{serve, ServeError, ServeSession};
use crate::report::LatencySummary;
use crate::slo::{Outcome, SloWindow, WindowSnapshot};

fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Fifo),
        Just(AdmissionPolicy::EarliestDeadlineFirst),
        (2usize..32).prop_map(|max_queue| AdmissionPolicy::ShedOnOverload { max_queue }),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.1f64..3.0).prop_map(|rate_per_s| ArrivalProcess::Poisson { rate_per_s }),
        (0.5f64..5.0).prop_map(|interval_s| ArrivalProcess::Uniform { interval_s }),
        (0.05f64..0.5, 0.5f64..3.0).prop_map(|(calm, storm)| ArrivalProcess::Mmpp {
            rates_per_s: vec![calm, storm],
            mean_dwell_s: 60.0,
        }),
    ]
}

/// Churn schedules that keep the scenario valid: the desktop may leave
/// once, the server may join once, the laptop may throttle.
fn arb_events() -> impl Strategy<Value = Vec<FleetEvent>> {
    (proptest::collection::vec(10.0f64..400.0, 0..3), 0usize..4)
        .prop_map(|(times, shape)| {
            let kinds = [
                FleetEventKind::DeviceLeave {
                    device: "desktop".to_string(),
                },
                FleetEventKind::DeviceJoin {
                    device: "server".to_string(),
                },
                FleetEventKind::DeviceSlowdown {
                    device: "laptop".to_string(),
                    factor: 0.5,
                },
            ];
            let mut sorted = times;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // `shape` rotates which event kinds appear; kinds are applied
            // in a fixed order so leave/join stay consistent.
            sorted
                .into_iter()
                .zip(kinds.iter().cycle().skip(shape))
                .map(|(at_s, kind)| FleetEvent {
                    at_s,
                    kind: kind.clone(),
                })
                .collect()
        })
        .prop_map(|events: Vec<FleetEvent>| {
            // Keep at most one of each kind, in time order, so a device
            // never leaves twice or joins while present.
            let mut seen_leave = false;
            let mut seen_join = false;
            let mut seen_slow = false;
            events
                .into_iter()
                .filter(|e| match e.kind {
                    FleetEventKind::DeviceLeave { .. } => !std::mem::replace(&mut seen_leave, true),
                    FleetEventKind::DeviceJoin { .. } => !std::mem::replace(&mut seen_join, true),
                    FleetEventKind::DeviceSlowdown { .. } => {
                        !std::mem::replace(&mut seen_slow, true)
                    }
                })
                .collect()
        })
}

/// The standard fleet's devices; `jetson-a` is the requester.
const STANDARD_DEVICES: [&str; 5] = ["server", "desktop", "laptop", "jetson-b", "jetson-a"];

/// Any 0–6 joins, leaves and slowdowns over the standard fleet, on a
/// coarse time grid so ties are common.
fn arb_schedule() -> impl Strategy<Value = Vec<FleetEvent>> {
    proptest::collection::vec((0u8..8, 0u8..3, 0usize..5), 0..=6).prop_map(|raw| {
        raw.into_iter()
            .map(|(slot, kind, device)| {
                let device = STANDARD_DEVICES[device].to_string();
                FleetEvent {
                    at_s: f64::from(slot) * 50.0,
                    kind: match kind {
                        0 => FleetEventKind::DeviceJoin { device },
                        1 => FleetEventKind::DeviceLeave { device },
                        _ => FleetEventKind::DeviceSlowdown {
                            device,
                            factor: 0.5,
                        },
                    },
                }
            })
            .collect()
    })
}

/// The reference: the membership rules as a name-keyed replay in
/// stable time order that skips what it refuses. Returns the indices of
/// the refused events.
fn name_replay_refusals(s: &ServeScenario, requester: &str, sources: &[&str]) -> BTreeSet<usize> {
    let mut active: BTreeSet<&str> = s.initial_devices.iter().map(String::as_str).collect();
    let mut order: Vec<usize> = (0..s.events.len()).collect();
    order.sort_by(|&a, &b| s.events[a].at_s.partial_cmp(&s.events[b].at_s).unwrap());
    let mut refused = BTreeSet::new();
    for i in order {
        let ok = match &s.events[i].kind {
            FleetEventKind::DeviceJoin { device } => active.insert(device.as_str()),
            FleetEventKind::DeviceLeave { device } => {
                device != requester
                    && !sources.contains(&device.as_str())
                    && active.remove(device.as_str())
            }
            FleetEventKind::DeviceSlowdown { device, .. } => active.contains(device.as_str()),
        };
        if !ok {
            refused.insert(i);
        }
    }
    refused
}

fn arb_enforcement() -> impl Strategy<Value = BudgetEnforcement> {
    prop_oneof![
        Just(BudgetEnforcement::Defer),
        Just(BudgetEnforcement::Shed),
        Just(BudgetEnforcement::DeferThenShed),
    ]
}

fn arb_budget() -> impl Strategy<Value = BudgetPolicy> {
    (0.2f64..8.0, 5.0f64..120.0, arb_enforcement()).prop_map(|(cap, window_s, enforcement)| {
        BudgetPolicy {
            cap_per_window: cap,
            metric: BudgetMetric::DeviceSeconds,
            window_s,
            enforcement,
        }
    })
}

fn scenario(
    policy: AdmissionPolicy,
    arrivals: ArrivalProcess,
    events: Vec<FleetEvent>,
    n: usize,
    seed: String,
) -> ServeScenario {
    ServeScenario {
        requests: n,
        admission: policy,
        arrivals,
        events,
        seed,
        deadline_s: 12.0,
        replan: ReplanPolicy {
            horizon_s: 300.0,
            ..ReplanPolicy::default()
        },
        ..ServeScenario::churn_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same scenario ⇒ byte-identical report; different seed ⇒ different
    /// stream (and report).
    #[test]
    fn same_seed_same_report(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        n in 20usize..120,
        seed in "[a-z]{1,8}",
    ) {
        let s = scenario(policy, arrivals, events, n, format!("prop/{seed}"));
        let a = serve(&s).unwrap();
        let b = serve(&s).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "JSON export must be stable too"
        );
    }

    /// No request is ever lost or double-counted: arrivals split exactly
    /// into completions and sheds, under every policy and churn schedule.
    #[test]
    fn requests_conserved_across_churn(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        n in 20usize..150,
    ) {
        let s = scenario(policy, arrivals, events, n, "prop/conserve".to_string());
        let report = serve(&s).unwrap();
        prop_assert_eq!(report.arrived as usize, n, "every request must arrive");
        prop_assert_eq!(
            report.completed + report.shed,
            report.arrived,
            "completed {} + shed {} != arrived {}",
            report.completed,
            report.shed,
            report.arrived
        );
        // Completed-side accounting is consistent.
        prop_assert_eq!(report.latency.completed, report.completed);
        prop_assert!(report.late <= report.completed);
        let expected_miss =
            (report.late + report.shed) as f64 / report.arrived.max(1) as f64;
        prop_assert!((report.miss_rate - expected_miss).abs() < 1e-12);
    }

    /// Pause-at-arbitrary-time + resume is invisible: running the
    /// session in arbitrary virtual-time slices then draining it yields
    /// a report byte-identical to the uninterrupted run, whatever the
    /// policy, traffic, churn schedule, or pause points.
    #[test]
    fn pause_resume_is_byte_invisible(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        n in 20usize..100,
        mut pauses in proptest::collection::vec(0.0f64..2_000.0, 1..6),
    ) {
        let s = scenario(policy, arrivals, events, n, "prop/resume".to_string());
        let uninterrupted = serve(&s).unwrap();
        let mut session = ServeSession::new(&s).unwrap();
        pauses.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for t in pauses {
            session.run_until(t).unwrap();
            // ns() rounds, so an event tick may land up to half a
            // nanosecond past the raw pause point.
            prop_assert!(session.now_s() <= t + 1e-9 || session.is_idle());
        }
        session.run_to_idle().unwrap();
        prop_assert!(session.is_idle());
        let resumed = session.finish();
        prop_assert_eq!(&resumed, &uninterrupted);
        prop_assert_eq!(
            resumed.to_json().unwrap(),
            uninterrupted.to_json().unwrap(),
            "JSON export must be identical too"
        );
    }

    /// Wheel-specific resumability: pause points landing *inside* a
    /// level-0 bucket (2^21 ns ≈ 2.1 ms spans) while the near heap is
    /// part-drained must be invisible. The timing wheel is plain state
    /// with no drain-ahead, so slicing the run into sub-bucket steps at
    /// odd nanosecond offsets yields a byte-identical report.
    #[test]
    fn pause_mid_bucket_is_byte_invisible(
        policy in arb_policy(),
        n in 30usize..90,
        step_us in 997u64..4999,
    ) {
        let s = scenario(
            policy,
            ArrivalProcess::Poisson { rate_per_s: 2.0 },
            Vec::new(),
            n,
            "prop/midbucket".to_string(),
        );
        let uninterrupted = serve(&s).unwrap();
        let mut session = ServeSession::new(&s).unwrap();
        let mut t = 0.0;
        while !session.is_idle() {
            // Odd microsecond-scale steps: virtually every pause falls
            // mid-bucket, often between two same-bucket events.
            t += step_us as f64 * 1e-6;
            session.run_until(t).unwrap();
        }
        let resumed = session.finish();
        prop_assert_eq!(&resumed, &uninterrupted);
    }

    /// Windows are time-ordered with coherent percentiles, and device
    /// utilization stays in [0, 1] whatever the churn.
    #[test]
    fn report_internal_consistency(
        policy in arb_policy(),
        events in arb_events(),
        n in 20usize..100,
    ) {
        let s = scenario(
            policy,
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
            events,
            n,
            "prop/consistency".to_string(),
        );
        let report = serve(&s).unwrap();
        prop_assert!(report.windows.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        for w in &report.windows {
            prop_assert!(w.p50_s <= w.p95_s + 1e-12);
            prop_assert!(w.p95_s <= w.p99_s + 1e-12);
            prop_assert!((0.0..=1.0).contains(&w.miss_rate));
        }
        for d in &report.devices {
            prop_assert!((0.0..=1.0).contains(&d.utilization), "{:?}", d);
        }
    }

    /// Streaming mode agrees with the exact run on everything except
    /// latency percentiles, which stay within the sketch's error bound —
    /// over arbitrary policies, traffic, and churn schedules.
    #[test]
    fn streaming_mode_tracks_exact_mode(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        n in 20usize..120,
    ) {
        let exact = scenario(policy, arrivals, events, n, "prop/streaming".to_string());
        let mut streaming = exact.clone();
        streaming.streaming = Some(crate::config::StreamingConfig::default());
        let e = serve(&exact).unwrap();
        let s = serve(&streaming).unwrap();
        let mut s_cmp = s.clone();
        s_cmp.latency = e.latency;
        for (cs, ce) in s_cmp.classes.iter_mut().zip(e.classes.iter()) {
            cs.latency = ce.latency;
        }
        prop_assert_eq!(&s_cmp, &e, "streaming may differ only in latency summaries");
        prop_assert_eq!(s.latency.completed, e.latency.completed);
        for (got, want) in [
            (s.latency.mean_s, e.latency.mean_s),
            (s.latency.max_s, e.latency.max_s),
        ] {
            prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        for (got, want) in [
            (s.latency.p50_s, e.latency.p50_s),
            (s.latency.p95_s, e.latency.p95_s),
            (s.latency.p99_s, e.latency.p99_s),
        ] {
            let err = if want == 0.0 { got.abs() } else { (got - want).abs() / want };
            prop_assert!(err < 0.01, "sketch {} vs exact {}: {}% error", got, want, 100.0 * err);
        }
    }

    /// The budget gate reserves a request's full route cost *before*
    /// dispatching it, so no window's recorded spend can exceed the cap
    /// — under every enforcement mode, traffic shape, and churn
    /// schedule (the ISSUE states this for `Shed`; it holds by
    /// construction for all three).
    #[test]
    fn budget_spend_never_exceeds_the_cap_per_window(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        budget in arb_budget(),
        n in 20usize..120,
    ) {
        let mut s = scenario(policy, arrivals, events, n, "prop/budget-cap".to_string());
        let cap = budget.cap_per_window;
        s.budget = Some(budget);
        let report = serve(&s).unwrap();
        let b = report.budget.as_ref().expect("budget report present");
        prop_assert_eq!(b.windows_over_cap, 0);
        prop_assert!((b.adherence - 1.0).abs() < 1e-12);
        let mut window_sum = 0.0;
        for w in &b.windows {
            prop_assert!(
                w.spend <= cap + 1e-9,
                "window {} spent {} over cap {}",
                w.index, w.spend, cap
            );
            window_sum += w.spend;
        }
        // Short runs never truncate window rows, so the rows must
        // account for the exact scalar total.
        prop_assert!((window_sum - b.spend_total).abs() < 1e-6);
        // The shadow counter prices each request once, at its *first*
        // evaluation; retries re-reserve, and churn can reroute a
        // deferred request onto a costlier path before it dispatches —
        // so the bound only binds on undisturbed runs.
        if report.retried == 0 && report.events.is_empty() {
            prop_assert!(b.shadow_spend_total >= b.spend_total - 1e-9);
        }
    }

    /// Deferral never loses a request: whatever the budget parks and
    /// re-admits, every arrival still resolves as exactly one completion
    /// or one shed, and the budget's own counters stay consistent.
    #[test]
    fn budget_deferred_requests_are_conserved(
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        events in arb_events(),
        budget in arb_budget(),
        n in 20usize..120,
    ) {
        let mut s = scenario(policy, arrivals, events, n, "prop/budget-conserve".to_string());
        let shed_mode = budget.enforcement == BudgetEnforcement::Shed;
        s.budget = Some(budget);
        let report = serve(&s).unwrap();
        prop_assert_eq!(report.arrived as usize, n);
        prop_assert_eq!(
            report.completed + report.shed,
            report.arrived,
            "completed {} + shed {} != arrived {}",
            report.completed, report.shed, report.arrived
        );
        let b = report.budget.as_ref().unwrap();
        prop_assert!(b.deferred <= report.arrived);
        prop_assert!(b.shed <= report.shed, "budget sheds are a subset of all sheds");
        if shed_mode {
            prop_assert_eq!(b.deferred, 0, "Shed mode never defers");
            prop_assert_eq!(b.latency_price_s, 0.0);
        }
        let class_deferred: u64 = b.classes.iter().map(|c| c.deferred).sum();
        let class_shed: u64 = b.classes.iter().map(|c| c.shed).sum();
        prop_assert!(class_deferred <= b.deferred);
        prop_assert!(class_shed <= b.shed);
    }

    /// Budget sheds are monotone in class priority: with a uniform
    /// per-request cost and EDF admission, a single exhausted window
    /// never sheds a high-priority request while dispatching a
    /// low-priority one — if any high-priority work was shed, *all*
    /// low-priority work was.
    #[test]
    fn budget_shed_order_is_monotone_in_class_priority(
        cap in 0.0f64..40.0,
        n in 20usize..80,
    ) {
        use s2m3_core::problem::DeadlineClass;
        use s2m3_sim::workload::ClassShare;
        let mut s = scenario(
            AdmissionPolicy::EarliestDeadlineFirst,
            ArrivalProcess::Simultaneous,
            Vec::new(),
            n,
            "prop/budget-priority".to_string(),
        );
        // One model ⇒ one route cost, so affordability is the same for
        // every request and the EDF pop order alone decides who sheds.
        s.models.truncate(1);
        s.mix = None;
        s.deadline_s = 10_000.0;
        // One in-flight slot: only the very first arrival can dispatch
        // before the queue builds, so every later pop is EDF-ordered.
        s.max_inflight_per_device = 1;
        s.classes = vec![
            ClassShare {
                class: DeadlineClass {
                    name: "interactive".to_string(),
                    deadline_s: 10_000.0,
                    priority: 10,
                },
                weight: 1.0,
            },
            ClassShare {
                class: DeadlineClass {
                    name: "batch".to_string(),
                    deadline_s: 10_000.0,
                    priority: 0,
                },
                weight: 1.0,
            },
        ];
        s.budget = Some(BudgetPolicy {
            cap_per_window: cap,
            metric: BudgetMetric::DeviceSeconds,
            // One window spans the whole run: headroom never refreshes.
            window_s: 1.0e6,
            enforcement: BudgetEnforcement::Shed,
        });
        let report = serve(&s).unwrap();
        let b = report.budget.as_ref().unwrap();
        prop_assert_eq!(b.classes[0].class.as_str(), "interactive");
        if b.classes[0].shed > 0 {
            // The first arrival dispatches before the queue exists and
            // may be batch-class; everything after it pops EDF-ordered,
            // so at most that one batch request escapes the shed.
            let batch_arrived = report.classes[1].arrived;
            prop_assert!(
                b.classes[1].shed + 1 >= batch_arrived,
                "interactive shed but only {} of {} batch requests shed",
                b.classes[1].shed, batch_arrived
            );
        }
    }

    /// The sketch's quantile error bound holds for *arbitrary* latency
    /// distributions, not just the ones serving runs happen to produce:
    /// every percentile of `from_sketch` lands within 1% of the exact
    /// summary of the sorted latencies.
    #[test]
    fn sketch_summary_tracks_exact_summary(
        mut latencies in proptest::collection::vec(1e-6f64..1e4, 1..400),
        scale in 1e-3f64..1e3,
    ) {
        for v in &mut latencies {
            *v *= scale;
        }
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = LatencySummary::from_sorted(&sorted);
        let mut sketch = LatencySketch::new();
        for &v in &latencies {
            sketch.record(v);
        }
        let approx = LatencySummary::from_sketch(&sketch);
        prop_assert_eq!(approx.completed, exact.completed);
        prop_assert!((approx.mean_s - exact.mean_s).abs() <= 1e-9 * exact.mean_s.abs());
        prop_assert!((approx.max_s - exact.max_s).abs() <= f64::EPSILON * exact.max_s);
        for (got, want) in [
            (approx.p50_s, exact.p50_s),
            (approx.p95_s, exact.p95_s),
            (approx.p99_s, exact.p99_s),
        ] {
            let err = (got - want).abs() / want;
            prop_assert!(err < 0.01, "sketch {} vs exact {}: {}% error", got, want, 100.0 * err);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact mode's block-grown samples summarize to the bits of one
    /// sorted `Vec`, at and around the block boundaries, over tied
    /// latencies and `+0.0`.
    #[test]
    fn exact_latency_blocks_summarize_like_one_vec(
        len_at in 0usize..7,
        seed in 0u64..u64::MAX,
    ) {
        const BLOCK: usize = 4096;
        let len = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 1, 3 * BLOCK + 1][len_at];
        let mut x = seed | 1;
        let mut latencies: Vec<f64> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 3 {
                    0 => 0.0,
                    1 => ((x >> 8) % 16) as f64 * 0.25,
                    _ => (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0,
                }
            })
            .collect();
        let mut agg = LatAgg::new(false);
        for &v in &latencies {
            agg.record(v);
        }
        let bits = |s: LatencySummary| {
            [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s].map(f64::to_bits)
        };
        let got = agg.summarize();
        latencies.sort_by(f64::total_cmp);
        let want = LatencySummary::from_sorted(&latencies);
        prop_assert_eq!(got.completed, want.completed);
        prop_assert_eq!(bits(got), bits(want));
    }
}

/// A leave voids a disturbed request's whole attempt, not only its
/// tasks on the departed device: here a request has an encoder running
/// on another device when the desktop leaves, and that encoder's
/// completion must not reach the fan-in of the re-admitted attempt.
/// (Pinned from a `streaming_mode_tracks_exact_mode` case.)
#[test]
fn leave_cancels_the_disturbed_attempt_on_every_device() {
    let s = scenario(
        AdmissionPolicy::EarliestDeadlineFirst,
        ArrivalProcess::Uniform {
            interval_s: 0.6061792064419379,
        },
        vec![FleetEvent {
            at_s: 67.11296310652918,
            kind: FleetEventKind::DeviceLeave {
                device: "desktop".to_string(),
            },
        }],
        101,
        "prop/streaming".to_string(),
    );
    let report = serve(&s).unwrap();
    assert_eq!(report.completed + report.shed, report.arrived);
    assert!(report.retried >= 1, "the leave disturbs no request");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The validator refuses exactly the fleet events the name-keyed
    /// reference refuses — joins of active devices, leaves of the
    /// requester, of a traffic source or of an inactive device,
    /// slowdowns of inactive devices — and a schedule it accepts serves
    /// to idle without losing a request.
    #[test]
    fn fleet_schedules_validate_like_a_name_replay(
        events in arb_schedule(),
        n in 10usize..40,
    ) {
        let mut s = scenario(
            AdmissionPolicy::Fifo,
            ArrivalProcess::Simultaneous,
            events,
            n,
            "prop/schedule".to_string(),
        );
        s.sources = ["jetson-a", "laptop"]
            .map(|device| TrafficSource {
                device: device.to_string(),
                arrivals: ArrivalProcess::Poisson { rate_per_s: 0.3 },
                weight: None,
                mix: None,
            })
            .to_vec();
        let want = name_replay_refusals(&s, "jetson-a", &["jetson-a", "laptop"]);
        match s.validate() {
            Ok(_) => {
                prop_assert!(want.is_empty(), "the replay refuses {:?}", want);
                let report = serve(&s).unwrap();
                prop_assert_eq!(report.arrived as usize, n);
                prop_assert_eq!(report.completed + report.shed, report.arrived);
            }
            Err(ServeError::BadScenario(msg)) => {
                let got: BTreeSet<usize> = msg
                    .lines()
                    .map(|line| {
                        line.strip_prefix("events[")
                            .and_then(|l| l.split_once("]: "))
                            .and_then(|(i, _)| i.parse().ok())
                            .unwrap_or_else(|| panic!("not an event fault: {line}"))
                    })
                    .collect();
                prop_assert_eq!(got, want, "{}", msg);
            }
            Err(e) => prop_assert!(false, "{}", e),
        }
    }
}

/// Outcome sequences over a coarse latency grid (many ties), long
/// enough relative to the capacities below to leave the ring empty,
/// partially filled, exactly full, or wrapped at any head position.
fn arb_outcomes() -> impl Strategy<Value = Vec<Outcome>> {
    proptest::collection::vec((0u8..12, 0u8..2), 0..100).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (grid, missed))| Outcome {
                completed_at_s: i as f64,
                latency_s: f64::from(grid) * 0.25,
                missed: missed == 1,
            })
            .collect()
    })
}

/// The allocate-and-stable-sort snapshot the selection replaced, taken
/// over the last `capacity` outcomes of `history`.
fn reference_snapshot(history: &[Outcome], capacity: usize, now_s: f64) -> WindowSnapshot {
    let held = &history[history.len().saturating_sub(capacity)..];
    let mut latencies: Vec<f64> = held.iter().map(|o| o.latency_s).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let missed = held.iter().filter(|o| o.missed).count();
    WindowSnapshot {
        at_s: now_s,
        window: held.len(),
        p50_s: percentile_sorted(&latencies, 0.50),
        p95_s: percentile_sorted(&latencies, 0.95),
        p99_s: percentile_sorted(&latencies, 0.99),
        miss_rate: if held.is_empty() {
            0.0
        } else {
            missed as f64 / held.len() as f64
        },
        utilization: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sort-free snapshot is the sorted one, after every push (so at
    /// every fill level and head position), and asking twice changes
    /// nothing (the scratch buffer carries no state between calls).
    #[test]
    fn slo_snapshot_by_selection_equals_the_sorted_reference(
        capacity in 1usize..24,
        outcomes in arb_outcomes(),
    ) {
        let mut w = SloWindow::new(capacity);
        prop_assert_eq!(w.snapshot(0.5), reference_snapshot(&[], capacity, 0.5));
        for (i, &o) in outcomes.iter().enumerate() {
            w.push(o);
            let want = reference_snapshot(&outcomes[..=i], capacity, o.completed_at_s);
            prop_assert_eq!(w.snapshot(o.completed_at_s), want);
            prop_assert_eq!(w.snapshot(o.completed_at_s), want);
        }
    }

    /// The one-pass trigger gate answers exactly what the full snapshot
    /// would, for bounds on, between, below and above the samples.
    #[test]
    fn slo_p95_exceeds_agrees_with_the_snapshot(
        capacity in 1usize..24,
        outcomes in arb_outcomes(),
        bound_grid in 0u8..14,
        off_grid in 0u8..2,
    ) {
        let bound = f64::from(bound_grid) * 0.25 - 0.25 + f64::from(off_grid) * 0.125;
        let mut w = SloWindow::new(capacity);
        prop_assert_eq!(w.p95_exceeds(bound), w.snapshot(0.0).p95_s > bound);
        for &o in &outcomes {
            w.push(o);
            prop_assert_eq!(w.p95_exceeds(bound), w.snapshot(0.0).p95_s > bound);
        }
    }

    /// The one-selection p95 the SLO trigger prints is the snapshot's,
    /// bit for bit, at every fill level and head position of rings up to
    /// the default 256, over tied latencies and the deadline values shed
    /// requests are recorded at.
    #[test]
    fn slo_p95_equals_the_snapshot(
        capacity in 1usize..=256,
        raw in proptest::collection::vec((0u8..16, 0u8..2), 1..=300),
    ) {
        let mut w = SloWindow::new(capacity);
        prop_assert_eq!(w.p95(), w.snapshot(0.0).p95_s);
        for (i, (grid, missed)) in raw.into_iter().enumerate() {
            let (latency_s, shed) = match grid {
                12 => (8.0, true),
                13 => (15.0, true),
                14 => (60.0, true),
                g => (f64::from(g) * 0.25, false),
            };
            w.push(Outcome {
                completed_at_s: i as f64,
                latency_s,
                missed: shed || missed == 1,
            });
            prop_assert_eq!(w.p95().to_bits(), w.snapshot(i as f64).p95_s.to_bits());
        }
    }
}
