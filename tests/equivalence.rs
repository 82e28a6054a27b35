//! Equivalence pins for the interned-index hot paths.
//!
//! The `ResolvedInstance` refactor replaced every string-keyed map in
//! placement, objective evaluation, the Upper-bound search, and both
//! discrete-event engines with dense `u32` indices. These tests prove
//! the rewrite changed *nothing observable*: `Plan`, `SimReport`,
//! `ServeReport` and `SweepReport` JSON is byte-identical to golden
//! fixtures captured from the pre-refactor tree (regenerate with
//! `cargo run --release -p s2m3-bench --bin capture_fixtures`), and
//! interning round-trips every id (property-tested over arbitrary
//! multi-model instances).

use proptest::prelude::*;

use s2m3::core::plan::Plan;
use s2m3::core::resolved::ResolvedInstance;
use s2m3::prelude::*;

/// The zoo models pinned by the fixtures (kept in sync with
/// `capture_fixtures`).
const FIXTURE_MODELS: [(&str, usize); 3] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("Flint-v0.5-1B", 1),
];

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn fixture(file: &str) -> String {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn plan_for(name: &str, candidates: usize, n_requests: usize) -> (Instance, Plan) {
    let i = Instance::single_model(name, candidates).unwrap();
    let requests: Vec<_> = (0..n_requests)
        .map(|k| i.request(k as u64, name).unwrap())
        .collect();
    let plan = Plan::greedy(&i, requests).unwrap();
    (i, plan)
}

#[test]
fn plans_are_byte_identical_to_seed_behavior() {
    for (name, candidates) in FIXTURE_MODELS {
        let (_, plan) = plan_for(name, candidates, 2);
        let json = serde_json::to_string_pretty(&plan).unwrap();
        assert_eq!(
            json,
            fixture(&format!("plan_{}.json", slug(name))).trim_end(),
            "{name}: Plan JSON diverged from the pre-refactor fixture"
        );
    }
}

#[test]
fn sim_reports_are_byte_identical_to_seed_behavior() {
    for (name, candidates) in FIXTURE_MODELS {
        let (i, plan) = plan_for(name, candidates, 2);
        let report = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(
            json,
            fixture(&format!("sim_{}.json", slug(name))).trim_end(),
            "{name}: SimReport JSON diverged from the pre-refactor fixture"
        );
    }
}

#[test]
fn serve_report_for_default_churn_is_byte_identical_to_seed_behavior() {
    let report = serve(&ServeScenario::churn_default()).unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(
        json,
        fixture("serve_churn_default.json").trim_end(),
        "ServeReport JSON diverged from the pre-refactor fixture"
    );
}

#[test]
fn batched_serve_report_matches_its_golden_fixture() {
    // Module-level batching in the serve loop is a *deliberate*
    // behavior change behind `ServeScenario::batch`, so it gets its own
    // golden: the default churn scenario with a global batch cap of 4.
    // Regenerate (via `capture_fixtures`) only when batched-dispatch
    // semantics change intentionally — `batch: None` stays pinned by
    // the unbatched fixture above.
    use s2m3::serve::BatchPolicy;
    let scenario = ServeScenario {
        batch: Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        }),
        ..ServeScenario::churn_default()
    };
    let report = serve(&scenario).unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(
        json,
        fixture("serve_churn_batched.json").trim_end(),
        "batched ServeReport JSON diverged from its golden fixture"
    );
}

#[test]
fn absent_budget_leaves_every_serve_golden_byte_identical() {
    // PR 10's budget subsystem threads `Option`s through the scenario
    // and the report; with `budget: None` (every pre-budget config)
    // nothing may shift — not a key, not a float, not a line. Both
    // serve goldens are pinned as-captured before the subsystem
    // existed, so this test doubles as the no-regeneration proof.
    let scenario = ServeScenario::churn_default();
    assert!(scenario.budget.is_none(), "default scenario stays uncapped");
    let report = serve(&scenario).unwrap();
    assert!(report.budget.is_none(), "no policy, no budget section");
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(
        !json.contains("budget"),
        "uncapped report JSON must not mention the budget at all"
    );
    assert_eq!(
        json,
        fixture("serve_churn_default.json").trim_end(),
        "budget: None must leave the serve golden byte-identical"
    );
}

/// The scenario `s2m3 serve --requests 5000 --rate 1.0 --slo-replan 5
/// --budget-cap 30 --budget-mode defer-shed` builds (kept in sync with
/// `capture_fixtures`): overloaded and capped, it rejects dozens of
/// SLO-breach replan evaluations after the server join.
fn slo_budget_scenario() -> ServeScenario {
    use s2m3::serve::{BudgetPolicy, SloReplanTrigger};
    use s2m3::sim::workload::ArrivalProcess;
    let mut scenario = ServeScenario {
        requests: 5_000,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 1.0 },
        budget: Some(BudgetPolicy::device_seconds(30.0)),
        ..ServeScenario::churn_default()
    };
    scenario.replan.slo_trigger = Some(SloReplanTrigger {
        cooldown_s: 5.0,
        ..SloReplanTrigger::default()
    });
    scenario
}

#[test]
fn slo_breach_replans_match_their_golden_fixture() {
    let report = serve(&slo_budget_scenario()).unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(
        json.contains("\"rejected_slo\""),
        "the golden must keep exercising rejected SLO-breach evaluations"
    );
    assert_eq!(
        json,
        fixture("serve_slo_budget.json").trim_end(),
        "SLO-breach ServeReport JSON diverged from its golden fixture"
    );
}

#[test]
fn fifo_overload_latencies_across_2_pow_40_ns_match_their_golden_fixture() {
    // `s2m3 serve --policy fifo --rate 0.7 --requests 6000` (kept in
    // sync with `capture_fixtures`): nothing is shed, so latencies grow
    // past 2^40 ns (≈ 1,099.5 s). Exact mode summarizes samples on both
    // sides of that line, and the bytes must not depend on which side.
    use s2m3::serve::AdmissionPolicy;
    use s2m3::sim::workload::ArrivalProcess;
    let scenario = ServeScenario {
        requests: 6_000,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 0.7 },
        admission: AdmissionPolicy::Fifo,
        ..ServeScenario::churn_default()
    };
    let report = serve(&scenario).unwrap();
    let line_s = (1u64 << 40) as f64 / 1e9;
    assert_eq!(report.completed, 6_000);
    assert!(report.latency.p50_s < line_s && report.latency.max_s > line_s);
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(
        json,
        fixture("serve_fifo_overload.json").trim_end(),
        "FIFO-overload ServeReport JSON diverged from its golden fixture"
    );
}

#[test]
fn rejected_slo_runs_count_the_evaluations_once_logged_one_by_one() {
    // Before the report kept runs, this scenario's golden logged 58
    // replan records: the two fleet-event records below, then 56
    // rejected SLO-breach evaluations from t = 4210.400216426 s to
    // t = 5006.8057272 s, each with a break-even of 8 requests.
    use s2m3::serve::{ReplanRecord, ReplanTrigger};
    let report = serve(&slo_budget_scenario()).unwrap();
    let runs = &report.rejected_slo;
    assert!(!runs.is_empty());
    assert_eq!(runs.iter().map(|r| r.evaluations()).sum::<u64>(), 56);
    assert_eq!(runs[0].first_at_s, 4210.400216426);
    assert_eq!(runs[runs.len() - 1].last_at_s, 5006.8057272);
    assert!(
        runs.iter().all(|r| r.break_even_requests == Some(8)),
        "{runs:#?}"
    );
    let record =
        |at_s: f64, trigger: &str, mandatory: bool, break_even: u64, rate: f64| ReplanRecord {
            at_s,
            trigger: ReplanTrigger::from(trigger),
            mandatory,
            break_even_requests: Some(break_even),
            observed_rate_per_s: rate,
            accepted: mandatory,
            switching_cost_s: if mandatory { 2.144 } else { 0.0 },
            migrations: usize::from(mandatory),
        };
    assert_eq!(
        report.replans,
        [
            record(1800.0, "desktop leaves", true, 0, 1.0222222222222221),
            record(4200.0, "server joins", false, 8, 1.0085714285714287),
        ]
    );
}

#[test]
fn chunked_serve_session_matches_the_golden_fixture() {
    // The resumable-kernel guarantee against the pinned bytes: running
    // the default churn scenario in 2 500 s virtual-time slices (pause,
    // resume, repeat) reproduces the golden fixture exactly.
    let mut session = s2m3::serve::ServeSession::new(&ServeScenario::churn_default()).unwrap();
    let mut until_s = 0.0;
    while !session.is_idle() {
        until_s += 2_500.0;
        session.run_until(until_s).unwrap();
    }
    let json = serde_json::to_string_pretty(&session.finish()).unwrap();
    assert_eq!(
        json,
        fixture("serve_churn_default.json").trim_end(),
        "chunked session diverged from the uninterrupted fixture"
    );
}

#[test]
fn sweep_report_matches_its_golden_fixture() {
    // The quick grid over a 100-request churn base at 2 threads (kept
    // in sync with `capture_fixtures`): 4 seeds x 3 rate scales x every
    // fleet size, folded into bands, cell scalars and both frontiers.
    let base = ServeScenario {
        requests: 100,
        ..ServeScenario::churn_default()
    };
    let spec = SweepSpec {
        threads: 2,
        ..SweepSpec::quick(base)
    };
    let json = serde_json::to_string_pretty(&run_sweep(&spec).unwrap()).unwrap();
    assert_eq!(
        json,
        fixture("sweep_quick_100.json").trim_end(),
        "SweepReport JSON diverged from its golden fixture"
    );
}

#[test]
fn resolved_objective_matches_string_objective_across_the_zoo() {
    use s2m3::core::objective::total_latency;
    use s2m3::core::routing::route_request;

    for (name, candidates) in [
        ("CLIP ViT-B/16", 101),
        ("CLIP ResNet-50", 10),
        ("Encoder-only VQA (Small)", 1),
        ("AlignBind-B", 16),
        ("CLIP-Classifier Food-101", 0),
        ("Flint-v0.5-1B", 1),
    ] {
        let i = Instance::single_model(name, candidates).unwrap();
        let r = ResolvedInstance::new(&i).unwrap();
        let p = greedy_place(&i).unwrap();
        let q = i.request(0, name).unwrap();
        let route = route_request(&i, &p, &q).unwrap();
        let via_string = total_latency(&i, &route, &q).unwrap();
        let resolved_route = r.resolve_route(&route);
        let via_index =
            r.total_latency(0, &q.profile, r.requester(), |m| resolved_route[m as usize]);
        assert_eq!(
            via_string.to_bits(),
            via_index.to_bits(),
            "{name}: index path diverged from string path"
        );
    }
}

/// Strategy: a multi-model deployment over one of the two testbeds,
/// small enough that every subset is placeable.
fn arb_instance() -> impl Strategy<Value = Instance> {
    let models = proptest::sample::subsequence(
        vec![
            ("CLIP ViT-B/16", 101usize),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 16),
            ("CLIP-Classifier Food-101", 0),
            ("Flint-v0.5-1B", 1),
        ],
        1..=5,
    );
    let edge = prop_oneof![Just(true), Just(false)];
    (models, edge).prop_map(|(models, edge)| {
        let fleet = if edge {
            Fleet::edge_testbed()
        } else {
            Fleet::standard_testbed()
        };
        Instance::on_fleet(fleet, &models).expect("zoo models deploy")
    })
}

proptest! {
    /// Interning round-trips every device and module id: name → index →
    /// name is the identity, indices are dense, and module index order
    /// is module id order.
    #[test]
    fn interning_round_trips_all_ids(instance in arb_instance()) {
        let r = ResolvedInstance::new(&instance).unwrap();
        prop_assert_eq!(r.device_count(), instance.fleet().len());
        prop_assert_eq!(r.module_count(), instance.distinct_modules().len());
        for d in instance.fleet().devices() {
            let di = r.device_index(&d.id).expect("fleet device interns");
            prop_assert_eq!(r.device_name(di), &d.id);
        }
        for m in instance.distinct_modules() {
            let mi = r.module_index(&m.id).expect("distinct module interns");
            prop_assert_eq!(r.module_name(mi), &m.id);
        }
        for w in 1..r.module_count() {
            prop_assert!(r.module_name(w as u32 - 1) < r.module_name(w as u32));
        }
        // Ranks are a permutation consistent with name order.
        for a in 0..r.device_count() as u32 {
            for b in 0..r.device_count() as u32 {
                prop_assert_eq!(
                    r.device_rank(a) < r.device_rank(b),
                    r.device_name(a) < r.device_name(b)
                );
            }
        }
    }
}
