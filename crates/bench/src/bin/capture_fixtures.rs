//! Regenerates the golden fixtures under `tests/fixtures/` used by the
//! workspace equivalence tests (`tests/equivalence.rs`).
//!
//! The fixtures pin the exact JSON of `Plan`, `SimReport`,
//! `ServeReport` and `SweepReport` for canonical scenarios, so hot-path
//! refactors (like the interned-index `ResolvedInstance` layer) can
//! prove byte-identical behavior against the pre-refactor outputs. Run
//! from the repo root:
//!
//! ```text
//! cargo run --release -p s2m3-bench --bin capture_fixtures
//! ```
//!
//! Regenerating goldens only makes sense from a known-good tree, so the
//! binary refuses to run with uncommitted changes unless `--allow-dirty`
//! is passed (the escape hatch for capturing fixtures of an intentional
//! behavior change before committing it).

use std::fs;
use std::path::Path;
use std::process::Command;

use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_serve::{
    serve, AdmissionPolicy, BatchPolicy, BudgetPolicy, ServeScenario, SloReplanTrigger,
};
use s2m3_sim::engine::{simulate, SimConfig};
use s2m3_sim::workload::ArrivalProcess;
use s2m3_sweep::{run_sweep, SweepSpec};

/// The zoo models pinned by the equivalence fixtures.
pub const FIXTURE_MODELS: [(&str, usize); 3] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("Flint-v0.5-1B", 1),
];

fn plan_for(name: &str, candidates: usize, n_requests: usize) -> Plan {
    let i = Instance::single_model(name, candidates).expect("fixture model exists");
    let requests: Vec<_> = (0..n_requests)
        .map(|k| i.request(k as u64, name).expect("deployed model"))
        .collect();
    Plan::greedy(&i, requests).expect("fixture plan builds")
}

/// The sweep the sweep golden pins (kept in sync with
/// `tests/equivalence.rs`).
fn sweep_fixture_spec() -> SweepSpec {
    let base = ServeScenario {
        requests: 100,
        ..ServeScenario::churn_default()
    };
    SweepSpec {
        threads: 2,
        ..SweepSpec::quick(base)
    }
}

/// Fails loudly when the git tree has uncommitted changes: goldens
/// captured from a half-edited tree would silently pin the wrong
/// behavior. Unreachable git (no binary, not a repo) is a warning, not
/// a wall — fixture capture still works in exported source trees.
fn refuse_dirty_tree() {
    match Command::new("git").args(["status", "--porcelain"]).output() {
        Ok(out) if out.status.success() => {
            if !out.stdout.is_empty() {
                eprintln!(
                    "error: the git tree is dirty — fixtures must be captured from a \
                     committed state so the pinned bytes are reproducible.\n\
                     Commit (or stash) first, or pass --allow-dirty to capture an \
                     intentional in-progress behavior change:\n\n{}",
                    String::from_utf8_lossy(&out.stdout)
                );
                std::process::exit(1);
            }
        }
        _ => eprintln!("warning: cannot query git status; skipping the dirty-tree check"),
    }
}

fn main() {
    if !std::env::args().any(|a| a == "--allow-dirty") {
        refuse_dirty_tree();
    }
    let dir = Path::new("tests/fixtures");
    fs::create_dir_all(dir).expect("fixture dir");

    for (name, candidates) in FIXTURE_MODELS {
        let slug: String = name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let plan = plan_for(name, candidates, 2);
        let json = serde_json::to_string_pretty(&plan).expect("plan serializes");
        fs::write(dir.join(format!("plan_{slug}.json")), &json).expect("write plan fixture");

        let i = Instance::single_model(name, candidates).unwrap();
        let report = simulate(&i, &plan, &SimConfig::default()).expect("fixture sim runs");
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        fs::write(dir.join(format!("sim_{slug}.json")), &json).expect("write sim fixture");
    }

    let scenario = ServeScenario::churn_default();
    let report = serve(&scenario).expect("churn scenario serves");
    let json = serde_json::to_string_pretty(&report).expect("serve report serializes");
    fs::write(dir.join("serve_churn_default.json"), &json).expect("write serve fixture");

    // The batched-serve golden: the same churn scenario with module-level
    // batching on (global cap 4). Pinned separately from the unbatched
    // fixture so `batch: None` byte-identity and batched-dispatch
    // semantics are each guarded on their own.
    let batched_scenario = ServeScenario {
        batch: Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        }),
        ..ServeScenario::churn_default()
    };
    let report = serve(&batched_scenario).expect("batched churn scenario serves");
    let json = serde_json::to_string_pretty(&report).expect("serve report serializes");
    fs::write(dir.join("serve_churn_batched.json"), &json).expect("write batched serve fixture");

    // The SLO-breach golden: what `s2m3 serve --requests 5000 --rate 1.0
    // --slo-replan 5 --budget-cap 30 --budget-mode defer-shed` serves.
    // Overloaded and capped, it rejects SLO-breach replan evaluations
    // after the fleet-event ones, so their run is pinned.
    let mut slo_scenario = ServeScenario {
        requests: 5_000,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 1.0 },
        budget: Some(BudgetPolicy::device_seconds(30.0)),
        ..ServeScenario::churn_default()
    };
    slo_scenario.replan.slo_trigger = Some(SloReplanTrigger {
        cooldown_s: 5.0,
        ..SloReplanTrigger::default()
    });
    let report = serve(&slo_scenario).expect("SLO-budget scenario serves");
    let json = serde_json::to_string_pretty(&report).expect("serve report serializes");
    fs::write(dir.join("serve_slo_budget.json"), &json).expect("write SLO-budget serve fixture");

    // The FIFO-overload golden: what `s2m3 serve --policy fifo --rate
    // 0.7 --requests 6000` serves. Nothing is shed, so the queue grows
    // and the latencies straddle 2^40 ns (≈ 1,099.5 s): the median is
    // below it, the p95 and the maximum above.
    let fifo_scenario = ServeScenario {
        requests: 6_000,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 0.7 },
        admission: AdmissionPolicy::Fifo,
        ..ServeScenario::churn_default()
    };
    let report = serve(&fifo_scenario).expect("FIFO-overload scenario serves");
    let json = serde_json::to_string_pretty(&report).expect("serve report serializes");
    fs::write(dir.join("serve_fifo_overload.json"), &json)
        .expect("write FIFO-overload serve fixture");

    // The sweep golden: the quick grid over a 100-request churn base
    // at 2 threads (the report is the same at any thread count).
    let report = run_sweep(&sweep_fixture_spec()).expect("sweep fixture runs");
    let json = serde_json::to_string_pretty(&report).expect("sweep report serializes");
    fs::write(dir.join("sweep_quick_100.json"), &json).expect("write sweep fixture");

    println!("fixtures written to {}", dir.display());
}
