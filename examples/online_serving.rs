//! Online serving walkthrough: the `s2m3-serve` control plane driving a
//! weighted multi-source, multi-model request mix through admission
//! control, module-level batching, rolling SLO windows, and live
//! adaptive replanning while the fleet churns — the production-shaped
//! version of Sec. VI-C's adaptive-reallocation sketch.
//!
//! ```sh
//! cargo run --release -p s2m3 --example online_serving
//! ```

use s2m3::core::problem::DeadlineClass;
use s2m3::models::module::ModuleKind;
use s2m3::prelude::*;
use s2m3::serve::{
    BatchPolicy, ClassShare, FleetEvent, FleetEventKind, KindBatchCap, ModelDeployment, ModelMix,
    ModelWeight, ReplanPolicy, TrafficSource,
};
use s2m3::sim::workload::ArrivalProcess;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Two models, three traffic sources, one workload layer. --------
    //
    // A retrieval service (CLIP) and a lightweight classifier share the
    // fleet. Traffic comes from three devices, each with its own arrival
    // process, budget share, and model mix — the `WorkloadSpec` surface
    // that the offline simulator materializes from too.
    let mut scenario = ServeScenario::churn_default();
    scenario.requests = 2_000;
    scenario.seed = "example/online-serving".to_string();
    scenario.models = vec![
        ModelDeployment {
            name: "CLIP ViT-B/16".to_string(),
            candidates: 101,
        },
        ModelDeployment {
            name: "CLIP-Classifier Food-101".to_string(),
            candidates: 0,
        },
    ];
    scenario.sources = vec![
        // The requester Jetson: bursty interactive retrieval, 60% of
        // the budget, weighted 3:1 toward CLIP.
        TrafficSource {
            device: "jetson-a".to_string(),
            arrivals: ArrivalProcess::Mmpp {
                rates_per_s: vec![0.05, 0.5],
                mean_dwell_s: 120.0,
            },
            weight: Some(3.0),
            mix: Some(ModelMix::Weighted {
                weights: vec![
                    ModelWeight {
                        model: "CLIP ViT-B/16".to_string(),
                        weight: 3.0,
                    },
                    ModelWeight {
                        model: "CLIP-Classifier Food-101".to_string(),
                        weight: 1.0,
                    },
                ],
            }),
        },
        // The laptop: steady classifier-only telemetry.
        TrafficSource {
            device: "laptop".to_string(),
            arrivals: ArrivalProcess::Uniform { interval_s: 8.0 },
            weight: Some(1.0),
            mix: Some(ModelMix::Trace {
                models: vec!["CLIP-Classifier Food-101".to_string()],
            }),
        },
        // The desktop: a diurnal mixed feed on the scenario-wide mix.
        TrafficSource {
            device: "desktop".to_string(),
            arrivals: ArrivalProcess::Diurnal {
                base_rate_per_s: 0.02,
                peak_rate_per_s: 0.3,
                period_s: 1_500.0,
            },
            weight: Some(1.0),
            mix: None,
        },
    ];
    // Scenario-wide mix for sources without their own (the desktop).
    scenario.mix = Some(ModelMix::Weighted {
        weights: vec![
            ModelWeight {
                model: "CLIP ViT-B/16".to_string(),
                weight: 1.0,
            },
            ModelWeight {
                model: "CLIP-Classifier Food-101".to_string(),
                weight: 1.0,
            },
        ],
    });
    // Deadline classes: a quarter of the stream is interactive (tight
    // SLO, EDF priority); the rest tolerates queuing.
    scenario.classes = vec![
        ClassShare {
            class: DeadlineClass {
                name: "interactive".to_string(),
                deadline_s: 12.0,
                priority: 10,
            },
            weight: 1.0,
        },
        ClassShare {
            class: DeadlineClass {
                name: "standard".to_string(),
                deadline_s: 45.0,
                priority: 0,
            },
            weight: 3.0,
        },
    ];
    scenario.deadline_s = 30.0;
    scenario.admission = AdmissionPolicy::EarliestDeadlineFirst;
    // Module-level batching: storm phases pile same-module work onto the
    // shared encoders; merging up to 6 text encodings (but never
    // batching generative heads) pays the per-execution overhead once.
    scenario.batch = Some(BatchPolicy {
        max_batch: 6,
        per_kind: vec![KindBatchCap {
            kind: ModuleKind::LanguageModel,
            max_batch: 1,
        }],
    });
    scenario.replan = ReplanPolicy {
        horizon_s: 900.0,
        charge_switching_downtime: true,
        ..ReplanPolicy::default()
    };
    // Fleet churn: the desktop (vision host, and a traffic source — it
    // may emit but not leave) thermally throttles to quarter speed
    // mid-run; later the GPU server appears one MAN hop away.
    scenario.events = vec![
        FleetEvent {
            at_s: 2_000.0,
            kind: FleetEventKind::DeviceSlowdown {
                device: "desktop".to_string(),
                factor: 0.25,
            },
        },
        FleetEvent {
            at_s: 3_000.0,
            kind: FleetEventKind::DeviceJoin {
                device: "server".to_string(),
            },
        },
    ];

    // --- 2. Serve the whole stream. ---------------------------------------
    let report = serve(&scenario)?;
    println!("{}", report.render_summary());

    // --- 3. Watch the SLO windows react to storms and churn. --------------
    //
    // Each snapshot summarizes the last `slo_window` completions; storm
    // phases push the rolling p95 up, the batched encoders absorb part
    // of it, and the server join (once accepted) pulls it back down.
    println!(
        "rolling p95 trajectory (one row per {} completions):",
        scenario.snapshot_every
    );
    for w in &report.windows {
        let bar_len = (w.p95_s * 4.0).round() as usize;
        println!(
            "  t={:>7.0}s  p95 {:>6.2}s  miss {:>4.1}%  {}",
            w.at_s,
            w.p95_s,
            100.0 * w.miss_rate,
            "#".repeat(bar_len.min(60))
        );
    }

    // --- 4. The control decisions the plane made. -------------------------
    for r in &report.replans {
        println!(
            "replan after `{}`: {} (break-even {:?} requests at {:.2} req/s observed)",
            r.trigger,
            if r.accepted { "accepted" } else { "rejected" },
            r.break_even_requests,
            r.observed_rate_per_s,
        );
    }
    for r in &report.rejected_slo {
        println!(
            "SLO-breach replans rejected from t={:.0}s to t={:.0}s: {} over budget, \
             {} below break-even (break-even {:?} requests)",
            r.first_at_s, r.last_at_s, r.over_budget, r.below_break_even, r.break_even_requests,
        );
    }

    // Every arrival is accounted for: completed or (visibly) shed.
    assert_eq!(report.completed + report.shed, report.arrived);
    Ok(())
}
