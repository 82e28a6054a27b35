//! Cross-crate integration: full pipelines from zoo to distributed
//! execution, spanning every layer of the workspace.

use std::collections::BTreeMap;

use s2m3::prelude::*;
use s2m3::tensor::ops;

/// Every model family flows through: zoo → placement → routing →
/// simulation → distributed runtime → bit-identical reference output.
#[test]
fn every_task_family_runs_end_to_end() {
    for (name, candidates) in [
        ("CLIP ViT-B/16", 16),
        ("Encoder-only VQA (Small)", 1),
        ("Flint-v0.5-1B", 1),
        ("AlignBind-B", 8),
        ("CLIP-Classifier Food-101", 0),
        ("NLP Connect ViT-GPT2", 0),
    ] {
        let instance = Instance::single_model(name, candidates).unwrap();
        let request = instance.request(0, name).unwrap();
        let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();

        // Virtual time agrees with the analytic objective.
        let sim = simulate(&instance, &plan, &SimConfig::default()).unwrap();
        let analytic =
            s2m3::core::objective::total_latency(&instance, &plan.routed[0].1, &request).unwrap();
        let simulated = sim.request_latency(0).unwrap();
        assert!(
            (simulated - analytic).abs() < 0.05,
            "{name}: sim {simulated:.3} vs analytic {analytic:.3}"
        );

        // Real execution equals centralized reference bit-for-bit.
        let model = instance.deployment(name).unwrap().model.clone();
        let input = RequestInput::synthetic(&model, "e2e", candidates.max(1));
        let runtime = Runtime::start(&instance, &plan).unwrap();
        let out = runtime.infer(&request, &plan.routed[0].1, &input).unwrap();
        let reference = reference::run_model(&model, &input).unwrap();
        assert_eq!(out, reference, "{name}: split changed the output");
    }
}

/// The full multi-task deployment executes as one burst and the shared
/// vision tower produces consistent embeddings for all tasks.
#[test]
fn multi_task_shared_runtime_burst() {
    let instance = Instance::on_fleet(
        Fleet::edge_testbed(),
        &[
            ("CLIP ViT-B/16", 12),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 8),
            ("CLIP-Classifier Food-101", 0),
        ],
    )
    .unwrap();
    let requests: Vec<_> = instance
        .deployments()
        .iter()
        .enumerate()
        .map(|(k, d)| instance.request(k as u64, &d.model.name).unwrap())
        .collect();
    let plan = Plan::greedy(&instance, requests).unwrap();

    let inputs: BTreeMap<u64, RequestInput> = plan
        .routed
        .iter()
        .map(|(q, _)| {
            let model = &instance.deployment(&q.model).unwrap().model;
            (q.id, RequestInput::synthetic(model, "burst", 12))
        })
        .collect();
    let runtime = Runtime::start(&instance, &plan).unwrap();
    let outputs = runtime.execute_plan(&plan, &inputs).unwrap();
    assert_eq!(outputs.len(), 4);
    for (id, out) in &outputs {
        let model = &instance
            .deployment(&plan.routed[*id as usize].0.model)
            .unwrap()
            .model;
        let reference = reference::run_model(model, &inputs[id]).unwrap();
        assert_eq!(out, &reference, "request {id} diverged");
    }
}

/// Zero-shot evaluation through the *distributed* pipeline matches the
/// centralized accuracy exactly — Table VIII's claim, measured.
#[test]
fn distributed_accuracy_equals_centralized_accuracy() {
    let n = 30;
    let bench = Benchmark::cifar10();
    let dataset = Dataset::generate(&bench, n);
    let zoo = Zoo::standard();
    let model = zoo.model("CLIP ViT-B/16").unwrap();

    // Centralized accuracy via the evaluation harness.
    let central = evaluate(model, &dataset).unwrap();

    // Distributed accuracy via the runtime.
    let instance = Instance::single_model("CLIP ViT-B/16", bench.n_classes).unwrap();
    let request = instance.request(0, "CLIP ViT-B/16").unwrap();
    let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();
    let runtime = Runtime::start(&instance, &plan).unwrap();
    let mut correct = 0;
    for sample in &dataset.samples {
        let input = RequestInput {
            modalities: sample.modalities.clone(),
            query: sample.query.clone(),
        };
        let logits = runtime.infer(&request, &plan.routed[0].1, &input).unwrap();
        if ops::argmax_rows(&logits).unwrap()[0] == sample.label {
            correct += 1;
        }
    }
    assert_eq!(correct, central.correct, "accuracy changed under splitting");
}

/// Plans survive a serde round-trip and replay identically in the
/// simulator (operational state is exportable/re-loadable).
#[test]
fn plans_serialize_and_replay() {
    let instance = Instance::single_model("CLIP ViT-B/16", 32).unwrap();
    let requests: Vec<_> = (0..3)
        .map(|k| instance.request(k, "CLIP ViT-B/16").unwrap())
        .collect();
    let plan = Plan::greedy(&instance, requests).unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let restored: Plan = serde_json::from_str(&json).unwrap();
    let a = simulate(&instance, &plan, &SimConfig::default()).unwrap();
    let b = simulate(&instance, &restored, &SimConfig::default()).unwrap();
    assert_eq!(a, b);
}
