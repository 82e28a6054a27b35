//! VQA assistant: decoder-only VQA (LLaVA-style) on the edge, the
//! paper's motivating smartphone-assistant workload.
//!
//! Runs a batch of visual questions through Flint-v0.5-1B (ViT-L/14@336
//! vision tower + TinyLlama generative head) split across the fleet, and
//! reports answer accuracy against the synthetic VQA-v2 benchmark plus
//! the latency advantage over shipping every request to the cloud.
//!
//! ```sh
//! cargo run --release -p s2m3 --example vqa_assistant
//! ```

use s2m3::baselines::centralized::centralized_latency;
use s2m3::data::table_viii;
use s2m3::prelude::*;
use s2m3::tensor::ops;

const MODEL: &str = "Flint-v0.5-1B";
const QUESTIONS: usize = 40;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deploy on the edge fleet.
    let instance = Instance::single_model(MODEL, 1)?;
    let request = instance.request(0, MODEL)?;
    let plan = Plan::greedy(&instance, vec![request.clone()])?;

    println!("placement:");
    for (m, d) in plan.placement.iter() {
        println!("  {m} -> {d}");
    }

    // Latency: edge split vs cloud round-trip.
    let edge = total_latency(&instance, &plan.routed[0].1, &request)?;
    let cloud_instance = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, 1)])?;
    let cloud = centralized_latency(&cloud_instance, MODEL, "server")?;
    println!("\nper-question latency: edge {edge:.2} s vs cloud {cloud:.2} s");

    // Answer a batch of benchmark questions on the real runtime.
    let bench = Benchmark::vqa_v2();
    let dataset = Dataset::generate(&bench, QUESTIONS);
    let runtime = Runtime::start(&instance, &plan)?;
    let mut correct = 0;
    for sample in &dataset.samples {
        let input = RequestInput {
            modalities: sample.modalities.clone(),
            query: sample.query.clone(),
        };
        let logits = runtime.infer(&request, &plan.routed[0].1, &input)?;
        if ops::argmax_rows(&logits)?[0] == sample.label {
            correct += 1;
        }
    }

    let acc = 100.0 * correct as f64 / QUESTIONS as f64;
    let paper = table_viii::rows()
        .into_iter()
        .find(|r| r.model == MODEL && r.benchmark == "vqa-v2")
        .map(|r| r.paper_s2m3)
        .unwrap_or_default();
    println!(
        "VQA-v2 answer accuracy: {acc:.1}% over {QUESTIONS} questions (paper S2M3: {paper:.1}%)"
    );
    println!("(distributed execution — every answer produced by modules on different devices)");
    Ok(())
}
