//! Quickstart: deploy one multi-modal model over the edge fleet, run a
//! real distributed inference, and compare against centralized execution.
//!
//! ```sh
//! cargo run --release -p s2m3 --example quickstart
//! ```

use s2m3::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The paper's edge testbed: desktop, laptop, two Jetson Nanos.
    //    Jetson A (Wi-Fi) originates requests.
    let instance = Instance::single_model("CLIP ViT-B/16", 101)?;
    println!("fleet:");
    for d in instance.fleet().devices() {
        println!("  {:10} — {}", d.id.as_str(), d.description);
    }

    // 2. Split-and-share: greedy module placement (Algorithm 1).
    let request = instance.request(0, "CLIP ViT-B/16")?;
    let plan = Plan::greedy(&instance, vec![request.clone()])?;
    println!("\nplacement (greedy, Eq. 5/6):");
    for (module, device) in plan.placement.iter() {
        println!("  {module} -> {device}");
    }

    // 3. Predicted latency from the analytic objective (Eqs. 1–3).
    let latency = total_latency(&instance, &plan.routed[0].1, &request)?;
    println!("\npredicted end-to-end latency: {latency:.2} s (paper: ~2.48 s)");

    // 4. Execute for real: each encoder on its routed device, then the
    //    head, every cross-device value through the wire format.
    let model = instance
        .deployment("CLIP ViT-B/16")
        .expect("model was deployed above")
        .model
        .clone();
    let input = RequestInput::synthetic(&model, "quickstart-image", 101);
    let runtime = Runtime::start(&instance, &plan)?;
    let distributed = runtime.infer(&request, &plan.routed[0].1, &input)?;

    // 5. The split changes *where* modules run, never *what* they compute:
    //    outputs are bit-identical to a single-process run.
    let central = reference::run_model(&model, &input)?;
    assert_eq!(distributed, central);
    println!("split output == centralized output (bit-identical) ✓");

    let best = s2m3::tensor::ops::argmax_rows(&distributed)?[0];
    println!("top-1 candidate prompt index: {best}");
    Ok(())
}
