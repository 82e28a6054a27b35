//! Multi-task smart home: the paper's Table X scenario.
//!
//! Four tasks — image-text retrieval, encoder-only VQA, tri-modal
//! alignment, and image classification — arrive simultaneously at a home
//! edge fleet. Module sharing deploys each common module once (the ViT
//! vision tower serves all four tasks), trading a little queuing latency
//! for a 61.5% memory saving.
//!
//! ```sh
//! cargo run --release -p s2m3 --example multi_task_home
//! ```

use std::collections::BTreeMap;

use s2m3::core::sharing::SharingReport;
use s2m3::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instance = Instance::on_fleet(
        Fleet::edge_testbed(),
        &[
            ("CLIP ViT-B/16", 101),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 16),
            ("CLIP-Classifier Food-101", 0),
        ],
    )?;

    // Memory accounting: shared vs dedicated deployment (Sec. IV-B).
    let report = SharingReport::for_instance(&instance);
    println!("task progression (cumulative parameters):");
    for row in &report.rows {
        println!(
            "  {:28} shared {:>4}M   dedicated {:>4}M",
            row.model,
            row.cumulative_shared_params / 1_000_000,
            row.cumulative_dedicated_params / 1_000_000
        );
    }
    println!(
        "sharing saves {:.1}% of deployment memory\n",
        report.savings_percent()
    );

    // One simultaneous request per task; greedy placement shares modules.
    let requests: Vec<_> = instance
        .deployments()
        .iter()
        .enumerate()
        .map(|(k, d)| instance.request(k as u64, &d.model.name))
        .collect::<Result<_, _>>()?;
    let plan = Plan::greedy(&instance, requests)?;

    println!("shared placement:");
    for (module, device) in plan.placement.iter() {
        println!("  {module} -> {device}");
    }

    // Virtual-time burst: watch the queuing on shared modules (Table X).
    let sim = simulate(&instance, &plan, &SimConfig::default())?;
    println!("\nsimulated burst (all four tasks at t=0):");
    for (id, timing) in &sim.requests {
        let model = &plan.routed[*id as usize].0.model;
        println!("  request {id} ({model}): {:.2} s", timing.latency());
    }
    println!("  makespan {:.2} s", sim.makespan);

    // And execute the burst for real on the distributed runtime.
    let inputs: BTreeMap<u64, RequestInput> = plan
        .routed
        .iter()
        .map(|(q, _)| {
            let model = &instance.deployment(&q.model).expect("deployed").model;
            let candidates = q.profile.text_units as usize;
            (
                q.id,
                RequestInput::synthetic(model, &format!("home-{}", q.id), candidates.max(1)),
            )
        })
        .collect();
    let runtime = Runtime::start(&instance, &plan)?;
    let outputs = runtime.execute_plan(&plan, &inputs)?;
    println!(
        "\ndistributed runtime completed {} requests ✓",
        outputs.len()
    );
    Ok(())
}
