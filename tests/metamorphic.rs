//! Metamorphic laws: relations between two runs that must hold where no
//! single run has a known answer.
//!
//! A fleet is a set of devices. Listing the same devices in another
//! order must not move greedy's latency (Algorithm 1's placement and
//! routing, priced by Eq. 1) or Upper's optimum by a single bit.

use s2m3::core::objective::total_latency;
use s2m3::core::plan::Plan;
use s2m3::core::problem::Instance;
use s2m3::core::upper::optimal_placement;
use s2m3::net::fleet::Fleet;

/// The §VI-A models, each with the candidate count of one of its
/// benchmarks (Food-101, VQA, COCO, As-A).
const MODELS: [(&str, usize); 7] = [
    ("CLIP ViT-B/16", 101),
    ("CLIP ViT-L/14@336", 101),
    ("Flint-v0.5-1B", 1),
    ("LLaVA-v1.5-7B", 1),
    ("Encoder-only VQA (Small)", 1),
    ("Encoder-only VQA (Large)", 1),
    ("AlignBind-B", 16),
];

/// Every non-trivial rotation of `fleet`'s device list, then its
/// reversal, each labelled.
fn reorderings(fleet: &Fleet) -> Vec<(String, Fleet)> {
    let n = fleet.devices().len();
    let mut orders: Vec<(String, Vec<usize>)> = (1..n)
        .map(|k| {
            (
                format!("rotated by {k}"),
                (0..n).map(|i| (i + k) % n).collect(),
            )
        })
        .collect();
    orders.push(("reversed".to_string(), (0..n).rev().collect()));
    orders
        .into_iter()
        .map(|(label, order)| {
            let devices = order.iter().map(|&i| fleet.devices()[i].clone()).collect();
            let reordered =
                Fleet::new(devices, fleet.topology().clone(), fleet.requester().clone())
                    .expect("the same devices form a valid fleet");
            (label, reordered)
        })
        .collect()
}

/// Greedy's and Upper's latency for one model on one fleet.
fn latencies(fleet: &Fleet, model: &str, candidates: usize) -> (f64, f64) {
    let instance = Instance::on_fleet(fleet.clone(), &[(model, candidates)]).unwrap();
    let request = instance.request(0, model).unwrap();
    let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();
    let greedy = total_latency(&instance, &plan.routed[0].1, &request).unwrap();
    let upper = optimal_placement(&instance).unwrap().latency;
    (greedy, upper)
}

#[test]
fn greedy_and_upper_latency_ignore_device_order() {
    let mut checks = 0;
    let mut broken = Vec::new();
    for (testbed, fleet) in [
        ("standard", Fleet::standard_testbed()),
        ("edge", Fleet::edge_testbed()),
    ] {
        for (model, candidates) in MODELS {
            let (greedy, upper) = latencies(&fleet, model, candidates);
            for (label, reordered) in reorderings(&fleet) {
                let (g, u) = latencies(&reordered, model, candidates);
                checks += 1;
                if g.to_bits() != greedy.to_bits() || u.to_bits() != upper.to_bits() {
                    broken.push(format!(
                        "{model} on the {testbed} testbed {label}: greedy {greedy} -> {g}, Upper {upper} -> {u}"
                    ));
                }
            }
        }
    }
    // 7 models x (4 rotations + reversal of 5 devices, 3 + 1 of 4).
    assert_eq!(checks, 63);
    assert!(
        broken.is_empty(),
        "device order moved a latency:\n{}",
        broken.join("\n")
    );
}
