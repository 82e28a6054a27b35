//! Metamorphic laws: relations between two runs that must hold where no
//! single run has a known answer.
//!
//! A fleet is a set of devices. Listing the same devices in another
//! order must not move greedy's latency (Algorithm 1's placement and
//! routing, priced by Eq. 1) or Upper's optimum by a single bit. Adding
//! a device only adds placements, so Upper's optimum can only improve.
//! Shrinking every device's memory to exactly what Upper's optimum puts
//! there only removes placements, the optimum not among them, so the
//! optimum stays.

use std::collections::BTreeMap;

use s2m3::core::objective::total_latency;
use s2m3::core::plan::Plan;
use s2m3::core::problem::Instance;
use s2m3::core::resolved::ResolvedInstance;
use s2m3::core::upper::optimal_placement;
use s2m3::net::device::DeviceSpec;
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

/// Upper's latency for one model on one fleet; `None` when no placement
/// fits.
fn upper(fleet: Fleet, model: &str, candidates: usize) -> Option<f64> {
    let instance = Instance::on_fleet(fleet, &[(model, candidates)]).unwrap();
    optimal_placement(&instance).ok().map(|r| r.latency)
}

#[test]
fn upper_never_gets_worse_when_a_device_joins() {
    let full = Fleet::standard_testbed();
    let requester = full.requester().as_str();
    let others: Vec<&str> = full
        .devices()
        .iter()
        .map(|d| d.id.as_str())
        .filter(|n| *n != requester)
        .collect();
    let (mut compared, mut infeasible) = (0, 0);
    let mut broken = Vec::new();
    // Every subset of the testbed that holds the requester, grown by
    // each device it lacks.
    for mask in 0..1u32 << others.len() {
        let (held, absent): (Vec<_>, Vec<_>) = (0..others.len()).partition(|i| mask >> i & 1 == 1);
        let mut fleet: Vec<&str> = held.iter().map(|&i| others[i]).collect();
        fleet.push(requester);
        for joiner in absent.iter().map(|&i| others[i]) {
            let grown = [fleet.as_slice(), &[joiner]].concat();
            for (model, candidates) in MODELS {
                let small = full.restricted_to(&fleet).unwrap();
                let Some(before) = upper(small, model, candidates) else {
                    infeasible += 1;
                    continue;
                };
                compared += 1;
                match upper(full.restricted_to(&grown).unwrap(), model, candidates) {
                    Some(after) if after <= before => {}
                    after => broken.push(format!(
                        "{model} on {fleet:?} + {joiner}: Upper {before} -> {after:?}"
                    )),
                }
            }
        }
    }
    // 7 models x 32 (subset, joiner) pairs; a smaller fleet that fits
    // no placement has nothing to compare.
    assert_eq!((compared, infeasible), (187, 37));
    assert!(
        broken.is_empty(),
        "a joining device made Upper worse:\n{}",
        broken.join("\n")
    );
}

#[test]
fn upper_keeps_its_optimum_when_memory_shrinks_to_fit_it() {
    let mut checks = 0;
    let mut broken = Vec::new();
    for (testbed, fleet) in [
        ("standard", Fleet::standard_testbed()),
        ("edge", Fleet::edge_testbed()),
    ] {
        for (model, candidates) in MODELS {
            let instance = Instance::on_fleet(fleet.clone(), &[(model, candidates)]).unwrap();
            let best = optimal_placement(&instance).unwrap();
            let resolved = ResolvedInstance::new(&instance).unwrap();
            // The bytes the optimum places on each device; a device that
            // hosts nothing gets 0.
            let mut used: BTreeMap<&str, u64> = BTreeMap::new();
            for (module, device) in best.placement.iter() {
                let m = resolved.module_index(module).unwrap();
                *used.entry(device.as_str()).or_default() += resolved.module_spec(m).memory_bytes();
            }
            let devices = fleet
                .devices()
                .iter()
                .map(|d| DeviceSpec {
                    memory_bytes: used.get(d.id.as_str()).copied().unwrap_or(0),
                    ..d.clone()
                })
                .collect();
            let tight = Fleet::new(devices, fleet.topology().clone(), fleet.requester().clone())
                .expect("the same devices form a valid fleet");
            checks += 1;
            match upper(tight, model, candidates) {
                Some(u) if u.to_bits() == best.latency.to_bits() => {}
                u => broken.push(format!(
                    "{model} on the {testbed} testbed: Upper {} -> {u:?}",
                    best.latency
                )),
            }
        }
    }
    // 7 models x 2 testbeds.
    assert_eq!(checks, 14);
    assert!(
        broken.is_empty(),
        "memory at the optimum's boundary moved Upper:\n{}",
        broken.join("\n")
    );
}
