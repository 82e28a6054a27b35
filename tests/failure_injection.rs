//! Failure injection: device loss, memory exhaustion, malformed routes,
//! and replanning (the Sec. VI-C "dynamic network conditions" discussion).

use s2m3::core::placement::{greedy_place_with, PlacementOptions};
use s2m3::core::upper::optimal_placement;
use s2m3::core::CoreError;
use s2m3::prelude::*;

/// A device disappears: replanning on the reduced fleet still serves the
/// model (the paper's reallocation-with-switching-cost story).
#[test]
fn device_loss_replanning() {
    let instance = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
    let request = instance.request(0, "CLIP ViT-B/16").unwrap();
    let before = Plan::greedy(&instance, vec![request.clone()]).unwrap();
    let t_before =
        s2m3::core::objective::total_latency(&instance, &before.routed[0].1, &request).unwrap();

    // The laptop (hosting the text encoder) goes away.
    let degraded = instance
        .with_fleet(instance.fleet().without(&["laptop"]))
        .unwrap();
    let request2 = degraded.request(1, "CLIP ViT-B/16").unwrap();
    let after = Plan::greedy(&degraded, vec![request2.clone()]).unwrap();
    let t_after =
        s2m3::core::objective::total_latency(&degraded, &after.routed[0].1, &request2).unwrap();

    // Still serves, at degraded but bounded latency.
    assert!(t_after >= t_before);
    assert!(
        t_after < 20.0 * t_before,
        "replanned latency exploded: {t_after:.2}"
    );
    // Placement no longer references the lost device.
    for (_, d) in after.placement.iter() {
        assert_ne!(d.as_str(), "laptop");
    }
}

/// Losing every capable device makes large models infeasible with a
/// typed, actionable error (pointing at compression/partitioning).
#[test]
fn fleet_exhaustion_is_typed_infeasible() {
    let fleet = Fleet::standard_testbed()
        .restricted_to(&["jetson-a"])
        .unwrap();
    let instance = Instance::on_fleet(fleet, &[("LLaVA-v1.5-13B", 1)]).unwrap();
    match Plan::greedy(&instance, vec![]) {
        Err(CoreError::Infeasible {
            module,
            required_bytes,
            best_remaining_bytes,
        }) => {
            assert!(required_bytes > best_remaining_bytes);
            assert!(!module.as_str().is_empty());
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

/// The runtime surfaces a module routed to a device that does not host
/// it, and a retry of the same request along the right route is served
/// exactly: the failed attempt leaves nothing behind under its id.
#[test]
fn runtime_survives_bad_route_then_serves() {
    let instance = Instance::single_model("CLIP ViT-B/16", 8).unwrap();
    let request = instance.request(0, "CLIP ViT-B/16").unwrap();
    let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();
    let model = instance.deployment("CLIP ViT-B/16").unwrap().model.clone();
    let input = RequestInput::synthetic(&model, "inject", 8);

    let runtime = Runtime::start(&instance, &plan).unwrap();

    // Corrupt the route: send the text encoder to a Jetson that only
    // hosts the head (or nothing).
    let mut bad = plan.routed[0].1.clone();
    let wrong = if plan
        .placement
        .is_placed(&"text/CLIP-B-16".into(), &"jetson-a".into())
    {
        "jetson-b"
    } else {
        "jetson-a"
    };
    bad.assign("text/CLIP-B-16".into(), wrong.into());
    let err = runtime.infer(&request, &bad, &input).unwrap_err();
    assert!(format!("{err}").contains("not hosted"), "got: {err}");

    // The same runtime serves the same request id correctly.
    let ok = runtime.infer(&request, &plan.routed[0].1, &input).unwrap();
    assert_eq!(ok, reference::run_model(&model, &input).unwrap());
}

/// Validation rejects a placement that silently exceeded memory after a
/// manual edit (defense against corrupted plans).
#[test]
fn corrupted_placement_rejected_by_validation() {
    let instance = Instance::single_model("ImageBind", 16).unwrap();
    let request = instance.request(0, "ImageBind").unwrap();
    let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();

    // Cram the ViT-H tower onto a Jetson behind validation's back.
    let mut corrupted = plan.placement.clone();
    corrupted.place("vision/OpenCLIP-ViT-H-14".into(), "jetson-a".into());
    // Re-validating catches it — either over capacity or mis-hosted.
    let result = s2m3::core::objective::validate(
        &instance,
        &corrupted,
        &[(request, plan.routed[0].1.clone())],
    );
    assert!(matches!(result, Err(CoreError::OverCapacity { .. })));
}

/// Replication keeps the system serving when the primary host of a
/// module is lost mid-deployment: the route falls back to the replica.
#[test]
fn replicas_provide_failover_routes() {
    let instance = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
    let placement = greedy_place_with(&instance, PlacementOptions { replicate: true }).unwrap();
    let vision: s2m3::models::module::ModuleId = "vision/ViT-B-16".into();
    let hosts: Vec<_> = placement.hosts(&vision).cloned().collect();
    assert!(
        hosts.len() >= 2,
        "replication should duplicate the vision tower"
    );

    // Remove the fastest host from the fleet; routing must pick a replica.
    let request = instance.request(0, "CLIP ViT-B/16").unwrap();
    let primary = s2m3::core::routing::route_request(&instance, &placement, &request)
        .unwrap()
        .device_for(&vision)
        .unwrap()
        .clone();
    let degraded = instance
        .with_fleet(instance.fleet().without(&[primary.as_str()]))
        .unwrap();
    // Rebuild a placement view without the lost device.
    let mut surviving = s2m3::core::problem::Placement::new();
    for (m, d) in placement.iter() {
        if d != &primary {
            surviving.place(m.clone(), d.clone());
        }
    }
    let request2 = degraded.request(1, "CLIP ViT-B/16").unwrap();
    let rerouted = s2m3::core::routing::route_request(&degraded, &surviving, &request2).unwrap();
    let fallback = rerouted.device_for(&vision).unwrap();
    assert_ne!(fallback, &primary);
    assert!(hosts.contains(fallback));
}

/// Brute-force Upper reports infeasibility identically to greedy — the
/// two never disagree on feasibility.
#[test]
fn greedy_and_upper_agree_on_feasibility() {
    for names in [vec!["jetson-a"], vec!["jetson-a", "jetson-b"]] {
        let fleet = Fleet::standard_testbed().restricted_to(&names).unwrap();
        let instance = Instance::on_fleet(fleet, &[("ImageBind", 16)]).unwrap();
        let greedy_feasible = Plan::greedy(&instance, vec![]).is_ok();
        let upper_feasible = optimal_placement(&instance).is_ok();
        assert_eq!(greedy_feasible, upper_feasible, "fleet {names:?}");
    }
}
