//! Model-loading accounting (footnote 1 / Table VII end-to-end column).

use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::device::DeviceId;
use std::collections::BTreeMap;

/// Per-device loading time for a placement: each device streams its
/// placed modules' weights sequentially.
pub(crate) fn loading_times(instance: &Instance, plan: &Plan) -> BTreeMap<DeviceId, f64> {
    let specs: BTreeMap<_, _> = instance
        .distinct_modules()
        .into_iter()
        .map(|m| (m.id.clone(), m.clone()))
        .collect();
    let mut out: BTreeMap<DeviceId, f64> = BTreeMap::new();
    for (m, n) in plan.placement.iter() {
        let Some(spec) = specs.get(m) else { continue };
        let Some(dev) = instance.fleet().device(n.as_str()) else {
            continue;
        };
        *out.entry(n.clone()).or_default() += dev.load_time(spec);
    }
    out
}

/// The loading critical path: devices load in parallel, so end-to-end
/// serving readiness is the slowest device.
pub fn loading_critical_path(instance: &Instance, plan: &Plan) -> f64 {
    loading_times(instance, plan)
        .values()
        .copied()
        .fold(0.0, f64::max)
}

/// Loading time of a *centralized* deployment of one model on one device
/// (every module streams onto that device).
pub fn centralized_loading(instance: &Instance, model: &str, device: &str) -> Option<f64> {
    let d = instance.fleet().device(device)?;
    let dep = instance.deployment(model)?;
    // One fixed setup plus streaming of all weights (a monolithic
    // checkpoint loads once, not per module).
    let bytes: u64 = dep.model.modules().map(|m| m.weight_bytes()).sum();
    Some(d.load_fixed_s + (bytes as f64 / 1.0e6) / d.load_rate_mbps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Instance, Plan) {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let plan = Plan::greedy(&i, vec![q]).unwrap();
        (i, plan)
    }

    #[test]
    fn split_loading_beats_jetson_centralized() {
        // Table VII: S2M3's end-to-end overhead (~2.3 s) is far below the
        // Jetson's (~15 s): split loading parallelizes across devices and
        // avoids the slow device entirely.
        let (i, plan) = setup();
        let split = loading_critical_path(&i, &plan);
        let jetson = centralized_loading(&i, "CLIP ViT-B/16", "jetson-a").unwrap();
        assert!(split < 3.5, "split loading {split:.2}");
        assert!(jetson > 13.0, "jetson loading {jetson:.2}");
    }

    #[test]
    fn per_device_times_cover_placement() {
        let (i, plan) = setup();
        let times = loading_times(&i, &plan);
        // Only devices that actually host parametric modules appear with
        // nonzero cost.
        for (dev, t) in &times {
            assert!(*t >= 0.0, "{dev}: {t}");
        }
        assert!(!times.is_empty());
    }

    #[test]
    fn centralized_loading_unknown_names() {
        let (i, _) = setup();
        assert!(centralized_loading(&i, "CLIP ViT-B/16", "ghost").is_none());
        assert!(centralized_loading(&i, "ghost", "laptop").is_none());
    }
}
