//! Per-request parallel routing — Algorithm 1, lines 13–19.
//!
//! These are the string-id boundary entry points, convenient for one-off
//! routing and tests. Hot loops (the serve engine's admission path, the
//! Upper bound, the replan controller) route on interned indices via
//! [`crate::resolved::ResolvedInstance::route_model_into`] instead, which
//! applies the same Eq. 7 rule with the same name-order tie-break.
//! [`crate::plan::Plan::route_all`] stays on this path but calls
//! [`route_request`] once per distinct (model, profile), not per request.

use s2m3_models::module::ModuleSpec;
use s2m3_net::device::DeviceId;

use crate::error::CoreError;
use crate::problem::{Instance, Placement, Request, Route};

/// Routes one request: every required module goes to the hosting device
/// with the smallest `t_comp(m, n)` for this request's workload (Eq. 7).
///
/// # Errors
///
/// [`CoreError::UnknownModel`] if the request's model is not deployed;
/// [`CoreError::Unrouted`] if a required module is placed nowhere.
pub fn route_request(
    instance: &Instance,
    placement: &Placement,
    request: &Request,
) -> Result<Route, CoreError> {
    let deployment = instance
        .deployment(&request.model)
        .ok_or_else(|| CoreError::UnknownModel(request.model.clone()))?;
    let mut route = Route::new(request.id);
    for m in deployment.model.modules() {
        let mut best: Option<(f64, &DeviceId)> = None;
        for n in placement.hosts(&m.id) {
            let t = instance.compute_time_for(m, n, &request.profile)?;
            let better = match best {
                None => true,
                Some((bt, bn)) => t < bt || (t == bt && n < bn),
            };
            if better {
                best = Some((t, n));
            }
        }
        let (_, n) = best.ok_or_else(|| CoreError::Unrouted(m.id.clone()))?;
        route.assign(m.id.clone(), n.clone());
    }
    Ok(route)
}

/// Routes a *sequence* of requests with load awareness: each module goes
/// to the hosting device minimizing `accumulated load + t_comp` — the
/// queue-conscious refinement that makes Sec. V-B's replicas useful under
/// bursts (plain Eq. 7 always picks the single fastest host, so replicas
/// would never absorb overflow).
///
/// # Errors
///
/// As [`route_request`].
pub fn route_requests_balanced(
    instance: &Instance,
    placement: &Placement,
    requests: &[Request],
) -> Result<Vec<Route>, CoreError> {
    let mut load: std::collections::BTreeMap<DeviceId, f64> = instance
        .fleet()
        .devices()
        .iter()
        .map(|d| (d.id.clone(), 0.0))
        .collect();
    let mut routes = Vec::with_capacity(requests.len());
    for request in requests {
        let deployment = instance
            .deployment(&request.model)
            .ok_or_else(|| CoreError::UnknownModel(request.model.clone()))?;
        let mut route = Route::new(request.id);
        for m in deployment.model.modules() {
            let mut best: Option<(f64, f64, &DeviceId)> = None;
            for n in placement.hosts(&m.id) {
                let t = instance.compute_time_for(m, n, &request.profile)?;
                let score = load.get(n).copied().unwrap_or(0.0) + t;
                let better = match &best {
                    None => true,
                    Some((bs, _, bn)) => score < *bs || (score == *bs && n < *bn),
                };
                if better {
                    best = Some((score, t, n));
                }
            }
            let (_, t, n) = best.ok_or_else(|| CoreError::Unrouted(m.id.clone()))?;
            let n = n.clone();
            *load.entry(n.clone()).or_default() += t;
            route.assign(m.id.clone(), n);
        }
        routes.push(route);
    }
    Ok(routes)
}

/// Looks up the head module and its routed device for a request.
///
/// # Errors
///
/// [`CoreError::UnknownModel`] / [`CoreError::Unrouted`] as in
/// [`route_request`].
pub(crate) fn head_assignment<'a>(
    instance: &'a Instance,
    route: &Route,
    request: &Request,
) -> Result<(&'a ModuleSpec, DeviceId), CoreError> {
    let deployment = instance
        .deployment(&request.model)
        .ok_or_else(|| CoreError::UnknownModel(request.model.clone()))?;
    let head = deployment.model.head();
    let n = route
        .device_for(&head.id)
        .ok_or_else(|| CoreError::Unrouted(head.id.clone()))?;
    Ok((head, n.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{greedy_place, greedy_place_with, PlacementOptions};
    use s2m3_models::module::ModuleId;

    #[test]
    fn routes_cover_every_model_module() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let p = greedy_place(&i).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let r = route_request(&i, &p, &q).unwrap();
        assert_eq!(r.iter().count(), 3);
        for (m, n) in r.iter() {
            assert!(p.is_placed(m, n), "{m} routed to non-hosting {n}");
        }
    }

    #[test]
    fn routing_picks_fastest_replica() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        // With replication the vision encoder exists on several devices;
        // routing must pick the fastest one for this profile.
        let p = greedy_place_with(&i, PlacementOptions { replicate: true }).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let r = route_request(&i, &p, &q).unwrap();
        let vision: ModuleId = "vision/ViT-B-16".into();
        let chosen = r.device_for(&vision).unwrap();
        let t_chosen = i
            .compute_time_for(
                i.distinct_modules()
                    .iter()
                    .find(|m| m.id == vision)
                    .unwrap(),
                chosen,
                &q.profile,
            )
            .unwrap();
        for host in p.hosts(&vision) {
            let t = i
                .compute_time_for(
                    i.distinct_modules()
                        .iter()
                        .find(|m| m.id == vision)
                        .unwrap(),
                    host,
                    &q.profile,
                )
                .unwrap();
            assert!(t_chosen <= t + 1e-12);
        }
    }

    #[test]
    fn unplaced_module_is_unrouted_error() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let p = Placement::new();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        assert!(matches!(
            route_request(&i, &p, &q),
            Err(CoreError::Unrouted(_))
        ));
    }

    #[test]
    fn head_assignment_resolves() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let p = greedy_place(&i).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let r = route_request(&i, &p, &q).unwrap();
        let (head, dev) = head_assignment(&i, &r, &q).unwrap();
        assert_eq!(head.id.as_str(), "head/cosine");
        assert!(p.is_placed(&head.id, &dev));
    }

    #[test]
    fn unknown_model_rejected() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let p = greedy_place(&i).unwrap();
        let mut q = i.request(0, "CLIP ViT-B/16").unwrap();
        q.shape_mut().model = "ghost".into();
        assert!(matches!(
            route_request(&i, &p, &q),
            Err(CoreError::UnknownModel(_))
        ));
    }
}
