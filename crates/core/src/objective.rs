//! The analytic objective — exact evaluation of Eqs. (1)–(3) — and the
//! constraint checker for (4b)–(4e).

use std::collections::BTreeMap;

use s2m3_models::module::ModuleKind;
use s2m3_net::device::DeviceId;

use crate::error::CoreError;
use crate::problem::{Deployment, Instance, Placement, Request, Route, ShapeMemo};
use crate::routing::head_assignment;

fn comm(instance: &Instance, from: &DeviceId, to: &DeviceId, bytes: u64) -> Result<f64, CoreError> {
    instance
        .fleet()
        .topology()
        .transfer_time(from, to, bytes)
        .map_err(CoreError::UnknownDevice)
}

/// Per-encoder latency terms of Eq. (2): input transfer, computation, and
/// output transfer to the head device. Returned per module for timeline
/// rendering; `t_enc` is their max.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderPath {
    /// Encoder module id.
    pub module: s2m3_models::module::ModuleId,
    /// Device executing it.
    pub device: DeviceId,
    /// `t_comm(m, n_q, n)` — raw input transfer, seconds.
    pub input_tx: f64,
    /// `t_comp(m, n)`, seconds.
    pub compute: f64,
    /// `t_comm(h, n, n')` — embedding transfer to the head, seconds.
    pub output_tx: f64,
}

impl EncoderPath {
    /// End-to-end length of this encoder path.
    pub(crate) fn total(&self) -> f64 {
        self.input_tx + self.compute + self.output_tx
    }
}

/// Computes every encoder path of a routed request.
///
/// # Errors
///
/// [`CoreError`] variants on unknown models/devices or unrouted modules.
pub fn encoder_paths(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<Vec<EncoderPath>, CoreError> {
    let deployment = instance
        .deployment(&request.model)
        .ok_or_else(|| CoreError::UnknownModel(request.model.clone()))?;
    let (_, head_dev) = head_assignment(instance, route, request)?;
    let mut paths = Vec::new();
    for m in deployment.model.encoders() {
        let n = route
            .device_for(&m.id)
            .ok_or_else(|| CoreError::Unrouted(m.id.clone()))?;
        let units = request.profile.units(m.kind);
        let input_tx = comm(
            instance,
            &request.source,
            n,
            request.profile.input_bytes(m.kind),
        )?;
        let compute = instance.compute_time_for(m, n, &request.profile)?;
        let output_tx = comm(instance, n, &head_dev, m.output_bytes(units))?;
        paths.push(EncoderPath {
            module: m.id.clone(),
            device: n.clone(),
            input_tx,
            compute,
            output_tx,
        });
    }
    Ok(paths)
}

/// Encoder latency `t_enc` (Eq. 2): the **max** over parallel encoder
/// paths, plus — for generative heads — the raw-query transfer to the
/// head device, which travels concurrently with the encoders.
///
/// Refinement over the paper's closed form: encoders of the *same*
/// request routed to the *same* device cannot actually overlap beyond the
/// device's `parallelism`, so co-located paths are scheduled onto lanes
/// (longest compute first, matching the dispatch rule) rather than
/// treated as free parallelism. On distinct devices this reduces exactly
/// to Eq. 2's max.
///
/// # Errors
///
/// See [`encoder_paths`].
pub(crate) fn encoder_latency(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<f64, CoreError> {
    let paths = encoder_paths(instance, route, request)?;

    // Group paths by executing device and lane-schedule each group.
    let mut by_device: BTreeMap<&DeviceId, Vec<&EncoderPath>> = BTreeMap::new();
    for p in &paths {
        by_device.entry(&p.device).or_default().push(p);
    }
    let mut t = 0.0_f64;
    for (dev, mut group) in by_device {
        let lanes_n = instance.device(dev)?.parallelism.max(1);
        // Longest compute dispatched first (Algorithm 1's send order).
        group.sort_by(|a, b| {
            b.compute
                .partial_cmp(&a.compute)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.module.cmp(&b.module))
        });
        let mut lanes = vec![0.0_f64; lanes_n];
        for p in group {
            // Earliest-free lane; execution cannot begin before the input
            // arrives.
            let (idx, _) = lanes
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one lane");
            let start = lanes[idx].max(p.input_tx);
            let done = start + p.compute;
            lanes[idx] = done;
            t = t.max(done + p.output_tx);
        }
    }
    let (head, head_dev) = head_assignment(instance, route, request)?;
    if head.kind == ModuleKind::LanguageModel {
        let q_tx = comm(
            instance,
            &request.source,
            &head_dev,
            request.profile.input_bytes(ModuleKind::LanguageModel),
        )?;
        t = t.max(q_tx);
    }
    Ok(t)
}

/// Sequential-encoder latency: the **sum** of encoder paths instead of
/// the max — the "S2M3 w/o Parallel Processing" ablation of Table VII.
///
/// # Errors
///
/// See [`encoder_paths`].
pub(crate) fn encoder_latency_sequential(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<f64, CoreError> {
    Ok(encoder_paths(instance, route, request)?
        .iter()
        .map(EncoderPath::total)
        .sum())
}

/// Head latency `t_head` (Eq. 3).
///
/// # Errors
///
/// See [`encoder_paths`].
pub fn head_latency(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<f64, CoreError> {
    let (head, dev) = head_assignment(instance, route, request)?;
    instance.compute_time_for(head, &dev, &request.profile)
}

/// End-to-end latency `t_total` (Eq. 1).
///
/// # Errors
///
/// See [`encoder_paths`].
pub fn total_latency(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<f64, CoreError> {
    Ok(encoder_latency(instance, route, request)? + head_latency(instance, route, request)?)
}

/// End-to-end latency without parallel processing (ablation).
///
/// # Errors
///
/// See [`encoder_paths`].
pub fn total_latency_sequential(
    instance: &Instance,
    route: &Route,
    request: &Request,
) -> Result<f64, CoreError> {
    Ok(encoder_latency_sequential(instance, route, request)?
        + head_latency(instance, route, request)?)
}

/// Checks (4b) and (4c) for one route of `deployment`'s model: every
/// module the model requires is routed, to a device hosting it.
fn check_route(
    deployment: &Deployment,
    placement: &Placement,
    route: &Route,
) -> Result<(), CoreError> {
    for m in deployment.model.modules() {
        let n = route
            .device_for(&m.id)
            .ok_or_else(|| CoreError::Unrouted(m.id.clone()))?;
        if !placement.is_placed(&m.id, n) {
            return Err(CoreError::NotHosted {
                module: m.id.clone(),
                device: n.clone(),
            });
        }
    }
    Ok(())
}

/// Validates constraints (4b)–(4e) for a placement and a set of routed
/// requests:
///
/// - (4b) every routed module is on a hosting device;
/// - (4c) every module a request requires is routed exactly once;
/// - (4d) per-device placed memory stays within `R_n`.
///
/// (4e) — binary variables — holds by construction of the types. The
/// capacity term `a_{m,n}` of (4b) bounds *concurrent batch* admission and
/// is enforced dynamically by the simulator's queues rather than here.
///
/// The (4b)/(4c) verdict on a request reads its deployment, its route's
/// assignment table and the placement — nothing else of the request — so
/// each deployment remembers the last table that passed and a request
/// whose route [shares](Route::shares_assignments) it is not re-checked.
/// The deployment itself is found by model name once per distinct
/// [shape](Request::shares_shape): a request holding a shape already met
/// takes that shape's deployment by pointer, any other is looked up by
/// name (and fails there if its model is not deployed).
/// The memo is keyed on the (deployment, table) pair: a table that passed
/// for one model is checked again for another, and a route that does not
/// share the remembered table is checked in full and replaces it. Every
/// distinct pair is therefore still checked, the first bad request still
/// fails with its own error, and debug builds check the skipped requests
/// as well.
///
/// # Errors
///
/// The first violated constraint, as a typed [`CoreError`].
pub fn validate(
    instance: &Instance,
    placement: &Placement,
    routed: &[(Request, Route)],
) -> Result<(), CoreError> {
    // (4d) memory budgets.
    let specs: BTreeMap<_, _> = instance
        .distinct_modules()
        .into_iter()
        .map(|m| (m.id.clone(), m))
        .collect();
    let mut used: BTreeMap<DeviceId, u64> = BTreeMap::new();
    for (m, n) in placement.iter() {
        if let Some(spec) = specs.get(m) {
            *used.entry(n.clone()).or_default() += spec.memory_bytes();
        }
    }
    for (n, bytes) in &used {
        let budget = instance.device(n)?.usable_memory_bytes();
        if *bytes > budget {
            return Err(CoreError::OverCapacity {
                device: n.clone(),
                placed_bytes: *bytes,
                budget_bytes: budget,
            });
        }
    }

    // (4b) + (4c) per request, once per (deployment, table).
    let deployments = instance.deployments();
    let mut deployment_of: ShapeMemo<usize> = ShapeMemo::new();
    let mut passed: Vec<Option<&Route>> = vec![None; deployments.len()];
    for (request, route) in routed {
        let d = deployment_of
            .get_or_try_insert_with(request, || instance.deployment_index(&request.model))?;
        debug_assert_eq!(Ok(d), instance.deployment_index(&request.model));
        if passed[d].is_some_and(|seen| seen.shares_assignments(route)) {
            debug_assert_eq!(check_route(&deployments[d], placement, route), Ok(()));
            continue;
        }
        check_route(&deployments[d], placement, route)?;
        passed[d] = Some(route);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::greedy_place;
    use crate::routing::route_request;

    fn setup(name: &str, candidates: usize) -> (Instance, Placement, Request, Route) {
        let i = Instance::single_model(name, candidates).unwrap();
        let p = greedy_place(&i).unwrap();
        let q = i.request(0, name).unwrap();
        let r = route_request(&i, &p, &q).unwrap();
        (i, p, q, r)
    }

    #[test]
    fn total_is_enc_plus_head() {
        let (i, _, q, r) = setup("CLIP ViT-B/16", 101);
        let total = total_latency(&i, &r, &q).unwrap();
        let enc = encoder_latency(&i, &r, &q).unwrap();
        let head = head_latency(&i, &r, &q).unwrap();
        assert!((total - (enc + head)).abs() < 1e-12);
        assert!(enc > 0.0 && head > 0.0);
    }

    #[test]
    fn parallel_never_slower_than_sequential() {
        let (i, _, q, r) = setup("CLIP ViT-B/16", 101);
        let par = total_latency(&i, &r, &q).unwrap();
        let seq = total_latency_sequential(&i, &r, &q).unwrap();
        assert!(par <= seq + 1e-12);
        assert!(
            seq - par > 0.05,
            "two-encoder model must gain from parallelism"
        );
    }

    #[test]
    fn single_encoder_models_gain_nothing_from_parallelism() {
        let (i, _, q, r) = setup("CLIP-Classifier Food-101", 0);
        let par = total_latency(&i, &r, &q).unwrap();
        let seq = total_latency_sequential(&i, &r, &q).unwrap();
        assert!((par - seq).abs() < 1e-12);
    }

    #[test]
    fn communication_is_negligible_next_to_compute() {
        // Fig. 3's observation, reproduced rather than assumed.
        let (i, _, q, r) = setup("CLIP ViT-B/16", 101);
        let paths = encoder_paths(&i, &r, &q).unwrap();
        for p in &paths {
            assert!(p.input_tx + p.output_tx < 0.3 * p.compute.max(0.3), "{p:?}");
        }
    }

    #[test]
    fn edge_s2m3_latency_in_paper_regime() {
        // Table VII: S2M3 on the edge fleet ≈ 2.48 s for CLIP ViT-B/16
        // with 101 Food-101 prompts. Accept the right regime.
        let (i, _, q, r) = setup("CLIP ViT-B/16", 101);
        let t = total_latency(&i, &r, &q).unwrap();
        assert!((1.8..3.2).contains(&t), "S2M3 edge latency {t:.2} s");
    }

    #[test]
    fn validate_accepts_greedy_and_rejects_corruptions() {
        let (i, p, q, r) = setup("CLIP ViT-B/16", 101);
        validate(&i, &p, &[(q.clone(), r.clone())]).unwrap();

        // Route to a non-hosting device → NotHosted.
        let mut bad = r;
        let vision = "vision/ViT-B-16".into();
        let wrong: DeviceId = if p.is_placed(&vision, &"jetson-b".into()) {
            "jetson-a".into()
        } else {
            "jetson-b".into()
        };
        bad.assign(vision, wrong);
        assert!(matches!(
            validate(&i, &p, &[(q.clone(), bad)]),
            Err(CoreError::NotHosted { .. })
        ));

        // Missing module → Unrouted.
        let mut partial = Route::new(q.id);
        partial.assign(
            "head/cosine".into(),
            p.hosts(&"head/cosine".into()).next().unwrap().clone(),
        );
        assert!(matches!(
            validate(&i, &p, &[(q, partial)]),
            Err(CoreError::Unrouted(_))
        ));
    }

    #[test]
    fn validate_catches_memory_violation() {
        let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
        let mut p = Placement::new();
        // Cram everything onto a Jetson: 26 GB of Vicuna-13B in 1.1 GB.
        for m in i.distinct_modules() {
            p.place(m.id.clone(), "jetson-a".into());
        }
        assert!(matches!(
            validate(&i, &p, &[]),
            Err(CoreError::OverCapacity { .. })
        ));
    }

    #[test]
    fn decoder_vqa_includes_query_transfer() {
        let (i, _, q, r) = setup("Flint-v0.5-1B", 1);
        // The query transfer is tiny but must not panic and must keep
        // t_enc at least as large as the raw-query path.
        let enc = encoder_latency(&i, &r, &q).unwrap();
        assert!(enc > 0.0);
    }
}
