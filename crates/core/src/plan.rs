//! A complete executable plan: placement plus per-request routes.
//!
//! Plans are the hand-off between the core algorithms and the execution
//! substrates (`s2m3-sim` replays them in virtual time; `s2m3-runtime`
//! executes them with real computation).

use std::collections::BTreeMap;

use serde::Serialize;

use crate::error::CoreError;
use crate::objective::validate;
use crate::placement::{greedy_place_with, PlacementOptions};
use crate::problem::{Instance, Placement, Request, Route, ShapeMemo};
use crate::routing::route_request;

/// Placement + routed requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Plan {
    /// The module placement `x`.
    pub placement: Placement,
    /// Requests with their routes `y^q`, in arrival order.
    pub routed: Vec<(Request, Route)>,
}

impl Plan {
    /// Builds a plan: greedy placement, then Eq. 7 routing per request.
    /// The result is validated against constraints (4b)–(4d).
    ///
    /// # Errors
    ///
    /// Placement/routing/validation errors as typed [`CoreError`]s.
    pub fn greedy(instance: &Instance, requests: Vec<Request>) -> Result<Self, CoreError> {
        Self::greedy_with(instance, requests, PlacementOptions::default())
    }

    /// Builds a greedy plan with explicit placement options.
    ///
    /// # Errors
    ///
    /// See [`Plan::greedy`].
    pub fn greedy_with(
        instance: &Instance,
        requests: Vec<Request>,
        opts: PlacementOptions,
    ) -> Result<Self, CoreError> {
        let placement = greedy_place_with(instance, opts)?;
        Self::route_all(instance, placement, requests)
    }

    /// Routes `requests` over an existing placement and validates.
    ///
    /// With the placement fixed, Eq. 7 depends only on a request's model
    /// and workload profile, so each distinct pair is routed once and
    /// later requests share that route's assignment table under their
    /// own id (see [`Route`]): the plan holds one table per Eq. 7 answer.
    ///
    /// Two memos, both of that pure function. A request whose
    /// [shape](crate::problem::RequestShape) has been seen — the same
    /// shape by pointer, as every request of a materialised stream's
    /// (model, source, class) is — takes the answer found for it without
    /// looking anything up by name. Any other request finds its
    /// deployment by name and its answer under (deployment, profile
    /// bits), routing on a miss; requests with equal but private shapes
    /// therefore still share one table. Debug builds route every request
    /// afresh and compare.
    ///
    /// # Errors
    ///
    /// See [`Plan::greedy`].
    pub fn route_all(
        instance: &Instance,
        placement: Placement,
        requests: Vec<Request>,
    ) -> Result<Self, CoreError> {
        let mut by_shape: ShapeMemo<Route> = ShapeMemo::new();
        let mut by_profile: BTreeMap<(usize, u64, u64), Route> = BTreeMap::new();
        let mut routed = Vec::with_capacity(requests.len());
        for q in requests {
            let mut r = by_shape.get_or_try_insert_with(&q, || {
                let key = (
                    instance.deployment_index(&q.model)?,
                    q.profile.text_units.to_bits(),
                    q.profile.llm_tokens.to_bits(),
                );
                Ok(match by_profile.get(&key) {
                    Some(r) => r.clone(),
                    None => {
                        let r = route_request(instance, &placement, &q)?;
                        by_profile.insert(key, r.clone());
                        r
                    }
                })
            })?;
            debug_assert!(
                route_request(instance, &placement, &q)
                    .is_ok_and(|fresh| fresh.iter().eq(r.iter())),
                "memoised route of request {} differs from a fresh one",
                q.id
            );
            r.request_id = q.id;
            routed.push((q, r));
        }
        validate(instance, &placement, &routed)?;
        Ok(Plan { placement, routed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_net::fleet::Fleet;

    #[test]
    fn greedy_plan_roundtrip() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let plan = Plan::greedy(&i, vec![q]).unwrap();
        assert_eq!(plan.routed.len(), 1);
        assert_eq!(plan.placement.len(), 3);
    }

    #[test]
    fn multi_request_multi_task_plan() {
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[
                ("CLIP ViT-B/16", 101),
                ("Encoder-only VQA (Small)", 1),
                ("AlignBind-B", 16),
                ("CLIP-Classifier Food-101", 0),
            ],
        )
        .unwrap();
        let requests: Vec<_> = i
            .deployments()
            .iter()
            .enumerate()
            .map(|(n, d)| i.request(n as u64, &d.model.name).unwrap())
            .collect();
        let plan = Plan::greedy(&i, requests).unwrap();
        assert_eq!(plan.routed.len(), 4);
    }

    #[test]
    fn plan_serializes() {
        let i = Instance::single_model("CLIP ViT-B/16", 10).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let plan = Plan::greedy(&i, vec![q]).unwrap();
        assert_eq!(
            serde_json::to_string(&plan).unwrap(),
            concat!(
                r#"{"placement":{"assignments":{"head/cosine":["laptop"],"#,
                r#""text/CLIP-B-16":["laptop"],"vision/ViT-B-16":["desktop"]}},"#,
                r#""routed":[[{"id":0,"model":"CLIP ViT-B/16","source":"jetson-a","#,
                r#""profile":{"text_units":10.0,"llm_tokens":0.0}},"#,
                r#"{"request_id":0,"assignments":{"head/cosine":"laptop","#,
                r#""text/CLIP-B-16":"laptop","vision/ViT-B-16":"desktop"}}]]}"#
            )
        );
    }
}
