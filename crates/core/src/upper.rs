//! The "Upper" baseline: brute-force optimal single-copy placement,
//! evaluated with the exact objective. Used to certify the greedy
//! (the paper reports greedy = optimal in 89/95 instances).
//!
//! The search runs entirely on [`ResolvedInstance`] indices: the DFS
//! carries a dense `u32` assignment vector and an incrementally
//! maintained remaining-memory vector, and leaves are evaluated with
//! [`ResolvedInstance::price_route`] into buffers the search reuses — no
//! allocation per leaf, and no `Placement` or `Route` maps until the
//! single best assignment is translated back to string ids at the end.

use crate::error::CoreError;
use crate::problem::{Instance, Placement};
use crate::resolved::{PricedRoute, ResolvedInstance};

/// Result of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalResult {
    /// The best placement found.
    pub placement: Placement,
    /// Its objective value: summed canonical-request latency over all
    /// deployed models (Eq. 4a with one request per model).
    pub latency: f64,
}

/// Exhaustively searches single-copy placements (each distinct module on
/// exactly one device) under the memory constraints, evaluating Eq. (4a)
/// with one canonical request per deployed model.
///
/// Single-copy is WLOG for this objective: with one request per model and
/// no queuing, routing picks one device per module, so extra replicas
/// cannot reduce the optimum.
///
/// Complexity is `|N|^|M|`; fine for the paper-scale instances (≤ 5
/// devices, ≤ 8 distinct modules). Memory-infeasible branches are pruned.
///
/// # Errors
///
/// [`CoreError::EmptyFleet`] on an empty fleet;
/// [`CoreError::Infeasible`] when no feasible placement exists.
pub fn optimal_placement(instance: &Instance) -> Result<OptimalResult, CoreError> {
    let resolved = ResolvedInstance::new(instance)?;
    let nd = resolved.device_count();
    let nm = resolved.module_count();
    let needs: Vec<u64> = (0..nm as u32).map(|m| resolved.module_memory(m)).collect();
    let mut remaining: Vec<u64> = (0..nd as u32).map(|d| resolved.device_budget(d)).collect();

    // The DFS carries only dense indices; leaves evaluate Eq. (4a) with
    // the flat tables (single-copy ⇒ the route is the assignment itself).
    struct Search<'a> {
        resolved: &'a ResolvedInstance,
        needs: Vec<u64>,
        assignment: Vec<u32>,
        route: Vec<(u32, u32)>,
        priced: PricedRoute,
        best_latency: f64,
        best_assignment: Option<Vec<u32>>,
    }

    impl Search<'_> {
        fn dfs(&mut self, idx: usize, remaining: &mut [u64]) {
            if idx == self.assignment.len() {
                let resolved = self.resolved;
                let mut latency = 0.0;
                for model in resolved.models() {
                    self.route.clear();
                    self.route
                        .extend(model.modules().map(|m| (m, self.assignment[m as usize])));
                    resolved.price_route(
                        &model.profile,
                        resolved.requester(),
                        &self.route,
                        &mut self.priced,
                    );
                    latency += resolved.route_latency(&mut self.priced);
                }
                // The first feasible leaf always records (even if its
                // latency is infinite or NaN under a degenerate
                // topology): memory-feasibility must never be reported
                // as Infeasible just because no leaf compared `<`.
                if self.best_assignment.is_none() || latency < self.best_latency {
                    self.best_latency = latency;
                    self.best_assignment = Some(self.assignment.clone());
                }
                return;
            }
            for d in 0..remaining.len() {
                if self.needs[idx] <= remaining[d] {
                    remaining[d] -= self.needs[idx];
                    self.assignment[idx] = d as u32;
                    self.dfs(idx + 1, remaining);
                    remaining[d] += self.needs[idx];
                }
            }
        }
    }

    let mut search = Search {
        resolved: &resolved,
        needs,
        assignment: vec![u32::MAX; nm],
        route: Vec::new(),
        priced: PricedRoute::default(),
        best_latency: f64::INFINITY,
        best_assignment: None,
    };
    search.dfs(0, &mut remaining);

    match search.best_assignment {
        Some(assignment) => {
            let mut placement = Placement::new();
            for (m, &d) in assignment.iter().enumerate() {
                placement.place(
                    resolved.module_name(m as u32).clone(),
                    resolved.device_name(d).clone(),
                );
            }
            Ok(OptimalResult {
                placement,
                latency: search.best_latency,
            })
        }
        None => Err(CoreError::Infeasible {
            module: if nm > 0 {
                resolved.module_name(0).clone()
            } else {
                "".into()
            },
            required_bytes: search.needs.first().copied().unwrap_or(0),
            best_remaining_bytes: (0..nd as u32)
                .map(|d| resolved.device_budget(d))
                .max()
                .unwrap_or(0),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::total_latency;
    use crate::placement::greedy_place;
    use crate::routing::route_request;
    use s2m3_net::fleet::Fleet;

    fn greedy_latency(instance: &Instance) -> f64 {
        let p = greedy_place(instance).unwrap();
        let mut sum = 0.0;
        for (i, d) in instance.deployments().iter().enumerate() {
            let q = instance.request(i as u64, &d.model.name).unwrap();
            let r = route_request(instance, &p, &q).unwrap();
            sum += total_latency(instance, &r, &q).unwrap();
        }
        sum
    }

    #[test]
    fn optimal_lower_bounds_greedy() {
        for (name, c) in [
            ("CLIP ViT-B/16", 101),
            ("CLIP ResNet-50", 10),
            ("Encoder-only VQA (Small)", 1),
            ("Flint-v0.5-1B", 1),
        ] {
            let i = Instance::single_model(name, c).unwrap();
            let opt = optimal_placement(&i).unwrap();
            let greedy = greedy_latency(&i);
            assert!(
                opt.latency <= greedy + 1e-9,
                "{name}: optimal {} > greedy {}",
                opt.latency,
                greedy
            );
        }
    }

    #[test]
    fn greedy_is_optimal_on_the_default_instance() {
        // The paper's headline: greedy achieves the optimum in ~94% of
        // instances; the default CLIP ViT-B/16 case is one of them.
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let opt = optimal_placement(&i).unwrap();
        let greedy = greedy_latency(&i);
        assert!(
            (greedy - opt.latency).abs() < 1e-6,
            "greedy {greedy} vs optimal {}",
            opt.latency
        );
    }

    #[test]
    fn infeasible_instance_reports_error() {
        let fleet = Fleet::standard_testbed()
            .restricted_to(&["jetson-a"])
            .unwrap();
        let i = Instance::on_fleet(fleet, &[("ImageBind", 16)]).unwrap();
        assert!(matches!(
            optimal_placement(&i),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn optimal_respects_memory() {
        let i = Instance::single_model("ImageBind", 16).unwrap();
        let opt = optimal_placement(&i).unwrap();
        crate::objective::validate(&i, &opt.placement, &[]).unwrap();
    }

    #[test]
    fn multi_model_optimum_covers_all_modules() {
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 10), ("CLIP-Classifier Food-101", 0)],
        )
        .unwrap();
        let opt = optimal_placement(&i).unwrap();
        assert_eq!(opt.placement.modules().count(), i.distinct_modules().len());
    }
}
