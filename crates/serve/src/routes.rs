//! The route cache: Algorithm 1's per-request parallel routing, priced
//! once per placement. Each (deployed model, traffic source) pair gets
//! its Eq. 7 route with every dispatch-time transfer in clock
//! nanoseconds, and, under a budget, each model its per-request cost.
//! The cache is rebuilt after every placement or fleet change and read
//! on every admission and dispatch.

use s2m3_core::problem::Placement;
use s2m3_core::resolved::{PricedRoute, PricedTask, ResolvedInstance};
use s2m3_sim::kernel::ns;

use crate::budget::BudgetState;
use crate::config::ValidScenario;

/// One task of a cached route: its module, universe device and work
/// units, plus, in clock nanoseconds, the transfer in (an encoder's raw
/// input, a generative head's raw query) and out (an encoder's
/// embedding to the head; 0 for the head).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RoutedTask {
    pub(crate) module: u32,
    pub(crate) uni: usize,
    pub(crate) units: f64,
    pub(crate) input_tx_ns: u64,
    pub(crate) output_tx_ns: u64,
}

/// The Eq. 7 route of one deployed model from one traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ModelRoute {
    pub(crate) head: RoutedTask,
    /// This route's encoders in the shared pool, in send order.
    enc_start: u32,
    enc_len: u32,
}

/// The cached routes of the current placement.
#[derive(Default)]
pub(crate) struct Routes {
    /// Route per `model * sources.len() + source` (`None`: the
    /// placement cannot serve the model).
    table: Vec<Option<ModelRoute>>,
    /// Encoder pool every [`ModelRoute`] slices, refilled in place.
    encs: Vec<RoutedTask>,
    /// Pricing scratch, so a refresh allocates nothing after warm-up.
    hosts: Vec<Vec<u32>>,
    route: Vec<(u32, u32)>,
    priced: PricedRoute,
    /// Universe index of each traffic source, by rank.
    sources: Vec<usize>,
    /// Per-model route cost (0 when unroutable; empty without a budget).
    costs: Vec<f64>,
}

impl Routes {
    /// An empty cache for a validated scenario's traffic sources.
    pub(crate) fn new(valid: &ValidScenario) -> Self {
        Routes {
            sources: valid.sources.clone(),
            ..Routes::default()
        }
    }

    /// Re-prices every route under `placement` on `resolved`, whose
    /// device `ri` is universe device `uni_of_res[ri]` (`res_of_uni`
    /// inverts it), and the budget's per-model costs. Compute ignores
    /// the query's origin, so the last source's pricing costs a model.
    pub(crate) fn refresh(
        &mut self,
        resolved: &ResolvedInstance,
        placement: &Placement,
        uni_of_res: &[usize],
        res_of_uni: &[Option<u32>],
        budget: Option<&BudgetState>,
    ) {
        let (hosts, route, priced) = (&mut self.hosts, &mut self.route, &mut self.priced);
        let task = |t: &PricedTask| RoutedTask {
            module: t.module,
            uni: uni_of_res[t.device as usize],
            units: t.units,
            input_tx_ns: ns(t.input_tx),
            output_tx_ns: ns(t.output_tx),
        };
        resolved.resolve_placement_into(placement, hosts);
        self.table.clear();
        self.encs.clear();
        self.costs.clear();
        for (m, model) in resolved.models().iter().enumerate() {
            let profile = model.profile;
            if !resolved.route_model_into(m, &profile, hosts, route) {
                self.table.extend(self.sources.iter().map(|_| None));
                // Unroutable models shed at admission, before the
                // budget gate: their 0 keeps model indexing.
                self.costs.extend(budget.map(|_| 0.0));
                continue;
            }
            for &src in &self.sources {
                let source = res_of_uni[src].expect("sources never leave the fleet");
                resolved.price_route(&profile, source, route, priced);
                let enc_start = self.encs.len() as u32;
                self.encs.extend(priced.encoders.iter().map(task));
                self.table.push(Some(ModelRoute {
                    head: task(&priced.head),
                    enc_start,
                    enc_len: self.encs.len() as u32 - enc_start,
                }));
            }
            self.costs
                .extend(budget.map(|b| b.route_cost(priced, uni_of_res)));
        }
    }

    /// The route of `model` from source rank `source` (`None`: unroutable).
    #[inline]
    pub(crate) fn get(&self, model: usize, source: usize) -> Option<&ModelRoute> {
        self.table[model * self.sources.len() + source].as_ref()
    }

    /// `route`'s encoders, in send order (longest compute first).
    #[inline]
    pub(crate) fn encoders(&self, route: &ModelRoute) -> &[RoutedTask] {
        let start = route.enc_start as usize;
        &self.encs[start..start + route.enc_len as usize]
    }

    /// The budget's per-request cost of `model` (0: unroutable).
    #[inline]
    pub(crate) fn cost(&self, model: usize) -> f64 {
        self.costs[model]
    }

    /// The replan gate's feasibility input, leaving the cache as it is:
    /// the mean route cost of `candidate`'s routable models (0 if none),
    /// priced from the last source as [`Routes::refresh`] prices them.
    pub(crate) fn mean_cost(
        &mut self,
        candidate: &Placement,
        resolved: &ResolvedInstance,
        uni_of_res: &[usize],
        res_of_uni: &[Option<u32>],
        budget: &BudgetState,
    ) -> f64 {
        let last = *self.sources.last().expect("a scenario has sources");
        let source = res_of_uni[last].expect("sources never leave the fleet");
        let (hosts, route, priced) = (&mut self.hosts, &mut self.route, &mut self.priced);
        resolved.resolve_placement_into(candidate, hosts);
        let (mut total, mut routable) = (0.0, 0usize);
        for (m, model) in resolved.models().iter().enumerate() {
            if resolved.route_model_into(m, &model.profile, hosts, route) {
                resolved.price_route(&model.profile, source, route, priced);
                total += budget.route_cost(priced, uni_of_res);
                routable += 1;
            }
        }
        total / routable.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use s2m3_core::placement::{greedy_place_resolved, PlacementOptions};
    use s2m3_core::problem::Instance;
    use s2m3_net::fleet::Fleet;
    use s2m3_sim::workload::ArrivalProcess;

    use super::*;
    use crate::budget::BudgetPolicy;
    use crate::config::{ModelDeployment, ServeScenario, TrafficSource};

    /// A two-model, two-source scenario on the standard fleet without
    /// the server, so resolved and universe indices differ.
    fn scenario() -> ServeScenario {
        let source = |device: &str| TrafficSource {
            device: device.to_string(),
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.5 },
            weight: None,
            mix: None,
        };
        let model = |name: &str, candidates| ModelDeployment {
            name: name.to_string(),
            candidates,
        };
        ServeScenario {
            models: vec![
                model("CLIP ViT-B/16", 64),
                model("CLIP-Classifier Food-101", 0),
            ],
            sources: vec![source("jetson-a"), source("laptop")],
            events: Vec::new(),
            ..ServeScenario::churn_default()
        }
    }

    /// What the engine holds when it refreshes the cache: the resolved
    /// view of the active fleet, the index maps and greedy's placement.
    struct Fixture {
        routes: Routes,
        resolved: ResolvedInstance,
        placement: Placement,
        uni_of_res: Vec<usize>,
        res_of_uni: Vec<Option<u32>>,
        budget: BudgetState,
    }

    impl Fixture {
        fn new() -> Self {
            let s = scenario();
            let valid = s.validate().unwrap();
            let universe = &valid.universe;
            let uni_of_res: Vec<usize> = (0..valid.active.len())
                .filter(|&ui| valid.active[ui])
                .collect();
            let mut res_of_uni = vec![None; valid.active.len()];
            for (ri, &ui) in uni_of_res.iter().enumerate() {
                res_of_uni[ui] = Some(ri as u32);
            }
            let devices = uni_of_res.iter().map(|&ui| universe.devices()[ui].clone());
            let fleet = Fleet::new(
                devices.collect(),
                universe.topology().clone(),
                universe.requester().clone(),
            )
            .unwrap();
            let models: Vec<(&str, usize)> = s
                .models
                .iter()
                .map(|m| (m.name.as_str(), m.candidates))
                .collect();
            let resolved =
                ResolvedInstance::new(&Instance::on_fleet(fleet, &models).unwrap()).unwrap();
            let placement = greedy_place_resolved(&resolved, PlacementOptions::default()).unwrap();
            let names: Vec<String> = universe
                .devices()
                .iter()
                .map(|d| d.id.to_string())
                .collect();
            Fixture {
                routes: Routes::new(&valid),
                resolved,
                placement,
                uni_of_res,
                res_of_uni,
                budget: BudgetState::new(BudgetPolicy::device_seconds(100.0), &[], &names),
            }
        }

        fn refresh(&mut self) {
            let f = &mut *self;
            let (uni, res) = (&f.uni_of_res, &f.res_of_uni);
            f.routes
                .refresh(&f.resolved, &f.placement, uni, res, Some(&f.budget));
        }

        fn mean_cost(&mut self, candidate: &Placement) -> f64 {
            let f = &mut *self;
            let (uni, res) = (&f.uni_of_res, &f.res_of_uni);
            f.routes
                .mean_cost(candidate, &f.resolved, uni, res, &f.budget)
        }

        /// `model`'s pricing under `placement` from universe device
        /// `source` (`None`: unroutable).
        fn priced(
            &self,
            placement: &Placement,
            model: usize,
            source: usize,
        ) -> Option<PricedRoute> {
            let r = &self.resolved;
            let hosts = r.resolve_placement(placement);
            let profile = r.models()[model].profile;
            let mut route = Vec::new();
            let mut priced = PricedRoute::default();
            r.route_model_into(model, &profile, &hosts, &mut route)
                .then(|| {
                    r.price_route(
                        &profile,
                        self.res_of_uni[source].unwrap(),
                        &route,
                        &mut priced,
                    );
                    priced
                })
        }
    }

    #[test]
    fn every_cached_route_is_its_pricing_in_nanoseconds() {
        let mut f = Fixture::new();
        f.refresh();
        let sources = [4, 2]; // jetson-a, laptop
        for model in 0..2 {
            for (rank, &src) in sources.iter().enumerate() {
                let priced = f.priced(&f.placement, model, src).unwrap();
                let mr = *f.routes.get(model, rank).unwrap();
                let uni = |d: u32| f.uni_of_res[d as usize];
                let task = |t: &PricedTask| RoutedTask {
                    module: t.module,
                    uni: uni(t.device),
                    units: t.units,
                    input_tx_ns: ns(t.input_tx),
                    output_tx_ns: ns(t.output_tx),
                };
                assert_eq!(mr.head, task(&priced.head));
                assert_eq!(mr.head.output_tx_ns, 0);
                let want: Vec<RoutedTask> = priced.encoders.iter().map(task).collect();
                assert!(!want.is_empty());
                assert_eq!(f.routes.encoders(&mr), want, "model {model} source {src}");
                let compute: Vec<f64> = priced.encoders.iter().map(|e| e.compute).collect();
                assert!(compute.windows(2).all(|w| w[0] >= w[1]), "send order");
            }
            let last = f.priced(&f.placement, model, 2).unwrap();
            assert_eq!(
                f.routes.cost(model),
                f.budget.route_cost(&last, &f.uni_of_res)
            );
            assert!(f.routes.cost(model) > 0.0);
        }
    }

    #[test]
    fn an_unroutable_model_has_no_route_and_costs_nothing() {
        let mut f = Fixture::new();
        let head = f.resolved.module_name(f.resolved.models()[1].head).clone();
        f.placement.retain(|m, _| *m != head);
        f.refresh();
        assert!(f.routes.get(1, 0).is_none() && f.routes.get(1, 1).is_none());
        assert_eq!(f.routes.cost(1), 0.0);
        assert!(f.routes.get(0, 1).is_some());
        assert!(f.routes.cost(0) > 0.0);
    }

    #[test]
    fn mean_cost_averages_the_routable_models() {
        let mut f = Fixture::new();
        let full = f.placement.clone();
        let cost = |f: &Fixture, p: &Placement, m| {
            f.budget
                .route_cost(&f.priced(p, m, 2).unwrap(), &f.uni_of_res)
        };
        let both = (cost(&f, &full, 0) + cost(&f, &full, 1)) / 2.0;
        assert_eq!(f.mean_cost(&full), both);

        let mut one = full.clone();
        let head = f.resolved.module_name(f.resolved.models()[1].head).clone();
        one.retain(|m, _| *m != head);
        assert_eq!(f.mean_cost(&one), cost(&f, &one, 0));
        assert_eq!(f.mean_cost(&Placement::default()), 0.0);

        // Pricing a candidate leaves the cache alone.
        f.refresh();
        let before = (*f.routes.get(1, 0).unwrap(), f.routes.cost(1));
        f.mean_cost(&one);
        assert_eq!((*f.routes.get(1, 0).unwrap(), f.routes.cost(1)), before);
    }
}
