//! Interned-index view of an [`Instance`]: the hot-path data layer.
//!
//! Every hot loop in the reproduction — greedy placement, the Sec. V-C
//! brute-force Upper bound, Eq. 1–4 objective evaluation, and both
//! discrete-event engines — needs `t_comp(m, n)`, `t_comm(a, b, bytes)`,
//! memory footprints, and adjacency for (module, device) pairs. Keying
//! those lookups by `DeviceId` / `ModuleId` makes string hashing/ordering
//! the dominant cost per event. [`ResolvedInstance`] interns both id
//! spaces into dense `u32` indices at construction time and precomputes
//! flat tables, so the hot loops do array arithmetic only.
//!
//! ## String at the boundary, index in the core
//!
//! Public artifacts (`Plan`, `SimReport`, `ServeReport`) keep string ids
//! and serialize exactly as before; [`ResolvedInstance::device_name`] /
//! [`ResolvedInstance::module_name`] translate back at the boundary. The
//! ids are shared strings (`Arc<str>`), so handing one to an artifact —
//! a route entry, a Gantt span — is a reference-count bump, never a
//! copy of the name; comparing two of them still compares names, which
//! is why the hot loops work on indices and not on the ids.
//! Nothing about the *numerical* behavior changes either: every table
//! stores the same operands the string path used and evaluates the same
//! formula in the same order, so results are bitwise identical (the
//! equivalence tests in `tests/equivalence.rs` pin this against golden
//! pre-refactor outputs).
//!
//! ## Index spaces
//!
//! - **Devices** are numbered in fleet order (`Fleet::devices()`), which
//!   is *not* lexicographic. Algorithms that tie-break on device *name*
//!   (placement Eq. 5/6, routing Eq. 7) must compare
//!   [`ResolvedInstance::device_rank`], not raw indices.
//! - **Modules** are numbered in `Instance::distinct_modules()` order,
//!   which *is* sorted by id — module-index order and module-id order
//!   coincide, so index comparisons replace id comparisons directly.
//!
//! ## One pricing of a routed request
//!
//! [`ResolvedInstance::price_route`] turns a routed request into Eq. 2's
//! and Eq. 3's terms in Algorithm 1's send order, once, for every
//! index-path consumer: [`ResolvedInstance::route_latency`] schedules
//! them into `t_total` for the Upper search and replanning, and both
//! drivers turn them into task durations and transfer delays. The
//! string-path [`crate::objective`] is the reference it is pinned to.

use std::collections::BTreeMap;

use s2m3_models::module::{ModuleId, ModuleKind, ModuleSpec};
use s2m3_net::device::DeviceId;
use s2m3_net::link::LinkSpec;

use crate::error::CoreError;
use crate::problem::{Instance, Placement, RequestProfile, Route};

/// One deployed model with its module references interned.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedModel {
    /// Model name (`k`), kept for boundary lookups.
    pub name: String,
    /// Encoder module indices, in `ModelSpec::encoders()` order.
    pub encoders: Vec<u32>,
    /// Head module index.
    pub head: u32,
    /// The deployment's canonical request profile.
    pub profile: RequestProfile,
}

impl ResolvedModel {
    /// Every module of the model, encoders first and the head last — the
    /// order of a routed request's `(module, device)` pairs.
    pub(crate) fn modules(&self) -> impl Iterator<Item = u32> + '_ {
        self.encoders
            .iter()
            .copied()
            .chain(std::iter::once(self.head))
    }
}

/// A dense-index mirror of an [`Instance`]: interned device/module ids
/// plus flat per-(module, device) compute tables, per-(device, device)
/// links, per-module memory, and per-deployment module adjacency.
///
/// Build once per instance (or per fleet change) with
/// [`ResolvedInstance::new`]; all accessors are then branch-light array
/// reads. See the [module docs](self) for the index-space conventions.
#[derive(Debug, Clone)]
pub struct ResolvedInstance {
    device_names: Vec<DeviceId>,
    module_names: Vec<ModuleId>,
    device_rank: Vec<u32>,
    module_specs: Vec<ModuleSpec>,
    module_kinds: Vec<ModuleKind>,
    module_memory: Vec<u64>,
    module_gflops: Vec<f64>,
    device_budget: Vec<u64>,
    device_parallelism: Vec<usize>,
    exec_overhead: Vec<f64>,
    unit_overhead: Vec<f64>,
    /// `speed_gflops · efficiency(kind)`, row-major `[module][device]`.
    speed_eff: Vec<f64>,
    /// `t_comp(m, n)` at placement-time units, row-major `[module][device]`.
    placement_compute: Vec<f64>,
    /// End-to-end path specs, row-major `[from][to]`.
    links: Vec<LinkSpec>,
    requester: u32,
    models: Vec<ResolvedModel>,
}

impl ResolvedInstance {
    /// Interns `instance` into dense indices and precomputes the flat
    /// tables.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyFleet`] on an empty fleet.
    pub fn new(instance: &Instance) -> Result<Self, CoreError> {
        let devices = instance.fleet().devices();
        if devices.is_empty() {
            return Err(CoreError::EmptyFleet);
        }
        let device_names: Vec<DeviceId> = devices.iter().map(|d| d.id.clone()).collect();
        // Lexicographic rank per device index, for name-order tie-breaks.
        let device_rank = {
            let mut order: Vec<u32> = (0..device_names.len() as u32).collect();
            order.sort_by(|&a, &b| device_names[a as usize].cmp(&device_names[b as usize]));
            let mut rank = vec![0u32; device_names.len()];
            for (r, &d) in order.iter().enumerate() {
                rank[d as usize] = r as u32;
            }
            rank
        };

        // `distinct_modules` iterates a BTreeMap, so index order == sorted
        // id order (the invariant the objective's tie-breaks rely on).
        let module_specs: Vec<ModuleSpec> =
            instance.distinct_modules().into_iter().cloned().collect();
        let module_names: Vec<ModuleId> = module_specs.iter().map(|m| m.id.clone()).collect();
        let module_index: BTreeMap<&ModuleId, u32> = module_names
            .iter()
            .enumerate()
            .map(|(i, m)| (m, i as u32))
            .collect();
        let module_kinds: Vec<ModuleKind> = module_specs.iter().map(|m| m.kind).collect();
        let module_memory: Vec<u64> = module_specs.iter().map(|m| m.memory_bytes()).collect();
        let module_gflops: Vec<f64> = module_specs.iter().map(|m| m.gflops_per_unit).collect();

        let nd = devices.len();
        let nm = module_specs.len();
        let mut speed_eff = vec![0.0; nm * nd];
        let mut placement_compute = vec![0.0; nm * nd];
        for (mi, m) in module_specs.iter().enumerate() {
            let units = instance.placement_units(m);
            for (di, d) in devices.iter().enumerate() {
                speed_eff[mi * nd + di] = d.speed_gflops * d.efficiency.factor(m.kind);
                placement_compute[mi * nd + di] = d.compute_time(m, units);
            }
        }

        let topology = instance.fleet().topology();
        let mut links = vec![LinkSpec::loopback(); nd * nd];
        for (ai, a) in device_names.iter().enumerate() {
            for (bi, b) in device_names.iter().enumerate() {
                links[ai * nd + bi] = topology.path(a, b).map_err(CoreError::UnknownDevice)?;
            }
        }

        let requester = device_names
            .iter()
            .position(|d| d == instance.fleet().requester())
            .ok_or_else(|| CoreError::UnknownDevice(instance.fleet().requester().clone()))?
            as u32;

        let models = instance
            .deployments()
            .iter()
            .map(|dep| ResolvedModel {
                name: dep.model.name.clone(),
                encoders: dep
                    .model
                    .encoders()
                    .iter()
                    .map(|m| module_index[&m.id])
                    .collect(),
                head: module_index[&dep.model.head().id],
                profile: dep.profile,
            })
            .collect();

        Ok(ResolvedInstance {
            device_names,
            module_names,
            device_rank,
            module_specs,
            module_kinds,
            module_memory,
            module_gflops,
            device_budget: devices.iter().map(|d| d.usable_memory_bytes()).collect(),
            device_parallelism: devices.iter().map(|d| d.parallelism.max(1)).collect(),
            exec_overhead: devices.iter().map(|d| d.exec_overhead_s).collect(),
            unit_overhead: devices.iter().map(|d| d.unit_overhead_s).collect(),
            speed_eff,
            placement_compute,
            links,
            requester,
            models,
        })
    }

    /// Number of interned devices.
    pub fn device_count(&self) -> usize {
        self.device_names.len()
    }

    /// Number of interned distinct modules.
    pub fn module_count(&self) -> usize {
        self.module_names.len()
    }

    /// The string id of device `d` (boundary translation).
    pub fn device_name(&self, d: u32) -> &DeviceId {
        &self.device_names[d as usize]
    }

    /// The string id of module `m` (boundary translation).
    pub fn module_name(&self, m: u32) -> &ModuleId {
        &self.module_names[m as usize]
    }

    /// Interns a device id, `None` if outside the fleet.
    pub fn device_index(&self, id: &DeviceId) -> Option<u32> {
        self.device_names
            .iter()
            .position(|d| d == id)
            .map(|i| i as u32)
    }

    /// Interns a module id, `None` if not deployed here.
    pub fn module_index(&self, id: &ModuleId) -> Option<u32> {
        // Module names are sorted (BTreeMap order), so binary search.
        self.module_names
            .binary_search_by(|m| m.cmp(id))
            .ok()
            .map(|i| i as u32)
    }

    /// Lexicographic rank of device `d` among the fleet's names — the
    /// comparison key for every "smaller device id wins" tie-break.
    pub fn device_rank(&self, d: u32) -> u32 {
        self.device_rank[d as usize]
    }

    /// The full spec of module `m`.
    pub fn module_spec(&self, m: u32) -> &ModuleSpec {
        &self.module_specs[m as usize]
    }

    /// The functional kind of module `m`.
    pub fn module_kind(&self, m: u32) -> ModuleKind {
        self.module_kinds[m as usize]
    }

    /// Resident memory requirement `r_m` of module `m`, bytes.
    pub(crate) fn module_memory(&self, m: u32) -> u64 {
        self.module_memory[m as usize]
    }

    /// Memory budget `R_n` of device `d`, bytes.
    pub(crate) fn device_budget(&self, d: u32) -> u64 {
        self.device_budget[d as usize]
    }

    /// Concurrent execution lanes of device `d` (≥ 1).
    pub(crate) fn parallelism(&self, d: u32) -> usize {
        self.device_parallelism[d as usize]
    }

    /// The request-originating device `n_q`.
    pub fn requester(&self) -> u32 {
        self.requester
    }

    /// Deployed models with interned module references, in
    /// `Instance::deployments()` order.
    pub fn models(&self) -> &[ResolvedModel] {
        &self.models
    }

    /// Index of a deployed model by name.
    pub fn model_index(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == name)
    }

    /// `t_comp(m, n, units)` — same formula and operation order as
    /// [`s2m3_net::device::DeviceSpec::compute_time`], so the result is
    /// bitwise identical to the string path.
    #[inline]
    pub fn compute_time_units(&self, m: u32, d: u32, units: f64) -> f64 {
        let nd = self.device_names.len();
        let cell = m as usize * nd + d as usize;
        self.exec_overhead[d as usize]
            + self.unit_overhead[d as usize] * units
            + (self.module_gflops[m as usize] * units) / self.speed_eff[cell]
    }

    /// `t_comp(m, n)` at placement-time units (Eqs. 5/6 scoring).
    #[inline]
    pub(crate) fn placement_compute(&self, m: u32, d: u32) -> f64 {
        self.placement_compute[m as usize * self.device_names.len() + d as usize]
    }

    /// Seconds to move `bytes` from device `a` to device `b`.
    #[inline]
    pub(crate) fn transfer_time(&self, a: u32, b: u32, bytes: u64) -> f64 {
        self.links[a as usize * self.device_names.len() + b as usize].transfer_time(bytes)
    }

    /// Interns a [`Placement`] into per-module host lists. Hosts outside
    /// this instance's fleet (e.g. departed devices) are dropped, exactly
    /// as the string-path routing never offers them.
    pub fn resolve_placement(&self, placement: &Placement) -> Vec<Vec<u32>> {
        let mut hosts = Vec::new();
        self.resolve_placement_into(placement, &mut hosts);
        hosts
    }

    /// [`Self::resolve_placement`] into a caller-owned buffer: the
    /// per-module host lists refill in place, so replan loops reuse
    /// their capacity instead of reallocating the whole table.
    pub fn resolve_placement_into(&self, placement: &Placement, hosts: &mut Vec<Vec<u32>>) {
        hosts.resize_with(self.module_count(), Vec::new);
        for h in hosts.iter_mut() {
            h.clear();
        }
        for (m, d) in placement.iter() {
            if let (Some(mi), Some(di)) = (self.module_index(m), self.device_index(d)) {
                hosts[mi as usize].push(di);
            }
        }
    }

    /// Interns a [`Route`] into a dense module → device map
    /// (`u32::MAX` for unrouted modules).
    pub fn resolve_route(&self, route: &Route) -> Vec<u32> {
        let mut out = vec![u32::MAX; self.module_count()];
        for (m, d) in route.iter() {
            if let (Some(mi), Some(di)) = (self.module_index(m), self.device_index(d)) {
                out[mi as usize] = di;
            }
        }
        out
    }

    /// Routes one canonical request of `model` over per-module host
    /// lists (Eq. 7) into `out` (cleared first): each module to the
    /// hosting device with the smallest `t_comp` for `profile`, names
    /// breaking ties, as `(module, device)` pairs in `encoders ++ [head]`
    /// order. Returns `false`, leaving `out` empty, if a required module
    /// has no host (the caller sheds or declares the placement
    /// unservable).
    pub fn route_model_into(
        &self,
        model: usize,
        profile: &RequestProfile,
        hosts: &[Vec<u32>],
        out: &mut Vec<(u32, u32)>,
    ) -> bool {
        out.clear();
        for m in self.models[model].modules() {
            let units = profile.units(self.module_kinds[m as usize]);
            let mut best: Option<(f64, u32)> = None;
            for &d in &hosts[m as usize] {
                let t = self.compute_time_units(m, d, units);
                let better = match best {
                    None => true,
                    Some((bt, bd)) => {
                        t < bt || (t == bt && self.device_rank(d) < self.device_rank(bd))
                    }
                };
                if better {
                    best = Some((t, d));
                }
            }
            let Some((_, d)) = best else {
                out.clear();
                return false;
            };
            out.push((m, d));
        }
        true
    }

    /// Prices one `profile`-shaped request from `source` over `route` —
    /// `(module, device)` pairs, encoders first and the head last, as
    /// [`Self::route_model_into`] yields them — into `out`, refilled in
    /// place. The operands and their order are [`crate::objective`]'s, so
    /// every term is bitwise the string path's.
    pub fn price_route(
        &self,
        profile: &RequestProfile,
        source: u32,
        route: &[(u32, u32)],
        out: &mut PricedRoute,
    ) {
        let (&(head, head_device), encoders) =
            route.split_last().expect("a route ends with its head");
        let head_kind = self.module_kinds[head as usize];
        let head_units = profile.units(head_kind);
        out.head = PricedTask {
            module: head,
            device: head_device,
            units: head_units,
            compute: self.compute_time_units(head, head_device, head_units),
            // Generative heads receive the raw query concurrently with
            // the encoders (Eq. 2's refinement).
            input_tx: if head_kind == ModuleKind::LanguageModel {
                self.transfer_time(source, head_device, profile.input_bytes(head_kind))
            } else {
                0.0
            },
            output_tx: 0.0,
        };
        out.encoders.clear();
        out.encoders.extend(encoders.iter().map(|&(m, d)| {
            let kind = self.module_kinds[m as usize];
            let units = profile.units(kind);
            PricedTask {
                module: m,
                device: d,
                units,
                compute: self.compute_time_units(m, d, units),
                input_tx: self.transfer_time(source, d, profile.input_bytes(kind)),
                output_tx: self.transfer_time(
                    d,
                    head_device,
                    self.module_specs[m as usize].output_bytes(units),
                ),
            }
        }));
        out.encoders.sort_by(|a, b| {
            b.compute
                .partial_cmp(&a.compute)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.module.cmp(&b.module))
        });
    }

    /// End-to-end latency `t_total` (Eq. 1) of a priced route: each
    /// device runs its encoders on its lanes in send order (on distinct
    /// devices, Eq. 2's max), then the head runs once the last embedding
    /// and the raw query have landed — [`crate::objective::total_latency`]'s
    /// arithmetic exactly, allocation-free once `priced` has been through it.
    pub fn route_latency(&self, priced: &mut PricedRoute) -> f64 {
        let (encoders, lanes) = (&priced.encoders, &mut priced.lanes);
        let mut t = 0.0f64;
        for (i, first) in encoders.iter().enumerate() {
            // A device's encoders are scheduled together, when its
            // first (longest) one comes up.
            if encoders[..i].iter().any(|e| e.device == first.device) {
                continue;
            }
            lanes.clear();
            lanes.resize(self.parallelism(first.device), 0.0);
            for e in encoders[i..].iter().filter(|e| e.device == first.device) {
                // Earliest-free lane (first minimal, as `min_by` picks);
                // execution cannot begin before the input arrives.
                let mut idx = 0;
                for (l, &free_at) in lanes.iter().enumerate().skip(1) {
                    if free_at < lanes[idx] {
                        idx = l;
                    }
                }
                let done = lanes[idx].max(e.input_tx) + e.compute;
                lanes[idx] = done;
                t = t.max(done + e.output_tx);
            }
        }
        // `t` is never NaN and at least 0, so a non-generative head's
        // zero query transfer leaves it as it is.
        t.max(priced.head.input_tx) + priced.head.compute
    }

    /// [`Self::route_latency`] of one `profile`-shaped request of `model`
    /// from `source`, `device_of` giving each module's routed device,
    /// priced into a fresh buffer (loops reuse one instead).
    pub fn total_latency(
        &self,
        model: usize,
        profile: &RequestProfile,
        source: u32,
        device_of: impl Fn(u32) -> u32,
    ) -> f64 {
        let route: Vec<(u32, u32)> = self.models[model]
            .modules()
            .map(|m| (m, device_of(m)))
            .collect();
        let mut priced = PricedRoute::default();
        self.price_route(profile, source, &route, &mut priced);
        self.route_latency(&mut priced)
    }
}

/// One module execution of a [`PricedRoute`], all times in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PricedTask {
    /// Module index.
    pub module: u32,
    /// Routed device index.
    pub device: u32,
    /// Work units of the request on this module.
    pub units: f64,
    /// `t_comp(m, n)`.
    pub compute: f64,
    /// Encoders: raw-input transfer from the request's source. Head: the
    /// raw-query transfer of a generative head, zero for any other.
    pub input_tx: f64,
    /// Encoders: embedding transfer to the head's device. Head: zero.
    pub output_tx: f64,
}

/// A routed request priced once by [`ResolvedInstance::price_route`]:
/// what each task runs on, for how long, and how long its inputs and
/// embeddings travel. A caller-owned buffer, refilled in place.
#[derive(Debug, Clone, Default)]
pub struct PricedRoute {
    /// The head (Eq. 3).
    pub head: PricedTask,
    /// The encoders (Eq. 2) in Algorithm 1's send order: longest compute
    /// first, module id (== index) breaking ties.
    pub encoders: Vec<PricedTask>,
    /// Lane free times: [`ResolvedInstance::route_latency`]'s scratch,
    /// not part of the pricing.
    lanes: Vec<f64>,
}

impl PartialEq for PricedRoute {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.encoders == other.encoders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective;
    use crate::placement::greedy_place;
    use crate::routing::route_request;
    use s2m3_net::fleet::Fleet;

    fn multi_instance() -> Instance {
        Instance::on_fleet(
            Fleet::standard_testbed(),
            &[
                ("CLIP ViT-B/16", 101),
                ("Encoder-only VQA (Small)", 1),
                ("AlignBind-B", 16),
                ("CLIP-Classifier Food-101", 0),
                ("Flint-v0.5-1B", 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn interning_round_trips_every_id() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        assert_eq!(r.device_count(), i.fleet().len());
        assert_eq!(r.module_count(), i.distinct_modules().len());
        for d in 0..r.device_count() as u32 {
            assert_eq!(r.device_index(r.device_name(d)), Some(d));
        }
        for m in 0..r.module_count() as u32 {
            assert_eq!(r.module_index(r.module_name(m)), Some(m));
        }
        assert!(r.device_index(&"ghost".into()).is_none());
        assert!(r.module_index(&"ghost/module".into()).is_none());
        assert_eq!(r.device_name(r.requester()), i.fleet().requester());
    }

    #[test]
    fn module_index_order_is_id_order() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        for w in 0..r.module_count().saturating_sub(1) {
            assert!(r.module_name(w as u32) < r.module_name(w as u32 + 1));
        }
    }

    #[test]
    fn device_rank_orders_by_name() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        for a in 0..r.device_count() as u32 {
            for b in 0..r.device_count() as u32 {
                assert_eq!(
                    r.device_rank(a) < r.device_rank(b),
                    r.device_name(a) < r.device_name(b),
                );
            }
        }
    }

    #[test]
    fn compute_tables_match_string_path_bitwise() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        for (mi, m) in i.distinct_modules().iter().enumerate() {
            for d in i.fleet().devices() {
                let di = r.device_index(&d.id).unwrap();
                for units in [1.0, 16.0, 101.0, 128.0] {
                    let via_string = d.compute_time(m, units);
                    let via_index = r.compute_time_units(mi as u32, di, units);
                    assert_eq!(via_string.to_bits(), via_index.to_bits());
                }
                assert_eq!(
                    i.compute_time(m, &d.id).unwrap().to_bits(),
                    r.placement_compute(mi as u32, di).to_bits()
                );
            }
        }
    }

    #[test]
    fn transfer_tables_match_topology_bitwise() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        let topo = i.fleet().topology();
        for a in i.fleet().devices() {
            for b in i.fleet().devices() {
                let (ai, bi) = (
                    r.device_index(&a.id).unwrap(),
                    r.device_index(&b.id).unwrap(),
                );
                for bytes in [0u64, 256, 500 * 1024] {
                    let via_string = topo.transfer_time(&a.id, &b.id, bytes).unwrap();
                    assert_eq!(
                        via_string.to_bits(),
                        r.transfer_time(ai, bi, bytes).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn resolved_objective_matches_string_objective_bitwise() {
        let i = multi_instance();
        let r = ResolvedInstance::new(&i).unwrap();
        let p = greedy_place(&i).unwrap();
        let hosts = r.resolve_placement(&p);
        let (mut routed, mut reused) = (Vec::new(), PricedRoute::default());
        for (k, dep) in i.deployments().iter().enumerate() {
            let q = i.request(k as u64, &dep.model.name).unwrap();
            let route = route_request(&i, &p, &q).unwrap();
            let via_string = objective::total_latency(&i, &route, &q).unwrap();

            let resolved_route = r.resolve_route(&route);
            let via_index =
                r.total_latency(k, &q.profile, r.requester(), |m| resolved_route[m as usize]);
            assert_eq!(
                via_string.to_bits(),
                via_index.to_bits(),
                "{}",
                dep.model.name
            );

            // Eq. 7 routing agrees with the string router, pair by pair.
            assert!(r.route_model_into(k, &q.profile, &hosts, &mut routed));
            for &(m, d) in &routed {
                assert_eq!(
                    route.device_for(r.module_name(m)).unwrap(),
                    r.device_name(d)
                );
            }
            // A buffer reused across models of every fan-out prices and
            // schedules like the fresh one above.
            r.price_route(&q.profile, r.requester(), &routed, &mut reused);
            assert_eq!(r.route_latency(&mut reused).to_bits(), via_index.to_bits());
        }
    }

    #[test]
    fn price_route_sends_the_longest_encoder_first() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let r = ResolvedInstance::new(&i).unwrap();
        let hosts = r.resolve_placement(&greedy_place(&i).unwrap());
        let profile = i.deployments()[0].profile;
        let mut route = Vec::new();
        assert!(r.route_model_into(0, &profile, &hosts, &mut route));
        let mut priced = PricedRoute::default();
        r.price_route(&profile, r.requester(), &route, &mut priced);
        assert_eq!(priced.encoders.len(), 2);
        // 101-prompt text encoding dominates single-image vision encoding.
        let first = r.module_name(priced.encoders[0].module);
        assert_eq!(first.as_str(), "text/CLIP-B-16");
        assert!(priced.encoders[0].compute >= priced.encoders[1].compute);
    }

    #[test]
    fn unhosted_module_is_unroutable() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let r = ResolvedInstance::new(&i).unwrap();
        let hosts = vec![Vec::new(); r.module_count()];
        let mut route = vec![(0, 0)];
        assert!(!r.route_model_into(0, &i.deployments()[0].profile, &hosts, &mut route));
        assert!(route.is_empty());
    }
}
