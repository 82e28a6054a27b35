//! Problem formulation: instances, requests, placements, routes (Sec. V-A).
//!
//! # What is identical is held once
//!
//! A plan pairs every request with a route, and a stream of 150,000
//! requests has five (model, source, profile, class) combinations and five
//! Eq. 7 answers. Both halves of the pair are therefore an id plus a
//! shared part: a [`Request`] is `id` + an `Arc<`[`RequestShape`]`>`, a
//! [`Route`] is `request_id` + an `Arc` of its assignment table — 16 bytes
//! each, no allocation per request, and the model name (still a `String`)
//! lives once per shape.
//!
//! Sharing is invisible through the API. Reads go through `Deref`
//! (`request.model`) or accessors (`route.device_for`); writes go through
//! one copy-on-write accessor each ([`Request::shape_mut`],
//! [`Route::assign`]) that copies the shared part first when anyone else
//! holds it; equality and JSON read contents, so two requests compare and
//! serialise the same whether they share a shape or hold equal ones.
//! What sharing buys besides bytes is a cheap identity test
//! ([`Request::shares_shape`], [`Route::shares_assignments`]): a pass over
//! a plan resolves each distinct shape or table once and recognises it
//! again by pointer, falling back to contents for anything it has not
//! seen. `true` implies equal contents; `false` implies nothing.
//!
//! Who shares: a clone shares with its original;
//! `WorkloadSpec::materialize` builds one shape per (model, source, class)
//! it emits; [`crate::plan::Plan::route_all`] hands out one table per
//! Eq. 7 answer. [`Instance::request`] allocates a shape per call — a loop
//! that builds many requests of one kind should build one and clone it
//! under new ids.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use s2m3_models::module::{ModuleId, ModuleKind, ModuleSpec};
use s2m3_models::zoo::{ModelSpec, Task, Zoo};
use s2m3_net::device::{DeviceId, DeviceSpec};
use s2m3_net::fleet::Fleet;

use crate::error::CoreError;

/// Default number of tokens a generative head processes per request
/// (prompt prefill plus decoded answer).
pub(crate) const DEFAULT_LLM_TOKENS: f64 = 128.0;

/// Per-request workload profile: how many work units each module kind
/// performs for one inference of this model.
///
/// Zero-shot retrieval/alignment encode one prompt per candidate class;
/// encoder-VQA encodes a single question; generative heads process
/// `llm_tokens` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestProfile {
    /// Work units for the text encoder (candidate prompts or questions).
    pub text_units: f64,
    /// Tokens processed by a generative (LLM) head.
    pub llm_tokens: f64,
}

impl RequestProfile {
    /// The canonical profile for `task` with `candidates` classes.
    pub(crate) fn for_task(task: Task, candidates: usize) -> Self {
        match task {
            Task::ImageTextRetrieval | Task::CrossModalAlignment => RequestProfile {
                text_units: candidates as f64,
                llm_tokens: 0.0,
            },
            Task::EncoderVqa => RequestProfile {
                text_units: 1.0,
                llm_tokens: 0.0,
            },
            Task::DecoderVqa | Task::ImageCaptioning => RequestProfile {
                text_units: 0.0,
                llm_tokens: DEFAULT_LLM_TOKENS,
            },
            Task::ImageClassification => RequestProfile {
                text_units: 0.0,
                llm_tokens: 0.0,
            },
        }
    }

    /// Work units module kind `kind` performs under this profile.
    pub fn units(&self, kind: ModuleKind) -> f64 {
        match kind {
            ModuleKind::VisionEncoder | ModuleKind::AudioEncoder => 1.0,
            ModuleKind::TextEncoder => self.text_units.max(1.0),
            ModuleKind::LanguageModel => self.llm_tokens.max(1.0),
            ModuleKind::DistanceHead | ModuleKind::ClassifierHead => 1.0,
        }
    }

    /// Bytes of raw user data shipped to a remote device hosting an
    /// encoder of `kind` (`t_comm(m, n_q, n)`'s payload).
    pub fn input_bytes(&self, kind: ModuleKind) -> u64 {
        match kind {
            ModuleKind::VisionEncoder => 500 * 1024,
            ModuleKind::AudioEncoder => 320 * 1024,
            ModuleKind::TextEncoder => 256 * self.text_units.max(1.0) as u64,
            // Generative heads receive the raw question/prompt.
            ModuleKind::LanguageModel => 256,
            _ => 0,
        }
    }
}

/// One model deployed in an instance, with its canonical workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The model.
    pub model: ModelSpec,
    /// Canonical per-request workload.
    pub profile: RequestProfile,
}

/// A request's service class: the latency deadline it is held to and a
/// scheduling priority (higher dispatches first under priority-aware
/// admission policies). Workload layers attach classes by seeded
/// weighted sampling; a request without a class falls back to whatever
/// scenario-wide deadline its consumer defines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadlineClass {
    /// Human-readable class name (e.g. `"interactive"`, `"batch"`).
    pub name: String,
    /// Per-request latency SLO, seconds (deadline = arrival + this).
    pub deadline_s: f64,
    /// Scheduling priority; larger is more urgent. The default class of
    /// consumers that predate classes is priority 0.
    pub priority: u32,
}

/// What a request asks for, apart from which request it is: the model,
/// where it originates, its workload and its service class. A stream of
/// 150,000 requests has a handful of these — one per (model, source,
/// class) it emits — so [`Request`] holds one behind an [`Arc`] and the
/// stream's requests share it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestShape {
    /// Model name (`k(q)`).
    pub model: String,
    /// Source device (`n_q`).
    pub source: DeviceId,
    /// Workload of this request.
    pub profile: RequestProfile,
    /// Service class, when the workload assigns one.
    pub class: Option<DeadlineClass>,
}

/// An inference request `q`: an id plus a shared [`RequestShape`] (which
/// model it needs, where it originates, its workload and class).
///
/// The shape's fields read through [`Deref`](std::ops::Deref)
/// (`request.model`, `request.source`, …) and are written through
/// [`Request::shape_mut`], which copies the shape first when anyone else
/// holds it (copy-on-write, the [`Route::assign`] rule) — so sharing is
/// invisible through the API. Equality compares the id and the shape's
/// *contents*; JSON is the flat `{id, model, source, profile[, class]}`
/// object whether or not the shape is shared. [`Request::shares_shape`] is
/// the pointer-identity test the per-request passes
/// ([`crate::plan::Plan::route_all`], [`crate::objective::validate`], the
/// simulator's task builder) use to recognise a shape they have already
/// resolved, with the by-content path as their fallback.
///
/// The [module docs](self) say who shares shapes and why a loop should
/// clone a template rather than call [`Instance::request`] per request.
///
/// Serialization note: `class` is omitted when `None` (hand-written
/// impls below) so plans from class-free workloads keep the exact JSON
/// shape pinned by `tests/fixtures/plan_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request identifier.
    pub id: u64,
    shape: Arc<RequestShape>,
}

// The plan holds one of these per request: an id and a pointer each.
const _: () = assert!(std::mem::size_of::<Request>() <= 16);
const _: () = assert!(std::mem::size_of::<(Request, Route)>() <= 32);

impl Request {
    /// A request with a shape of its own.
    pub fn new(id: u64, shape: RequestShape) -> Self {
        Request {
            id,
            shape: Arc::new(shape),
        }
    }

    /// The shape, for writing: copied first if another request shares it.
    pub fn shape_mut(&mut self) -> &mut RequestShape {
        Arc::make_mut(&mut self.shape)
    }

    /// Whether both requests hold the *same* shape, not merely equal
    /// ones: `true` implies equal contents, `false` implies nothing.
    pub fn shares_shape(&self, other: &Request) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }
}

/// What a pass over a request list has worked out per distinct
/// [`RequestShape`], found again by pointer identity: a hit costs a few
/// pointer compares instead of a lookup by model name. Bounded — past
/// [`ShapeMemo::CAPACITY`] shapes (a list of requests that share nothing)
/// it stops remembering and every further shape takes the caller's
/// by-content path, which must therefore always give the same answer.
pub(crate) struct ShapeMemo<T> {
    // Holding the `Arc` keeps the shape alive, so its address cannot be
    // reused by another shape while it is a key here.
    seen: Vec<(Arc<RequestShape>, T)>,
}

impl<T> ShapeMemo<T> {
    /// Distinct shapes remembered; real streams have models × sources ×
    /// classes of them.
    const CAPACITY: usize = 32;

    pub(crate) fn new() -> Self {
        ShapeMemo { seen: Vec::new() }
    }

    /// What was remembered for the shape `request` holds; failing that,
    /// what `resolve` — the caller's by-content path — makes of it,
    /// remembered for the shape's next holder if there is room.
    pub(crate) fn get_or_try_insert_with<E>(
        &mut self,
        request: &Request,
        resolve: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E>
    where
        T: Clone,
    {
        if let Some((_, value)) = self
            .seen
            .iter()
            .find(|(shape, _)| Arc::ptr_eq(shape, &request.shape))
        {
            return Ok(value.clone());
        }
        let value = resolve()?;
        if self.seen.len() < Self::CAPACITY {
            self.seen.push((Arc::clone(&request.shape), value.clone()));
        }
        Ok(value)
    }
}

impl std::ops::Deref for Request {
    type Target = RequestShape;

    fn deref(&self) -> &RequestShape {
        &self.shape
    }
}

impl Serialize for Request {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = s.serialize_struct("Request", 4 + usize::from(self.class.is_some()))?;
        st.serialize_field("id", &self.id)?;
        st.serialize_field("model", &self.model)?;
        st.serialize_field("source", &self.source)?;
        st.serialize_field("profile", &self.profile)?;
        if let Some(class) = &self.class {
            st.serialize_field("class", class)?;
        }
        st.end()
    }
}

/// The flat JSON form of a [`Request`], which `Deserialize` reads
/// before sharing the shape.
#[derive(Deserialize)]
struct FlatRequest {
    id: u64,
    model: String,
    source: DeviceId,
    profile: RequestProfile,
    #[serde(default)]
    class: Option<DeadlineClass>,
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let flat = FlatRequest::deserialize(d)?;
        Ok(Request::new(
            flat.id,
            RequestShape {
                model: flat.model,
                source: flat.source,
                profile: flat.profile,
                class: flat.class,
            },
        ))
    }
}

/// Placement decision `x`: which devices host each module. A module may
/// be replicated on several devices.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    assignments: BTreeMap<ModuleId, BTreeSet<DeviceId>>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places module `m` on device `n` (`x_{m,n} = 1`).
    pub fn place(&mut self, m: ModuleId, n: DeviceId) {
        self.assignments.entry(m).or_default().insert(n);
    }

    /// Devices hosting `m` (`N_m`), empty if unplaced.
    pub fn hosts(&self, m: &ModuleId) -> impl Iterator<Item = &DeviceId> {
        self.assignments.get(m).into_iter().flatten()
    }

    /// Whether `x_{m,n} = 1`.
    pub fn is_placed(&self, m: &ModuleId, n: &DeviceId) -> bool {
        self.assignments.get(m).is_some_and(|s| s.contains(n))
    }

    /// All `(module, device)` pairs with `x = 1`, in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&ModuleId, &DeviceId)> {
        self.assignments
            .iter()
            .flat_map(|(m, ds)| ds.iter().map(move |d| (m, d)))
    }

    /// Distinct modules placed.
    #[cfg(test)]
    pub(crate) fn modules(&self) -> impl Iterator<Item = &ModuleId> {
        self.assignments.keys()
    }

    /// Number of `(module, device)` assignments.
    pub fn len(&self) -> usize {
        self.assignments.values().map(|s| s.len()).sum()
    }

    /// Whether nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Keeps only the assignments for which `f(module, device)` holds,
    /// dropping modules left with no hosts. Equivalent to rebuilding
    /// the surviving placement pair by pair, without the rebuild.
    pub fn retain(&mut self, mut f: impl FnMut(&ModuleId, &DeviceId) -> bool) {
        self.assignments.retain(|m, ds| {
            ds.retain(|d| f(m, d));
            !ds.is_empty()
        });
    }
}

/// Routing decision `y^q` for one request: exactly one hosting device per
/// required module.
///
/// The assignment table is held behind an [`Arc`]: with the placement
/// fixed, Eq. 7 gives every request of one (model, profile) the same
/// hosts, so [`crate::plan::Plan::route_all`] hands them all one table
/// under their own `request_id` and a clone or drop is a reference-count
/// step, not a tree copy. Sharing is invisible through the API:
/// [`Route::assign`] copies the table first when anyone else holds it
/// (copy-on-write), and equality and JSON read the table's contents.
/// [`Route::shares_assignments`] is the cheap identity test caches use
/// before falling back to comparing contents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// The request this route serves.
    pub request_id: u64,
    assignments: Arc<BTreeMap<ModuleId, DeviceId>>,
}

impl Route {
    /// Creates an empty route for a request.
    pub fn new(request_id: u64) -> Self {
        Route {
            request_id,
            assignments: Arc::default(),
        }
    }

    /// Routes module `m` to device `n` (`y^q_{m,n} = 1`).
    pub fn assign(&mut self, m: ModuleId, n: DeviceId) {
        Arc::make_mut(&mut self.assignments).insert(m, n);
    }

    /// The device serving `m`, if routed.
    pub fn device_for(&self, m: &ModuleId) -> Option<&DeviceId> {
        self.assignments.get(m)
    }

    /// All `(module, device)` routing pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ModuleId, &DeviceId)> {
        self.assignments.iter()
    }

    /// Whether both routes hold the *same* assignment table, not merely
    /// equal ones: `true` implies equal pairs, `false` implies nothing.
    pub fn shares_assignments(&self, other: &Route) -> bool {
        Arc::ptr_eq(&self.assignments, &other.assignments)
    }
}

/// A complete problem instance: the fleet `N` and the deployed models `K`
/// with their workload profiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    fleet: Fleet,
    deployments: Vec<Deployment>,
}

impl Instance {
    /// Builds an instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyFleet`] on an empty fleet.
    pub fn new(fleet: Fleet, deployments: Vec<Deployment>) -> Result<Self, CoreError> {
        if fleet.is_empty() {
            return Err(CoreError::EmptyFleet);
        }
        Ok(Instance { fleet, deployments })
    }

    /// Convenience: one standard-zoo model on the paper's edge-only fleet
    /// (desktop, laptop, two Jetsons; requester Jetson A), `candidates`
    /// benchmark classes.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownModel`] for names outside the standard zoo.
    pub fn single_model(name: &str, candidates: usize) -> Result<Self, CoreError> {
        Self::on_fleet(Fleet::edge_testbed(), &[(name, candidates)])
    }

    /// Convenience: several standard-zoo models on a given fleet.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownModel`] for names outside the standard zoo.
    pub fn on_fleet(fleet: Fleet, models: &[(&str, usize)]) -> Result<Self, CoreError> {
        let zoo = Zoo::standard();
        let mut deployments = Vec::new();
        for (name, candidates) in models {
            let model = zoo
                .model(name)
                .ok_or_else(|| CoreError::UnknownModel((*name).to_string()))?
                .clone();
            let profile = RequestProfile::for_task(model.task, *candidates);
            deployments.push(Deployment { model, profile });
        }
        Instance::new(fleet, deployments)
    }

    /// The device fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// A copy of this instance on a different fleet (Table IX sweeps).
    pub fn with_fleet(&self, fleet: Fleet) -> Result<Self, CoreError> {
        Instance::new(fleet, self.deployments.clone())
    }

    /// Deployed models with profiles.
    pub fn deployments(&self) -> &[Deployment] {
        &self.deployments
    }

    /// Looks up a deployment by model name.
    pub fn deployment(&self, model: &str) -> Option<&Deployment> {
        self.deployments.iter().find(|d| d.model.name == model)
    }

    /// Position in [`Instance::deployments`] of the deployment of `model`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownModel`] if `model` is not deployed here.
    pub(crate) fn deployment_index(&self, model: &str) -> Result<usize, CoreError> {
        self.deployments
            .iter()
            .position(|d| d.model.name == model)
            .ok_or_else(|| CoreError::UnknownModel(model.to_string()))
    }

    /// The distinct module set `M = ∪_k M_k`, in stable id order.
    pub fn distinct_modules(&self) -> Vec<&ModuleSpec> {
        let mut seen = BTreeMap::new();
        for d in &self.deployments {
            for m in d.model.modules() {
                seen.entry(m.id.clone()).or_insert(m);
            }
        }
        seen.into_values().collect()
    }

    /// Work units to assume for `module` at *placement* time: the maximum
    /// over deployed models that use it (conservative for shared modules).
    pub(crate) fn placement_units(&self, module: &ModuleSpec) -> f64 {
        self.deployments
            .iter()
            .filter(|d| d.model.modules().any(|m| m.id == module.id))
            .map(|d| d.profile.units(module.kind))
            .fold(1.0, f64::max)
    }

    /// `t_comp(m, n)` with placement-time units, seconds.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDevice`] for devices outside the fleet.
    #[cfg(test)]
    pub(crate) fn compute_time(
        &self,
        module: &ModuleSpec,
        device: &DeviceId,
    ) -> Result<f64, CoreError> {
        let d = self.device(device)?;
        Ok(d.compute_time(module, self.placement_units(module)))
    }

    /// `t_comp(m, n)` for a specific request profile, seconds.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDevice`] for devices outside the fleet.
    pub(crate) fn compute_time_for(
        &self,
        module: &ModuleSpec,
        device: &DeviceId,
        profile: &RequestProfile,
    ) -> Result<f64, CoreError> {
        let d = self.device(device)?;
        Ok(d.compute_time(module, profile.units(module.kind)))
    }

    /// Looks up a device spec.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDevice`] if absent from the fleet.
    pub fn device(&self, id: &DeviceId) -> Result<&DeviceSpec, CoreError> {
        self.fleet
            .device(id.as_str())
            .ok_or_else(|| CoreError::UnknownDevice(id.clone()))
    }

    /// Builds a request for `model` originating at the fleet's requester,
    /// with a [`RequestShape`] of its own (clone the result under new ids
    /// to build many alike).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownModel`] if `model` is not deployed here.
    pub fn request(&self, id: u64, model: &str) -> Result<Request, CoreError> {
        let d = self
            .deployment(model)
            .ok_or_else(|| CoreError::UnknownModel(model.to_string()))?;
        Ok(Request::new(
            id,
            RequestShape {
                model: d.model.name.clone(),
                source: self.fleet.requester().clone(),
                profile: d.profile,
                class: None,
            },
        ))
    }

    /// A *dedicated* (no-sharing) variant of this instance: every model's
    /// modules get model-qualified ids, so nothing is shared. Used for
    /// the Table X "w/o sharing" comparison.
    pub fn dedicated(&self) -> Self {
        let deployments = self
            .deployments
            .iter()
            .map(|d| {
                let encoders = d
                    .model
                    .encoders()
                    .iter()
                    .map(|m| qualify(m, &d.model.name))
                    .collect();
                let head = qualify(d.model.head(), &d.model.name);
                Deployment {
                    model: ModelSpec::new(d.model.name.clone(), d.model.task, encoders, head)
                        .expect("requalified model stays valid"),
                    profile: d.profile,
                }
            })
            .collect();
        Instance {
            fleet: self.fleet.clone(),
            deployments,
        }
    }
}

fn qualify(m: &ModuleSpec, owner: &str) -> ModuleSpec {
    let mut q = m.clone();
    q.id = ModuleId::new(format!("{owner}::{}", m.id));
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_task_semantics() {
        let retrieval = RequestProfile::for_task(Task::ImageTextRetrieval, 101);
        assert_eq!(retrieval.units(ModuleKind::TextEncoder), 101.0);
        assert_eq!(retrieval.units(ModuleKind::VisionEncoder), 1.0);
        let vqa = RequestProfile::for_task(Task::EncoderVqa, 101);
        assert_eq!(vqa.units(ModuleKind::TextEncoder), 1.0);
        let dec = RequestProfile::for_task(Task::DecoderVqa, 0);
        assert_eq!(dec.units(ModuleKind::LanguageModel), DEFAULT_LLM_TOKENS);
        let cls = RequestProfile::for_task(Task::ImageClassification, 0);
        assert_eq!(cls.units(ModuleKind::ClassifierHead), 1.0);
    }

    #[test]
    fn input_bytes_scale_with_prompts() {
        let p = RequestProfile::for_task(Task::ImageTextRetrieval, 10);
        assert_eq!(p.input_bytes(ModuleKind::TextEncoder), 2560);
        assert_eq!(p.input_bytes(ModuleKind::VisionEncoder), 500 * 1024);
        assert_eq!(p.input_bytes(ModuleKind::DistanceHead), 0);
    }

    #[test]
    fn single_model_instance_builds() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        assert_eq!(i.fleet().len(), 4); // edge-only fleet
        assert_eq!(i.distinct_modules().len(), 3);
        assert!(Instance::single_model("CLIP ViT-Z/99", 10).is_err());
    }

    #[test]
    fn distinct_modules_dedupe_across_models() {
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 101), ("Encoder-only VQA (Small)", 1)],
        )
        .unwrap();
        // Shared vision+text, cosine head + classifier head = 4 distinct.
        assert_eq!(i.distinct_modules().len(), 4);
    }

    #[test]
    fn dedicated_variant_unshares_modules() {
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 101), ("Encoder-only VQA (Small)", 1)],
        )
        .unwrap();
        let d = i.dedicated();
        assert_eq!(d.distinct_modules().len(), 6);
        assert!(d
            .distinct_modules()
            .iter()
            .all(|m| m.id.as_str().contains("::")));
    }

    #[test]
    fn placement_units_take_max_over_sharing_models() {
        // Text encoder shared between retrieval (101 prompts) and
        // encoder-VQA (1 question): placement assumes 101.
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 101), ("Encoder-only VQA (Small)", 1)],
        )
        .unwrap();
        let text = i
            .distinct_modules()
            .into_iter()
            .find(|m| m.kind == ModuleKind::TextEncoder)
            .unwrap()
            .clone();
        assert_eq!(i.placement_units(&text), 101.0);
    }

    #[test]
    fn placement_and_route_bookkeeping() {
        let mut p = Placement::new();
        p.place("vision/ViT-B-16".into(), "desktop".into());
        p.place("vision/ViT-B-16".into(), "laptop".into());
        p.place("head/cosine".into(), "jetson-a".into());
        assert_eq!(p.len(), 3);
        assert!(p.is_placed(&"vision/ViT-B-16".into(), &"laptop".into()));
        assert!(!p.is_placed(&"vision/ViT-B-16".into(), &"jetson-a".into()));
        assert_eq!(p.hosts(&"vision/ViT-B-16".into()).count(), 2);
        assert_eq!(p.modules().count(), 2);

        let mut r = Route::new(7);
        r.assign("vision/ViT-B-16".into(), "desktop".into());
        assert_eq!(
            r.device_for(&"vision/ViT-B-16".into()).unwrap().as_str(),
            "desktop"
        );
        assert!(r.device_for(&"head/cosine".into()).is_none());
    }

    #[test]
    fn requests_originate_at_the_requester() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let q = i.request(3, "CLIP ViT-B/16").unwrap();
        assert_eq!(q.source.as_str(), "jetson-a");
        assert_eq!(q.profile.text_units, 101.0);
        assert!(i.request(4, "nope").is_err());
    }

    #[test]
    fn request_json_parses_with_and_without_class_and_round_trips() {
        let bare = r#"{"id":3,"model":"CLIP ViT-B/16","source":"jetson-a","profile":{"text_units":101.0,"llm_tokens":0.0}}"#;
        let q: Request = serde_json::from_str(bare).unwrap();
        assert_eq!(q.class, None);
        assert_eq!(serde_json::to_string(&q).unwrap(), bare);

        let classed = r#"{"id":4,"model":"CLIP ViT-B/16","source":"jetson-a","profile":{"text_units":1.0,"llm_tokens":0.0},"class":{"name":"batch","deadline_s":30.0,"priority":0}}"#;
        let q: Request = serde_json::from_str(classed).unwrap();
        assert_eq!(q.class.as_ref().map(|c| c.name.as_str()), Some("batch"));
        assert_eq!(serde_json::to_string(&q).unwrap(), classed);
    }

    #[test]
    fn compute_time_distinguishes_profiles() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let text = i
            .distinct_modules()
            .into_iter()
            .find(|m| m.kind == ModuleKind::TextEncoder)
            .unwrap()
            .clone();
        let dev: DeviceId = "laptop".into();
        let full = i.compute_time(&text, &dev).unwrap();
        let single = i
            .compute_time_for(
                &text,
                &dev,
                &RequestProfile {
                    text_units: 1.0,
                    llm_tokens: 0.0,
                },
            )
            .unwrap();
        assert!(full > 20.0 * single);
        assert!(i.compute_time(&text, &"ghost".into()).is_err());
    }
}
