//! The split executor: each module of a request runs on the device its
//! route names, and every value that crosses devices crosses as bytes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use s2m3_core::error::CoreError;
use s2m3_core::plan::Plan;
use s2m3_core::problem::{Instance, Request, Route};
use s2m3_models::exec::Executable;
use s2m3_models::module::{ModuleId, ModuleKind};
use s2m3_models::zoo::ModelSpec;
use s2m3_net::device::DeviceId;
use s2m3_tensor::Matrix;

use crate::input::RequestInput;

/// Runtime errors.
#[derive(Debug)]
pub enum RuntimeError {
    /// A core-layer lookup failed.
    Core(CoreError),
    /// Building or running an executable module failed.
    Exec(String),
    /// The route sends a module to a device the placement does not put
    /// it on.
    NotHosted {
        /// The device the route names.
        device: DeviceId,
        /// The module it does not host.
        module: ModuleId,
    },
    /// The request input lacks a payload for an encoder kind.
    MissingInput(ModuleKind),
    /// A plan's request has no entry in the inputs map.
    NoInput(u64),
    /// A module the route needs is not in the placement.
    NotPlaced(ModuleId),
    /// Serialization failed.
    Serde(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Core(e) => write!(f, "core: {e}"),
            RuntimeError::Exec(e) => write!(f, "exec: {e}"),
            RuntimeError::NotHosted { device, module } => {
                write!(f, "{device}: module {module} not hosted")
            }
            RuntimeError::MissingInput(k) => write!(f, "no input payload for {k}"),
            RuntimeError::NoInput(id) => write!(f, "no input for request {id}"),
            RuntimeError::NotPlaced(m) => write!(f, "module {m} is not placed"),
            RuntimeError::Serde(e) => write!(f, "serialization: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

/// One plan's placement, built: the executable modules each device
/// hosts. A request runs on the caller's thread and keeps no state
/// behind, so a failed request leaves nothing a retry could trip on.
pub struct Runtime {
    hosted: BTreeMap<DeviceId, BTreeMap<ModuleId, Executable>>,
    models: BTreeMap<String, ModelSpec>,
}

impl Runtime {
    /// Builds the executable modules every device hosts under `plan`'s
    /// placement.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Exec`] if an executable module cannot be built.
    pub fn start(instance: &Instance, plan: &Plan) -> Result<Self, RuntimeError> {
        let specs: BTreeMap<ModuleId, _> = instance
            .distinct_modules()
            .into_iter()
            .map(|m| (m.id.clone(), m))
            .collect();
        let mut hosted: BTreeMap<DeviceId, BTreeMap<ModuleId, Executable>> = BTreeMap::new();
        for (m, n) in plan.placement.iter() {
            let Some(spec) = specs.get(m) else { continue };
            let exec = Executable::for_spec(spec).map_err(exec_error)?;
            hosted.entry(n.clone()).or_default().insert(m.clone(), exec);
        }
        let models = instance
            .deployments()
            .iter()
            .map(|d| (d.model.name.clone(), d.model.clone()))
            .collect();
        Ok(Runtime { hosted, models })
    }

    /// Runs one request along `route`: each encoder on its routed device,
    /// then the head on the head's device. The modality inputs, the
    /// embeddings, the query and the output each cross to the next device
    /// through the wire format.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] variants on unknown models, unplaced or unhosted
    /// modules, missing payloads, and module failures.
    pub fn infer(
        &self,
        request: &Request,
        route: &Route,
        input: &RequestInput,
    ) -> Result<Matrix, RuntimeError> {
        let model = self
            .models
            .get(&request.model)
            .ok_or_else(|| RuntimeError::Core(CoreError::UnknownModel(request.model.clone())))?;
        let head = model.head();
        let mut encodings = Vec::with_capacity(model.encoders().len());
        for enc in model.encoders() {
            let payload = input
                .for_kind(enc.kind)
                .ok_or(RuntimeError::MissingInput(enc.kind))?;
            let embedding = self
                .module(route, &enc.id)?
                .encode(&wire(payload)?)
                .map_err(exec_error)?;
            encodings.push((enc.kind, wire(&embedding)?));
        }
        let query = input.query.as_ref().map(wire).transpose()?;
        let output = self
            .module(route, &head.id)?
            .run_head(&encodings, query.as_ref())
            .map_err(exec_error)?;
        wire(&output)
    }

    /// Runs every routed request of a plan and returns the outputs keyed
    /// by request id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoInput`] for a request `inputs` lacks; otherwise
    /// see [`Runtime::infer`].
    pub fn execute_plan(
        &self,
        plan: &Plan,
        inputs: &BTreeMap<u64, RequestInput>,
    ) -> Result<BTreeMap<u64, Matrix>, RuntimeError> {
        plan.routed
            .iter()
            .map(|(request, route)| {
                let input = inputs
                    .get(&request.id)
                    .ok_or(RuntimeError::NoInput(request.id))?;
                Ok((request.id, self.infer(request, route, input)?))
            })
            .collect()
    }

    /// The executable of `module` on the device `route` sends it to.
    fn module(&self, route: &Route, module: &ModuleId) -> Result<&Executable, RuntimeError> {
        let device = route
            .device_for(module)
            .ok_or_else(|| RuntimeError::NotPlaced(module.clone()))?;
        self.hosted
            .get(device)
            .and_then(|modules| modules.get(module))
            .ok_or_else(|| RuntimeError::NotHosted {
                device: device.clone(),
                module: module.clone(),
            })
    }
}

fn exec_error(e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Exec(e.to_string())
}

/// Carries `value` across a device boundary: serialized to bytes and read
/// back, so a split run computes on exactly what the wire format holds.
fn wire<T: Serialize + for<'de> Deserialize<'de>>(value: &T) -> Result<T, RuntimeError> {
    let serde_error = |e: serde_json::Error| RuntimeError::Serde(e.to_string());
    let bytes = serde_json::to_vec(value).map_err(serde_error)?;
    serde_json::from_slice(&bytes).map_err(serde_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn setup(name: &str, candidates: usize) -> (Instance, Plan, Request) {
        let i = Instance::single_model(name, candidates).unwrap();
        let q = i.request(0, name).unwrap();
        let plan = Plan::greedy(&i, vec![q.clone()]).unwrap();
        (i, plan, q)
    }

    #[test]
    fn distributed_equals_centralized_bitwise() {
        // Table VIII's property, for one model per task family.
        for (name, c) in [
            ("CLIP ViT-B/16", 8),
            ("Encoder-only VQA (Small)", 1),
            ("Flint-v0.5-1B", 1),
            ("AlignBind-B", 6),
            ("CLIP-Classifier Food-101", 0),
            ("NLP Connect ViT-GPT2", 0),
        ] {
            let (i, plan, q) = setup(name, c);
            let model = &i.deployment(name).unwrap().model;
            let input = RequestInput::synthetic(model, "sample-7", c.max(1));
            let rt = Runtime::start(&i, &plan).unwrap();
            let distributed = rt.infer(&q, &plan.routed[0].1, &input).unwrap();
            let central = reference::run_model(model, &input).unwrap();
            assert_eq!(distributed, central, "{name}: split changed the output");
        }
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let i = Instance::single_model("CLIP ViT-B/16", 8).unwrap();
        let requests: Vec<_> = (0..6)
            .map(|k| i.request(k, "CLIP ViT-B/16").unwrap())
            .collect();
        let plan = Plan::greedy(&i, requests).unwrap();
        let model = &i.deployment("CLIP ViT-B/16").unwrap().model;
        let inputs: BTreeMap<u64, RequestInput> = (0..6)
            .map(|k| (k, RequestInput::synthetic(model, &format!("img-{k}"), 8)))
            .collect();
        let rt = Runtime::start(&i, &plan).unwrap();
        let results = rt.execute_plan(&plan, &inputs).unwrap();
        assert_eq!(results.len(), 6);
        // Different inputs produce different outputs; same inputs would
        // be identical.
        assert_ne!(results[&0], results[&1]);
    }

    #[test]
    fn missing_payload_is_reported() {
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let rt = Runtime::start(&i, &plan).unwrap();
        let mut input =
            RequestInput::synthetic(&i.deployment("CLIP ViT-B/16").unwrap().model, "x", 8);
        input
            .modalities
            .retain(|m| m.modality != s2m3_models::input::Modality::Text);
        let err = rt.infer(&q, &plan.routed[0].1, &input).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::MissingInput(ModuleKind::TextEncoder)
        ));
    }

    #[test]
    fn unplaced_route_is_reported() {
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let rt = Runtime::start(&i, &plan).unwrap();
        let input = RequestInput::synthetic(&i.deployment("CLIP ViT-B/16").unwrap().model, "x", 8);
        let bad_route = Route::new(q.id); // empty
        let err = rt.infer(&q, &bad_route, &input).unwrap_err();
        assert!(matches!(err, RuntimeError::NotPlaced(_)));
    }

    #[test]
    fn worker_failure_surfaces_wrong_host() {
        // Route the vision encoder to a device that does not host it.
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let rt = Runtime::start(&i, &plan).unwrap();
        let input = RequestInput::synthetic(&i.deployment("CLIP ViT-B/16").unwrap().model, "x", 8);
        let mut bad_route = plan.routed[0].1.clone();
        let vision: ModuleId = "vision/ViT-B-16".into();
        let wrong: DeviceId = if plan.placement.is_placed(&vision, &"jetson-a".into()) {
            "jetson-b".into()
        } else {
            "jetson-a".into()
        };
        bad_route.assign(vision.clone(), wrong.clone());
        let err = rt.infer(&q, &bad_route, &input).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("{wrong}: module {vision} not hosted")
        );
        assert!(
            matches!(&err, RuntimeError::NotHosted { device, module }
                if *device == wrong && *module == vision),
            "{err:?}"
        );
    }

    #[test]
    fn placement_choice_does_not_change_output() {
        // Run the same request under two different placements; outputs
        // must be bit-identical (module purity).
        let i = Instance::single_model("CLIP ViT-B/16", 8).unwrap();
        let q = i.request(0, "CLIP ViT-B/16").unwrap();
        let model = &i.deployment("CLIP ViT-B/16").unwrap().model;
        let input = RequestInput::synthetic(model, "invariance", 8);

        let plan_a = Plan::greedy(&i, vec![q.clone()]).unwrap();
        // Alternative placement: everything on the desktop.
        let mut all_desktop = s2m3_core::problem::Placement::new();
        for m in i.distinct_modules() {
            all_desktop.place(m.id.clone(), "desktop".into());
        }
        let plan_b = Plan::route_all(&i, all_desktop, vec![q.clone()]).unwrap();

        let rt_a = Runtime::start(&i, &plan_a).unwrap();
        let out_a = rt_a.infer(&q, &plan_a.routed[0].1, &input).unwrap();
        let rt_b = Runtime::start(&i, &plan_b).unwrap();
        let out_b = rt_b.infer(&q, &plan_b.routed[0].1, &input).unwrap();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn missing_request_input_names_the_request() {
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let rt = Runtime::start(&i, &plan).unwrap();
        let err = rt.execute_plan(&plan, &BTreeMap::new()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NoInput(id) if id == q.id),
            "{err}"
        );
        assert_eq!(err.to_string(), format!("no input for request {}", q.id));
    }

    #[test]
    fn wire_keeps_every_f32_bit_and_rejects_nan() {
        let edge = [
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            1.0 + f32::EPSILON,
        ];
        let mut m = Matrix::zeros(1, edge.len());
        m.row_mut(0).unwrap().copy_from_slice(&edge);
        let back = wire(&m).unwrap();
        let bits = |m: &Matrix| {
            m.row(0)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&m));

        let mut nan = Matrix::zeros(1, 1);
        *nan.at_mut(0, 0) = f32::NAN;
        match wire(&nan) {
            Err(RuntimeError::Serde(e)) => assert!(e.contains("data"), "{e}"),
            other => panic!("expected a serialization error, got {other:?}"),
        }
    }
}
