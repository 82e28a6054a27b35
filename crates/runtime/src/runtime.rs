//! The coordinator-side runtime handle.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::Duration;

use s2m3_core::error::CoreError;
use s2m3_core::plan::Plan;
use s2m3_core::problem::{Instance, Request, Route};
use s2m3_models::exec::Executable;
use s2m3_models::module::{ModuleId, ModuleKind};
use s2m3_models::zoo::ModelSpec;
use s2m3_net::device::DeviceId;
use s2m3_net::envelope::Envelope;
use s2m3_net::transport::{InMemoryNetwork, Mailbox, TransportError};
use s2m3_tensor::Matrix;

use crate::input::RequestInput;
use crate::messages::{HeadContext, RuntimeMsg, COORDINATOR, TAG};
use crate::worker::Worker;

/// Default wait for a request's result.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Runtime errors.
#[derive(Debug)]
pub enum RuntimeError {
    /// A core-layer lookup failed.
    Core(CoreError),
    /// Message transport failed.
    Transport(TransportError),
    /// Building an executable module failed.
    Exec(String),
    /// A worker reported a failure for this request.
    Worker {
        /// The failing request.
        request: u64,
        /// The worker's reason.
        reason: String,
    },
    /// The timeout passed with no further result while waiting for
    /// `expected` results, of which `arrived` had come in.
    Timeout {
        /// Results received before the wait gave up.
        arrived: usize,
        /// Results the wait was for.
        expected: usize,
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
            RuntimeError::Transport(e) => write!(f, "transport: {e}"),
            RuntimeError::Exec(e) => write!(f, "exec: {e}"),
            RuntimeError::Worker { request, reason } => {
                write!(f, "worker failure for request {request}: {reason}")
            }
            RuntimeError::Timeout { arrived, expected } => {
                write!(f, "timed out with {arrived} of {expected} results")
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

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport(e)
    }
}

/// A running fleet of device workers executing one plan's placement,
/// one thread per device, connected by an [`InMemoryNetwork`].
pub struct Runtime {
    net: InMemoryNetwork,
    coordinator: Mailbox,
    devices: Vec<DeviceId>,
    handles: Vec<JoinHandle<()>>,
    models: BTreeMap<String, ModelSpec>,
    timeout: Duration,
}

impl Runtime {
    /// Boots one worker thread per fleet device on a fresh bus.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Exec`] if an executable module cannot be built.
    pub fn start(instance: &Instance, plan: &Plan) -> Result<Self, RuntimeError> {
        let net = InMemoryNetwork::new();
        let coordinator = net.register(COORDINATOR.into());

        let specs: BTreeMap<ModuleId, _> = instance
            .distinct_modules()
            .into_iter()
            .map(|m| (m.id.clone(), m.clone()))
            .collect();

        let mut handles = Vec::new();
        let mut devices = Vec::new();
        for dev in instance.fleet().devices() {
            let mut modules = BTreeMap::new();
            for (m, n) in plan.placement.iter() {
                if n != &dev.id {
                    continue;
                }
                let Some(spec) = specs.get(m) else { continue };
                let exec =
                    Executable::for_spec(spec).map_err(|e| RuntimeError::Exec(e.to_string()))?;
                modules.insert(m.clone(), exec);
            }
            let mailbox = net.register(dev.id.clone());
            handles.push(Worker::spawn(dev.id.clone(), modules, net.clone(), mailbox));
            devices.push(dev.id.clone());
        }

        let models = instance
            .deployments()
            .iter()
            .map(|d| (d.model.name.clone(), d.model.clone()))
            .collect();

        Ok(Runtime {
            net,
            coordinator,
            devices,
            handles,
            models,
            timeout: DEFAULT_TIMEOUT,
        })
    }

    /// Changes the result-wait timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Submits a request without waiting: modality inputs are dispatched
    /// to the routed encoder devices in parallel.
    ///
    /// Request ids must be unique per submission: the head device
    /// aggregates encoder outputs keyed by id, and a failed request may
    /// leave a partial aggregation behind that a reused id would join.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] variants on unknown models, unplaced modules, or
    /// missing payloads.
    pub fn submit(
        &self,
        request: &Request,
        route: &Route,
        input: &RequestInput,
    ) -> Result<(), RuntimeError> {
        let model = self
            .models
            .get(&request.model)
            .ok_or_else(|| RuntimeError::Core(CoreError::UnknownModel(request.model.clone())))?;
        let head = model.head();
        let head_device = route
            .device_for(&head.id)
            .ok_or_else(|| RuntimeError::NotPlaced(head.id.clone()))?
            .clone();
        let ctx = HeadContext {
            head_module: head.id.clone(),
            head_device,
            expected_encoders: model.encoders().len(),
            query: input.query.clone(),
        };
        for enc in model.encoders() {
            let dev = route
                .device_for(&enc.id)
                .ok_or_else(|| RuntimeError::NotPlaced(enc.id.clone()))?;
            let payload = input
                .for_kind(enc.kind)
                .ok_or(RuntimeError::MissingInput(enc.kind))?;
            let msg = RuntimeMsg::Encode {
                request: request.id,
                module: enc.id.clone(),
                input: payload.clone(),
                head: ctx.clone(),
            };
            let env = Envelope::encode(request.source.clone(), dev.clone(), TAG, &msg)
                .map_err(|e| RuntimeError::Serde(e.to_string()))?;
            self.net.send(env)?;
        }
        Ok(())
    }

    /// Waits for `n` results, keyed by request id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] if a result does not arrive in time;
    /// [`RuntimeError::Worker`] if a worker reported failure.
    pub fn collect(&self, n: usize) -> Result<BTreeMap<u64, Matrix>, RuntimeError> {
        let mut out = BTreeMap::new();
        while out.len() < n {
            let env =
                self.coordinator
                    .recv_timeout(self.timeout)
                    .map_err(|_| RuntimeError::Timeout {
                        arrived: out.len(),
                        expected: n,
                    })?;
            match env.decode::<RuntimeMsg>() {
                Ok(RuntimeMsg::Result { request, output }) => {
                    out.insert(request, output);
                }
                Ok(RuntimeMsg::Failure { request, reason }) => {
                    return Err(RuntimeError::Worker { request, reason });
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Submit-and-wait for a single request.
    ///
    /// # Errors
    ///
    /// See [`Runtime::submit`] and [`Runtime::collect`].
    pub fn infer(
        &self,
        request: &Request,
        route: &Route,
        input: &RequestInput,
    ) -> Result<Matrix, RuntimeError> {
        self.submit(request, route, input)?;
        // A result for another request (submitted but never collected)
        // is skipped: this call waits for its own.
        loop {
            if let Some(output) = self.collect(1)?.remove(&request.id) {
                return Ok(output);
            }
        }
    }

    /// Executes every routed request of a plan (submitted concurrently,
    /// like the paper's simultaneous multi-task burst) and returns the
    /// outputs keyed by request id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoInput`] for a request `inputs` lacks; otherwise
    /// see [`Runtime::submit`] and [`Runtime::collect`].
    pub fn execute_plan(
        &self,
        plan: &Plan,
        inputs: &BTreeMap<u64, RequestInput>,
    ) -> Result<BTreeMap<u64, Matrix>, RuntimeError> {
        for (request, route) in &plan.routed {
            let input = inputs
                .get(&request.id)
                .ok_or(RuntimeError::NoInput(request.id))?;
            self.submit(request, route, input)?;
        }
        self.collect(plan.routed.len())
    }

    /// Gracefully stops all workers.
    pub fn shutdown(self) {
        for dev in &self.devices {
            if let Ok(env) =
                Envelope::encode(COORDINATOR.into(), dev.clone(), TAG, &RuntimeMsg::Shutdown)
            {
                let _ = self.net.send(env);
            }
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
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
            rt.shutdown();
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
        rt.shutdown();
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
        rt.shutdown();
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
        rt.shutdown();
        assert!(matches!(err, RuntimeError::NotPlaced(_)));
    }

    #[test]
    fn worker_failure_surfaces_wrong_host() {
        // Route the vision encoder to a device that does not host it: the
        // worker reports a failure instead of hanging.
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let mut rt = Runtime::start(&i, &plan).unwrap();
        rt.set_timeout(Duration::from_secs(5));
        let input = RequestInput::synthetic(&i.deployment("CLIP ViT-B/16").unwrap().model, "x", 8);
        let mut bad_route = plan.routed[0].1.clone();
        let vision: ModuleId = "vision/ViT-B-16".into();
        let wrong: DeviceId = if plan.placement.is_placed(&vision, &"jetson-a".into()) {
            "jetson-b".into()
        } else {
            "jetson-a".into()
        };
        bad_route.assign(vision, wrong);
        let err = rt.infer(&q, &bad_route, &input).unwrap_err();
        rt.shutdown();
        match err {
            RuntimeError::Worker { reason, .. } => assert!(reason.contains("not hosted")),
            other => panic!("expected worker failure, got {other}"),
        }
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
        rt_a.shutdown();
        let rt_b = Runtime::start(&i, &plan_b).unwrap();
        let out_b = rt_b.infer(&q, &plan_b.routed[0].1, &input).unwrap();
        rt_b.shutdown();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn timeout_counts_the_results_that_arrived() {
        let (i, plan, _) = setup("CLIP ViT-B/16", 8);
        let mut rt = Runtime::start(&i, &plan).unwrap();
        rt.set_timeout(Duration::from_millis(10));
        let err = rt.collect(1).unwrap_err();
        rt.shutdown();
        assert_eq!(err.to_string(), "timed out with 0 of 1 results");
    }

    #[test]
    fn missing_request_input_names_the_request() {
        let (i, plan, q) = setup("CLIP ViT-B/16", 8);
        let rt = Runtime::start(&i, &plan).unwrap();
        let err = rt.execute_plan(&plan, &BTreeMap::new()).unwrap_err();
        rt.shutdown();
        assert!(
            matches!(err, RuntimeError::NoInput(id) if id == q.id),
            "{err}"
        );
        assert_eq!(err.to_string(), format!("no input for request {}", q.id));
    }
}
