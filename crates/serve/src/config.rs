//! Serving-scenario configuration: what to deploy, how requests arrive,
//! what the SLO is, and how the fleet churns.
//!
//! A [`ServeScenario`] is checked in one place. The crate-private
//! `ServeScenario::validate` runs every input check the engine has
//! before the first event — fleet and device names, traffic, clock
//! ranges, the budget, and a replay of the fleet schedule's membership
//! in firing order — and reports every problem it finds, one line each,
//! as `<path>: <what> (got <value>)`. What it resolves on the way (the
//! universe fleet, source and event device indices, the class table,
//! clock times) comes back as a `ValidScenario`, the only input the
//! online driver is built from.

use std::fmt::Display;

use serde::{Deserialize, Serialize};

use s2m3_models::module::ModuleKind;
use s2m3_net::fleet::Fleet;
use s2m3_sim::kernel::{ns, MAX_ARRIVAL_S};
use s2m3_sim::workload::{
    ArrivalProcess, ClassShare, ModelMix, SourceSpec, WorkloadError, WorkloadSpec,
};

use crate::engine::ServeError;

/// How a device's admission queue orders and bounds waiting requests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First-in first-out, unbounded.
    #[default]
    Fifo,
    /// Earliest deadline first, unbounded: the request whose SLO deadline
    /// is nearest dispatches next.
    EarliestDeadlineFirst,
    /// FIFO with load shedding: an arrival finding `max_queue` requests
    /// already waiting at its device is rejected immediately (and counted
    /// as shed, which the SLO tracker treats as a deadline miss).
    ShedOnOverload {
        /// Queue-length bound per device.
        max_queue: usize,
    },
}

/// One model to deploy in the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelDeployment {
    /// Zoo model name (see `s2m3 zoo`).
    pub name: String,
    /// Benchmark candidate count (drives the text-encoder batch).
    pub candidates: usize,
}

/// What happens to the fleet, and when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEventKind {
    /// A device (named in the universe fleet) joins the active fleet.
    DeviceJoin {
        /// Device name, e.g. `"server"`.
        device: String,
    },
    /// An active device leaves; its in-flight work is re-admitted.
    DeviceLeave {
        /// Device name, e.g. `"desktop"`.
        device: String,
    },
    /// An active device's effective compute speed is scaled by `factor`
    /// (e.g. `0.5` = half speed, thermal throttling; `1.0` restores).
    DeviceSlowdown {
        /// Device name.
        device: String,
        /// Speed multiplier on the device's base GFLOP/s (at least 0.001).
        factor: f64,
    },
}

/// A scheduled fleet change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetEvent {
    /// Simulated time at which the change takes effect, seconds (at
    /// least 0).
    pub at_s: f64,
    /// The change.
    pub kind: FleetEventKind,
}

/// The SLO-breach replan trigger: on top of fleet events, the replan
/// controller may also fire when the *rolling* p95 latency exceeds the
/// deadline — the signal that the current placement underperforms even
/// though the fleet itself did not change (e.g. after a rejected
/// event-replan, or under traffic the analytic model did not foresee).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloReplanTrigger {
    /// Completions required in the rolling window before the trigger
    /// arms (avoids reacting to startup noise); at least 1, and at most
    /// the window's capacity counts.
    pub min_window: usize,
    /// Minimum virtual seconds between trigger evaluations; the window
    /// is sampled at most once per cooldown.
    pub cooldown_s: f64,
}

impl Default for SloReplanTrigger {
    fn default() -> Self {
        SloReplanTrigger {
            min_window: 64,
            cooldown_s: 60.0,
        }
    }
}

/// Replan-controller knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanPolicy {
    /// Horizon over which a switch must amortize, seconds (finite and
    /// ≥ 0): a replan is accepted when its `break_even_requests` is at
    /// most the observed arrival rate times this horizon (mandatory
    /// replans always apply).
    pub horizon_s: f64,
    /// Optional SLO-breach trigger: when set, a rolling-p95 breach of
    /// the deadline also wakes the replan controller (same break-even
    /// gate as fleet events). `None` (the default) reacts to fleet
    /// events only.
    pub slo_trigger: Option<SloReplanTrigger>,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            horizon_s: 600.0,
            slo_trigger: None,
        }
    }
}

/// One extra request source: a fleet device that emits its own seeded
/// arrival stream (see [`ServeScenario::sources`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSource {
    /// Device name in the universe fleet. Must be active at t = 0 and
    /// may never leave (like the requester).
    pub device: String,
    /// The source's arrival process, seeded independently per source.
    pub arrivals: ArrivalProcess,
    /// Relative share of the scenario's bounded request budget. All
    /// sources `null` (the default, and what pre-weight JSON parses as)
    /// keeps the legacy equal round-robin split.
    pub weight: Option<f64>,
    /// Per-source model mix, overriding [`ServeScenario::mix`]. `null`
    /// inherits the scenario mix.
    pub mix: Option<ModelMix>,
}

/// Module-level batching for the online serving loop: when a device
/// lane frees, up to `max_batch` queued executions of the same module
/// merge into one run, paying the per-execution overhead once (the
/// kernel's Sec. VI-C lever, previously wired only into the offline
/// simulator).
///
/// **Fixture rule:** batching changes every completion time, so the
/// golden `ServeReport` fixtures in `tests/fixtures/` are captured per
/// batching mode — `serve_churn_default.json` pins `batch: None` (which
/// must stay byte-identical across refactors) and
/// `serve_churn_batched.json` pins this knob. Changing batched-dispatch
/// semantics intentionally means regenerating *only* the batched
/// fixture via `capture_fixtures`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Global per-dispatch batch cap (at least 1; ≥ 2 to have any effect).
    pub max_batch: usize,
    /// Per-module-kind overrides of the global cap (e.g. batch text
    /// encoders 8-deep but never batch generative heads: `max_batch: 1`
    /// for [`ModuleKind::LanguageModel`]).
    pub per_kind: Vec<KindBatchCap>,
}

/// One module kind's batch cap (see [`BatchPolicy::per_kind`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindBatchCap {
    /// The module kind the override applies to.
    pub kind: ModuleKind,
    /// Batch cap for modules of this kind (at least 1; 1 disables batching).
    pub max_batch: usize,
}

/// Memory-flat streaming mode for the serving loop (see the README's
/// "Memory-flat serving" section).
///
/// Every run, exact or streaming, pulls arrivals lazily and recycles
/// request slots and kernel tasks, so its resident state follows
/// *in-flight* work (see [`crate::engine`]'s "One request-lifetime
/// path"). Streaming selects only two things:
///
/// - latency summaries (global and per-class) come from the bounded
///   [`LatencySketch`](s2m3_core::sketch::LatencySketch) instead of
///   every sample: count, mean, and max stay exact, percentiles carry
///   a ≤ 1% relative error;
/// - an optional completion sink records one row per request.
///
/// `None` (the default) keeps exact latency percentiles, byte-identical
/// to the golden fixtures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamingConfig {
    /// Optional path for the columnar completion-event sink (one row
    /// per completed request; see `s2m3_data::sink`). `None` records
    /// nothing.
    pub sink: Option<String>,
}

/// A complete serving scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeScenario {
    /// Universe fleet: `"edge"` (no server) or `"standard"`. Devices in
    /// the universe but not in `initial_devices` may join later.
    pub fleet: String,
    /// Names of the devices active at t = 0.
    pub initial_devices: Vec<String>,
    /// Models deployed for the whole run.
    pub models: Vec<ModelDeployment>,
    /// The request arrival process (of the fleet requester when
    /// [`ServeScenario::sources`] is empty; ignored otherwise).
    pub arrivals: ArrivalProcess,
    /// Extra traffic sources. Empty (the default) keeps the classic
    /// single-source behavior: the fleet requester emits `arrivals`.
    /// Non-empty replaces it: each listed device emits its own seeded
    /// stream and the union is merged deterministically by
    /// `(arrival time, source rank, per-source id)`, where rank is the
    /// position in this list. Scenario JSON without the key (written
    /// before sources existed) parses as empty.
    #[serde(default)]
    pub sources: Vec<TrafficSource>,
    /// Scenario-wide model mix for sources without their own. `null`
    /// (the default) is [`ModelMix::LegacyRoundRobin`]: request `rid`
    /// of the merged stream asks for model `rid % n_models` — the
    /// byte-pinned historic behavior.
    pub mix: Option<ModelMix>,
    /// Weighted deadline/priority classes sampled per request (seeded by
    /// the scenario seed). A classed request's deadline replaces
    /// [`ServeScenario::deadline_s`], and its priority orders EDF
    /// admission ahead of the deadline. Empty (and what JSON without the
    /// key parses as): every request uses the scenario deadline at
    /// priority 0.
    #[serde(default)]
    pub classes: Vec<ClassShare>,
    /// Module-level batching in the serve loop. `None` (the default)
    /// dispatches singletons — the byte-pinned historic behavior.
    pub batch: Option<BatchPolicy>,
    /// Total number of requests in the stream.
    pub requests: usize,
    /// Seed label: equal labels ⇒ identical streams and reports.
    pub seed: String,
    /// Per-request latency SLO, seconds (deadline = arrival + this).
    pub deadline_s: f64,
    /// Admission queue policy.
    pub admission: AdmissionPolicy,
    /// Concurrent requests a device serves before queuing more (at
    /// least 1).
    pub max_inflight_per_device: usize,
    /// Replan-controller knobs.
    pub replan: ReplanPolicy,
    /// Scheduled fleet churn.
    pub events: Vec<FleetEvent>,
    /// SLO ring-buffer window size, in completed requests (at least 1).
    /// The ring grows to it on demand, so a window past the run's length
    /// keeps every outcome.
    pub slo_window: usize,
    /// Emit a windowed SLO snapshot every this many completions (at
    /// least 1).
    pub snapshot_every: usize,
    /// Streaming latency aggregation and the completion sink. `None`
    /// (the default, and what every pre-streaming scenario JSON parses
    /// as — absent and `null` both deserialize to `None`) keeps every
    /// latency sample for exact percentiles.
    pub streaming: Option<StreamingConfig>,
    /// Cap on retained SLO window snapshots: when the report would
    /// exceed this, every other snapshot is dropped and the snapshot
    /// stride doubles, bounding `report.windows` for unbounded runs.
    /// `None` (the default) retains every snapshot.
    pub max_windows: Option<usize>,
    /// Optional per-window fleet-wide cost cap (see [`crate::budget`]).
    /// `None` (the default, and what every pre-budget scenario JSON
    /// parses as) serves uncapped — byte-identical to the golden
    /// fixtures.
    pub budget: Option<crate::budget::BudgetPolicy>,
}

impl ServeScenario {
    /// The default churn-under-load scenario: a 10,000-request Poisson
    /// stream over the *standard* fleet universe, starting edge-only
    /// (the GPU server exists but is initially absent), with the desktop
    /// dropping out and the server joining mid-run — one mandatory
    /// replan and one opportunity-driven replan.
    pub fn churn_default() -> Self {
        ServeScenario {
            fleet: "standard".to_string(),
            initial_devices: vec![
                "desktop".to_string(),
                "laptop".to_string(),
                "jetson-b".to_string(),
                "jetson-a".to_string(),
            ],
            models: vec![ModelDeployment {
                name: "CLIP ViT-B/16".to_string(),
                candidates: 101,
            }],
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.3 },
            sources: Vec::new(),
            mix: None,
            classes: Vec::new(),
            batch: None,
            requests: 10_000,
            seed: "serve/churn-default".to_string(),
            deadline_s: 15.0,
            admission: AdmissionPolicy::ShedOnOverload { max_queue: 48 },
            max_inflight_per_device: 4,
            replan: ReplanPolicy::default(),
            events: vec![
                FleetEvent {
                    at_s: 1800.0,
                    kind: FleetEventKind::DeviceLeave {
                        device: "desktop".to_string(),
                    },
                },
                FleetEvent {
                    at_s: 4200.0,
                    kind: FleetEventKind::DeviceJoin {
                        device: "server".to_string(),
                    },
                },
            ],
            slo_window: 256,
            snapshot_every: 500,
            streaming: None,
            max_windows: None,
            budget: None,
        }
    }

    /// The scenario's traffic as a unified [`WorkloadSpec`] — the same
    /// layer the offline simulator materializes requests from. An empty
    /// [`ServeScenario::sources`] list becomes the classic single
    /// default-origin source whose arrival label is the bare scenario
    /// seed (bit-for-bit the pre-multi-source stream); explicit sources
    /// get labels `"{seed}/source-{rank}"` exactly as before.
    pub fn workload(&self) -> WorkloadSpec {
        let sources = if self.sources.is_empty() {
            vec![SourceSpec {
                device: None,
                arrivals: self.arrivals.clone(),
                label: self.seed.clone(),
                weight: None,
                mix: None,
            }]
        } else {
            self.sources
                .iter()
                .enumerate()
                .map(|(i, s)| SourceSpec {
                    device: Some(s.device.clone()),
                    arrivals: s.arrivals.clone(),
                    label: format!("{}/source-{i}", self.seed),
                    weight: s.weight,
                    mix: s.mix.clone(),
                })
                .collect()
        };
        WorkloadSpec {
            sources,
            mix: self.mix.clone().unwrap_or(ModelMix::LegacyRoundRobin),
            classes: self.classes.clone(),
            seed: self.seed.clone(),
        }
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON or shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad scenario config: {e}"))
    }

    /// Serializes the scenario to pretty JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on serialization failure (not expected).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Checks the whole scenario in one pass and resolves what serving
    /// it needs. Every problem is reported, one line each, except that
    /// an unknown fleet stops the pass (nothing else can be resolved
    /// without it). The fleet schedule is replayed in the order the
    /// kernel fires it; an invalid event is reported, skipped, and the
    /// replay continues.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadScenario`] listing every problem found.
    pub(crate) fn validate(&self) -> Result<ValidScenario<'_>, ServeError> {
        let fleet = &self.fleet;
        let universe = Fleet::by_name(fleet).ok_or_else(|| {
            ServeError::BadScenario(format!("fleet: must be edge or standard (got `{fleet}`)"))
        })?;
        let names: Vec<&str> = universe.devices().iter().map(|d| d.id.as_str()).collect();
        let index = |name: &str| names.iter().position(|n| *n == name);
        let requester = universe.requester().as_str();
        let mut problems: Vec<String> = Vec::new();

        if self.models.is_empty() {
            problems.push("models: no models deployed (got [])".into());
        }
        if self.requests == 0 {
            problems.push("requests: must be > 0 (got 0)".into());
        }
        at_least_one(
            &mut problems,
            "max_inflight_per_device",
            self.max_inflight_per_device,
        );
        at_least_one(&mut problems, "snapshot_every", self.snapshot_every);
        at_least_one(&mut problems, "slo_window", self.slo_window);
        if let Some(batch) = &self.batch {
            at_least_one(&mut problems, "batch.max_batch", batch.max_batch);
            for (i, cap) in batch.per_kind.iter().enumerate() {
                let path = format_args!("batch.per_kind[{i}].max_batch");
                at_least_one(&mut problems, path, cap.max_batch);
            }
        }
        let mut active = vec![false; names.len()];
        for (i, name) in self.initial_devices.iter().enumerate() {
            match index(name) {
                Some(ui) => active[ui] = true,
                None => problems.push(format!(
                    "initial_devices[{i}]: not in the {fleet} fleet (got `{name}`)"
                )),
            }
        }
        if !index(requester).is_some_and(|ui| active[ui]) {
            problems.push(format!(
                "initial_devices: must include the requester `{requester}` (got {:?})",
                self.initial_devices
            ));
        }

        // An empty `sources` list is the classic single source: the
        // requester emits `arrivals` under the scenario seed.
        let workload = self.workload();
        let model_names: Vec<String> = self.models.iter().map(|m| m.name.clone()).collect();
        if !model_names.is_empty() {
            match workload.validate(&model_names) {
                Ok(()) => {}
                Err(WorkloadError::BadArrival {
                    source,
                    field,
                    expected,
                    got,
                }) => {
                    let at = if self.sources.is_empty() {
                        "arrivals".to_string()
                    } else {
                        format!("sources[{source}].arrivals")
                    };
                    problems.push(format!("{at}.{field}: must be {expected} (got {got})"));
                }
                Err(e) => problems.push(format!("workload: {e}")),
            }
        }
        let mut sources = Vec::with_capacity(workload.sources.len());
        for (i, spec) in workload.sources.iter().enumerate() {
            let name = spec.device.as_deref().unwrap_or(requester);
            match index(name) {
                Some(ui) if active[ui] || spec.device.is_none() => sources.push(ui),
                Some(_) => problems.push(format!(
                    "sources[{i}].device: must be active at t = 0 (got `{name}`)"
                )),
                None => problems.push(format!(
                    "sources[{i}].device: not in the {fleet} fleet (got `{name}`)"
                )),
            }
        }

        // Seconds that become clock times must fit the clock: `ns` makes
        // NaN 0 and saturates ∞ (a saturated deadline wraps `now +
        // deadline`). A deadline must also be positive: a request due
        // the instant it arrives has no SLO to meet.
        if self.deadline_s <= 0.0 {
            problems.push(format!("deadline_s: must be > 0 (got {})", self.deadline_s));
        } else {
            on_clock(&mut problems, "deadline_s", self.deadline_s);
        }
        for (i, c) in workload.classes.iter().enumerate() {
            on_clock(
                &mut problems,
                format_args!("classes[{i}].deadline_s"),
                c.class.deadline_s,
            );
        }
        // A NaN or negative cooldown would silently mean "evaluate on
        // every completion" (`NaN.max(0.0)` is 0), and a NaN or negative
        // horizon would reject every optional replan.
        if let Some(trig) = self.replan.slo_trigger {
            if !trig.cooldown_s.is_finite() || trig.cooldown_s < 0.0 {
                problems.push(format!(
                    "replan.slo_trigger.cooldown_s: must be finite and >= 0 (got {})",
                    trig.cooldown_s
                ));
            }
            if trig.min_window == 0 {
                problems.push("replan.slo_trigger.min_window: must be >= 1 (got 0)".to_string());
            }
        }
        if !(self.replan.horizon_s.is_finite() && self.replan.horizon_s >= 0.0) {
            problems.push(format!(
                "replan.horizon_s: must be finite and >= 0 (got {})",
                self.replan.horizon_s
            ));
        }
        if let Some(policy) = &self.budget {
            match policy.validate() {
                Err(msg) => problems.push(msg),
                Ok(()) => on_clock(&mut problems, "budget.window_s", policy.window_s),
            }
        }

        // The schedule fires in stable `at_s` order (equal clock times
        // pop in push order), so membership is replayed in that order.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .at_s
                .partial_cmp(&self.events[b].at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut events = Vec::with_capacity(order.len());
        let mut member = active.clone();
        for i in order {
            let ev = &self.events[i];
            if ev.at_s < 0.0 {
                problems.push(format!("events[{i}].at_s: must be >= 0 (got {})", ev.at_s));
            } else {
                on_clock(&mut problems, format_args!("events[{i}].at_s"), ev.at_s);
            }
            let (name, change) = match &ev.kind {
                FleetEventKind::DeviceJoin { device } => (device, FleetChange::Join),
                FleetEventKind::DeviceLeave { device } => (device, FleetChange::Leave),
                FleetEventKind::DeviceSlowdown { device, factor } => {
                    if !(factor.is_finite() && *factor >= 1e-3) {
                        problems.push(format!(
                            "events[{i}].factor: must be finite and >= 0.001 (got {factor})"
                        ));
                    }
                    (device, FleetChange::Slowdown(*factor))
                }
            };
            let what = match (change, index(name)) {
                (FleetChange::Leave, _) if name == requester => {
                    "the requester cannot leave the fleet"
                }
                (FleetChange::Leave, Some(ui)) if sources.contains(&ui) => {
                    "a traffic source cannot leave the fleet"
                }
                (_, None) => "names a device outside the fleet",
                (FleetChange::Join, Some(ui)) if member[ui] => "joins a device already active",
                (FleetChange::Leave, Some(ui)) if !member[ui] => "leaves a device not active",
                (FleetChange::Slowdown(_), Some(ui)) if !member[ui] => "slows a device not active",
                (_, Some(device)) => {
                    match change {
                        FleetChange::Join => member[device] = true,
                        FleetChange::Leave => member[device] = false,
                        FleetChange::Slowdown(_) => {}
                    }
                    events.push(ValidEvent {
                        at_s: ev.at_s,
                        at_ns: ns(ev.at_s),
                        device,
                        change,
                    });
                    continue;
                }
            };
            problems.push(format!("events[{i}]: {what} (got `{name}`)"));
        }

        if !problems.is_empty() {
            return Err(ServeError::BadScenario(problems.join("\n")));
        }
        Ok(ValidScenario {
            scenario: self,
            class_table: workload
                .classes
                .iter()
                .map(|c| (ns(c.class.deadline_s), c.class.priority))
                .collect(),
            class_names: workload
                .classes
                .iter()
                .map(|c| c.class.name.clone())
                .collect(),
            universe,
            active,
            sources,
            workload,
            model_names,
            deadline_s: self.deadline_s,
            deadline_ns: ns(self.deadline_s),
            slo_cooldown_ns: self.replan.slo_trigger.map_or(0, |t| ns(t.cooldown_s)),
            events,
            _checked: (),
        })
    }
}

/// Records `path` as a problem when `value`, a count, is 0.
fn at_least_one(problems: &mut Vec<String>, path: impl Display, value: usize) {
    if value == 0 {
        problems.push(format!("{path}: must be >= 1 (got 0)"));
    }
}

/// Records `path` as a problem unless `value` seconds fit the clock.
fn on_clock(problems: &mut Vec<String>, path: impl Display, value: f64) {
    if !(value.is_finite() && value <= MAX_ARRIVAL_S) {
        problems.push(format!(
            "{path}: must be finite and at most {MAX_ARRIVAL_S} s (got {value:e})"
        ));
    }
}

/// What a validated fleet event does to its device.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FleetChange {
    Join,
    Leave,
    /// Speed multiplier as written (validated finite and >= 0.001).
    Slowdown(f64),
}

/// A fleet event whose device exists and whose membership change is
/// legal at its place in the schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValidEvent {
    /// Event time as written, seconds (what the report records).
    pub(crate) at_s: f64,
    /// Clock time the kernel fires it at.
    pub(crate) at_ns: u64,
    /// Universe device index.
    pub(crate) device: usize,
    pub(crate) change: FleetChange,
}

/// A [`ServeScenario`] that passed `ServeScenario::validate`, with
/// what set-up resolves from it resolved once. Only `validate` can
/// build one, so the online driver, built from this alone, holds no
/// input checks.
pub(crate) struct ValidScenario<'a> {
    pub(crate) scenario: &'a ServeScenario,
    pub(crate) universe: Fleet,
    /// Membership at t = 0, by universe index.
    pub(crate) active: Vec<bool>,
    /// Universe index of each traffic source, by rank.
    pub(crate) sources: Vec<usize>,
    pub(crate) workload: WorkloadSpec,
    pub(crate) model_names: Vec<String>,
    /// Per-class `(deadline_ns, priority)`, by class id.
    pub(crate) class_table: Vec<(u64, u32)>,
    pub(crate) class_names: Vec<String>,
    /// The scenario deadline as written (validated positive), seconds.
    pub(crate) deadline_s: f64,
    pub(crate) deadline_ns: u64,
    /// The SLO trigger's cooldown (0 without a trigger).
    pub(crate) slo_cooldown_ns: u64,
    /// The fleet schedule in firing order.
    pub(crate) events: Vec<ValidEvent>,
    _checked: (),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve;

    #[test]
    fn default_scenario_meets_acceptance_shape() {
        let s = ServeScenario::churn_default();
        assert!(s.requests >= 10_000);
        assert!(matches!(s.arrivals, ArrivalProcess::Poisson { .. }));
        let leaves = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::DeviceLeave { .. }))
            .count();
        let joins = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::DeviceJoin { .. }))
            .count();
        assert!(leaves >= 1 && joins >= 1);
    }

    #[test]
    fn streaming_fields_roundtrip_and_default_off() {
        let mut s = ServeScenario::churn_default();
        // Pre-streaming scenario JSON — no `streaming`/`max_windows`/
        // `budget` keys at all — must parse with every knob off.
        let legacy_json = s
            .to_json()
            .unwrap()
            .lines()
            .filter(|l| {
                !l.contains("\"streaming\"")
                    && !l.contains("\"max_windows\"")
                    && !l.contains("\"budget\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"snapshot_every\": 500,", "\"snapshot_every\": 500");
        let parsed = ServeScenario::from_json(&legacy_json).unwrap();
        assert_eq!(parsed.streaming, None);
        assert_eq!(parsed.max_windows, None);
        assert_eq!(parsed.budget, None);
        assert_eq!(parsed, s);

        // A scenario written while `threads` was a field still loads:
        // unknown keys are ignored.
        let with_threads = s
            .to_json()
            .unwrap()
            .replace("\"budget\": null", "\"threads\": 4,\n  \"budget\": null");
        assert!(with_threads.contains("\"threads\": 4"));
        assert_eq!(ServeScenario::from_json(&with_threads).unwrap(), s);

        s.streaming = Some(StreamingConfig {
            sink: Some("completions.bin".to_string()),
        });
        s.max_windows = Some(64);
        s.budget = Some(crate::budget::BudgetPolicy::device_seconds(3.5));
        let back = ServeScenario::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn a_sub_millisecond_deadline_is_served_as_written() {
        let s = ServeScenario {
            deadline_s: 5e-4,
            classes: vec![ClassShare {
                class: s2m3_core::problem::DeadlineClass {
                    name: "tight".to_string(),
                    deadline_s: 5e-4,
                    priority: 1,
                },
                weight: 1.0,
            }],
            ..ServeScenario::churn_default()
        };
        let valid = s.validate().unwrap();
        assert_eq!(valid.deadline_ns, 500_000);
        assert_eq!(valid.class_table, [(500_000, 1)]);
    }

    #[test]
    fn scenario_json_roundtrip() {
        let s = ServeScenario::churn_default();
        let j = s.to_json().unwrap();
        let back = ServeScenario::from_json(&j).unwrap();
        assert_eq!(s, back);
        assert!(ServeScenario::from_json("{not json").is_err());
    }

    fn small_scenario(n: usize) -> ServeScenario {
        ServeScenario {
            requests: n,
            events: vec![],
            ..ServeScenario::churn_default()
        }
    }

    #[test]
    fn bad_scenarios_are_rejected() {
        let mut no_requester = small_scenario(10);
        no_requester.initial_devices = vec!["desktop".to_string(), "laptop".to_string()];
        assert!(matches!(
            serve(&no_requester),
            Err(ServeError::BadScenario(_))
        ));

        let mut requester_leaves = small_scenario(10);
        requester_leaves.events = vec![FleetEvent {
            at_s: 1.0,
            kind: FleetEventKind::DeviceLeave {
                device: "jetson-a".to_string(),
            },
        }];
        assert!(matches!(
            serve(&requester_leaves),
            Err(ServeError::BadScenario(_))
        ));

        let mut bad_fleet = small_scenario(10);
        bad_fleet.fleet = "mars".to_string();
        assert!(serve(&bad_fleet).is_err());

        let mut unknown_model = small_scenario(10);
        unknown_model.models = vec![ModelDeployment {
            name: "CLIP ViT-Z/99".to_string(),
            candidates: 1,
        }];
        assert!(matches!(serve(&unknown_model), Err(ServeError::Core(_))));

        for cooldown_s in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad_cooldown = small_scenario(10);
            bad_cooldown.replan.slo_trigger = Some(SloReplanTrigger {
                min_window: 4,
                cooldown_s,
            });
            let err = serve(&bad_cooldown).unwrap_err();
            assert!(
                matches!(&err, ServeError::BadScenario(m) if m.contains("cooldown_s")),
                "{cooldown_s}: {err}"
            );
        }
        let mut zero_cooldown = small_scenario(10);
        zero_cooldown.replan.slo_trigger = Some(SloReplanTrigger {
            min_window: 4,
            cooldown_s: 0.0,
        });
        assert!(serve(&zero_cooldown).is_ok(), "0 = every completion");

        // Times past the clock's range, or not numbers at all, are
        // rejected by name rather than saturated or clamped.
        let slowdown = |factor| FleetEventKind::DeviceSlowdown {
            device: "desktop".to_string(),
            factor,
        };
        let mut cases: Vec<(ServeScenario, &str)> = Vec::new();
        for value in [f64::NAN, f64::INFINITY, 1.0e300] {
            let mut s = small_scenario(10);
            s.deadline_s = value;
            cases.push((s, "deadline_s"));
            let mut s = small_scenario(10);
            s.classes = vec![s2m3_sim::workload::ClassShare {
                class: s2m3_core::problem::DeadlineClass {
                    name: "far".to_string(),
                    deadline_s: value,
                    priority: 0,
                },
                weight: 1.0,
            }];
            // The workload layer already rejects a non-finite one.
            cases.push((s, "deadline"));
            let mut s = small_scenario(10);
            s.events = vec![FleetEvent {
                at_s: value,
                kind: slowdown(0.5),
            }];
            cases.push((s, "events[0].at_s"));
            let mut s = small_scenario(10);
            s.budget = Some(crate::budget::BudgetPolicy {
                window_s: value,
                ..crate::budget::BudgetPolicy::device_seconds(20.0)
            });
            cases.push((s, "budget.window_s"));
        }
        // A factor below a thousandth used to be served as 0.001.
        for factor in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -1.0,
            0.000_999,
        ] {
            let mut s = small_scenario(10);
            s.events = vec![FleetEvent {
                at_s: 1.0,
                kind: slowdown(factor),
            }];
            cases.push((s, "events[0].factor"));
        }
        // A deadline at or before arrival is not an SLO: it used to be
        // served as 1 ms, reporting every request late.
        for value in [0.0, -5.0, f64::NEG_INFINITY] {
            let mut s = small_scenario(10);
            s.deadline_s = value;
            cases.push((s, "deadline_s: must be > 0"));
        }
        // A NaN or negative horizon would clamp to 0 and reject every
        // optional replan; a zero arrival rate would draw infinite gaps.
        for value in [f64::NAN, -5.0] {
            let mut s = small_scenario(10);
            s.replan.horizon_s = value;
            cases.push((s, "replan.horizon_s: must be finite and >= 0"));
        }
        // Zeros used to be served as 1: one in-flight request per
        // device, a snapshot on every completion.
        let mut s = small_scenario(10);
        s.max_inflight_per_device = 0;
        cases.push((s, "max_inflight_per_device: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.snapshot_every = 0;
        cases.push((s, "snapshot_every: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.slo_window = 0;
        cases.push((s, "slo_window: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.replan.slo_trigger = Some(SloReplanTrigger {
            min_window: 0,
            cooldown_s: 60.0,
        });
        cases.push((s, "replan.slo_trigger.min_window: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.batch = Some(crate::config::BatchPolicy {
            max_batch: 0,
            per_kind: Vec::new(),
        });
        cases.push((s, "batch.max_batch: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.batch = Some(crate::config::BatchPolicy {
            max_batch: 4,
            per_kind: [(ModuleKind::TextEncoder, 2), (ModuleKind::LanguageModel, 0)]
                .map(|(kind, max_batch)| crate::config::KindBatchCap { kind, max_batch })
                .to_vec(),
        });
        cases.push((s, "batch.per_kind[1].max_batch: must be >= 1 (got 0)"));
        let mut s = small_scenario(10);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.0 };
        cases.push((s, "arrivals.rate_per_s"));
        // A negative event time used to be served at 0 while the report
        // recorded it as written.
        let mut s = small_scenario(10);
        s.events = vec![FleetEvent {
            at_s: -5.0,
            kind: slowdown(0.001),
        }];
        cases.push((s, "events[0].at_s: must be >= 0 (got -5)"));
        for (s, field) in cases {
            let err = serve(&s).unwrap_err();
            assert!(
                matches!(&err, ServeError::BadScenario(m) if m.contains(field)),
                "{field}: {err}"
            );
        }
        // The smallest factor is served as written.
        let mut smallest = small_scenario(10);
        smallest.events = vec![FleetEvent {
            at_s: 5.0,
            kind: slowdown(0.001),
        }];
        assert!(serve(&smallest).is_ok());

        // Every problem is reported, one line each, not only the first.
        let mut three = small_scenario(10);
        three.deadline_s = f64::NAN;
        three.sources = vec![TrafficSource {
            device: "mars".to_string(),
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.5 },
            weight: None,
            mix: None,
        }];
        three.events = vec![FleetEvent {
            at_s: 5.0,
            kind: FleetEventKind::DeviceJoin {
                device: "laptop".to_string(),
            },
        }];
        let Err(ServeError::BadScenario(msg)) = serve(&three) else {
            panic!("three faults must be a bad scenario");
        };
        let lines: Vec<&str> = msg.lines().collect();
        assert_eq!(
            lines,
            [
                "sources[0].device: not in the standard fleet (got `mars`)",
                "deadline_s: must be finite and at most 9223372036.854776 s (got NaN)",
                "events[0]: joins a device already active (got `laptop`)",
            ]
        );
    }
}
