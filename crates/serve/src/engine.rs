//! The online serving loop: the *online driver* over the shared
//! discrete-event kernel in [`s2m3_sim::kernel`]. It admits continuous
//! request streams (one per traffic source), executes module tasks on
//! per-device lanes, applies scheduled fleet churn, and replans live
//! through `s2m3_core::adaptive`.
//!
//! ## Control flow
//!
//! Requests arrive from seeded
//! [`ArrivalProcess`](s2m3_sim::workload::ArrivalProcess)es (the fleet
//! requester's by default; any set of devices via
//! [`ServeScenario::sources`]) and enter the admission queue of their
//! route's *head* device. A device dispatches a queued request when it
//! has a free request slot (`max_inflight_per_device`); dispatching
//! expands the request into encoder tasks (with modeled input-transfer
//! delays) plus one head task that fires when the last embedding lands.
//! Lane counts, FIFO module queues, and head-priority dispatch are the
//! kernel's — the *same* event loop the offline simulator runs; this
//! module only supplies the online hooks (admission, SLO windows,
//! churn, replanning).
//!
//! [`FleetEvent`](crate::config::FleetEvent)s change the active fleet at
//! simulated timestamps. Every event wakes the replan controller, which
//! calls [`s2m3_core::adaptive::replan`] against the pre-event placement
//! and accepts the migration when it is mandatory (the old placement lost
//! a module) or when its
//! [`break_even_requests`](s2m3_core::adaptive::ReplanDecision::break_even_requests)
//! clears the requests expected within the configured horizon at the
//! *observed* arrival rate. With
//! [`ReplanPolicy::slo_trigger`](crate::config::ReplanPolicy) set, a
//! rolling-p95 breach of the deadline wakes the same controller between
//! fleet events. Accepted migrations charge their download + load cost
//! as downtime on the destination devices; the controller runs while
//! the kernel is paused between events — drain, requeue, resume — so no
//! request is ever silently lost: every arrival ends as exactly one
//! completion or one shed.
//!
//! ## One request-lifetime path
//!
//! Exact and streaming runs drive the same request lifetime: the
//! driver's request [`Slab`] always recycles, the kernel's task and
//! request tables start at the in-flight scale and grow on demand, and
//! a completed or shed request's slot (with its task buffer) is reused
//! by a later arrival. Ordering keys on the arrival sequence
//! (`ReqInfo::seq`), never on the slot, so slot numbering is invisible
//! to every report. [`ServeScenario::streaming`] selects only how
//! latencies are *aggregated* — every sample (exact percentiles; the
//! one O(requests) table an exact run keeps) or a fixed-size sketch —
//! and whether a completion sink is attached.
//!
//! ## Hot-path representation
//!
//! The loop runs entirely on [`ResolvedInstance`] indices: devices and
//! modules are dense `u32`/`usize` ids, per-device state lives in `Vec`s
//! indexed by *universe* device index, events carry indices, and the
//! per-model, per-source route (placement and instance change only at
//! replans) is priced by [`ResolvedInstance::price_route`] — the same
//! arithmetic the bounded simulator and the replan objective use — and
//! cached in nanoseconds as a `ModelRoute`, along with the budget's
//! per-model route cost. String ids survive only at the boundary:
//! scenario parsing, replan diffs, and the serialized [`ServeReport`].

use std::collections::BTreeSet;
use std::sync::Arc;

use s2m3_core::adaptive::{replan, ReplanDecision};
use s2m3_core::error::CoreError;
use s2m3_core::placement::{greedy_place_resolved, PlacementOptions};
use s2m3_core::problem::{Instance, Placement};
use s2m3_core::resolved::{PricedRoute, ResolvedInstance};
use s2m3_data::sink::ColumnWriter;
use s2m3_net::fleet::Fleet;
use s2m3_sim::kernel::{
    ns, secs, Device as LaneDevice, Driver, Kernel, Policy as KernelPolicy, RequestSlot, Scheduler,
    MAX_ARRIVAL_S,
};
use s2m3_sim::workload::{WorkloadRequest, WorkloadStream};

use crate::accounting::{Accounting, ClassStats, LatAgg};
use crate::budget::{BudgetEnforcement, BudgetMetric, BudgetState, Deferred};
use crate::config::{FleetEventKind, ServeScenario, SloReplanTrigger};
use crate::queue::{Admission, AdmissionQueue, QueuedRequest};
use crate::report::{ClassReport, DeviceReport, EventRecord, ReplanRecord, ServeReport};
use crate::slab::{ReqHandle, Slab};
use crate::slo::{DeviceUsage, SloWindow};

/// Errors surfaced by the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The scenario is internally inconsistent.
    BadScenario(String),
    /// A core placement/routing operation failed.
    Core(CoreError),
    /// Writing the streaming completion sink failed.
    Sink(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadScenario(msg) => write!(f, "bad scenario: {msg}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
            ServeError::Sink(msg) => write!(f, "completion sink: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Driver-defined events injected into the kernel.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ServeEv {
    /// A scheduled fleet change (index into the time-sorted event list).
    Fleet(usize),
    /// The next buffered request arrives (`Online::next_seq` numbers it).
    Arrival,
    /// A fresh budget window opens: re-admit deferred requests.
    BudgetWake,
}

/// What the budget gate decided for a popped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetVerdict {
    /// Within budget (or no budget): dispatch now.
    Dispatch,
    /// Parked in the deferred heap until the next window.
    Defer,
    /// Rejected by enforcement (counts as a shed).
    Shed,
}

/// Per-task payload stored inline in the kernel's task table.
#[derive(Debug, Clone, Copy, Default)]
struct TaskInfo {
    /// Work units of this execution (profile-dependent), fixed at
    /// dispatch.
    units: f64,
    /// Embedding transfer time to the head device (encoders only), ns.
    output_tx_ns: u64,
    /// Execution duration fixed at dispatch, ns (0 until dispatched).
    dur_ns: u64,
}

/// Driver-side request bookkeeping (the kernel keeps the fan-in state).
#[derive(Debug, Clone, Default)]
struct ReqInfo {
    /// Arrival sequence number: unique and monotone in arrival order.
    /// Queue ordering and re-admission tie-breaks key on this, never on
    /// the (recyclable) slab slot, so slot reuse cannot perturb dispatch
    /// order.
    seq: u64,
    arrival_ns: u64,
    deadline_ns: u64,
    /// Rank of the traffic source that emitted this request.
    source: usize,
    /// Deployed-model index this request asks for (assigned by the
    /// workload layer's model mix).
    model: usize,
    /// Admission priority from the request's deadline class (0 without
    /// classes).
    priority: u32,
    /// Deadline-class index (`None` for unclassed scenarios).
    class: Option<u32>,
    /// Universe index of the device charged with this request's
    /// in-flight slot, when dispatched.
    inflight_on: Option<usize>,
    /// Whether the budget gate has priced this request (the uncapped
    /// shadow counter charges once per request).
    budget_seen: bool,
    /// When the budget first deferred this request (`u64::MAX`: never);
    /// the latency price accrues from here at eventual dispatch.
    first_defer_ns: u64,
    /// Task indices of the current attempt.
    tasks: Vec<usize>,
    done: bool,
}

/// Driver-side per-device serving state (the kernel owns lanes/queues;
/// usage accounting lives in [`Accounting`]).
#[derive(Debug)]
struct DevExtra {
    /// Requests dispatched and not yet finished whose head lives here.
    inflight: usize,
    admission: AdmissionQueue,
}

/// One resolved traffic source.
#[derive(Debug, Clone)]
struct SourceState {
    name: String,
    /// Universe device index.
    uni: usize,
}

/// One routed encoder of a cached per-model route.
#[derive(Debug, Clone, Copy)]
struct EncRoute {
    module: u32,
    /// Universe device index.
    uni: usize,
    units: f64,
    input_tx_ns: u64,
    output_tx_ns: u64,
}

/// The Eq. 7 route of one deployed model under the current placement
/// and instance *for one traffic source*, with every dispatch-time
/// transfer precomputed. Valid until the next replan; every request of
/// the (model, source) pair shares it.
#[derive(Debug, Clone, Copy)]
struct ModelRoute {
    head_module: u32,
    head_uni: usize,
    head_units: f64,
    /// Raw-query transfer to the head device (generative heads), ns.
    head_query_tx_ns: u64,
    /// Start of this route's encoders in [`Online::route_encs`], in
    /// dispatch order (longest compute first).
    enc_start: u32,
    /// Number of encoders in this route.
    enc_len: u32,
}

/// A replan outcome plus the gate's budget-feasibility input, which is
/// priced at most once per decision.
struct PricedReplan {
    decision: ReplanDecision,
    /// [`Online::mean_route_cost`] of `decision.placement` (`None` until
    /// the gate first needs it).
    mean_route_cost: Option<f64>,
}

impl PricedReplan {
    fn new(decision: ReplanDecision) -> Self {
        PricedReplan {
            decision,
            mean_route_cost: None,
        }
    }
}

/// The online driver: everything scenario-specific the kernel does not
/// own.
struct Online {
    universe: Fleet,
    /// Universe device names, by universe index.
    uni_names: Vec<String>,
    /// Universe indices in lexicographic name order (the iteration
    /// order the string-keyed maps used).
    by_name_order: Vec<usize>,
    slowdown: Vec<Option<f64>>,
    instance: Instance,
    /// The interned hot-path view, behind `Arc` so parallel replicas of
    /// the same scenario share one table set instead of re-interning.
    resolved: Arc<ResolvedInstance>,
    /// Universe index of each resolved (active-fleet) device.
    uni_of_res: Vec<usize>,
    /// Resolved index of each universe device (`None` while inactive).
    res_of_uni: Vec<Option<u32>>,
    placement: Placement,
    /// Traffic sources, in scenario order (rank = index).
    sources: Vec<SourceState>,
    /// Cached route per deployed model and source rank, flattened as
    /// `model * n_sources + source` (`None` = placement cannot serve
    /// it; arrivals shed).
    model_routes: Vec<Option<ModelRoute>>,
    /// Flattened encoder pool: every [`ModelRoute`] names its encoders
    /// as a `(start, len)` slice here, so a route refresh refills one
    /// allocation instead of one `Vec` per (model, source) pair.
    route_encs: Vec<EncRoute>,
    /// Per-module host table reused across route refreshes.
    hosts_scratch: Vec<Vec<u32>>,
    /// Module-route scratch reused across route refreshes.
    route_scratch: Vec<(u32, u32)>,
    /// Pricing scratch reused across route refreshes.
    priced_scratch: PricedRoute,
    /// Universe-indexed migration-cost accumulator
    /// ([`Online::charge_migrations`] scratch).
    migrate_cost: Vec<f64>,
    /// Devices touched by the migration batch being charged.
    migrate_hit: Vec<bool>,
    n_models: usize,
    devices: Vec<DevExtra>,
    /// Per-universe-device execution overhead, amortized when batching
    /// merges runs (mirrors the bounded engine's batch arithmetic).
    exec_overhead_s: Vec<f64>,
    /// Driver-side request table. Slot-indexed (the kernel's request
    /// ids are slots); completed/shed slots recycle through the slab's
    /// free list so the table stays O(in-flight).
    requests: Slab<ReqInfo>,
    // --- workload ---
    /// The lazily pulled merged arrival stream: the driver holds at
    /// most one sampled batch (in `arrival_buf`) plus the
    /// constant-size per-source stream states — never the full
    /// materialized schedule.
    stream: WorkloadStream,
    /// Upcoming arrivals, sampled in batches so the per-source stream
    /// merge amortizes; the event queue still holds at most one future
    /// arrival at a time, and draw order matches one-at-a-time pulls
    /// exactly (the stream owns its generators). Consumed front to
    /// back via `arrival_cursor`, then refilled in place — a plain
    /// `Vec` + index, so the per-arrival reads are straight-line
    /// indexing with no ring-buffer wrap math.
    arrival_buf: Vec<WorkloadRequest>,
    /// Next unconsumed index into `arrival_buf`.
    arrival_cursor: usize,
    /// Arrival sequence counter (`ReqInfo::seq` of the next arrival).
    next_seq: u64,
    /// Per-class `(deadline_ns, priority)` from the scenario's workload
    /// classes, indexed by class id.
    class_table: Vec<(u64, u32)>,
    /// Class names, indexed by class id (report boundary).
    class_names: Vec<String>,
    events: Vec<crate::config::FleetEvent>,
    deadline_ns: u64,
    deadline_s: f64,
    max_inflight: usize,
    horizon_s: f64,
    charge_switching_downtime: bool,
    slo_trigger: Option<SloReplanTrigger>,
    /// Last virtual time the SLO trigger sampled the window, ns.
    last_slo_eval_ns: u64,
    /// The SLO trigger's memoised `replan(&instance, &placement)`: a
    /// pure function of two values that change only in
    /// [`Online::rebuild_instance`] (which clears it) and on an accepted
    /// switch (the trigger takes the entry out to gate it and restores
    /// it only when rejected), so every breach evaluation in between
    /// reuses one greedy solve (debug builds re-solve and compare).
    slo_replan: Option<PricedReplan>,
    // --- accounting ---
    /// The extracted accounting state ([`crate::accounting`]).
    acct: Accounting,
    // --- budget ---
    /// Budget-enforcement state (`scenario.budget`); `None` serves
    /// uncapped, byte-identical to the pre-budget engine.
    budget: Option<BudgetState>,
    /// Per-universe-device cost rate (spend units per busy second),
    /// priced from the policy's metric. Empty without a budget.
    cost_rates: Vec<f64>,
    /// Per-model route cost under the current placement — head plus
    /// encoder compute seconds, each times its host's rate. Refreshed
    /// with the route cache; empty without a budget.
    route_costs: Vec<f64>,
    /// Re-admission scratch: the deferred heap drains here before
    /// requests re-enter `admit` (which may re-defer into the heap).
    budget_wake_scratch: Vec<Deferred>,
    report: ServeReport,
}

type K = Kernel<ServeEv, TaskInfo>;

/// Boxed error for the kernel-facing hooks: hot-path `Result`s stay
/// pointer-sized; the box is only paid on the (rare) error paths.
type BoxedErr = Box<ServeError>;

impl Driver for Online {
    type Custom = ServeEv;
    type Payload = TaskInfo;
    type Error = BoxedErr;

    #[inline]
    fn dispatched(
        &mut self,
        k: &mut K,
        device: usize,
        group: &[usize],
        now: u64,
    ) -> Result<u64, BoxedErr> {
        // With `batch: None` the group is always a single task (the hot
        // path); under a `BatchPolicy` same-module queued runs merge and
        // the per-execution overhead is paid once — the same arithmetic
        // the bounded engine uses for `SimConfig::max_batch`.
        let rd = self.res_of_uni[device];
        let mut dur_s = 0.0;
        for &tid in group {
            dur_s += match rd {
                Some(rd) => self.resolved.compute_time_units(
                    k.tasks.module(tid),
                    rd,
                    k.tasks.payload(tid).units,
                ),
                // Defensive: the device left between queueing and
                // dispatch (its tasks are normally cancelled first).
                None => 0.1,
            };
        }
        if group.len() > 1 {
            dur_s -= (group.len() - 1) as f64 * self.exec_overhead_s[device];
        }
        let dur_ns = ns(dur_s);
        // The leader owns the lane: busy time (and the device's
        // execution count) charges once per merged run, followers ride
        // along at zero.
        k.tasks.payload_mut(group[0]).dur_ns = dur_ns;
        for &tid in &group[1..] {
            k.tasks.payload_mut(tid).dur_ns = 0;
        }
        Ok(now + dur_ns)
    }

    #[inline]
    fn task_finished(
        &mut self,
        k: &mut K,
        tid: usize,
        _now: u64,
        lane_live: bool,
    ) -> Result<(), BoxedErr> {
        // Only account a task whose lane survived to completion: a
        // leave resets the counter (and bumps the epoch), so stale
        // completions do not charge busy seconds the departed device
        // never finished serving.
        if lane_live {
            self.acct
                .charge(k.tasks.device(tid), k.tasks.payload(tid).dur_ns);
        }
        Ok(())
    }

    #[inline]
    fn encoder_ready_ns(&mut self, k: &mut K, tid: usize, now: u64) -> Result<u64, BoxedErr> {
        Ok(now + k.tasks.payload(tid).output_tx_ns)
    }

    fn head_done(&mut self, k: &mut K, req: usize, now: u64) -> Result<(), BoxedErr> {
        self.complete_request(k, req, now)
    }

    fn device_opened(&mut self, k: &mut K, device: usize, now: u64) -> Result<(), BoxedErr> {
        self.drain_admission(k, device, now);
        Ok(())
    }

    fn custom(&mut self, k: &mut K, event: ServeEv, now: u64) -> Result<(), BoxedErr> {
        match event {
            ServeEv::Fleet(idx) => {
                // Lend the event's kind to the handler without cloning
                // its strings: swap a placeholder in, restore after.
                let at_s = self.events[idx].at_s;
                let kind = std::mem::replace(
                    &mut self.events[idx].kind,
                    FleetEventKind::DeviceJoin {
                        device: String::new(),
                    },
                );
                let out = self.fleet_event(k, &kind, at_s, now);
                self.events[idx].kind = kind;
                out
            }
            ServeEv::Arrival => {
                self.arrival(k, now);
                Ok(())
            }
            ServeEv::BudgetWake => {
                self.budget_wake(k, now);
                Ok(())
            }
        }
    }
}

impl Online {
    fn uni_index(&self, name: &str) -> Option<usize> {
        self.uni_names.iter().position(|n| n == name)
    }

    /// Rebuilds the instance over the active fleet with slowdowns
    /// applied, re-interning the resolved view and the index maps.
    fn rebuild_instance(&mut self, k: &K) -> Result<(), ServeError> {
        let mut specs = Vec::new();
        let mut uni_of_res = Vec::new();
        for (ui, d) in self.universe.devices().iter().enumerate() {
            if !k.devices[ui].active {
                continue;
            }
            let mut spec = d.clone();
            if let Some(factor) = self.slowdown[ui] {
                spec.speed_gflops = (d.speed_gflops * factor).max(1e-6);
            }
            specs.push(spec);
            uni_of_res.push(ui);
        }
        let fleet = Fleet::new(
            specs,
            self.universe.topology().clone(),
            self.universe.requester().clone(),
        )
        .map_err(ServeError::BadScenario)?;
        self.instance = self.instance.with_fleet(fleet)?;
        self.slo_replan = None;
        self.resolved = Arc::new(ResolvedInstance::new(&self.instance)?);
        self.res_of_uni = vec![None; self.uni_names.len()];
        for (ri, &ui) in uni_of_res.iter().enumerate() {
            self.res_of_uni[ui] = Some(ri as u32);
        }
        self.uni_of_res = uni_of_res;
        Ok(())
    }

    /// Recomputes the per-(model, source) route cache against the
    /// current placement and instance. Called after every placement
    /// change. Each pair is priced by [`ResolvedInstance::price_route`].
    /// Allocation-free after warm-up: the host table, the route and
    /// pricing scratch, and the flattened encoder pool all refill in place.
    fn refresh_model_routes(&mut self) {
        self.resolved
            .resolve_placement_into(&self.placement, &mut self.hosts_scratch);
        let n_sources = self.sources.len();
        self.model_routes.clear();
        self.route_encs.clear();
        self.route_costs.clear();
        let mut route = std::mem::take(&mut self.route_scratch);
        let mut priced = std::mem::take(&mut self.priced_scratch);
        for m in 0..self.n_models {
            let profile = self.resolved.models()[m].profile;
            if !self
                .resolved
                .route_model_into(m, &profile, &self.hosts_scratch, &mut route)
            {
                self.model_routes.extend((0..n_sources).map(|_| None));
                if self.budget.is_some() {
                    // Unroutable models shed at admission, before the
                    // budget gate: the placeholder keeps model indexing.
                    self.route_costs.push(0.0);
                }
                continue;
            }
            for src in &self.sources {
                let source = self.res_of_uni[src.uni].expect("sources never leave the fleet");
                self.resolved
                    .price_route(&profile, source, &route, &mut priced);
                let enc_start = self.route_encs.len() as u32;
                self.route_encs
                    .extend(priced.encoders.iter().map(|e| EncRoute {
                        module: e.module,
                        uni: self.uni_of_res[e.device as usize],
                        units: e.units,
                        input_tx_ns: ns(e.input_tx),
                        output_tx_ns: ns(e.output_tx),
                    }));
                self.model_routes.push(Some(ModelRoute {
                    head_module: priced.head.module,
                    head_uni: self.uni_of_res[priced.head.device as usize],
                    head_units: priced.head.units,
                    head_query_tx_ns: ns(priced.head.input_tx),
                    enc_start,
                    enc_len: self.route_encs.len() as u32 - enc_start,
                }));
            }
            if self.budget.is_some() {
                // Compute times ignore the query's origin, so the last
                // source's pricing costs the route for all of them: head
                // first, then encoders in send order.
                let rate = |d: u32| self.cost_rates[self.uni_of_res[d as usize]];
                let mut cost = priced.head.compute * rate(priced.head.device);
                for e in &priced.encoders {
                    cost += e.compute * rate(e.device);
                }
                self.route_costs.push(cost);
            }
        }
        self.route_scratch = route;
        self.priced_scratch = priced;
    }

    /// Offers a request to its head device's admission queue.
    fn admit(&mut self, k: &mut K, rid: usize, now: u64) {
        let (model, source, seq, arrival_ns, deadline_ns, priority) = {
            let r = &self.requests[rid];
            (
                r.model,
                r.source,
                r.seq,
                r.arrival_ns,
                r.deadline_ns,
                r.priority,
            )
        };
        let Some(head_uni) = self.model_routes[model * self.sources.len() + source]
            .as_ref()
            .map(|mr| mr.head_uni)
        else {
            self.record_shed(rid, now);
            return;
        };
        let outcome = self.devices[head_uni].admission.offer(QueuedRequest {
            id: seq,
            handle: self.requests.handle_of(rid).pack(),
            arrival_ns,
            deadline_ns,
            priority,
        });
        if outcome == Admission::Shed {
            self.record_shed(rid, now);
        } else {
            self.drain_admission(k, head_uni, now);
        }
    }

    /// Dispatches queued requests while the device has free request slots.
    fn drain_admission(&mut self, k: &mut K, device: usize, now: u64) {
        loop {
            let popped = {
                let dev = &mut self.devices[device];
                // Empty-queue first: the common case bails without
                // touching the kernel's device table at all.
                if dev.admission.is_empty()
                    || dev.inflight >= self.max_inflight
                    || !k.devices[device].active
                {
                    return;
                }
                dev.admission.pop()
            };
            let Some(qr) = popped else { return };
            let handle = ReqHandle::unpack(qr.handle);
            debug_assert!(self.requests.is_current(handle));
            match self.budget_gate(k, &qr, now) {
                BudgetVerdict::Dispatch => self.dispatch_request(k, handle.slot as usize, now),
                // Parked (or rejected): the pop freed no request slot,
                // so keep draining — EDF pop order already gave this
                // window's headroom to the highest-priority work first.
                BudgetVerdict::Defer => {}
                BudgetVerdict::Shed => self.record_shed(handle.slot as usize, now),
            }
        }
    }

    /// Prices a popped request against the open budget window. Always
    /// `Dispatch` without a budget (the zero-cost fast path).
    fn budget_gate(&mut self, k: &mut K, qr: &QueuedRequest, now: u64) -> BudgetVerdict {
        let Some(budget) = self.budget.as_mut() else {
            return BudgetVerdict::Dispatch;
        };
        let slot = ReqHandle::unpack(qr.handle).slot as usize;
        let (model, class) = {
            let r = &self.requests[slot];
            (r.model, r.class)
        };
        let cost = self.route_costs[model];
        budget.roll(now);
        if !self.requests[slot].budget_seen {
            self.requests[slot].budget_seen = true;
            budget.charge_shadow(cost);
        }
        if budget.fits(cost) {
            budget.charge(cost);
            let first_defer = self.requests[slot].first_defer_ns;
            if first_defer != u64::MAX {
                budget.pay_latency_price(now.saturating_sub(first_defer));
            }
            return BudgetVerdict::Dispatch;
        }
        // The open window cannot afford it. A request whose solo cost
        // exceeds the cap can never fit any window: shed it under every
        // mode rather than park it forever.
        let shed = cost > budget.policy.cap_per_window
            || match budget.policy.enforcement {
                BudgetEnforcement::Shed => true,
                BudgetEnforcement::Defer => false,
                BudgetEnforcement::DeferThenShed => now > qr.deadline_ns,
            };
        if shed {
            budget.note_shed(class);
            return BudgetVerdict::Shed;
        }
        if self.requests[slot].first_defer_ns == u64::MAX {
            self.requests[slot].first_defer_ns = now;
            budget.note_deferred(class);
        }
        budget.push_deferred(Deferred {
            urgency: u32::MAX - qr.priority,
            deadline_ns: qr.deadline_ns,
            arrival_ns: qr.arrival_ns,
            seq: qr.id,
            handle: qr.handle,
        });
        self.schedule_budget_wake(k);
        BudgetVerdict::Defer
    }

    /// Schedules a `BudgetWake` at the next window boundary (deduped:
    /// at most one pending wake) while any request sits parked.
    fn schedule_budget_wake(&mut self, k: &mut K) {
        let Some(budget) = self.budget.as_mut() else {
            return;
        };
        if !budget.has_deferred() {
            return;
        }
        let at = budget.next_window_start_ns();
        if budget.wake_at != Some(at) {
            budget.wake_at = Some(at);
            k.push_custom(at, ServeEv::BudgetWake);
        }
    }

    /// A fresh budget window opened: re-admit every parked request,
    /// EDF order. Re-admission runs through the normal `admit` path, so
    /// a request the new window still cannot afford simply re-parks
    /// (via the drained scratch, never the live heap — no livelock).
    fn budget_wake(&mut self, k: &mut K, now: u64) {
        let Some(budget) = self.budget.as_mut() else {
            return;
        };
        if budget.wake_at == Some(now) {
            budget.wake_at = None;
        }
        budget.roll(now);
        // Taken only past the guard, so no return path drops the buffer.
        let mut scratch = std::mem::take(&mut self.budget_wake_scratch);
        budget.drain_deferred_into(&mut scratch);
        for d in &scratch {
            let handle = ReqHandle::unpack(d.handle);
            // Parked requests can be resolved elsewhere (an early
            // `finish` sheds them): skip anything no longer live.
            if !self.requests.is_current(handle) || self.requests[handle.slot as usize].done {
                continue;
            }
            self.admit(k, handle.slot as usize, now);
        }
        scratch.clear();
        self.budget_wake_scratch = scratch;
        self.schedule_budget_wake(k);
    }

    /// Expands a request into module tasks from its model's cached route.
    fn dispatch_request(&mut self, k: &mut K, rid: usize, now: u64) {
        let (model, source) = {
            let r = &self.requests[rid];
            (r.model, r.source)
        };
        let Some(mr) = self.model_routes[model * self.sources.len() + source] else {
            self.record_shed(rid, now);
            return;
        };
        let head_uni = mr.head_uni;
        let head_ready = now + mr.head_query_tx_ns;

        let head_task = k.spawn_task(
            rid,
            mr.head_module,
            head_uni,
            true,
            TaskInfo {
                units: mr.head_units,
                output_tx_ns: 0,
                dur_ns: 0,
            },
        );
        // The attempt's task list rebuilds inside the slot's existing
        // buffer (taken so the slab borrow does not overlap the kernel
        // calls below); recycled slots dispatch with zero allocations.
        let mut task_ids = std::mem::take(&mut self.requests[rid].tasks);
        task_ids.clear();
        task_ids.push(head_task);

        // Ready events push inline: task spawning never touches the
        // event queue, so the push sequence (hence the run) is the same
        // as staging them — without a second per-request allocation.
        let encs = mr.enc_start as usize..(mr.enc_start + mr.enc_len) as usize;
        let mut pending = 0usize;
        for ei in encs {
            let e = self.route_encs[ei];
            let tid = k.spawn_task(
                rid,
                e.module,
                e.uni,
                false,
                TaskInfo {
                    units: e.units,
                    output_tx_ns: e.output_tx_ns,
                    dur_ns: 0,
                },
            );
            task_ids.push(tid);
            k.push_ready(now + e.input_tx_ns, tid);
            pending += 1;
        }

        k.set_request(
            rid,
            RequestSlot {
                pending_encoders: pending,
                head_ready_ns: head_ready,
                head_task,
            },
        );
        {
            let r = &mut self.requests[rid];
            r.tasks = task_ids;
            r.inflight_on = Some(head_uni);
        }
        self.devices[head_uni].inflight += 1;

        if pending == 0 {
            k.push_ready(head_ready, head_task);
        }
    }

    fn complete_request(&mut self, k: &mut K, rid: usize, now: u64) -> Result<(), BoxedErr> {
        let (arrival_ns, deadline_ns, head_dev, class) = {
            let r = &mut self.requests[rid];
            r.done = true;
            (r.arrival_ns, r.deadline_ns, r.inflight_on.take(), r.class)
        };
        if let Some(ui) = head_dev {
            self.devices[ui].inflight = self.devices[ui].inflight.saturating_sub(1);
        }
        let latency = secs(now - arrival_ns);
        let missed = now > deadline_ns;
        self.acct
            .complete(
                arrival_ns,
                now,
                head_dev.map_or(u32::MAX, |u| u as u32),
                class,
                missed,
                latency,
            )
            .map_err(Box::new)?;
        if let Some(ui) = head_dev {
            self.drain_admission(k, ui, now);
        }
        self.maybe_slo_replan(k, now)?;
        // The request is fully accounted: release its slot.
        self.requests.free(rid);
        Ok(())
    }

    fn record_shed(&mut self, rid: usize, now: u64) {
        let (deadline_ns, arrival_ns, class) = {
            let r = &mut self.requests[rid];
            r.done = true;
            (r.deadline_ns, r.arrival_ns, r.class)
        };
        // A shed request is an SLO miss; the window records it at the
        // deadline bound so percentiles reflect the rejection.
        self.acct.shed(
            secs(now),
            secs(deadline_ns.saturating_sub(arrival_ns)),
            class,
        );
        self.requests.free(rid);
    }

    /// Cancels a request's current attempt and re-admits it.
    fn requeue_request(&mut self, k: &mut K, handle: ReqHandle, now: u64) {
        // A stale handle means the slot was resolved (and possibly
        // reused) since the caller collected it; nothing to requeue.
        if !self.requests.is_current(handle) {
            return;
        }
        let rid = handle.slot as usize;
        if self.requests[rid].done {
            return;
        }
        if let Some(ui) = self.requests[rid].inflight_on.take() {
            self.devices[ui].inflight = self.devices[ui].inflight.saturating_sub(1);
        }
        // Cancel in place — the task list is cleared rather than taken,
        // so the slot keeps its buffer for the next attempt. Only
        // cancel a task that still belongs to this attempt: with task
        // recycling, finished slots may already host another request's
        // task.
        for i in 0..self.requests[rid].tasks.len() {
            let tid = self.requests[rid].tasks[i];
            if k.tasks.req(tid) == rid && !k.tasks.finished(tid) {
                k.tasks.cancel(tid);
            }
        }
        self.requests[rid].tasks.clear();
        self.report.retried += 1;
        self.admit(k, rid, now);
    }

    /// Charges accepted migrations as downtime on their destination
    /// devices and schedules scheduler wake-ups when the weights land.
    fn charge_migrations(
        &mut self,
        k: &mut K,
        now: u64,
        migrations: &[s2m3_core::adaptive::Migration],
    ) {
        // Accumulate per-destination cost in universe-indexed scratch;
        // the name-ordered sweep below reproduces the event order the
        // old string-keyed map iteration gave — including the wake-up
        // pushed for zero-cost destinations.
        for m in migrations {
            let ui = self
                .uni_index(m.to.as_str())
                .expect("migration target exists");
            self.migrate_cost[ui] += m.cost_s;
            self.migrate_hit[ui] = true;
        }
        for i in 0..self.by_name_order.len() {
            let ui = self.by_name_order[i];
            if !self.migrate_hit[ui] {
                continue;
            }
            let cost = self.migrate_cost[ui];
            self.migrate_hit[ui] = false;
            self.migrate_cost[ui] = 0.0;
            let dev = &mut k.devices[ui];
            dev.open_at_ns = dev.open_at_ns.max(now + ns(cost));
            // Wake the scheduler when the weights finish loading;
            // without this, queued tasks could strand on a device
            // that receives no further events.
            let at = dev.open_at_ns;
            k.push_device_open(at, ui);
        }
    }

    /// Re-keys every waiting request against the current placement,
    /// oldest arrivals first.
    fn rekey_waiting(&mut self, k: &mut K, now: u64) {
        let mut waiting: Vec<QueuedRequest> = Vec::new();
        for i in 0..self.by_name_order.len() {
            let ui = self.by_name_order[i];
            waiting.extend(self.devices[ui].admission.drain());
        }
        waiting.sort_by_key(|qr| (qr.arrival_ns, qr.id));
        for qr in waiting {
            self.admit(k, ReqHandle::unpack(qr.handle).slot as usize, now);
        }
    }

    /// One dispatch + admission round over every device, in name order.
    fn kick_all(&mut self, k: &mut K, now: u64) -> Result<(), BoxedErr> {
        for i in 0..self.by_name_order.len() {
            let ui = self.by_name_order[i];
            k.try_dispatch(ui, now, self)?;
            self.drain_admission(k, ui, now);
        }
        Ok(())
    }

    /// Applies one fleet event and runs the replan controller.
    fn fleet_event(
        &mut self,
        k: &mut K,
        kind: &FleetEventKind,
        at_s: f64,
        now: u64,
    ) -> Result<(), BoxedErr> {
        let description = match kind {
            FleetEventKind::DeviceJoin { device } => {
                let Some(ui) = self.uni_index(device) else {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "unknown device `{device}` in join event"
                    ))));
                };
                if k.devices[ui].active {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "device `{device}` joined but was already active"
                    ))));
                }
                k.devices[ui].active = true;
                self.acct.join(ui, at_s);
                format!("{device} joins")
            }
            FleetEventKind::DeviceLeave { device } => {
                if device == self.universe.requester().as_str() {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "requester {device} cannot leave the fleet"
                    ))));
                }
                if self.sources.iter().any(|s| &s.name == device) {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "traffic source {device} cannot leave the fleet"
                    ))));
                }
                let leaving = self.uni_index(device).filter(|&ui| k.devices[ui].active);
                let Some(ui) = leaving else {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "device `{device}` left but was not active"
                    ))));
                };
                k.devices[ui].active = false;
                self.acct.leave(ui, at_s);
                format!("{device} leaves")
            }
            FleetEventKind::DeviceSlowdown { device, factor } => {
                let slowed = self.uni_index(device).filter(|&ui| k.devices[ui].active);
                let Some(ui) = slowed else {
                    return Err(Box::new(ServeError::BadScenario(format!(
                        "device `{device}` slowed but is not active"
                    ))));
                };
                self.slowdown[ui] = Some(factor.max(1e-3));
                format!("{device} slows to {factor:.2}x")
            }
        };
        self.report.events.push(EventRecord {
            at_s,
            description: description.clone(),
        });

        // Collect every request disturbed by a leave: queued in the
        // departed device's admission queue, or with live tasks there.
        // Keyed `(seq, handle)` so re-admission runs oldest-arrival
        // first regardless of slab slot numbering.
        let mut disturbed: BTreeSet<(u64, u64)> = BTreeSet::new();
        if let FleetEventKind::DeviceLeave { device } = kind {
            let ui = self.uni_index(device).expect("validated above");
            for qr in self.devices[ui].admission.drain() {
                disturbed.insert((qr.id, qr.handle));
            }
            self.devices[ui].inflight = 0;
            // Scan for stranded live tasks *before* resetting the
            // lanes: with task recycling the reset releases the
            // device's queued task slots, severing their request links.
            for tid in 0..k.tasks.len() {
                if k.tasks.cancelled(tid) || k.tasks.finished(tid) || k.tasks.device(tid) != ui {
                    continue;
                }
                let req = k.tasks.req(tid);
                if !self.requests[req].done {
                    let seq = self.requests[req].seq;
                    disturbed.insert((seq, self.requests.handle_of(req).pack()));
                }
            }
            k.reset_device_lanes(ui);
        }

        self.rebuild_instance(k).map_err(Box::new)?;

        // Replan controller: mandatory switches always apply; optional
        // ones must amortize within the horizon at the observed rate.
        // (`rebuild_instance` never touches the placement and the gate
        // only swaps it on accept, so replanning reads the current
        // placement in place — no clone.)
        let mut priced = PricedReplan::new(
            replan(&self.instance, &self.placement).map_err(|e| Box::new(ServeError::Core(e)))?,
        );
        let accepted = self.gate_and_apply_replan(k, &mut priced, description, at_s, now, 0);
        if !accepted {
            // Keep serving on the surviving subset of the old
            // placement: drop departed hosts in place.
            let uni_names = &self.uni_names;
            let devices = &k.devices;
            self.placement.retain(|_, d| {
                uni_names
                    .iter()
                    .position(|n| n == d.as_str())
                    .is_some_and(|ui| devices[ui].active)
            });
        }
        self.refresh_model_routes();

        // Re-key every waiting request against the (possibly new)
        // placement, oldest arrivals first, then re-admit the disturbed.
        self.rekey_waiting(k, now);
        for (_, handle) in disturbed {
            self.requeue_request(k, ReqHandle::unpack(handle), now);
        }
        self.kick_all(k, now)
    }

    /// Requests waiting in admission queues across the fleet — the
    /// backlog a replan would drain.
    fn total_queued(&self) -> u64 {
        self.devices.iter().map(|d| d.admission.len() as u64).sum()
    }

    /// Mean per-request route cost (over routable models) the fleet
    /// would pay under `placement`, priced by the active cost rates.
    /// Clobbers the routing scratch — callers always run
    /// [`Online::refresh_model_routes`] after any placement change, so
    /// the scratch is re-derived either way.
    fn mean_route_cost(&mut self, placement: &Placement) -> f64 {
        self.resolved
            .resolve_placement_into(placement, &mut self.hosts_scratch);
        let mut route = std::mem::take(&mut self.route_scratch);
        let mut total = 0.0;
        let mut routable = 0usize;
        for m in 0..self.n_models {
            let profile = self.resolved.models()[m].profile;
            if !self
                .resolved
                .route_model_into(m, &profile, &self.hosts_scratch, &mut route)
            {
                continue;
            }
            // The route's last entry is the head: summing every module
            // covers head + encoders alike.
            let mut cost = 0.0;
            for &(em, ed) in route.iter() {
                let units = profile.units(self.resolved.module_kind(em));
                cost += self.resolved.compute_time_units(em, ed, units)
                    * self.cost_rates[self.uni_of_res[ed as usize]];
            }
            total += cost;
            routable += 1;
        }
        self.route_scratch = route;
        if routable == 0 {
            0.0
        } else {
            total / routable as f64
        }
    }

    /// The shared replan gate: computes the observed-rate break-even
    /// acceptance test, records the evaluation in the report, and — if
    /// accepted — installs the new placement and charges migration
    /// downtime. Both the fleet-event controller and the SLO-breach
    /// trigger go through here, so the gate cannot diverge between
    /// them. Returns whether the switch was accepted.
    ///
    /// `queued` is the queue-drain credit
    /// ([`ReplanDecision::break_even_requests_with_queue`]): waiting
    /// requests realize the per-request gain immediately, so an
    /// overloaded fleet accepts earlier than the steady-state gate
    /// would. The fleet-event path passes 0 (pure steady-state, the
    /// byte-pinned historic behavior); the SLO-breach path — which only
    /// fires *because* of backlog symptoms — passes the live queue
    /// depth. The record keeps the steady-state break-even so both
    /// paths stay comparable in reports.
    ///
    /// `priced` is borrowed: a rejected candidate stays intact (and keeps
    /// its route price) for the caller to reuse; an accepted one has its
    /// placement and migrations moved out.
    fn gate_and_apply_replan(
        &mut self,
        k: &mut K,
        priced: &mut PricedReplan,
        trigger: String,
        at_s: f64,
        now: u64,
        queued: u64,
    ) -> bool {
        let observed_rate = if now == 0 {
            0.0
        } else {
            self.report.arrived as f64 / secs(now)
        };
        let expected_in_horizon = observed_rate * self.horizon_s;
        let mandatory = priced.decision.mandatory();
        let break_even = priced.decision.break_even_requests();
        let effective = priced.decision.break_even_requests_with_queue(queued);
        // Budget-feasibility term: a candidate whose steady-state spend
        // (observed rate × window × mean route cost) would breach the
        // cap is rejected before the latency comparison. Mandatory
        // switches bypass it — refusing them would strand the fleet.
        let budget_feasible = match self
            .budget
            .as_ref()
            .map(|b| (b.policy.window_s, b.policy.cap_per_window))
        {
            Some((window_s, cap)) if !mandatory => {
                let mean_cost = *priced
                    .mean_route_cost
                    .get_or_insert_with(|| self.mean_route_cost(&priced.decision.placement));
                observed_rate * window_s * mean_cost <= cap
            }
            _ => true,
        };
        let accepted = mandatory
            || (budget_feasible
                && matches!(effective, Some(b) if (b as f64) <= expected_in_horizon));
        let decision = &mut priced.decision;
        self.report.replans.push(ReplanRecord {
            at_s,
            trigger,
            mandatory,
            break_even_requests: break_even,
            observed_rate_per_s: observed_rate,
            accepted,
            switching_cost_s: if accepted {
                decision.switching_cost_s
            } else {
                0.0
            },
            migrations: if accepted {
                decision.migrations.len()
            } else {
                0
            },
        });
        if accepted {
            let migrations = std::mem::take(&mut decision.migrations);
            self.placement = std::mem::take(&mut decision.placement);
            if self.charge_switching_downtime {
                self.charge_migrations(k, now, &migrations);
            }
        }
        accepted
    }

    /// The SLO-breach replan path ([`ReplanPolicy::slo_trigger`]): at
    /// most once per cooldown, sample the rolling window; when its p95
    /// exceeds the deadline and a migration is on the table, run the
    /// same break-even gate the fleet-event controller uses.
    ///
    /// [`ReplanPolicy::slo_trigger`]: crate::config::ReplanPolicy
    fn maybe_slo_replan(&mut self, k: &mut K, now: u64) -> Result<(), BoxedErr> {
        let Some(trig) = self.slo_trigger else {
            return Ok(());
        };
        // `min_window` is clamped to the ring's capacity: a scenario
        // whose `slo_window` is smaller than the trigger's arming
        // threshold would otherwise never evaluate.
        let arm_at = trig.min_window.max(1).min(self.acct.slo.capacity());
        if self.acct.slo.len() < arm_at
            || now < self.last_slo_eval_ns.saturating_add(ns(trig.cooldown_s))
        {
            return Ok(());
        }
        self.last_slo_eval_ns = now;
        if !self.acct.slo.p95_exceeds(self.deadline_s) {
            return Ok(());
        }
        let mut priced = match self.slo_replan.take() {
            Some(priced) => {
                debug_assert_eq!(
                    Ok(&priced.decision),
                    replan(&self.instance, &self.placement).as_ref(),
                    "memoised replan decision went stale"
                );
                priced
            }
            None => PricedReplan::new(
                replan(&self.instance, &self.placement)
                    .map_err(|e| Box::new(ServeError::Core(e)))?,
            ),
        };
        // The breach may be real while greedy has nothing better to
        // offer (pure overload): then there is no decision to record.
        let accepted = !priced.decision.migrations.is_empty() && {
            let trigger = format!(
                "SLO breach: rolling p95 {:.2}s exceeds {:.2}s deadline",
                self.acct.slo.snapshot(secs(now)).p95_s,
                self.deadline_s
            );
            let queued = self.total_queued();
            self.gate_and_apply_replan(k, &mut priced, trigger, secs(now), now, queued)
        };
        if accepted {
            // The placement the memo was solved against is gone: the
            // taken entry is dropped, not restored.
            self.refresh_model_routes();
            self.rekey_waiting(k, now);
            self.kick_all(k, now)?;
        } else {
            self.slo_replan = Some(priced);
        }
        Ok(())
    }

    /// Arrivals sampled from the workload stream per buffer refill.
    const ARRIVAL_BATCH: usize = 64;

    /// The next unscheduled arrival, sampling a fresh batch from the
    /// stream when the buffer runs dry. Draws stay in stream order, so
    /// batching is invisible to the generated workload.
    fn peek_arrival(&mut self) -> Option<&WorkloadRequest> {
        if self.arrival_cursor == self.arrival_buf.len() {
            self.arrival_cursor = 0;
            self.arrival_buf.clear();
            for _ in 0..Self::ARRIVAL_BATCH {
                match self.stream.next_request() {
                    Some(r) => self.arrival_buf.push(r),
                    None => break,
                }
            }
        }
        self.arrival_buf.get(self.arrival_cursor)
    }

    fn arrival(&mut self, k: &mut K, now: u64) {
        self.report.arrived += 1;
        let rec = *self
            .arrival_buf
            .get(self.arrival_cursor)
            .expect("arrival event fired without a buffered record");
        self.arrival_cursor += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        // A classed request carries its own SLO; unclassed requests use
        // the scenario-wide deadline at priority 0.
        let (deadline_ns, priority) = match rec.class {
            Some(ci) => self.class_table[ci as usize],
            None => (self.deadline_ns, 0),
        };
        if let Some(ci) = rec.class {
            self.acct.class_arrived(ci);
        }
        // `insert_with` resets every field in place: a recycled slot
        // keeps its task buffer's capacity instead of dropping it.
        let handle = self.requests.insert_with(|r| {
            r.seq = seq;
            r.arrival_ns = now;
            r.deadline_ns = now + deadline_ns;
            r.source = rec.source as usize;
            r.model = rec.model as usize;
            r.priority = priority;
            r.class = rec.class;
            r.inflight_on = None;
            r.budget_seen = false;
            r.first_defer_ns = u64::MAX;
            r.tasks.clear();
            r.done = false;
        });
        let slot = handle.slot as usize;
        k.set_request(slot, RequestSlot::default());
        // Schedule the next arrival lazily: the event queue holds at
        // most one future arrival at a time.
        if let Some(at_ns) = self.peek_arrival().map(|r| r.at_ns) {
            k.push_custom(at_ns, ServeEv::Arrival);
        }
        self.admit(k, slot, now);
    }

    fn finish(mut self) -> ServeReport {
        let now = self.acct.last_completion_ns;
        // Flush everything still unresolved so arrivals always balance:
        // first the admission queues (a bug if non-empty after an idle
        // run), then any request caught mid-flight — which exists only
        // when a session is finished before running to idle (its kernel
        // events are dropped with the session, so the request can never
        // complete; shedding it keeps `arrived == completed + shed`).
        let leftover: Vec<usize> = self
            .by_name_order
            .clone()
            .into_iter()
            .flat_map(|ui| self.devices[ui].admission.drain())
            .map(|qr| ReqHandle::unpack(qr.handle).slot as usize)
            .collect();
        for rid in leftover {
            self.record_shed(rid, now);
        }
        // Mid-flight requests, shed oldest arrival first: seq order
        // keeps the flush deterministic under slot reuse. The slab
        // holds only in-flight slots, so the scan is O(in-flight).
        let mut inflight: Vec<(u64, usize)> = self
            .requests
            .iter_occupied()
            .filter(|(_, r)| !r.done)
            .map(|(slot, r)| (r.seq, slot))
            .collect();
        inflight.sort_unstable();
        for (_, rid) in inflight {
            self.record_shed(rid, now);
        }

        // Flush the sink's buffered tail. Best-effort: `finish()` has
        // no error channel, and every full row group already surfaced
        // its write errors through `complete_request`.
        if let Some(w) = self.acct.sink.take() {
            let _ = w.finish();
        }

        // Fold the extracted accounting state into the report.
        self.report.completed = self.acct.completed;
        self.report.late = self.acct.late;
        self.report.shed = self.acct.shed;
        self.report.windows = std::mem::take(&mut self.acct.windows);

        let now_s = secs(now);
        self.report.makespan_s = now_s;
        self.report.latency = self.acct.latencies.summarize();
        self.report.throughput_per_s = if now_s > 0.0 {
            self.report.completed as f64 / now_s
        } else {
            0.0
        };
        self.report.miss_rate = if self.report.arrived == 0 {
            0.0
        } else {
            (self.report.late + self.report.shed) as f64 / self.report.arrived as f64
        };
        // Final rolling-window snapshot (unless one just landed there).
        if self.acct.slo.total_seen() != self.acct.last_snapshot_seen {
            let mut final_snap = self.acct.slo.snapshot(now_s);
            final_snap.utilization = self.acct.utilization(now_s);
            self.report.windows.push(final_snap);
        }
        let class_names = std::mem::take(&mut self.class_names);
        let mut class_stats = std::mem::take(&mut self.acct.class_stats);
        self.report.classes = class_names
            .iter()
            .zip(class_stats.iter_mut())
            .map(|(name, cs)| ClassReport {
                class: name.clone(),
                arrived: cs.arrived,
                completed: cs.completed,
                shed: cs.shed,
                late: cs.late,
                miss_rate: if cs.arrived == 0 {
                    0.0
                } else {
                    (cs.late + cs.shed) as f64 / cs.arrived as f64
                },
                latency: cs.latencies.summarize(),
            })
            .collect();
        self.report.devices = self
            .by_name_order
            .iter()
            .map(|&ui| {
                let u = &self.acct.usage[ui];
                DeviceReport {
                    device: self.uni_names[ui].clone(),
                    executions: self.acct.executions[ui],
                    busy_s: u.busy_s,
                    active_s: u.active_total_s(now_s),
                    utilization: u.utilization(now_s),
                }
            })
            .collect();
        if let Some(budget) = self.budget.take() {
            let priorities: Vec<u32> = self.class_table.iter().map(|&(_, p)| p).collect();
            self.report.budget = Some(budget.finish(&class_names, &priorities));
        }
        self.report
    }
}

/// Builds the [`CostModel`](s2m3_core::CostModel) a budget metric
/// prices busy device-seconds with.
fn budget_cost_model(metric: &BudgetMetric) -> s2m3_core::CostModel {
    match metric {
        BudgetMetric::DeviceSeconds => s2m3_core::CostModel::uniform(1.0),
        BudgetMetric::Custom { per_device_rate } => s2m3_core::CostModel::uniform(*per_device_rate),
        // Marginal energy: joules per busy second above idle, from the
        // simulator's default power profiles. Unprofiled devices cost
        // nothing (the model's default rate stays 0).
        BudgetMetric::Energy => {
            let mut model = s2m3_core::CostModel::uniform(0.0);
            for (device, profile) in s2m3_sim::energy::default_profiles() {
                model.set_rate(device, (profile.active_w - profile.idle_w).max(0.0));
            }
            model
        }
    }
}

/// Resolves the scenario's universe fleet by name.
fn universe_fleet(fleet: &str) -> Result<Fleet, ServeError> {
    match fleet {
        "edge" => Ok(Fleet::edge_testbed()),
        "standard" => Ok(Fleet::standard_testbed()),
        other => Err(ServeError::BadScenario(format!(
            "unknown fleet `{other}` (edge|standard)"
        ))),
    }
}

/// Resolves the scenario's initial membership over `uni_names`,
/// validating every name and that the requester starts active.
fn initial_active(
    scenario: &ServeScenario,
    uni_names: &[String],
    requester: &str,
) -> Result<Vec<bool>, ServeError> {
    let mut active = vec![false; uni_names.len()];
    for name in &scenario.initial_devices {
        let Some(ui) = uni_names.iter().position(|n| n == name) else {
            return Err(ServeError::BadScenario(format!(
                "initial device `{name}` is not in the {} fleet",
                scenario.fleet
            )));
        };
        active[ui] = true;
    }
    let requester_active = uni_names
        .iter()
        .position(|n| n == requester)
        .is_some_and(|ui| active[ui]);
    if !requester_active {
        return Err(ServeError::BadScenario(format!(
            "initial devices must include the requester `{requester}`"
        )));
    }
    Ok(active)
}

/// The replica-invariant prefix of a serving run: the initial instance,
/// its interned [`ResolvedInstance`] view, and the greedy starting
/// placement. These depend only on the scenario's fleet, initial
/// devices, and model set — not on its seed, traffic, or events — so a
/// sweep builds one `SharedStart` per grid cell and every seeded
/// replica clones the `Arc` instead of re-interning the tables.
///
/// Produced by [`prepare`]; consumed by [`ServeSession::with_shared`].
#[derive(Debug, Clone)]
pub struct SharedStart {
    /// Scenario bits the shared state was derived from, re-validated at
    /// session construction so a `SharedStart` cannot silently be
    /// replayed against a different deployment.
    fleet: String,
    initial_devices: Vec<String>,
    models: Vec<(String, usize)>,
    instance: Instance,
    resolved: Arc<ResolvedInstance>,
    placement: Placement,
}

impl SharedStart {
    /// The shared interned view (one allocation for all replicas).
    pub fn resolved(&self) -> &Arc<ResolvedInstance> {
        &self.resolved
    }

    /// Whether `scenario` deploys the same fleet, initial devices, and
    /// models this shared start was built from.
    pub fn matches(&self, scenario: &ServeScenario) -> bool {
        self.fleet == scenario.fleet
            && self.initial_devices == scenario.initial_devices
            && self.models.len() == scenario.models.len()
            && self
                .models
                .iter()
                .zip(&scenario.models)
                .all(|(a, b)| a.0 == b.name && a.1 == b.candidates)
    }
}

/// Builds the replica-invariant prefix of a serving run once: initial
/// fleet → [`Instance`] → `Arc<`[`ResolvedInstance`]`>` → greedy
/// placement. [`ServeSession::new`] calls this internally; sweeps call
/// it per grid cell and fan the result out with
/// [`ServeSession::with_shared`].
///
/// # Errors
///
/// [`ServeError::BadScenario`] on inconsistent configuration;
/// [`ServeError::Core`] if placement fails.
pub fn prepare(scenario: &ServeScenario) -> Result<SharedStart, ServeError> {
    let universe = universe_fleet(&scenario.fleet)?;
    if scenario.models.is_empty() {
        return Err(ServeError::BadScenario("no models deployed".into()));
    }
    let uni_names: Vec<String> = universe
        .devices()
        .iter()
        .map(|d| d.id.as_str().to_string())
        .collect();
    let requester = universe.requester().as_str().to_string();
    let active = initial_active(scenario, &uni_names, &requester)?;
    let initial_fleet = {
        let devices: Vec<_> = universe
            .devices()
            .iter()
            .zip(&active)
            .filter(|(_, &a)| a)
            .map(|(d, _)| d.clone())
            .collect();
        Fleet::new(
            devices,
            universe.topology().clone(),
            universe.requester().clone(),
        )
        .map_err(ServeError::BadScenario)?
    };
    let model_pairs: Vec<(&str, usize)> = scenario
        .models
        .iter()
        .map(|m| (m.name.as_str(), m.candidates))
        .collect();
    let instance = Instance::on_fleet(initial_fleet, &model_pairs)?;
    let resolved = Arc::new(ResolvedInstance::new(&instance)?);
    let placement = greedy_place_resolved(&resolved, PlacementOptions::default())?;
    Ok(SharedStart {
        fleet: scenario.fleet.clone(),
        initial_devices: scenario.initial_devices.clone(),
        models: scenario
            .models
            .iter()
            .map(|m| (m.name.clone(), m.candidates))
            .collect(),
        instance,
        resolved,
        placement,
    })
}

/// A serving run as a *resumable* session over the shared kernel: run
/// it in slices of virtual time ([`ServeSession::run_until`]), pause,
/// resume, and [`ServeSession::finish`] when idle. Pausing is
/// invisible: any schedule of `run_until` calls followed by
/// [`ServeSession::run_to_idle`] yields a report byte-identical to an
/// uninterrupted [`serve`] (property-tested in this crate).
pub struct ServeSession {
    kernel: K,
    driver: Online,
}

impl ServeSession {
    /// Builds the session: universe fleet, initial placement, merged
    /// arrival stream, kernel state.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadScenario`] on inconsistent configuration;
    /// [`ServeError::Core`] if placement or routing fails.
    pub fn new(scenario: &ServeScenario) -> Result<Self, ServeError> {
        ServeSession::with_shared(scenario, &prepare(scenario)?)
    }

    /// Builds the session from a prepared [`SharedStart`], sharing its
    /// `Arc<ResolvedInstance>` instead of re-interning: the constructor
    /// parallel sweeps use for every replica of a grid cell. Behavior
    /// is byte-identical to [`ServeSession::new`] on the same scenario.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadScenario`] when `shared` was prepared for a
    /// different fleet/devices/models (or the scenario is otherwise
    /// inconsistent); [`ServeError::Core`] if routing fails.
    pub fn with_shared(scenario: &ServeScenario, shared: &SharedStart) -> Result<Self, ServeError> {
        if !shared.matches(scenario) {
            return Err(ServeError::BadScenario(
                "shared start was prepared for a different fleet/devices/models".into(),
            ));
        }
        // --- Universe fleet and initial membership. ---
        let universe = universe_fleet(&scenario.fleet)?;
        if scenario.requests == 0 {
            return Err(ServeError::BadScenario("empty request stream".into()));
        }
        let uni_names: Vec<String> = universe
            .devices()
            .iter()
            .map(|d| d.id.as_str().to_string())
            .collect();
        let by_name_order = {
            let mut order: Vec<usize> = (0..uni_names.len()).collect();
            order.sort_by(|&a, &b| uni_names[a].cmp(&uni_names[b]));
            order
        };
        let requester = universe.requester().as_str().to_string();
        let active = initial_active(scenario, &uni_names, &requester)?;

        // --- The merged arrival stream, from the unified workload
        //     layer: sim and serve share this generator (see
        //     `s2m3_sim::workload::WorkloadSpec`). An empty source list
        //     is the classic single-source scenario: the requester
        //     emits `scenario.arrivals` under the scenario seed
        //     (bit-for-bit the pre-workload stream).
        let workload = scenario.workload();
        let model_names: Vec<String> = scenario.models.iter().map(|m| m.name.clone()).collect();
        let stream = workload
            .stream(scenario.requests, &model_names)
            .map_err(|e| ServeError::BadScenario(e.to_string()))?;
        let mut sources = Vec::with_capacity(workload.sources.len());
        for spec in &workload.sources {
            let name = spec.device.clone().unwrap_or_else(|| requester.clone());
            let Some(ui) = uni_names.iter().position(|n| *n == name) else {
                return Err(ServeError::BadScenario(format!(
                    "traffic source `{name}` is not in the {} fleet",
                    scenario.fleet
                )));
            };
            if !active[ui] {
                return Err(ServeError::BadScenario(format!(
                    "traffic source `{name}` must be active at t = 0"
                )));
            }
            sources.push(SourceState { name, uni: ui });
        }

        // Seconds that become clock times must fit the clock: `ns` makes
        // NaN 0 and saturates ∞ (a saturated deadline wraps `now +
        // deadline`). Finite values keep their clamps below. A NaN
        // slowdown factor would silently become the 1e-3 floor.
        let on_clock = |field: &dyn std::fmt::Display, value: f64| {
            if value.is_finite() && value <= MAX_ARRIVAL_S {
                return Ok(());
            }
            Err(ServeError::BadScenario(format!(
                "{field} must be finite and at most {MAX_ARRIVAL_S} s (got {value:e})"
            )))
        };
        on_clock(&"deadline_s", scenario.deadline_s)?;
        for (i, c) in workload.classes.iter().enumerate() {
            on_clock(&format_args!("classes[{i}].deadline_s"), c.class.deadline_s)?;
        }
        for (i, ev) in scenario.events.iter().enumerate() {
            on_clock(&format_args!("events[{i}].at_s"), ev.at_s)?;
            if let FleetEventKind::DeviceSlowdown { factor, .. } = ev.kind {
                if !factor.is_finite() {
                    return Err(ServeError::BadScenario(format!(
                        "events[{i}].factor must be finite (got {factor})"
                    )));
                }
            }
        }
        let class_table: Vec<(u64, u32)> = workload
            .classes
            .iter()
            .map(|c| (ns(c.class.deadline_s.max(1e-3)), c.class.priority))
            .collect();
        let class_names: Vec<String> = workload
            .classes
            .iter()
            .map(|c| c.class.name.clone())
            .collect();
        let streaming = scenario.streaming.is_some();
        let class_stats: Vec<ClassStats> = (0..class_names.len())
            .map(|_| ClassStats {
                latencies: LatAgg::new(streaming, 0),
                ..ClassStats::default()
            })
            .collect();

        // A NaN or negative cooldown would silently mean "evaluate on
        // every completion" (`NaN.max(0.0)` is 0).
        if let Some(trig) = scenario.replan.slo_trigger {
            if !trig.cooldown_s.is_finite() || trig.cooldown_s < 0.0 {
                return Err(ServeError::BadScenario(format!(
                    "replan.slo_trigger.cooldown_s must be finite and >= 0 (got {})",
                    trig.cooldown_s
                )));
            }
        }

        // --- Budget enforcement: validate the policy and price every
        //     universe device once (rates never change mid-run). ---
        let budget = match &scenario.budget {
            Some(policy) => {
                policy.validate().map_err(ServeError::BadScenario)?;
                Some(BudgetState::new(policy.clone(), class_names.len()))
            }
            None => None,
        };
        let cost_rates: Vec<f64> = match &scenario.budget {
            Some(policy) => {
                let cost_model = budget_cost_model(&policy.metric);
                uni_names
                    .iter()
                    .map(|n| cost_model.rate(&n.as_str().into()))
                    .collect()
            }
            None => Vec::new(),
        };

        // --- Instance, placement, resolved index maps: the
        //     replica-invariant prefix, shared instead of rebuilt. ---
        let instance = shared.instance.clone();
        let resolved = Arc::clone(&shared.resolved);
        let placement = shared.placement.clone();
        let uni_of_res: Vec<usize> = (0..uni_names.len()).filter(|&ui| active[ui]).collect();
        let mut res_of_uni: Vec<Option<u32>> = vec![None; uni_names.len()];
        for (ri, &ui) in uni_of_res.iter().enumerate() {
            res_of_uni[ui] = Some(ri as u32);
        }
        let n_models = instance.deployments().len();

        // --- Kernel + driver device state over the whole universe. ---
        let lane_devices: Vec<LaneDevice> = universe
            .devices()
            .iter()
            .enumerate()
            .map(|(ui, d)| {
                let mut lanes = LaneDevice::new(d.parallelism.max(1), 0);
                lanes.active = active[ui];
                lanes
            })
            .collect();
        let devices: Vec<DevExtra> = universe
            .devices()
            .iter()
            .map(|_| DevExtra {
                inflight: 0,
                admission: AdmissionQueue::new(scenario.admission.clone()),
            })
            .collect();
        let usage: Vec<DeviceUsage> = universe
            .devices()
            .iter()
            .enumerate()
            .map(|(ui, d)| DeviceUsage {
                busy_s: 0.0,
                active_since_s: 0.0,
                active_s: 0.0,
                active: active[ui],
                lanes: d.parallelism.max(1),
            })
            .collect();

        let mut events = scenario.events.clone();
        events.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Tasks per request: one head plus one per encoder; size for
        // the largest deployed fan-out so the table never reallocates.
        let max_fanout = 1 + resolved
            .models()
            .iter()
            .map(|m| m.encoders.len())
            .max()
            .unwrap_or(0);
        // Batching policy: `None` keeps the singleton fast path (and
        // the golden fixtures); a `BatchPolicy` enables the kernel's
        // same-module merge with per-module caps resolved from the
        // per-kind overrides (module interning is stable across fleet
        // rebuilds — the model set never changes — so the cap table
        // survives replans).
        let batch = scenario.batch.as_ref().map(|b| b.max_batch.max(1));
        let module_batch_caps: Vec<usize> = match &scenario.batch {
            Some(b) if !b.per_kind.is_empty() => (0..resolved.module_count() as u32)
                .map(|m| {
                    let kind = resolved.module_kind(m);
                    b.per_kind
                        .iter()
                        .find(|c| c.kind == kind)
                        .map_or(b.max_batch.max(1), |c| c.max_batch.max(1))
                })
                .collect(),
            _ => Vec::new(),
        };
        // One sizing rule for every request-lifetime table (request
        // slab, kernel task/request tables): the in-flight scale, grown
        // on demand. Slots and task ids recycle and are invisible to
        // every report, so the only O(requests) state a run keeps is
        // what its report needs — exact mode's latency samples.
        let cap_requests = scenario.requests.min(1024);
        let sink = match scenario.streaming.as_ref().and_then(|c| c.sink.as_deref()) {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| ServeError::Sink(format!("create {path}: {e}")))?;
                Some(
                    ColumnWriter::new(std::io::BufWriter::new(file))
                        .map_err(|e| ServeError::Sink(format!("write {path}: {e}")))?,
                )
            }
            None => None,
        };
        let mut kernel: K = Kernel::with_capacity(
            lane_devices,
            KernelPolicy {
                immediate_head_fire: false,
                max_batch: batch,
                recycle_tasks: true,
                // Adaptive: heap while the in-flight event set stays
                // small (the measured steady state here), timing wheel
                // if it ever grows past the spill threshold.
                scheduler: Scheduler::Auto,
            },
            cap_requests.saturating_mul(max_fanout),
            cap_requests,
        );
        kernel.module_batch_caps = module_batch_caps;
        let exec_overhead_s: Vec<f64> = universe
            .devices()
            .iter()
            .map(|d| d.exec_overhead_s)
            .collect();
        let n_uni = uni_names.len();
        let mut driver = Online {
            universe,
            uni_names,
            by_name_order,
            slowdown: vec![None; res_of_uni.len()],
            instance,
            resolved,
            uni_of_res,
            res_of_uni,
            placement,
            sources,
            model_routes: Vec::new(),
            route_encs: Vec::new(),
            hosts_scratch: Vec::new(),
            route_scratch: Vec::new(),
            priced_scratch: PricedRoute::default(),
            migrate_cost: vec![0.0; n_uni],
            migrate_hit: vec![false; n_uni],
            n_models,
            devices,
            exec_overhead_s,
            requests: Slab::new(true, cap_requests),
            stream,
            arrival_buf: Vec::new(),
            arrival_cursor: 0,
            next_seq: 0,
            class_table,
            class_names,
            events,
            deadline_ns: ns(scenario.deadline_s.max(1e-3)),
            deadline_s: scenario.deadline_s.max(1e-3),
            max_inflight: scenario.max_inflight_per_device.max(1),
            horizon_s: scenario.replan.horizon_s.max(0.0),
            charge_switching_downtime: scenario.replan.charge_switching_downtime,
            slo_trigger: scenario.replan.slo_trigger,
            last_slo_eval_ns: 0,
            slo_replan: None,
            acct: Accounting {
                slo: SloWindow::new(scenario.slo_window.max(1)),
                snapshot_stride: scenario.snapshot_every.max(1) as u64,
                until_snapshot: scenario.snapshot_every.max(1) as u64,
                max_windows: scenario.max_windows,
                last_snapshot_seen: 0,
                latencies: LatAgg::new(streaming, cap_requests),
                class_stats,
                usage,
                executions: vec![0; n_uni],
                sink,
                completed: 0,
                late: 0,
                shed: 0,
                windows: Vec::new(),
                last_completion_ns: 0,
            },
            budget,
            cost_rates,
            route_costs: Vec::new(),
            budget_wake_scratch: Vec::new(),
            report: ServeReport {
                seed: scenario.seed.clone(),
                ..ServeReport::default()
            },
        };
        driver.refresh_model_routes();

        for (idx, ev) in driver.events.iter().enumerate() {
            kernel.push_custom(ns(ev.at_s.max(0.0)), ServeEv::Fleet(idx));
        }
        let first_at_ns = driver
            .peek_arrival()
            .expect("a non-empty stream yields a first arrival")
            .at_ns;
        kernel.push_custom(first_at_ns, ServeEv::Arrival);

        Ok(ServeSession { kernel, driver })
    }

    /// Processes every event up to `until_s` seconds of virtual time,
    /// then pauses. Returns the number of events processed.
    ///
    /// # Errors
    ///
    /// Scenario errors surfaced by fleet events or replanning.
    pub fn run_until(&mut self, until_s: f64) -> Result<u64, ServeError> {
        self.kernel
            .run_until(&mut self.driver, ns(until_s.max(0.0)))
            .map_err(|e| *e)
    }

    /// Runs the session to idle (no events left).
    ///
    /// # Errors
    ///
    /// Scenario errors surfaced by fleet events or replanning.
    pub fn run_to_idle(&mut self) -> Result<u64, ServeError> {
        self.kernel.run_until_idle(&mut self.driver).map_err(|e| *e)
    }

    /// Whether every event has been processed.
    pub fn is_idle(&self) -> bool {
        self.kernel.pending_events() == 0
    }

    /// Virtual time of the last processed event, seconds.
    pub fn now_s(&self) -> f64 {
        secs(self.kernel.now())
    }

    /// Consumes the session and produces the final report. Normally
    /// called once idle; finishing early sheds every request that has
    /// arrived but not completed (queued *or* mid-flight — its pending
    /// events die with the session), so `arrived == completed + shed`
    /// holds in every report this type produces.
    pub fn finish(self) -> ServeReport {
        self.driver.finish()
    }
}

/// Runs a serving scenario to completion and returns its deterministic
/// report: same scenario (including seed) ⇒ byte-identical report.
///
/// # Errors
///
/// [`ServeError::BadScenario`] on inconsistent configuration (unknown
/// fleet/devices/models, requester or a traffic source leaving, empty
/// stream); [`ServeError::Core`] if placement or routing fails
/// irrecoverably.
pub fn serve(scenario: &ServeScenario) -> Result<ServeReport, ServeError> {
    let mut session = ServeSession::new(scenario)?;
    session.run_to_idle()?;
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        AdmissionPolicy, FleetEvent, ModelDeployment, ReplanPolicy, TrafficSource,
    };
    use s2m3_sim::workload::ArrivalProcess;

    fn small_scenario(n: usize) -> ServeScenario {
        ServeScenario {
            requests: n,
            events: vec![],
            ..ServeScenario::churn_default()
        }
    }

    #[test]
    fn every_arrival_completes_or_sheds() {
        let report = serve(&small_scenario(300)).unwrap();
        assert_eq!(report.arrived, 300);
        assert_eq!(report.completed + report.shed, 300);
        assert!(report.latency.p50_s > 0.0);
        assert!(report.throughput_per_s > 0.0);
        assert!(!report.windows.is_empty());
    }

    fn budget_policy(
        cap: f64,
        window_s: f64,
        enforcement: BudgetEnforcement,
    ) -> crate::budget::BudgetPolicy {
        crate::budget::BudgetPolicy {
            cap_per_window: cap,
            metric: crate::budget::BudgetMetric::DeviceSeconds,
            window_s,
            enforcement,
        }
    }

    #[test]
    fn roomy_budget_changes_nothing_but_adds_the_report() {
        let uncapped = serve(&small_scenario(300)).unwrap();
        let mut s = small_scenario(300);
        s.budget = Some(budget_policy(1e18, 60.0, BudgetEnforcement::DeferThenShed));
        let mut capped = serve(&s).unwrap();
        let b = capped.budget.take().expect("budget report present");
        assert_eq!(capped, uncapped, "a roomy cap must not alter serving");
        assert_eq!(b.deferred, 0);
        assert_eq!(b.shed, 0);
        assert_eq!(b.adherence, 1.0);
        assert!(b.spend_total > 0.0);
        assert!((b.spend_total - b.shadow_spend_total).abs() < 1e-9);
        assert_eq!(b.dispatched, capped.completed);
    }

    #[test]
    fn tight_budget_defers_within_cap_and_recovers() {
        let uncapped = serve(&small_scenario(200)).unwrap();
        let busy: f64 = uncapped.devices.iter().map(|d| d.busy_s).sum();
        let cost_per_req = busy / uncapped.completed as f64;
        let mut s = small_scenario(200);
        s.budget = Some(budget_policy(
            3.0 * cost_per_req,
            uncapped.makespan_s / 10.0,
            BudgetEnforcement::Defer,
        ));
        let r = serve(&s).unwrap();
        assert_eq!(r.arrived, 200);
        assert_eq!(r.completed + r.shed, 200, "deferred requests are conserved");
        let b = r.budget.as_ref().unwrap();
        assert!(b.deferred > 0, "a ~3-requests-per-window cap must defer");
        assert!(b.latency_price_s > 0.0);
        assert_eq!(
            b.windows_over_cap, 0,
            "reserve-at-dispatch never overspends"
        );
        assert_eq!(b.adherence, 1.0);
        for w in &b.windows {
            assert!(w.spend <= b.cap_per_window + 1e-9);
        }
        assert!(b.shadow_spend_total >= b.spend_total - 1e-9);
        assert!(
            r.latency.p95_s >= uncapped.latency.p95_s,
            "deferral cannot speed requests up"
        );
    }

    #[test]
    fn budget_shed_mode_rejects_what_it_cannot_afford() {
        let uncapped = serve(&small_scenario(200)).unwrap();
        let busy: f64 = uncapped.devices.iter().map(|d| d.busy_s).sum();
        let cost_per_req = busy / uncapped.completed as f64;
        let mut s = small_scenario(200);
        s.budget = Some(budget_policy(
            2.0 * cost_per_req,
            uncapped.makespan_s / 5.0,
            BudgetEnforcement::Shed,
        ));
        let r = serve(&s).unwrap();
        let b = r.budget.as_ref().unwrap();
        assert_eq!(r.completed + r.shed, r.arrived);
        assert!(b.shed > 0, "a tight cap under Shed must reject work");
        assert_eq!(b.deferred, 0, "Shed mode never defers");
        assert!(r.shed >= b.shed, "budget sheds are sheds");
        for w in &b.windows {
            assert!(w.spend <= b.cap_per_window + 1e-9);
        }
    }

    #[test]
    fn same_seed_identical_reports_different_seed_differs() {
        let scenario = ServeScenario {
            requests: 400,
            ..ServeScenario::churn_default()
        };
        let a = serve(&scenario).unwrap();
        let b = serve(&scenario).unwrap();
        assert_eq!(a, b);
        let other = ServeScenario {
            seed: "serve/other".to_string(),
            ..scenario
        };
        let c = serve(&other).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn device_leave_forces_accepted_replan_and_loses_nothing() {
        let mut s = small_scenario(250);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 2.0 };
        s.events = vec![FleetEvent {
            at_s: 30.0,
            kind: FleetEventKind::DeviceLeave {
                device: "desktop".to_string(),
            },
        }];
        let report = serve(&s).unwrap();
        assert_eq!(report.completed + report.shed, report.arrived);
        assert_eq!(report.replans.len(), 1);
        let r = &report.replans[0];
        assert!(r.accepted, "losing a module host must force a replan");
        assert!(r.mandatory);
        assert!(r.migrations >= 1);
        assert!(r.switching_cost_s > 0.0);
        // The desktop stops accumulating active time after it leaves.
        let desktop = report
            .devices
            .iter()
            .find(|d| d.device == "desktop")
            .unwrap();
        assert!(desktop.active_s <= 30.0 + 1e-6);
    }

    #[test]
    fn server_join_is_accepted_only_under_sufficient_load() {
        let join = FleetEvent {
            at_s: 60.0,
            kind: FleetEventKind::DeviceJoin {
                device: "server".to_string(),
            },
        };
        // Busy stream, long horizon: worth switching.
        let mut busy = small_scenario(400);
        busy.arrivals = ArrivalProcess::Poisson { rate_per_s: 2.0 };
        busy.events = vec![join.clone()];
        busy.replan = ReplanPolicy {
            horizon_s: 3600.0,
            charge_switching_downtime: true,
            ..ReplanPolicy::default()
        };
        let busy_report = serve(&busy).unwrap();
        assert_eq!(busy_report.replans.len(), 1);
        assert!(
            busy_report.replans[0].accepted,
            "break-even {:?} at rate {:.2} should clear a 1 h horizon",
            busy_report.replans[0].break_even_requests, busy_report.replans[0].observed_rate_per_s
        );
        assert!(busy_report.accepted_replans() >= 1);

        // Trickle stream, tiny horizon: not worth the switching cost.
        let mut idle = small_scenario(40);
        idle.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.02 };
        idle.deadline_s = 120.0;
        idle.events = vec![join];
        idle.replan = ReplanPolicy {
            horizon_s: 1.0,
            charge_switching_downtime: true,
            ..ReplanPolicy::default()
        };
        let idle_report = serve(&idle).unwrap();
        assert_eq!(idle_report.replans.len(), 1);
        assert!(!idle_report.replans[0].accepted);
        assert!(!idle_report.replans[0].mandatory);
        // Rejected replans keep serving: nothing is lost either way.
        assert_eq!(
            idle_report.completed + idle_report.shed,
            idle_report.arrived
        );
    }

    #[test]
    fn shed_on_overload_sheds_under_burst_fifo_does_not() {
        let burst = ArrivalProcess::Simultaneous;
        let mut fifo = small_scenario(120);
        fifo.arrivals = burst.clone();
        fifo.admission = AdmissionPolicy::Fifo;
        fifo.deadline_s = 10_000.0;
        let fifo_report = serve(&fifo).unwrap();
        assert_eq!(fifo_report.shed, 0);
        assert_eq!(fifo_report.completed, 120);

        let mut shed = small_scenario(120);
        shed.arrivals = burst;
        shed.admission = AdmissionPolicy::ShedOnOverload { max_queue: 8 };
        shed.deadline_s = 10_000.0;
        let shed_report = serve(&shed).unwrap();
        assert!(
            shed_report.shed > 0,
            "a 120-request burst must overflow 8 slots"
        );
        assert_eq!(shed_report.completed + shed_report.shed, 120);
        // Shedding keeps served latency lower than serving everything.
        assert!(shed_report.latency.p99_s < fifo_report.latency.p99_s);
    }

    #[test]
    fn edf_beats_fifo_on_mixed_deadlines_under_load() {
        // Two models with very different service times share the fleet;
        // EDF should not miss more deadlines than FIFO on the same stream.
        let base = ServeScenario {
            models: vec![
                ModelDeployment {
                    name: "CLIP ViT-B/16".to_string(),
                    candidates: 64,
                },
                ModelDeployment {
                    name: "CLIP-Classifier Food-101".to_string(),
                    candidates: 0,
                },
            ],
            arrivals: ArrivalProcess::Poisson { rate_per_s: 1.5 },
            requests: 300,
            deadline_s: 10.0,
            events: vec![],
            ..ServeScenario::churn_default()
        };
        let fifo = serve(&ServeScenario {
            admission: AdmissionPolicy::Fifo,
            ..base.clone()
        })
        .unwrap();
        let edf = serve(&ServeScenario {
            admission: AdmissionPolicy::EarliestDeadlineFirst,
            ..base
        })
        .unwrap();
        assert_eq!(edf.completed, 300);
        assert!(
            edf.miss_rate <= fifo.miss_rate + 1e-9,
            "EDF miss rate {:.3} vs FIFO {:.3}",
            edf.miss_rate,
            fifo.miss_rate
        );
    }

    #[test]
    fn slowdown_event_triggers_replan_evaluation() {
        let mut s = small_scenario(150);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 1.0 };
        s.events = vec![FleetEvent {
            at_s: 20.0,
            kind: FleetEventKind::DeviceSlowdown {
                device: "laptop".to_string(),
                factor: 0.25,
            },
        }];
        let report = serve(&s).unwrap();
        assert_eq!(report.events.len(), 1);
        assert!(report.events[0].description.contains("slows"));
        assert_eq!(report.replans.len(), 1);
        assert_eq!(report.completed + report.shed, report.arrived);
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
        }
        for factor in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = small_scenario(10);
            s.events = vec![FleetEvent {
                at_s: 1.0,
                kind: slowdown(factor),
            }];
            cases.push((s, "events[0].factor"));
        }
        for (s, field) in cases {
            let err = serve(&s).unwrap_err();
            assert!(
                matches!(&err, ServeError::BadScenario(m) if m.contains(field)),
                "{field}: {err}"
            );
        }
        // Finite values keep their clamps.
        let mut clamped = small_scenario(10);
        clamped.deadline_s = -1.0;
        clamped.events = vec![FleetEvent {
            at_s: -5.0,
            kind: slowdown(0.0),
        }];
        assert!(serve(&clamped).is_ok());
    }

    #[test]
    fn leave_then_rejoin_keeps_lane_accounting_sane() {
        // The desktop leaves while it is executing work, then rejoins:
        // completions of pre-leave tasks must not free phantom lanes
        // after the rejoin. With correct accounting the run conserves
        // requests and keeps utilization within bounds.
        let mut s = small_scenario(300);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 2.0 };
        s.events = vec![
            FleetEvent {
                at_s: 20.0,
                kind: FleetEventKind::DeviceLeave {
                    device: "desktop".to_string(),
                },
            },
            FleetEvent {
                at_s: 40.0,
                kind: FleetEventKind::DeviceJoin {
                    device: "desktop".to_string(),
                },
            },
        ];
        let report = serve(&s).unwrap();
        assert_eq!(report.completed + report.shed, report.arrived);
        assert_eq!(report.events.len(), 2);
        for d in &report.devices {
            assert!((0.0..=1.0).contains(&d.utilization), "{d:?}");
        }
        // Determinism still holds through the leave/rejoin cycle.
        assert_eq!(report, serve(&s).unwrap());
    }

    #[test]
    fn joining_an_active_device_is_rejected() {
        let mut s = small_scenario(20);
        s.events = vec![FleetEvent {
            at_s: 5.0,
            kind: FleetEventKind::DeviceJoin {
                device: "laptop".to_string(),
            },
        }];
        assert!(matches!(serve(&s), Err(ServeError::BadScenario(_))));
    }

    #[test]
    fn utilization_is_bounded_and_windows_monotone_in_time() {
        let report = serve(&small_scenario(200)).unwrap();
        for d in &report.devices {
            assert!((0.0..=1.0).contains(&d.utilization), "{d:?}");
            assert!(d.busy_s >= 0.0);
        }
        let times: Vec<f64> = report.windows.iter().map(|w| w.at_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        for w in &report.windows {
            assert!(w.p50_s <= w.p95_s + 1e-12);
            assert!(w.p95_s <= w.p99_s + 1e-12);
            assert!((0.0..=1.0).contains(&w.miss_rate));
        }
    }

    /// The SLO-trigger churn scenario: the GPU server joins during an
    /// MMPP calm phase, so the break-even gate rejects the migration at
    /// event time (0.02 req/s × 120 s horizon < 8-request break-even).
    /// The storm phase then floods the server-less placement, the
    /// rolling p95 breaches the deadline, and the trigger re-runs the
    /// same gate — now clearing it at the risen observed rate.
    fn slo_trigger_scenario(trigger: Option<SloReplanTrigger>) -> ServeScenario {
        let mut s = small_scenario(400);
        s.seed = "serve/slo-breach-12".to_string();
        s.deadline_s = 8.0;
        s.arrivals = ArrivalProcess::Mmpp {
            rates_per_s: vec![0.02, 2.0],
            mean_dwell_s: 150.0,
        };
        s.admission = AdmissionPolicy::Fifo;
        s.slo_window = 64;
        s.events = vec![FleetEvent {
            at_s: 50.0,
            kind: FleetEventKind::DeviceJoin {
                device: "server".to_string(),
            },
        }];
        s.replan = ReplanPolicy {
            horizon_s: 120.0,
            charge_switching_downtime: true,
            slo_trigger: trigger,
        };
        s
    }

    #[test]
    fn slo_breach_fires_replan_that_the_event_gate_rejected() {
        let with = serve(&slo_trigger_scenario(Some(SloReplanTrigger {
            min_window: 32,
            cooldown_s: 60.0,
        })))
        .unwrap();
        assert_eq!(with.completed + with.shed, with.arrived);
        // Exactly two: the window stays in breach after the switch, and
        // a memoised decision surviving the accept would keep recording.
        assert_eq!(with.replans.len(), 2, "{:#?}", with.replans);
        let event_replan = &with.replans[0];
        assert!(event_replan.trigger.contains("joins"));
        assert!(
            !event_replan.accepted,
            "the calm-phase join must not clear the gate"
        );
        let slo_replan = &with.replans[1];
        assert!(slo_replan.trigger.contains("SLO breach"), "{slo_replan:?}");
        assert!(!slo_replan.mandatory);
        assert!(slo_replan.accepted);
        assert!(slo_replan.migrations >= 1);
        assert!(slo_replan.switching_cost_s > 0.0);
        assert!(slo_replan.observed_rate_per_s > event_replan.observed_rate_per_s);

        // Without the trigger the rejected join is never revisited and
        // the storm runs on the slow placement: strictly worse SLO.
        let without = serve(&slo_trigger_scenario(None)).unwrap();
        assert_eq!(without.replans.len(), 1);
        assert!(without
            .replans
            .iter()
            .all(|r| !r.trigger.contains("SLO breach")));
        assert!(
            with.late < without.late,
            "trigger on: {} late, off: {} late",
            with.late,
            without.late
        );
        assert!(with.latency.p95_s < without.latency.p95_s);

        // Deterministic like every other serve path.
        let again = serve(&slo_trigger_scenario(Some(SloReplanTrigger {
            min_window: 32,
            cooldown_s: 60.0,
        })))
        .unwrap();
        assert_eq!(with, again);
    }

    #[test]
    fn fleet_event_between_slo_evaluations_invalidates_the_memoised_replan() {
        // Join after breach: overloaded from the start, the desktop
        // joins at 40 s and the server at 150 s, both rejected (the
        // horizon is too short for anything to amortize), so the
        // trigger re-evaluates the same rejected candidate every
        // cooldown — until the second join changes the instance.
        let mut s = small_scenario(600);
        s.seed = "serve/join-after-breach".to_string();
        s.initial_devices = ["laptop", "jetson-b", "jetson-a"]
            .map(String::from)
            .to_vec();
        s.deadline_s = 8.0;
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 2.0 };
        s.admission = AdmissionPolicy::ShedOnOverload { max_queue: 2 };
        s.slo_window = 32;
        s.events = [(40.0, "desktop"), (150.0, "server")]
            .map(|(at_s, device)| FleetEvent {
                at_s,
                kind: FleetEventKind::DeviceJoin {
                    device: device.to_string(),
                },
            })
            .to_vec();
        s.replan = ReplanPolicy {
            horizon_s: 1e-3,
            charge_switching_downtime: true,
            slo_trigger: Some(SloReplanTrigger {
                min_window: 8,
                cooldown_s: 10.0,
            }),
        };
        let report = serve(&s).unwrap();

        // What an unmemoised controller records: a fresh `replan` of
        // the (never switched) starting placement on each phase's fleet.
        let universe = Fleet::standard_testbed();
        let fresh = |active: &[&str]| {
            let devices = universe
                .devices()
                .iter()
                .filter(|d| active.contains(&d.id.as_str()))
                .cloned()
                .collect();
            let fleet = Fleet::new(
                devices,
                universe.topology().clone(),
                universe.requester().clone(),
            )
            .unwrap();
            let instance = Instance::on_fleet(fleet, &[("CLIP ViT-B/16", 101)]).unwrap();
            replan(&instance, &prepare(&s).unwrap().placement).unwrap()
        };
        let pre_join = fresh(&["laptop", "jetson-b", "jetson-a", "desktop"]);
        let post_join = fresh(&["laptop", "jetson-b", "jetson-a", "desktop", "server"]);
        assert_ne!(
            pre_join.break_even_requests(),
            post_join.break_even_requests(),
            "the server must change the candidate, or the test shows nothing"
        );

        let slo_records = |from_s: f64, to_s: f64| {
            report.replans.iter().filter(move |r| {
                r.trigger.contains("SLO breach") && (from_s..to_s).contains(&r.at_s)
            })
        };
        assert!(slo_records(40.0, 150.0).count() >= 2, "memo is reused");
        assert!(slo_records(150.0, f64::MAX).count() >= 2);
        for (records, want) in [
            (slo_records(40.0, 150.0), &pre_join),
            (slo_records(150.0, f64::MAX), &post_join),
        ] {
            for r in records {
                assert_eq!(r.break_even_requests, want.break_even_requests(), "{r:?}");
                assert!(!r.accepted && !r.mandatory, "{r:?}");
            }
        }
    }

    #[test]
    fn slo_trigger_respects_cooldown_spacing() {
        let mut s = slo_trigger_scenario(Some(SloReplanTrigger {
            min_window: 16,
            cooldown_s: 45.0,
        }));
        // No fleet events at all: pure overload. The trigger may sample
        // and (with nothing better to place) record nothing, but any
        // records it does produce must be spaced by the cooldown.
        s.events.clear();
        let report = serve(&s).unwrap();
        let slo_times: Vec<f64> = report
            .replans
            .iter()
            .filter(|r| r.trigger.contains("SLO breach"))
            .map(|r| r.at_s)
            .collect();
        assert!(
            slo_times.windows(2).all(|w| w[1] - w[0] >= 45.0 - 1e-6),
            "{slo_times:?}"
        );
        assert_eq!(report.completed + report.shed, report.arrived);
    }

    #[test]
    fn session_pause_resume_matches_one_shot_run() {
        let s = ServeScenario {
            requests: 300,
            ..ServeScenario::churn_default()
        };
        let one_shot = serve(&s).unwrap();
        let mut session = ServeSession::new(&s).unwrap();
        // Pause at several mid-run times, including one inside the
        // churn window.
        for t in [10.0, 300.0, 1800.5, 4200.5] {
            session.run_until(t).unwrap();
            assert!(session.now_s() <= t + 1e-9 || session.is_idle());
        }
        session.run_to_idle().unwrap();
        assert!(session.is_idle());
        assert_eq!(session.finish(), one_shot);
    }

    #[test]
    fn finishing_a_paused_session_sheds_inflight_and_conserves() {
        let s = ServeScenario {
            requests: 200,
            events: vec![],
            ..ServeScenario::churn_default()
        };
        let mut session = ServeSession::new(&s).unwrap();
        session.run_until(120.0).unwrap();
        assert!(!session.is_idle(), "a 200-request stream outlives 120s");
        let report = session.finish();
        assert!(report.arrived > 0);
        assert!(report.arrived < 200, "the stream must be cut mid-run");
        assert_eq!(
            report.completed + report.shed,
            report.arrived,
            "early finish must shed, not drop, unresolved requests"
        );
    }

    #[test]
    fn multi_source_streams_merge_and_conserve() {
        let mut s = small_scenario(240);
        s.sources = vec![
            TrafficSource {
                device: "jetson-a".to_string(),
                arrivals: ArrivalProcess::Poisson { rate_per_s: 0.4 },
                weight: None,
                mix: None,
            },
            TrafficSource {
                device: "laptop".to_string(),
                arrivals: ArrivalProcess::Uniform { interval_s: 3.0 },
                weight: None,
                mix: None,
            },
            TrafficSource {
                device: "desktop".to_string(),
                arrivals: ArrivalProcess::Poisson { rate_per_s: 0.2 },
                weight: None,
                mix: None,
            },
        ];
        let report = serve(&s).unwrap();
        assert_eq!(report.arrived, 240);
        assert_eq!(report.completed + report.shed, 240);
        // Deterministic under replay.
        assert_eq!(report, serve(&s).unwrap());
        // A different source mix produces different traffic.
        let mut other = s.clone();
        other.sources.pop();
        let other_report = serve(&other).unwrap();
        assert_ne!(report.latency, other_report.latency);
    }

    #[test]
    fn multi_source_ties_break_by_source_rank() {
        // Two simultaneous-burst sources: every arrival is at t=0, so
        // the merge order is exactly (source rank, per-source id) and
        // the run must stay deterministic and conserving.
        let mut s = small_scenario(60);
        s.deadline_s = 10_000.0;
        s.admission = AdmissionPolicy::Fifo;
        s.sources = vec![
            TrafficSource {
                device: "jetson-a".to_string(),
                arrivals: ArrivalProcess::Simultaneous,
                weight: None,
                mix: None,
            },
            TrafficSource {
                device: "desktop".to_string(),
                arrivals: ArrivalProcess::Simultaneous,
                weight: None,
                mix: None,
            },
        ];
        let a = serve(&s).unwrap();
        assert_eq!(a.completed, 60);
        assert_eq!(a, serve(&s).unwrap());
    }

    fn two_model_scenario(n: usize) -> ServeScenario {
        ServeScenario {
            models: vec![
                ModelDeployment {
                    name: "CLIP ViT-B/16".to_string(),
                    candidates: 64,
                },
                ModelDeployment {
                    name: "CLIP-Classifier Food-101".to_string(),
                    candidates: 0,
                },
            ],
            requests: n,
            events: vec![],
            ..ServeScenario::churn_default()
        }
    }

    #[test]
    fn weighted_mix_changes_traffic_and_stays_deterministic() {
        use s2m3_sim::workload::{ModelMix, ModelWeight};
        let mut s = two_model_scenario(300);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 1.0 };
        let legacy = serve(&s).unwrap();
        s.mix = Some(ModelMix::Weighted {
            weights: vec![
                ModelWeight {
                    model: "CLIP ViT-B/16".to_string(),
                    weight: 1.0,
                },
                ModelWeight {
                    model: "CLIP-Classifier Food-101".to_string(),
                    weight: 9.0,
                },
            ],
        });
        let mixed = serve(&s).unwrap();
        assert_eq!(mixed.arrived, 300);
        assert_eq!(mixed.completed + mixed.shed, 300);
        assert_eq!(mixed, serve(&s).unwrap(), "same seed, same report");
        // 90% classifier traffic is far lighter than the 50/50 split.
        assert_ne!(mixed.latency, legacy.latency);
        assert!(mixed.latency.p95_s < legacy.latency.p95_s);

        // An unknown model in the mix is a scenario error.
        let mut bad = s.clone();
        bad.mix = Some(ModelMix::Weighted {
            weights: vec![ModelWeight {
                model: "nope".to_string(),
                weight: 1.0,
            }],
        });
        assert!(matches!(serve(&bad), Err(ServeError::BadScenario(_))));
    }

    #[test]
    fn deadline_classes_drive_slo_accounting_and_edf_order() {
        use s2m3_core::problem::DeadlineClass;
        use s2m3_sim::workload::ClassShare;
        // Near-capacity load with a roomy scenario deadline: the
        // uniform run rarely misses, while the 3 s interactive class
        // (below the model's own service time plus queueing) must.
        let mut s = small_scenario(250);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.3 };
        s.admission = AdmissionPolicy::EarliestDeadlineFirst;
        s.deadline_s = 120.0;
        let uniform = serve(&s).unwrap();
        s.classes = vec![
            ClassShare {
                class: DeadlineClass {
                    name: "interactive".to_string(),
                    deadline_s: 3.0,
                    priority: 10,
                },
                weight: 1.0,
            },
            ClassShare {
                class: DeadlineClass {
                    name: "batch".to_string(),
                    deadline_s: 600.0,
                    priority: 0,
                },
                weight: 1.0,
            },
        ];
        let classed = serve(&s).unwrap();
        assert_eq!(classed.completed + classed.shed, classed.arrived);
        assert_eq!(classed, serve(&s).unwrap());
        // Half the stream now runs against the 3 s interactive deadline
        // instead of 120 s: miss accounting must reflect per-class SLOs.
        assert!(classed.late > uniform.late);

        // A non-positive class weight is rejected, not ignored.
        let mut bad = s.clone();
        bad.classes[0].weight = 0.0;
        assert!(matches!(serve(&bad), Err(ServeError::BadScenario(_))));
    }

    #[test]
    fn batching_relieves_a_burst_and_preserves_conservation() {
        use crate::config::BatchPolicy;
        // A simultaneous burst piles all requests onto the shared
        // encoders: exactly the regime module-level batching exists for.
        let mut s = small_scenario(80);
        s.arrivals = ArrivalProcess::Simultaneous;
        s.admission = AdmissionPolicy::Fifo;
        s.deadline_s = 10_000.0;
        let plain = serve(&s).unwrap();
        s.batch = Some(BatchPolicy {
            max_batch: 8,
            per_kind: vec![],
        });
        let batched = serve(&s).unwrap();
        assert_eq!(batched.arrived, 80);
        assert_eq!(batched.completed + batched.shed, 80);
        assert_eq!(batched, serve(&s).unwrap(), "batched runs stay seeded");
        assert!(
            batched.makespan_s < plain.makespan_s,
            "batched {:.2}s vs plain {:.2}s",
            batched.makespan_s,
            plain.makespan_s
        );
        assert!(batched.latency.p95_s < plain.latency.p95_s);
    }

    #[test]
    fn per_kind_caps_bound_the_batched_speedup() {
        use crate::config::{BatchPolicy, KindBatchCap};
        use s2m3_models::module::ModuleKind;
        let mut s = small_scenario(80);
        s.arrivals = ArrivalProcess::Simultaneous;
        s.admission = AdmissionPolicy::Fifo;
        s.deadline_s = 10_000.0;
        s.batch = Some(BatchPolicy {
            max_batch: 8,
            per_kind: vec![],
        });
        let full = serve(&s).unwrap();
        // Cap every kind at 1: batching enabled but never merging —
        // the per-kind override path must reproduce the unbatched run's
        // timing exactly.
        s.batch = Some(BatchPolicy {
            max_batch: 8,
            per_kind: ModuleKind::all()
                .into_iter()
                .map(|kind| KindBatchCap { kind, max_batch: 1 })
                .collect(),
        });
        let capped = serve(&s).unwrap();
        let mut unbatched_scenario = s.clone();
        unbatched_scenario.batch = None;
        let unbatched = serve(&unbatched_scenario).unwrap();
        assert_eq!(capped.latency, unbatched.latency);
        assert_eq!(capped.makespan_s, unbatched.makespan_s);
        assert!(full.makespan_s < capped.makespan_s);
    }

    #[test]
    fn batching_survives_churn_and_replanning() {
        use crate::config::BatchPolicy;
        let mut s = ServeScenario {
            requests: 300,
            ..ServeScenario::churn_default()
        };
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 2.0 };
        s.batch = Some(BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        });
        s.events = vec![
            FleetEvent {
                at_s: 20.0,
                kind: FleetEventKind::DeviceLeave {
                    device: "desktop".to_string(),
                },
            },
            FleetEvent {
                at_s: 60.0,
                kind: FleetEventKind::DeviceJoin {
                    device: "server".to_string(),
                },
            },
        ];
        let report = serve(&s).unwrap();
        assert_eq!(report.completed + report.shed, report.arrived);
        assert_eq!(report, serve(&s).unwrap());
        for d in &report.devices {
            assert!((0.0..=1.0).contains(&d.utilization), "{d:?}");
        }
    }

    #[test]
    fn source_weights_split_the_budget() {
        let mut s = small_scenario(200);
        s.sources = vec![
            TrafficSource {
                device: "jetson-a".to_string(),
                arrivals: ArrivalProcess::Poisson { rate_per_s: 0.4 },
                weight: Some(3.0),
                mix: None,
            },
            TrafficSource {
                device: "laptop".to_string(),
                arrivals: ArrivalProcess::Poisson { rate_per_s: 0.4 },
                weight: Some(1.0),
                mix: None,
            },
        ];
        let report = serve(&s).unwrap();
        assert_eq!(report.arrived, 200);
        assert_eq!(report.completed + report.shed, 200);
        assert_eq!(report, serve(&s).unwrap());
        // A zero weight is rejected.
        s.sources[0].weight = Some(-2.0);
        assert!(matches!(serve(&s), Err(ServeError::BadScenario(_))));
    }

    #[test]
    fn multi_source_rejects_unknown_inactive_or_leaving_sources() {
        let src = |device: &str| TrafficSource {
            device: device.to_string(),
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.5 },
            weight: None,
            mix: None,
        };
        let mut unknown = small_scenario(10);
        unknown.sources = vec![src("mars-rover")];
        assert!(matches!(serve(&unknown), Err(ServeError::BadScenario(_))));

        let mut inactive = small_scenario(10);
        inactive.sources = vec![src("server")]; // in universe, not initial
        assert!(matches!(serve(&inactive), Err(ServeError::BadScenario(_))));

        let mut leaving = small_scenario(40);
        leaving.sources = vec![src("jetson-a"), src("desktop")];
        leaving.events = vec![FleetEvent {
            at_s: 10.0,
            kind: FleetEventKind::DeviceLeave {
                device: "desktop".to_string(),
            },
        }];
        assert!(matches!(serve(&leaving), Err(ServeError::BadScenario(_))));
    }

    /// Relative error |a - b| / b, for sketch-percentile assertions.
    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            (a - b).abs() / b
        }
    }

    /// Streaming changes only how latency percentiles are aggregated
    /// (sketch vs exact sort) — both modes ride one request-lifetime
    /// path — so every counter, event, replan, window, budget and
    /// device row must agree bit-for-bit, and percentiles within the
    /// sketch's <= 1% bound.
    fn assert_streaming_matches_exact(exact: &ServeScenario) {
        let mut streaming = exact.clone();
        streaming.streaming = Some(crate::config::StreamingConfig::default());
        let e = serve(exact).unwrap();
        let s = serve(&streaming).unwrap();
        assert_eq!(s, serve(&streaming).unwrap(), "streaming is deterministic");

        let mut s_cmp = s.clone();
        s_cmp.latency = e.latency;
        for (cs, ce) in s_cmp.classes.iter_mut().zip(e.classes.iter()) {
            cs.latency = ce.latency;
        }
        assert_eq!(s_cmp, e, "streaming may differ only in latency summaries");

        let summaries = std::iter::once((&s.latency, &e.latency)).chain(
            s.classes
                .iter()
                .zip(&e.classes)
                .map(|(cs, ce)| (&cs.latency, &ce.latency)),
        );
        for (got, want) in summaries {
            assert_eq!(got.completed, want.completed);
            assert!(rel_err(got.mean_s, want.mean_s) < 1e-9, "mean is exact");
            assert!(rel_err(got.max_s, want.max_s) < 1e-9, "max is exact");
            for (got, want) in [
                (got.p50_s, want.p50_s),
                (got.p95_s, want.p95_s),
                (got.p99_s, want.p99_s),
            ] {
                assert!(
                    rel_err(got, want) < 0.01,
                    "sketch percentile {got} vs exact {want} breaks the 1% bound"
                );
            }
        }
    }

    #[test]
    fn streaming_mode_matches_exact_within_sketch_error() {
        // The churn scenario up to its forced replan.
        let mut churn = ServeScenario::churn_default();
        churn.requests = 600;
        assert_streaming_matches_exact(&churn);

        // Every request-lifetime feature at once, through both fleet
        // events: two models under a weighted mix, deadline classes,
        // EDF, batching, a binding budget (defers, wakes, sheds) and
        // SLO-breach replans across MMPP calm and storm phases.
        use s2m3_core::problem::DeadlineClass;
        use s2m3_sim::workload::{ClassShare, ModelMix, ModelWeight};
        let mut full = two_model_scenario(3_000);
        full.events = ServeScenario::churn_default().events;
        full.mix = Some(ModelMix::Weighted {
            weights: [("CLIP ViT-B/16", 1.0), ("CLIP-Classifier Food-101", 2.0)]
                .map(|(model, weight)| ModelWeight {
                    model: model.to_string(),
                    weight,
                })
                .to_vec(),
        });
        full.classes = [("interactive", 8.0, 2, 1.0), ("batch", 60.0, 0, 3.0)]
            .map(|(name, deadline_s, priority, weight)| ClassShare {
                class: DeadlineClass {
                    name: name.to_string(),
                    deadline_s,
                    priority,
                },
                weight,
            })
            .to_vec();
        full.arrivals = ArrivalProcess::Mmpp {
            rates_per_s: vec![0.25, 1.0],
            mean_dwell_s: 120.0,
        };
        full.admission = AdmissionPolicy::EarliestDeadlineFirst;
        full.batch = Some(crate::config::BatchPolicy {
            max_batch: 4,
            per_kind: vec![],
        });
        full.budget = Some(crate::budget::BudgetPolicy::device_seconds(30.0));
        // A short horizon rejects the server join, so the breaches
        // after it re-evaluate the same migration until the backlog
        // credit clears the gate.
        full.deadline_s = 8.0;
        full.replan.horizon_s = 10.0;
        full.replan.slo_trigger = Some(SloReplanTrigger::default());
        let report = serve(&full).unwrap();
        let budget = report.budget.as_ref().expect("budget report");
        assert!(budget.deferred > 0 && budget.shed > 0, "{budget:?}");
        let breaches = report
            .replans
            .iter()
            .filter(|r| r.trigger.contains("SLO breach"));
        assert!(breaches.count() >= 2, "{:#?}", report.replans);
        assert_eq!(report.events.len(), 2, "ran through both fleet events");
        assert_streaming_matches_exact(&full);
    }

    #[test]
    fn streaming_sink_records_every_completion() {
        let path = std::env::temp_dir().join(format!("s2m3_sink_test_{}.bin", std::process::id()));
        let mut scenario = ServeScenario::churn_default();
        scenario.requests = 300;
        scenario.streaming = Some(crate::config::StreamingConfig {
            sink: Some(path.to_string_lossy().into_owned()),
        });
        let report = serve(&scenario).unwrap();
        let rows = s2m3_data::sink::read_rows(std::fs::File::open(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(rows.len() as u64, report.completed);
        let mean = rows.iter().map(|r| r.latency_s).sum::<f64>() / rows.len() as f64;
        assert!(rel_err(mean, report.latency.mean_s) < 1e-9);
        for w in rows.windows(2) {
            assert!(
                w[0].finish_ns <= w[1].finish_ns,
                "rows land in completion order"
            );
        }
        let n_classes = report.classes.len() as u32;
        for r in &rows {
            assert!(r.finish_ns >= r.arrival_ns);
            assert!(r.device != u32::MAX, "completions carry their head device");
            if let Some(c) = r.class {
                assert!(c < n_classes);
            }
        }
        // Per-class completion counts agree with the report.
        for (ci, c) in report.classes.iter().enumerate() {
            let n = rows.iter().filter(|r| r.class == Some(ci as u32)).count();
            assert_eq!(n as u64, c.completed, "class {} row count", c.class);
        }
    }

    #[test]
    fn max_windows_caps_snapshots_without_touching_counters() {
        let mut uncapped = ServeScenario::churn_default();
        uncapped.requests = 600;
        uncapped.snapshot_every = 20;
        let mut capped = uncapped.clone();
        capped.max_windows = Some(8);
        let u = serve(&uncapped).unwrap();
        let c = serve(&capped).unwrap();
        assert!(u.windows.len() > 8);
        assert!(c.windows.len() <= 9, "cap plus at most the final snapshot");
        let mut c_cmp = c.clone();
        c_cmp.windows = u.windows.clone();
        assert_eq!(c_cmp, u, "downsampling only drops snapshots");
    }
}
