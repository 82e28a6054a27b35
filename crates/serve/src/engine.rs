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
//! kernel's — the *same* event loop the offline simulator runs.
//!
//! [`FleetEvent`](crate::config::FleetEvent)s change the active fleet at
//! simulated timestamps and wake the replan controller, as does a
//! rolling-p95 breach of the deadline when
//! [`ReplanPolicy::slo_trigger`](crate::config::ReplanPolicy) is set. It
//! runs while the kernel is paused between events — drain, requeue,
//! resume — so every arrival ends as exactly one completion or one shed.
//!
//! ## Stages
//!
//! The engine owns the request lifetime — arrival → admit → drain →
//! dispatch → complete or shed — and fleet membership, and asks each
//! stage questions instead of writing its state:
//!
//! - [`crate::budget`]: the cost cap — dispatch verdicts, window wakes,
//!   route pricing, and the replan gate's feasibility term;
//! - `replan`: the replan controller — the SLO trigger, the memoised
//!   candidate, the break-even gate, and the fleet-event, replan and
//!   rejected-run records;
//! - `accounting`: request counters, the SLO window, latency
//!   aggregation, device usage and the completion sink, folded into the
//!   report at the end.
//!
//! The engine charges an accepted switch's download + load cost as
//! downtime on its destination devices and re-routes: both need the
//! kernel.
//!
//! ## Checked before the first event
//!
//! [`prepare`], [`ServeSession::new`] and [`ServeSession::with_shared`]
//! validate the scenario in one pass ([`crate::config`]), so the driver
//! holds no input checks: fleet events carry their universe device index
//! and a membership change known to be legal, sources are universe
//! indices, and times are clock nanoseconds. The one exception is an
//! arrival past the clock's range, found where the lazy stream draws it.
//!
//! ## One request-lifetime path
//!
//! Exact and streaming runs drive the same request lifetime: the
//! request [`Slab`] recycles, the kernel's tables start empty and grow
//! to the in-flight peak, and ordering keys on the arrival sequence
//! (`ReqInfo::seq`), never on the slot, so slot reuse is invisible to
//! every report. [`ServeScenario::streaming`] selects only how latencies
//! are *aggregated* — every sample (the one O(requests) table an exact
//! run keeps) or a sketch — and whether a completion sink is attached.
//!
//! ## Hot-path representation
//!
//! The loop runs on [`ResolvedInstance`] indices, per-device state lives
//! in `Vec`s by *universe* device index, and each per-model, per-source
//! route is priced by [`ResolvedInstance::price_route`] and cached in
//! nanoseconds until the next replan. String ids survive only at the
//! boundary: scenario parsing, replan diffs, and the [`ServeReport`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use s2m3_core::adaptive::Migration;
use s2m3_core::error::CoreError;
use s2m3_core::placement::{greedy_place_resolved, PlacementOptions};
use s2m3_core::problem::{Instance, Placement};
use s2m3_core::resolved::{PricedRoute, ResolvedInstance};
use s2m3_net::fleet::Fleet;
use s2m3_sim::kernel::{
    ns, secs, Device as LaneDevice, Driver, Kernel, Policy as KernelPolicy, RequestSlot, Scheduler,
    MAX_ARRIVAL_S,
};
use s2m3_sim::workload::{WorkloadRequest, WorkloadStream};

use crate::accounting::Accounting;
use crate::budget::{BudgetState, Mark, Verdict};
use crate::config::{FleetChange, ServeScenario, ValidEvent, ValidScenario};
use crate::queue::{Admission, AdmissionQueue, QueuedRequest};
use crate::replan::Replanner;
use crate::report::{ReplanTrigger, ServeReport};
use crate::slab::{ReqHandle, Slab};

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

/// Per-task payload stored inline in the kernel's task table.
#[derive(Debug, Clone, Copy, Default)]
struct TaskInfo {
    /// Work units of this execution, fixed at dispatch.
    units: f64,
    /// Embedding transfer time to the head device (encoders only), ns.
    output_tx_ns: u64,
    /// Execution duration fixed at dispatch, ns (0 until dispatched).
    dur_ns: u64,
}

/// Driver-side request bookkeeping (the kernel keeps the fan-in state).
#[derive(Debug, Clone, Default)]
struct ReqInfo {
    /// Arrival sequence number, unique and monotone: queue ordering and
    /// re-admission key on it, never on the recyclable slab slot.
    seq: u64,
    arrival_ns: u64,
    deadline_ns: u64,
    /// Rank of the traffic source that emitted this request.
    source: usize,
    /// Deployed-model index, drawn by the workload's model mix.
    model: usize,
    /// Admission priority of the deadline class (0 without classes).
    priority: u32,
    /// Deadline-class index (`None` for unclassed scenarios).
    class: Option<u32>,
    /// Universe index of the device holding its in-flight slot.
    inflight_on: Option<usize>,
    /// The budget gate's history of this request.
    budget: Mark,
}

/// Driver-side per-device serving state (the kernel owns lanes/queues;
/// usage accounting lives in [`Accounting`]).
#[derive(Debug)]
struct DevExtra {
    /// Requests dispatched and not yet finished whose head lives here.
    inflight: usize,
    admission: AdmissionQueue,
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

/// Scratch reused across route pricing, so a route refresh allocates
/// nothing after warm-up.
#[derive(Debug, Default)]
struct RouteScratch {
    /// Per-module host table.
    hosts: Vec<Vec<u32>>,
    /// One model's module route.
    route: Vec<(u32, u32)>,
    /// One route's pricing.
    priced: PricedRoute,
}

/// The online driver: everything scenario-specific the kernel does not
/// own.
struct Online {
    universe: Fleet,
    /// Universe device names, by universe index.
    uni_names: Vec<String>,
    /// Universe indices in name order.
    by_name_order: Vec<usize>,
    slowdown: Vec<Option<f64>>,
    instance: Instance,
    /// The interned hot-path view, shared by a sweep's replicas.
    resolved: Arc<ResolvedInstance>,
    /// Universe index of each resolved (active-fleet) device.
    uni_of_res: Vec<usize>,
    /// Resolved index of each universe device (`None` while inactive).
    res_of_uni: Vec<Option<u32>>,
    placement: Placement,
    /// Universe index of each traffic source, by rank.
    sources: Vec<usize>,
    /// Cached route per `model * n_sources + source` (`None`: the
    /// placement cannot serve it, and arrivals shed).
    model_routes: Vec<Option<ModelRoute>>,
    /// Encoder pool every [`ModelRoute`] slices, refilled in place.
    route_encs: Vec<EncRoute>,
    scratch: RouteScratch,
    devices: Vec<DevExtra>,
    /// Request table by slot (the kernel's request ids): freed slots
    /// recycle, so it stays O(in-flight).
    requests: Slab<ReqInfo>,
    // --- workload ---
    /// The lazily pulled merged arrival stream, never materialized.
    stream: WorkloadStream,
    /// Upcoming arrivals, sampled in batches so the stream merge
    /// amortizes (draws stay in stream order), read front to back via
    /// `arrival_cursor`. The event queue holds one future arrival.
    arrival_buf: Vec<WorkloadRequest>,
    /// Next unconsumed index into `arrival_buf`.
    arrival_cursor: usize,
    /// Arrival sequence counter (`ReqInfo::seq` of the next arrival).
    next_seq: u64,
    /// Per-class `(deadline_ns, priority)`, by class id.
    class_table: Vec<(u64, u32)>,
    /// Class names, indexed by class id (report boundary).
    class_names: Vec<String>,
    /// The fleet schedule in firing order (`ServeEv::Fleet` indexes it).
    events: Vec<ValidEvent>,
    deadline_ns: u64,
    deadline_s: f64,
    max_inflight: usize,
    charge_switching_downtime: bool,
    // --- stages ---
    /// The replan controller ([`crate::replan`]).
    replan: Replanner,
    /// Counters, windows and usage ([`crate::accounting`]).
    acct: Accounting,
    /// Budget-enforcement state (`None`: uncapped).
    budget: Option<BudgetState>,
    /// Per-model route cost under the current placement, refreshed with
    /// the route cache (empty without a budget).
    route_costs: Vec<f64>,
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
        // A leave cancels the device's tasks and re-indexes the fleet
        // before the kernel runs again.
        let rd = self.res_of_uni[device].expect("tasks dispatch only on active devices");
        let mut dur_s = 0.0;
        for &tid in group {
            dur_s += self.resolved.compute_time_units(
                k.tasks.module(tid),
                rd,
                k.tasks.payload(tid).units,
            );
        }
        if group.len() > 1 {
            dur_s -= (group.len() - 1) as f64 * self.universe.devices()[device].exec_overhead_s;
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
            ServeEv::Fleet(idx) => self.fleet_event(k, self.events[idx], now),
            ServeEv::Arrival => self.arrival(k, now),
            ServeEv::BudgetWake => {
                self.budget_wake(k, now);
                Ok(())
            }
        }
    }
}

impl Online {
    /// Rebuilds the instance over the active fleet with slowdowns
    /// applied, re-interning the resolved view and the index maps.
    fn rebuild_instance(&mut self, k: &K) -> Result<(), ServeError> {
        self.reindex(|ui| k.devices[ui].active);
        let mut specs = Vec::new();
        for &ui in &self.uni_of_res {
            let d = &self.universe.devices()[ui];
            let mut spec = d.clone();
            if let Some(factor) = self.slowdown[ui] {
                spec.speed_gflops = (d.speed_gflops * factor).max(1e-6);
            }
            specs.push(spec);
        }
        let fleet = Fleet::new(
            specs,
            self.universe.topology().clone(),
            self.universe.requester().clone(),
        )
        .expect("a validated schedule never removes the requester");
        self.instance = self.instance.with_fleet(fleet)?;
        self.replan.forget();
        self.resolved = Arc::new(ResolvedInstance::new(&self.instance)?);
        Ok(())
    }

    /// Re-derives the resolved ↔ universe index maps for the devices
    /// `active` accepts.
    fn reindex(&mut self, active: impl Fn(usize) -> bool) {
        self.uni_of_res = (0..self.uni_names.len()).filter(|&ui| active(ui)).collect();
        self.res_of_uni = vec![None; self.uni_names.len()];
        for (ri, &ui) in self.uni_of_res.iter().enumerate() {
            self.res_of_uni[ui] = Some(ri as u32);
        }
    }

    /// The resolved index of the last traffic source, whose route
    /// prices a model's budget cost.
    fn last_source(&self) -> u32 {
        self.res_of_uni[*self.sources.last().expect("a scenario has sources")]
            .expect("sources never leave the fleet")
    }

    /// Recomputes the per-(model, source) route cache, and the budget's
    /// route costs, after a placement change. Allocation-free after
    /// warm-up: the scratch and the encoder pool refill in place.
    fn refresh_model_routes(&mut self) {
        let RouteScratch {
            hosts,
            route,
            priced,
        } = &mut self.scratch;
        self.resolved.resolve_placement_into(&self.placement, hosts);
        let n_sources = self.sources.len();
        self.model_routes.clear();
        self.route_encs.clear();
        for (m, model) in self.resolved.models().iter().enumerate() {
            let profile = model.profile;
            if !self.resolved.route_model_into(m, &profile, hosts, route) {
                self.model_routes.extend((0..n_sources).map(|_| None));
                continue;
            }
            for &src in &self.sources {
                let source = self.res_of_uni[src].expect("sources never leave the fleet");
                self.resolved.price_route(&profile, source, route, priced);
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
        }
        if let Some(budget) = &self.budget {
            let cost = |priced: &PricedRoute| budget.route_cost(priced, &self.uni_of_res);
            let (source, scratch) = (self.last_source(), &mut self.scratch);
            let costs = model_route_costs(&self.resolved, &self.placement, source, scratch, cost);
            self.route_costs.clear();
            // Unroutable models shed at admission, before the budget
            // gate: their 0 keeps model indexing.
            for cost in costs {
                self.route_costs.push(cost.unwrap_or(0.0));
            }
        }
    }

    /// Offers a request to its head device's admission queue.
    fn admit(&mut self, k: &mut K, rid: usize, now: u64) {
        let r = &self.requests[rid];
        let Some(head_uni) = self.model_routes[r.model * self.sources.len() + r.source]
            .as_ref()
            .map(|mr| mr.head_uni)
        else {
            self.record_shed(rid, now);
            return;
        };
        let outcome = self.devices[head_uni].admission.offer(QueuedRequest {
            id: r.seq,
            handle: self.requests.handle_of(rid).pack(),
            arrival_ns: r.arrival_ns,
            deadline_ns: r.deadline_ns,
            priority: r.priority,
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
            let slot = handle.slot as usize;
            let verdict = self.budget.as_mut().map_or(Verdict::Dispatch, |budget| {
                let r = &mut self.requests[slot];
                budget.gate(&qr, &mut r.budget, r.class, self.route_costs[r.model], now)
            });
            match verdict {
                Verdict::Dispatch => self.dispatch_request(k, slot, now),
                // Parked (or rejected): the pop freed no request slot,
                // so keep draining — EDF pop order already gave this
                // window's headroom to the highest-priority work first.
                Verdict::Defer => self.push_budget_wake(k),
                Verdict::Shed => self.record_shed(slot, now),
            }
        }
    }

    /// Pushes the budget's next window wake, if it wants one.
    fn push_budget_wake(&mut self, k: &mut K) {
        if let Some(at) = self.budget.as_mut().and_then(BudgetState::next_wake) {
            k.push_custom(at, ServeEv::BudgetWake);
        }
    }

    /// A fresh budget window opened: re-admit every parked request,
    /// EDF order, through the normal `admit` path (a request the new
    /// window still cannot afford simply re-parks).
    fn budget_wake(&mut self, k: &mut K, now: u64) {
        let parked = self.budget.as_mut().map_or_else(Vec::new, |b| b.wake(now));
        for handle in parked {
            let handle = ReqHandle::unpack(handle);
            // Parked requests can be resolved elsewhere (an early
            // `finish` sheds them): skip anything no longer live.
            if self.requests.is_current(handle) {
                self.admit(k, handle.slot as usize, now);
            }
        }
        self.push_budget_wake(k);
    }

    /// Expands a request into module tasks from its model's cached route.
    fn dispatch_request(&mut self, k: &mut K, rid: usize, now: u64) {
        let r = &self.requests[rid];
        let Some(mr) = self.model_routes[r.model * self.sources.len() + r.source] else {
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
        self.requests[rid].inflight_on = Some(head_uni);
        self.devices[head_uni].inflight += 1;

        if pending == 0 {
            k.push_ready(head_ready, head_task);
        }
    }

    fn complete_request(&mut self, k: &mut K, rid: usize, now: u64) -> Result<(), BoxedErr> {
        let (arrival_ns, deadline_ns, head_dev, class) = {
            let r = &mut self.requests[rid];
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
        if self.replan.slo_due(self.acct.slo(), self.deadline_s, now) {
            self.slo_breach(k, now)?;
        }
        // The request is fully accounted: release its slot.
        self.requests.free(rid);
        Ok(())
    }

    fn record_shed(&mut self, rid: usize, now: u64) {
        let r = &self.requests[rid];
        // A shed request is an SLO miss; the window records it at the
        // deadline bound so percentiles reflect the rejection.
        let bound_s = secs(r.deadline_ns.saturating_sub(r.arrival_ns));
        self.acct.shed(secs(now), bound_s, r.class);
        self.requests.free(rid);
    }

    /// Re-admits a request whose attempt a fleet leave cancelled.
    fn requeue_request(&mut self, k: &mut K, handle: ReqHandle, now: u64) {
        // A stale handle means the slot was resolved (and possibly
        // reused) since the caller collected it; nothing to requeue.
        if !self.requests.is_current(handle) {
            return;
        }
        let rid = handle.slot as usize;
        if let Some(ui) = self.requests[rid].inflight_on.take() {
            self.devices[ui].inflight = self.devices[ui].inflight.saturating_sub(1);
        }
        self.acct.retry();
        self.admit(k, rid, now);
    }

    /// Charges accepted migrations as downtime on their destination
    /// devices and schedules scheduler wake-ups when the weights land.
    fn charge_migrations(&self, k: &mut K, now: u64, migrations: &[Migration]) {
        // Sum each destination's cost in migration order, then charge
        // the destinations in name order — including the wake-up pushed
        // for a zero-cost destination.
        let mut cost_by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for m in migrations {
            *cost_by_name.entry(m.to.as_str()).or_insert(0.0) += m.cost_s;
        }
        for &ui in &self.by_name_order {
            let Some(&cost) = cost_by_name.get(self.uni_names[ui].as_str()) else {
                continue;
            };
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

    /// Applies one validated fleet event and runs the replan controller.
    /// Fails only when replanning does.
    fn fleet_event(&mut self, k: &mut K, ev: ValidEvent, now: u64) -> Result<(), BoxedErr> {
        let ui = ev.device;
        let device = &self.uni_names[ui];
        let description = match ev.change {
            FleetChange::Join => {
                k.devices[ui].active = true;
                self.acct.join(ui, ev.at_s);
                format!("{device} joins")
            }
            FleetChange::Leave => {
                k.devices[ui].active = false;
                self.acct.leave(ui, ev.at_s);
                format!("{device} leaves")
            }
            FleetChange::Slowdown(factor) => {
                self.slowdown[ui] = Some(factor);
                format!("{device} slows to {factor:.2}x")
            }
        };
        self.replan.record_event(ev.at_s, description.clone());

        // Collect every request disturbed by a leave: queued in the
        // departed device's admission queue, or with live tasks there.
        // Keyed `(seq, handle)` so re-admission runs oldest-arrival
        // first regardless of slab slot numbering.
        let mut disturbed: BTreeSet<(u64, u64)> = BTreeSet::new();
        if let FleetChange::Leave = ev.change {
            for qr in self.devices[ui].admission.drain() {
                disturbed.insert((qr.id, qr.handle));
            }
            self.devices[ui].inflight = 0;
            // Scan for stranded live tasks *before* resetting the
            // lanes: with task recycling the reset releases the
            // device's queued task slots, severing their request links.
            let mut hit = vec![false; self.requests.slots()];
            for tid in 0..k.tasks.len() {
                if k.tasks.cancelled(tid) || k.tasks.finished(tid) || k.tasks.device(tid) != ui {
                    continue;
                }
                let req = k.tasks.req(tid);
                hit[req] = true;
                disturbed.insert((self.requests[req].seq, self.requests.handle_of(req).pack()));
            }
            // A disturbed request's whole attempt is void, on every
            // device: its surviving encoders must not feed the fan-in
            // of the attempt it is re-admitted as.
            for tid in 0..k.tasks.len() {
                if !k.tasks.cancelled(tid) && !k.tasks.finished(tid) && hit[k.tasks.req(tid)] {
                    k.tasks.cancel(tid);
                }
            }
            k.reset_device_lanes(ui);
        }

        self.rebuild_instance(k).map_err(Box::new)?;

        // The controller solves against the current placement in place:
        // `rebuild_instance` never touches it, and only an accepted
        // switch replaces it — no clone.
        let solved = self.replan.candidate(&self.instance, &self.placement);
        solved.map_err(Box::new)?;
        if !self.switch(k, ReplanTrigger::Text(description), 0, ev.at_s, now) {
            // Keep serving on the surviving subset of the old
            // placement: drop departed hosts in place (the rebuilt
            // instance holds exactly the active devices).
            let resolved = &self.resolved;
            self.placement
                .retain(|_, d| resolved.device_index(d).is_some());
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

    /// Asks the replan controller for its verdict on its candidate (see
    /// `Replanner::verdict`); an accepted switch installs its placement
    /// and charges its downtime. Returns whether it did.
    fn switch(
        &mut self,
        k: &mut K,
        trigger: ReplanTrigger,
        queued: u64,
        at_s: f64,
        now: u64,
    ) -> bool {
        let source = self.last_source();
        let (resolved, scratch, uni_of_res) = (&self.resolved, &mut self.scratch, &self.uni_of_res);
        let rate = self.acct.observed_rate(now);
        let spend = |budget: &BudgetState, placement: &Placement| {
            let cost = |priced: &PricedRoute| budget.route_cost(priced, uni_of_res);
            let (total, routable) = model_route_costs(resolved, placement, source, scratch, cost)
                .flatten()
                .fold((0.0, 0usize), |(total, n), cost| (total + cost, n + 1));
            // No routable model: `total` is 0 and so is the mean.
            total / routable.max(1) as f64
        };
        let (budget, replan) = (self.budget.as_ref(), &mut self.replan);
        let Some(decision) = replan.verdict(trigger, queued, at_s, rate, budget, spend) else {
            return false;
        };
        self.placement = decision.placement;
        if self.charge_switching_downtime {
            self.charge_migrations(k, now, &decision.migrations);
        }
        true
    }

    /// The SLO trigger fired: gate the candidate with the queue credit,
    /// and re-route after an accepted switch.
    fn slo_breach(&mut self, k: &mut K, now: u64) -> Result<(), BoxedErr> {
        // The breach may be real while greedy has nothing better to
        // offer (pure overload): then there is no decision to record.
        let solved = self.replan.candidate(&self.instance, &self.placement);
        if !solved.map_err(Box::new)? {
            return Ok(());
        }
        let trigger = ReplanTrigger::SloBreach {
            p95_s: self.acct.slo_p95(),
            deadline_s: self.deadline_s,
        };
        // The backlog a switch would drain earns the queue credit.
        let queued = self.devices.iter().map(|d| d.admission.len() as u64).sum();
        if self.switch(k, trigger, queued, secs(now), now) {
            self.refresh_model_routes();
            self.rekey_waiting(k, now);
            self.kick_all(k, now)?;
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
            let stream = &mut self.stream;
            self.arrival_buf
                .extend(std::iter::from_fn(|| stream.next_request()).take(Self::ARRIVAL_BATCH));
        }
        self.arrival_buf.get(self.arrival_cursor)
    }

    fn arrival(&mut self, k: &mut K, now: u64) -> Result<(), BoxedErr> {
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
        self.acct.arrive(rec.class);
        // `insert_with` hands back a recycled slot's previous value:
        // every field is overwritten.
        let handle = self.requests.insert_with(|r| {
            r.seq = seq;
            r.arrival_ns = now;
            r.deadline_ns = now + deadline_ns;
            r.source = rec.source as usize;
            r.model = rec.model as usize;
            r.priority = priority;
            r.class = rec.class;
            r.inflight_on = None;
            r.budget = Mark::default();
        });
        let slot = handle.slot as usize;
        k.set_request(slot, RequestSlot::default());
        // Schedule the next arrival lazily: the event queue holds at
        // most one future arrival at a time.
        if let Some(&next) = self.peek_arrival() {
            k.push_custom(arrival_ns(&next, self.next_seq)?, ServeEv::Arrival);
        }
        self.admit(k, slot, now);
        Ok(())
    }

    fn finish(mut self) -> ServeReport {
        let (events, replans, rejected_slo) = self.replan.finish();
        let now = self.acct.last_completion_ns();
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
            .map(|(slot, r)| (r.seq, slot))
            .collect();
        inflight.sort_unstable();
        for (_, rid) in inflight {
            self.record_shed(rid, now);
        }

        let report = self
            .acct
            .finish(now, &self.class_names, &self.uni_names, &self.by_name_order);
        let budget = self.budget.map(|budget| {
            let priorities: Vec<u32> = self.class_table.iter().map(|&(_, p)| p).collect();
            budget.finish(&self.class_names, &priorities)
        });
        ServeReport {
            events,
            replans,
            rejected_slo,
            budget,
            ..report
        }
    }
}

/// Every deployed model's per-request route cost under `placement`, in
/// model order (`None`: `placement` cannot route it), as `cost` prices
/// the route from `source` — compute ignores the query's origin, so one
/// source's pricing costs the route for all.
fn model_route_costs<'a>(
    resolved: &'a ResolvedInstance,
    placement: &Placement,
    source: u32,
    scratch: &'a mut RouteScratch,
    cost: impl Fn(&PricedRoute) -> f64 + 'a,
) -> impl Iterator<Item = Option<f64>> + 'a {
    resolved.resolve_placement_into(placement, &mut scratch.hosts);
    resolved.models().iter().enumerate().map(move |(m, model)| {
        let RouteScratch {
            hosts,
            route,
            priced,
        } = &mut *scratch;
        let routable = resolved.route_model_into(m, &model.profile, hosts, route);
        routable.then(|| {
            resolved.price_route(&model.profile, source, route, priced);
            cost(priced)
        })
    })
}

/// The clock time of a sampled arrival. The stream is lazy, so an
/// arrival past the clock's range is the one scenario fault that can
/// only show when it is drawn; `index` numbers it in arrival order.
#[inline]
fn arrival_ns(arrival: &WorkloadRequest, index: u64) -> Result<u64, BoxedErr> {
    if arrival.at_ns > 1 << 63 {
        return Err(Box::new(ServeError::BadScenario(format!(
            "arrival {index}: at_s must be at most {MAX_ARRIVAL_S} s (got {:e})",
            arrival.at_s
        ))));
    }
    Ok(arrival.at_ns)
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
    /// Whether `scenario` deploys the same fleet, initial devices, and
    /// models this shared start was built from.
    pub fn matches(&self, scenario: &ServeScenario) -> bool {
        let models = scenario
            .models
            .iter()
            .map(|m| (m.name.as_str(), m.candidates));
        self.fleet == scenario.fleet
            && self.initial_devices == scenario.initial_devices
            && self.models.iter().map(|(n, c)| (n.as_str(), *c)).eq(models)
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
/// [`ServeError::BadScenario`] listing every problem with the scenario;
/// [`ServeError::Core`] if placement fails.
pub fn prepare(scenario: &ServeScenario) -> Result<SharedStart, ServeError> {
    prepare_valid(&scenario.validate()?)
}

fn prepare_valid(valid: &ValidScenario) -> Result<SharedStart, ServeError> {
    let scenario = valid.scenario;
    let universe = &valid.universe;
    let devices: Vec<_> = universe
        .devices()
        .iter()
        .zip(&valid.active)
        .filter(|(_, &a)| a)
        .map(|(d, _)| d.clone())
        .collect();
    let initial_fleet = Fleet::new(
        devices,
        universe.topology().clone(),
        universe.requester().clone(),
    )
    .expect("a validated scenario starts with its requester");
    let models: Vec<(String, usize)> = scenario
        .models
        .iter()
        .map(|m| (m.name.clone(), m.candidates))
        .collect();
    let model_pairs: Vec<(&str, usize)> = models.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let instance = Instance::on_fleet(initial_fleet, &model_pairs)?;
    let resolved = Arc::new(ResolvedInstance::new(&instance)?);
    let placement = greedy_place_resolved(&resolved, PlacementOptions::default())?;
    Ok(SharedStart {
        fleet: scenario.fleet.clone(),
        initial_devices: scenario.initial_devices.clone(),
        models,
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
    /// arrival stream, kernel state. The scenario is validated once.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadScenario`] listing every problem with the
    /// scenario; [`ServeError::Core`] if placement or routing fails.
    pub fn new(scenario: &ServeScenario) -> Result<Self, ServeError> {
        let valid = scenario.validate()?;
        ServeSession::start(&valid, &prepare_valid(&valid)?)
    }

    /// Builds the session from a prepared [`SharedStart`], sharing its
    /// `Arc<ResolvedInstance>` instead of re-interning: the constructor
    /// parallel sweeps use for every replica of a grid cell. Behavior
    /// is byte-identical to [`ServeSession::new`] on the same scenario.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadScenario`] when `shared` was prepared for a
    /// different fleet/devices/models, or listing every problem with
    /// the scenario; [`ServeError::Core`] if routing fails.
    pub fn with_shared(scenario: &ServeScenario, shared: &SharedStart) -> Result<Self, ServeError> {
        if !shared.matches(scenario) {
            return Err(ServeError::BadScenario(
                "shared start was prepared for a different fleet/devices/models".into(),
            ));
        }
        ServeSession::start(&scenario.validate()?, shared)
    }

    /// Builds the kernel and the online driver from a validated
    /// scenario and its shared start.
    fn start(valid: &ValidScenario, shared: &SharedStart) -> Result<Self, ServeError> {
        let scenario = valid.scenario;
        let universe = valid.universe.clone();
        let uni_names: Vec<String> = universe
            .devices()
            .iter()
            .map(|d| d.id.as_str().to_string())
            .collect();
        let mut by_name_order: Vec<usize> = (0..uni_names.len()).collect();
        by_name_order.sort_by_key(|&ui| &uni_names[ui]);
        let active = &valid.active;

        // The merged arrival stream, from the unified workload layer:
        // sim and serve share this generator (see
        // `s2m3_sim::workload::WorkloadSpec`).
        let stream = valid
            .workload
            .stream(scenario.requests, &valid.model_names)
            .map_err(|e| ServeError::BadScenario(e.to_string()))?;

        let budget = scenario
            .budget
            .as_ref()
            .map(|policy| BudgetState::new(policy.clone(), valid.class_names.len(), &uni_names));

        // --- Instance, placement, resolved index maps: the
        //     replica-invariant prefix, shared instead of rebuilt. ---
        let instance = shared.instance.clone();
        let resolved = Arc::clone(&shared.resolved);
        let placement = shared.placement.clone();

        // --- Kernel + driver device state over the whole universe. ---
        let (lane_devices, devices): (Vec<LaneDevice>, Vec<DevExtra>) = universe
            .devices()
            .iter()
            .zip(active)
            .map(|(d, &active)| {
                let mut lanes = LaneDevice::new(d.parallelism.max(1), 0);
                lanes.active = active;
                let admission = AdmissionQueue::new(scenario.admission.clone());
                (
                    lanes,
                    DevExtra {
                        inflight: 0,
                        admission,
                    },
                )
            })
            .unzip();

        // Batching policy: `None` keeps the singleton fast path (and
        // the golden fixtures); a `BatchPolicy` enables the kernel's
        // same-module merge with per-module caps resolved from the
        // per-kind overrides (module interning is stable across fleet
        // rebuilds — the model set never changes — so the cap table
        // survives replans).
        let batch = scenario.batch.as_ref().map(|b| b.max_batch);
        let module_batch_caps: Vec<usize> = match &scenario.batch {
            Some(b) if !b.per_kind.is_empty() => (0..resolved.module_count() as u32)
                .map(|m| {
                    let kind = resolved.module_kind(m);
                    b.per_kind
                        .iter()
                        .find(|c| c.kind == kind)
                        .map_or(b.max_batch, |c| c.max_batch)
                })
                .collect(),
            _ => Vec::new(),
        };
        // Every request-lifetime table starts empty and grows to what
        // the run holds at once (see "One request-lifetime path").
        let mut kernel: K = Kernel::new(
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
        );
        kernel.module_batch_caps = module_batch_caps;
        let mut driver = Online {
            universe,
            uni_names,
            by_name_order,
            slowdown: vec![None; active.len()],
            instance,
            resolved,
            uni_of_res: Vec::new(),
            res_of_uni: Vec::new(),
            placement,
            sources: valid.sources.clone(),
            model_routes: Vec::new(),
            route_encs: Vec::new(),
            scratch: RouteScratch::default(),
            devices,
            requests: Slab::new(true, 0),
            stream,
            arrival_buf: Vec::new(),
            arrival_cursor: 0,
            next_seq: 0,
            class_table: valid.class_table.clone(),
            class_names: valid.class_names.clone(),
            events: valid.events.clone(),
            deadline_ns: valid.deadline_ns,
            deadline_s: valid.deadline_s,
            max_inflight: scenario.max_inflight_per_device,
            charge_switching_downtime: scenario.replan.charge_switching_downtime,
            replan: Replanner::new(&scenario.replan, valid.slo_cooldown_ns),
            acct: Accounting::new(valid)?,
            budget,
            route_costs: Vec::new(),
        };
        driver.reindex(|ui| active[ui]);
        driver.refresh_model_routes();

        for (idx, ev) in driver.events.iter().enumerate() {
            kernel.push_custom(ev.at_ns, ServeEv::Fleet(idx));
        }
        let first = *driver
            .peek_arrival()
            .expect("a non-empty stream yields a first arrival");
        kernel.push_custom(arrival_ns(&first, 0).map_err(|e| *e)?, ServeEv::Arrival);

        Ok(ServeSession { kernel, driver })
    }

    /// Processes every event up to `until_s` seconds of virtual time,
    /// then pauses. Returns the number of events processed.
    ///
    /// # Errors
    ///
    /// The scenario was checked in full when the session was built, so
    /// a run fails only with [`ServeError::Core`] when a replan fails,
    /// [`ServeError::Sink`] when the completion sink cannot be written,
    /// or [`ServeError::BadScenario`] for an arrival sampled past the
    /// clock's range (the stream is lazy, so that one input fault shows
    /// only when the arrival is drawn).
    pub fn run_until(&mut self, until_s: f64) -> Result<u64, ServeError> {
        self.kernel
            .run_until(&mut self.driver, ns(until_s.max(0.0)))
            .map_err(|e| *e)
    }

    /// Runs the session to idle (no events left).
    ///
    /// # Errors
    ///
    /// As [`ServeSession::run_until`].
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
/// [`ServeError::BadScenario`] listing every problem with the scenario
/// (unknown fleet/devices, requester or a traffic source leaving, empty
/// stream, times off the clock, ...) before the first event;
/// [`ServeError::Core`] if a model is unknown or placement or routing
/// fails irrecoverably; otherwise as [`ServeSession::run_until`].
pub fn serve(scenario: &ServeScenario) -> Result<ServeReport, ServeError> {
    let mut session = ServeSession::new(scenario)?;
    session.run_to_idle()?;
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        AdmissionPolicy, FleetEvent, FleetEventKind, ModelDeployment, ReplanPolicy,
        SloReplanTrigger, TrafficSource,
    };
    use crate::report::ReplanTrigger;
    use s2m3_core::adaptive::replan;
    use s2m3_models::module::ModuleKind;
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

    #[test]
    fn a_late_fleet_event_fault_fails_before_the_first_event() {
        // The desktop leaves at 1800 s, so slowing it at 9e9 s is a
        // fault, and it must be found before the 2M-request stream is
        // served, not after.
        let mut late = ServeScenario {
            requests: 2_000_000,
            ..ServeScenario::churn_default()
        };
        late.events.push(FleetEvent {
            at_s: 9.0e9,
            kind: FleetEventKind::DeviceSlowdown {
                device: "desktop".to_string(),
                factor: 0.5,
            },
        });
        let shared = prepare(&ServeScenario::churn_default()).unwrap();
        assert!(shared.matches(&late));
        let err = ServeSession::with_shared(&late, &shared)
            .err()
            .expect("the constructor rejects the schedule");
        assert_eq!(
            err,
            ServeError::BadScenario(
                "events[2]: slows a device not active (got `desktop`)".to_string()
            )
        );
        assert_eq!(prepare(&late).err(), Some(err));
    }

    #[test]
    fn an_arrival_past_the_clock_range_is_an_error_not_a_saturated_time() {
        // A valid but tiny rate: within 50 arrivals one lands past
        // 2^63 ns, where `ns` saturates.
        let mut s = small_scenario(50);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 1e-12 };
        let err = serve(&s).unwrap_err();
        let ServeError::BadScenario(msg) = &err else {
            panic!("{err}");
        };
        let (index, rest) = msg
            .strip_prefix("arrival ")
            .and_then(|m| m.split_once(": at_s must be at most 9223372036.854776 s (got "))
            .unwrap_or_else(|| panic!("{msg}"));
        assert!(index.parse::<usize>().is_ok_and(|i| i < 50), "{msg}");
        let at_s: f64 = rest.trim_end_matches(')').parse().unwrap();
        assert!(at_s > MAX_ARRIVAL_S, "{msg}");
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
        assert!(with.rejected_slo.is_empty(), "{:#?}", with.rejected_slo);
        let event_replan = &with.replans[0];
        assert!(matches!(&event_replan.trigger, ReplanTrigger::Text(t) if t.contains("joins")));
        assert!(
            !event_replan.accepted,
            "the calm-phase join must not clear the gate"
        );
        let breach_switch = &with.replans[1];
        assert!(
            matches!(breach_switch.trigger, ReplanTrigger::SloBreach { .. }),
            "{breach_switch:?}"
        );
        assert!(!breach_switch.mandatory);
        assert!(breach_switch.accepted);
        assert!(breach_switch.migrations >= 1);
        assert!(breach_switch.switching_cost_s > 0.0);
        assert!(breach_switch.observed_rate_per_s > event_replan.observed_rate_per_s);

        // Without the trigger the rejected join is never revisited and
        // the storm runs on the slow placement: strictly worse SLO.
        let without = serve(&slo_trigger_scenario(None)).unwrap();
        assert_eq!(without.replans.len(), 1);
        assert!(without
            .replans
            .iter()
            .all(|r| !matches!(r.trigger, ReplanTrigger::SloBreach { .. })));
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

        // Every breach evaluation is rejected: one run per candidate,
        // each re-gating its memoised candidate more than once.
        assert!(report
            .replans
            .iter()
            .all(|r| !matches!(r.trigger, ReplanTrigger::SloBreach { .. })));
        let [before, after] = report.rejected_slo.as_slice() else {
            panic!("one run per candidate: {:#?}", report.rejected_slo);
        };
        for (run, want, (from_s, to_s)) in [
            (before, &pre_join, (40.0, 150.0)),
            (after, &post_join, (150.0, f64::MAX)),
        ] {
            assert!(run.evaluations() >= 2, "memo is reused: {run:?}");
            assert!(from_s <= run.first_at_s && run.last_at_s < to_s, "{run:?}");
            assert_eq!(
                run.break_even_requests,
                want.break_even_requests(),
                "{run:?}"
            );
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
        // evaluations it does record must be spaced by the cooldown.
        s.events.clear();
        let report = serve(&s).unwrap();
        let slo_times: Vec<f64> = report
            .replans
            .iter()
            .filter(|r| matches!(r.trigger, ReplanTrigger::SloBreach { .. }))
            .map(|r| r.at_s)
            .collect();
        assert!(
            slo_times.windows(2).all(|w| w[1] - w[0] >= 45.0 - 1e-6),
            "{slo_times:?}"
        );
        for run in &report.rejected_slo {
            let gaps = run.evaluations().saturating_sub(1) as f64;
            assert!(
                run.last_at_s - run.first_at_s >= gaps * 45.0 - 1e-6,
                "{run:?}"
            );
        }
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
        let accepted = report
            .replans
            .iter()
            .filter(|r| matches!(r.trigger, ReplanTrigger::SloBreach { .. }))
            .count() as u64;
        let rejected: u64 = report.rejected_slo.iter().map(|r| r.evaluations()).sum();
        assert!(
            accepted + rejected >= 2,
            "{:#?} {:#?}",
            report.replans,
            report.rejected_slo
        );
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
