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
//! The engine keeps the glue of the request lifetime — arrival → admit →
//! budget gate → dispatch → complete or shed — fleet membership, and
//! every write to the kernel: dispatch expands a request into tasks, and
//! an accepted switch's download + load cost is charged as downtime on
//! its destination devices. The loop runs on [`ResolvedInstance`]
//! indices and keeps per-device state by *universe* device index;
//! string ids survive only at the boundary (scenario parsing, replan
//! diffs, the [`ServeReport`]). Each stage owns its state and is tested
//! without a kernel:
//!
//! - `arrivals`: the lazy workload stream, numbering, deadlines, priorities;
//! - [`crate::queue`]: the per-device admission queues and in-flight slots;
//! - `routes`: the per-(model, source) route cache and per-model costs;
//! - [`crate::budget`]: the cost cap — verdicts, window wakes, pricing;
//! - `replan`: the SLO trigger, the memoised candidate, the break-even
//!   and feasibility gate, and the event, replan and rejected-run records;
//! - `accounting`: counters, the SLO window, latency aggregation, device
//!   usage and the completion sink, folded into the report at the end.
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
//! to the in-flight peak, and ordering keys on the arrival sequence,
//! never on the slot, so slot reuse is invisible to every report.
//! [`ServeScenario::streaming`] selects only how latencies are
//! *aggregated* — every sample (the one O(requests) table an exact run
//! keeps) or a sketch — and whether a completion sink is attached.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use s2m3_core::adaptive::Migration;
use s2m3_core::error::CoreError;
use s2m3_core::placement::{greedy_place_resolved, PlacementOptions};
use s2m3_core::problem::{Instance, Placement};
use s2m3_core::resolved::ResolvedInstance;
use s2m3_net::fleet::Fleet;
use s2m3_sim::kernel::{
    ns, secs, Device as LaneDevice, Driver, Kernel, Policy as KernelPolicy, RequestSlot, Scheduler,
};

use crate::accounting::Accounting;
use crate::arrivals::{Arrivals, Arrived};
use crate::budget::{BudgetState, Mark, Verdict};
use crate::config::{FleetChange, ServeScenario, ValidEvent, ValidScenario};
use crate::queue::{Admission, QueuedRequest, Queues};
use crate::replan::Replanner;
use crate::report::{ReplanTrigger, ServeReport};
use crate::routes::{RoutedTask, Routes};
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
    /// The next arrival [`Arrivals::next_ns`] announced.
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
    /// The request as it arrived. Queue ordering and re-admission key on
    /// its sequence number, never on the recyclable slab slot.
    req: Arrived,
    /// Universe index of the device holding its in-flight slot.
    inflight_on: Option<usize>,
    /// The budget gate's history of this request.
    budget: Mark,
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
    /// Request table by slot (the kernel's request ids): freed slots
    /// recycle, so it stays O(in-flight).
    requests: Slab<ReqInfo>,
    /// Class names, indexed by class id (report boundary).
    class_names: Vec<String>,
    /// The fleet schedule in firing order (`ServeEv::Fleet` indexes it).
    events: Vec<ValidEvent>,
    deadline_s: f64,
    // --- stages ---
    arrivals: Arrivals,
    queues: Queues,
    routes: Routes,
    replan: Replanner,
    acct: Accounting,
    /// Budget-enforcement state (`None`: uncapped).
    budget: Option<BudgetState>,
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
        // A group is one task unless a `BatchPolicy` merges same-module
        // queued runs, paying the per-execution overhead once (the
        // bounded engine's `SimConfig::max_batch` arithmetic). A leave
        // cancels the device's tasks and re-indexes the fleet before
        // the kernel runs again.
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
        let fleet = sub_fleet(&self.universe, &self.uni_of_res, &self.slowdown);
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

    /// Re-prices the route cache after a placement or fleet change.
    fn refresh_routes(&mut self) {
        let (uni, res, budget) = (&self.uni_of_res, &self.res_of_uni, self.budget.as_ref());
        self.routes
            .refresh(&self.resolved, &self.placement, uni, res, budget);
    }

    /// Offers a request to its head device's admission queue.
    fn admit(&mut self, k: &mut K, rid: usize, now: u64) {
        let req = self.requests[rid].req;
        let queued = QueuedRequest {
            id: req.seq,
            handle: self.requests.handle_of(rid).pack(),
            arrival_ns: req.arrival_ns,
            deadline_ns: req.deadline_ns,
            priority: req.priority,
        };
        // An unroutable request sheds before it queues.
        match self.routes.get(req.model, req.source).map(|mr| mr.head.uni) {
            Some(ui) if self.queues.offer(ui, queued) == Admission::Queued => {
                self.drain_admission(k, ui, now)
            }
            _ => self.record_shed(rid, now),
        }
    }

    /// Dispatches queued requests while the device has free request slots.
    fn drain_admission(&mut self, k: &mut K, device: usize, now: u64) {
        while let Some(qr) = self.queues.pop_ready(device, || k.devices[device].active) {
            let handle = ReqHandle::unpack(qr.handle);
            debug_assert!(self.requests.is_current(handle));
            let slot = handle.slot as usize;
            let verdict = self.budget.as_mut().map_or(Verdict::Dispatch, |budget| {
                let r = &mut self.requests[slot];
                let cost = self.routes.cost(r.req.model);
                budget.gate(&qr, &mut r.budget, r.req.class, cost, now)
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
        let req = &self.requests[rid].req;
        let mr = *self.routes.get(req.model, req.source).expect(
            "only routable requests queue: admission sheds the rest, \
             and every route change re-admits the waiting",
        );
        let task = |t: &RoutedTask| TaskInfo {
            units: t.units,
            output_tx_ns: t.output_tx_ns,
            dur_ns: 0,
        };
        let head_task = k.spawn_task(rid, mr.head.module, mr.head.uni, true, task(&mr.head));
        // Ready events push inline: task spawning never touches the
        // event queue, so the push sequence (hence the run) is the same
        // as staging them — without a second per-request allocation.
        let encoders = self.routes.encoders(&mr);
        for e in encoders {
            let tid = k.spawn_task(rid, e.module, e.uni, false, task(e));
            k.push_ready(now + e.input_tx_ns, tid);
        }
        let head_ready = now + mr.head.input_tx_ns;
        let slot = RequestSlot {
            pending_encoders: encoders.len(),
            head_ready_ns: head_ready,
            head_task,
        };
        k.set_request(rid, slot);
        self.requests[rid].inflight_on = Some(mr.head.uni);
        self.queues.dispatched(mr.head.uni);
        if slot.pending_encoders == 0 {
            k.push_ready(head_ready, head_task);
        }
    }

    fn complete_request(&mut self, k: &mut K, rid: usize, now: u64) -> Result<(), BoxedErr> {
        let r = &mut self.requests[rid];
        let (req, head) = (r.req, r.inflight_on.take());
        let head = head.expect("a completing request holds a slot");
        self.queues.release(head);
        self.acct.complete(&req, now, head).map_err(Box::new)?;
        self.drain_admission(k, head, now);
        if self.replan.slo_due(self.acct.slo(), self.deadline_s, now) {
            self.slo_breach(k, now)?;
        }
        // The request is fully accounted: release its slot.
        self.requests.free(rid);
        Ok(())
    }

    fn record_shed(&mut self, rid: usize, now: u64) {
        self.acct.shed(&self.requests[rid].req, now);
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
            self.queues.release(ui);
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

    /// Re-routes after a placement or fleet change: re-keys the waiting,
    /// then re-admits the `disturbed`, each oldest arrival first, then
    /// runs one dispatch + admission round over every device by name.
    fn reroute(
        &mut self,
        k: &mut K,
        disturbed: BTreeSet<(u64, u64)>,
        now: u64,
    ) -> Result<(), BoxedErr> {
        self.refresh_routes();
        for qr in self.queues.drain_waiting(&self.by_name_order) {
            self.admit(k, ReqHandle::unpack(qr.handle).slot as usize, now);
        }
        for (_, handle) in disturbed {
            self.requeue_request(k, ReqHandle::unpack(handle), now);
        }
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
            // Its in-flight requests release their slots as they requeue.
            disturbed.extend(self.queues.leave(ui).iter().map(|qr| (qr.id, qr.handle)));
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
                disturbed.insert((
                    self.requests[req].req.seq,
                    self.requests.handle_of(req).pack(),
                ));
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
        self.reroute(k, disturbed, now)
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
        let rate = self.acct.observed_rate(now);
        let (routes, resolved) = (&mut self.routes, &self.resolved);
        let (uni, res) = (&self.uni_of_res, &self.res_of_uni);
        let spend = |budget: &BudgetState, candidate: &Placement| {
            routes.mean_cost(candidate, resolved, uni, res, budget)
        };
        let (budget, replan) = (self.budget.as_ref(), &mut self.replan);
        let Some(decision) = replan.verdict(trigger, queued, at_s, rate, budget, spend) else {
            return false;
        };
        self.placement = decision.placement;
        self.charge_migrations(k, now, &decision.migrations);
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
        let queued = self.queues.queued();
        if self.switch(k, trigger, queued, secs(now), now) {
            self.reroute(k, BTreeSet::new(), now)?;
        }
        Ok(())
    }

    fn arrival(&mut self, k: &mut K, now: u64) -> Result<(), BoxedErr> {
        let req = self.arrivals.take(now);
        self.acct.arrive(req.class);
        // `insert_with` hands back a recycled slot's previous value:
        // every field is overwritten.
        let handle = self.requests.insert_with(|r| {
            r.req = req;
            r.inflight_on = None;
            r.budget = Mark::default();
        });
        let slot = handle.slot as usize;
        k.set_request(slot, RequestSlot::default());
        // Schedule the next arrival lazily: the event queue holds at
        // most one future arrival at a time.
        if let Some(at) = self.arrivals.next_ns().map_err(Box::new)? {
            k.push_custom(at, ServeEv::Arrival);
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
        for qr in self.queues.drain(&self.by_name_order) {
            self.record_shed(ReqHandle::unpack(qr.handle).slot as usize, now);
        }
        // Mid-flight requests, shed oldest arrival first: seq order
        // keeps the flush deterministic under slot reuse. The slab
        // holds only in-flight slots, so the scan is O(in-flight).
        let mut inflight: Vec<(u64, usize)> = self
            .requests
            .iter_occupied()
            .map(|(slot, r)| (r.req.seq, slot))
            .collect();
        inflight.sort_unstable();
        for (_, rid) in inflight {
            self.record_shed(rid, now);
        }

        let report = self
            .acct
            .finish(now, &self.class_names, &self.uni_names, &self.by_name_order);
        ServeReport {
            events,
            replans,
            rejected_slo,
            budget: self.budget.map(|budget| budget.finish(&self.class_names)),
            ..report
        }
    }
}

/// The fleet of the universe devices `members`, each slowed by its
/// `slowdown` factor. A validated scenario never removes the requester.
fn sub_fleet(universe: &Fleet, members: &[usize], slowdown: &[Option<f64>]) -> Fleet {
    let mut specs = Vec::new();
    for &ui in members {
        let mut spec = universe.devices()[ui].clone();
        if let Some(factor) = slowdown[ui] {
            spec.speed_gflops = (spec.speed_gflops * factor).max(1e-6);
        }
        specs.push(spec);
    }
    let (topology, requester) = (universe.topology().clone(), universe.requester().clone());
    Fleet::new(specs, topology, requester).expect("the requester is a member")
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
    pub(crate) fn matches(&self, scenario: &ServeScenario) -> bool {
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
    let active = &valid.active;
    let members: Vec<usize> = (0..active.len()).filter(|&ui| active[ui]).collect();
    let initial_fleet = sub_fleet(&valid.universe, &members, &vec![None; active.len()]);
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

        let arrivals = Arrivals::new(valid)?;
        let budget = scenario.budget.as_ref().map(|policy| {
            let classes = &valid.workload.classes;
            let priorities: Vec<u32> = classes.iter().map(|c| c.class.priority).collect();
            BudgetState::new(policy.clone(), &priorities, &uni_names)
        });

        let lane_devices: Vec<LaneDevice> = universe
            .devices()
            .iter()
            .zip(active)
            .map(|(d, &active)| {
                let mut lanes = LaneDevice::new(d.parallelism.max(1), 0);
                lanes.active = active;
                lanes
            })
            .collect();

        // Batching: `None` keeps the singleton fast path (and the golden
        // fixtures); a `BatchPolicy` merges same-module runs under
        // per-module caps from the per-kind overrides, which survive
        // replans (the model set, hence module interning, never changes).
        let batch = scenario.batch.as_ref().map(|b| b.max_batch);
        let module_batch_caps: Vec<usize> = match &scenario.batch {
            Some(b) if !b.per_kind.is_empty() => (0..shared.resolved.module_count() as u32)
                .map(|m| {
                    let kind = shared.resolved.module_kind(m);
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
            // The replica-invariant prefix, shared instead of rebuilt.
            instance: shared.instance.clone(),
            resolved: Arc::clone(&shared.resolved),
            uni_of_res: Vec::new(),
            res_of_uni: Vec::new(),
            placement: shared.placement.clone(),
            requests: Slab::new(true, 0),
            class_names: valid.class_names.clone(),
            events: valid.events.clone(),
            deadline_s: valid.deadline_s,
            arrivals,
            queues: Queues::new(valid),
            routes: Routes::new(valid),
            replan: Replanner::new(&scenario.replan, valid.slo_cooldown_ns),
            acct: Accounting::new(valid)?,
            budget,
        };
        driver.reindex(|ui| active[ui]);
        driver.refresh_routes();

        for (idx, ev) in driver.events.iter().enumerate() {
            kernel.push_custom(ev.at_ns, ServeEv::Fleet(idx));
        }
        let first = driver.arrivals.next_ns()?;
        let first = first.expect("a non-empty stream yields a first arrival");
        kernel.push_custom(first, ServeEv::Arrival);

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
    #[cfg(test)]
    pub(crate) fn now_s(&self) -> f64 {
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
    use s2m3_sim::kernel::MAX_ARRIVAL_S;
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
    fn the_widest_budget_window_serves_without_overflowing_the_clock() {
        // Requests parked in the first window wake at 2^63 ns; the next
        // window would open past the clock, so what parks there is shed.
        for window_s in [MAX_ARRIVAL_S, MAX_ARRIVAL_S / 3.0] {
            let mut s = small_scenario(60);
            s.budget = Some(crate::budget::BudgetPolicy {
                window_s,
                enforcement: crate::budget::BudgetEnforcement::Defer,
                ..crate::budget::BudgetPolicy::device_seconds(20.0)
            });
            let report = serve(&s).unwrap();
            assert_eq!(report.arrived, 60);
            assert_eq!(report.completed + report.shed, 60, "{window_s}");
            let budget = report.budget.as_ref().unwrap();
            assert!(budget.deferred > 0 && report.shed > 0, "{window_s}");
            assert!(budget.latency_price_s > MAX_ARRIVAL_S / 3.0, "{window_s}");
        }
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
            assert!(
                (r.device as usize) < report.devices.len(),
                "completions carry their head device"
            );
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
