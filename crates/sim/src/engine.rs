//! The offline discrete-event engine: the *bounded driver* over the
//! shared [`kernel`](crate::kernel).
//!
//! Devices are modeled as `parallelism`-lane executors with FIFO module
//! queues; transfers are pure delays computed from the topology. Requests
//! fan their encoders out at arrival (longest-first dispatch), the head
//! fires when the last embedding lands, and the next request's work enters
//! a queue the moment the previous one leaves it — the paper's pipelining.
//!
//! The event loop itself lives in [`crate::kernel`]; this module seeds a
//! fixed request set, supplies the timing arithmetic and Gantt-span
//! bookkeeping through the [`Driver`] hooks, and runs the machine to
//! idle. The online counterpart (`s2m3-serve`) layers admission control
//! and live replanning over the *same* kernel.
//!
//! # Requests are priced once per (shape, table)
//!
//! Which tasks a request spawns, on which devices, for how long, and how
//! long its inputs and embeddings travel is a function of its
//! [`RequestShape`](s2m3_core::problem::RequestShape) (model, source,
//! profile) and its route's assignment table — not of its id or arrival.
//! A plan built from a materialised workload by `Plan::route_all` holds a
//! handful of each, shared by pointer, so `prepare` computes that
//! *pricing* — names resolved to indices, then the durations and transfer
//! times of [`ResolvedInstance::price_route`], in Algorithm 1's send
//! order — once per distinct pair and a
//! request whose shape and table are both the remembered ones (pointer
//! identity: [`Request::shares_shape`], [`Route::shares_assignments`])
//! spawns from it with nothing looked up by name. The key is the whole
//! pair: the same shape over another table, or the same table under
//! another shape, is priced on its own. Anything not remembered — a
//! request with a private shape or table, or one past the small fixed
//! number of pairs kept — is priced from scratch by the same function, so
//! there is one pricing path and the cache only decides how often it
//! runs. Debug builds re-price every hit and compare; the test oracle
//! (`simulate_reference`) prices every request from scratch.
//!
//! # Spans are recorded in report order
//!
//! A report lists spans by `start`, ties by device name — by definition
//! what a stable sort of `[loading, input-transfer, run-time]` spans, as
//! recorded, gives. The engine never holds that unsorted list, and never
//! a name: it records [`report`](crate::report) *rows* — `Copy` plain
//! data carrying the request, device and module indices the kernel's
//! task table already holds — so a hook's recording is one store with no
//! reference count touched, and the names and request ids join the rows
//! once, when the finished run becomes a `Spans` table.
//!
//! Three streams feed `spans`, each already non-decreasing in `start`:
//! model-loading rows (a handful, sorted once), input-transfer rows
//! (they start at their request's arrival, so visiting requests in stable
//! arrival order yields them in order — an index permutation is built
//! only when the arrivals are not sorted) and the rows the driver hooks
//! stamp with the kernel's monotone clock. The first two are known before
//! the clock starts but are not stored: before a hook pushes a row
//! starting at `t`, the driver records every pre-clock row starting at or
//! before `t`, loading ahead of input on a tie, and generates a request's
//! input-transfer rows at that moment from its rows of the task table.
//! That is a three-way stable merge carried out while recording, so
//! `spans` — reserved once at its exact final length — is non-decreasing
//! in `start` as recorded (debug builds assert it) with equal starts in
//! `[loading, input, run-time]` order. Regrouping each run of equal
//! starts by device name, stably, is then exactly the global sort's
//! result and the only ordering pass left; it compares
//! `ResolvedInstance::device_rank`, the names' lexicographic rank, not
//! the names. Sorted or unsorted arrivals, loading and batching all take
//! this one path. The global sort itself — by name, never by rank —
//! survives only as the test oracle (`simulate_reference`).

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

use s2m3_core::error::CoreError;
use s2m3_core::plan::Plan;
use s2m3_core::problem::{Instance, Request, Route};
use s2m3_core::resolved::{PricedRoute, ResolvedInstance};

use crate::kernel::{
    ns, secs, Device, Driver, Kernel, Policy, RequestSlot, Scheduler, MAX_ARRIVAL_S,
};
use crate::report::{PhaseTag, RequestTiming, SimReport, SpanRow, Spans, NO_REQUEST};

/// Simulation options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimConfig {
    /// Simulate model loading before serving (end-to-end mode). Each
    /// device streams its placed modules' weights sequentially from t=0.
    pub include_loading: bool,
    /// Arrival times aligned with `plan.routed`; `None` = all at t=0
    /// (the Table X "simultaneous requests" setting).
    pub arrivals: Option<Vec<f64>>,
    /// Module-level batch inference (Sec. VI-C): when a device lane
    /// frees, up to this many queued executions of the *same module* are
    /// merged into one batched run, paying the per-execution overhead
    /// once. `None` disables batching (the Table X default).
    pub max_batch: Option<usize>,
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An underlying core lookup failed (malformed plan).
    Core(CoreError),
    /// `arrivals` length does not match the plan's request count.
    ArrivalsMismatch {
        /// Requests in the plan.
        expected: usize,
        /// Arrival entries supplied.
        got: usize,
    },
    /// An arrival time is NaN, infinite, negative, or too late to fit
    /// the nanosecond clock.
    BadArrival {
        /// Position in `arrivals`.
        index: usize,
        /// The offending value, seconds.
        value: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Core(e) => write!(f, "core error: {e}"),
            SimError::ArrivalsMismatch { expected, got } => {
                write!(
                    f,
                    "plan has {expected} requests but {got} arrivals were given"
                )
            }
            SimError::BadArrival { index, value } => {
                write!(
                    f,
                    "arrival {index} is {value} s: must be finite, non-negative and at most {MAX_ARRIVAL_S} s"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

/// The bounded driver never schedules custom events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NoCustom {}

/// Per-task payload stored inline in the kernel's task table. The
/// owning request is not repeated here: `k.tasks.req(tid)` indexes
/// `Bounded::ids` and `Bounded::arrivals`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TaskInfo {
    /// Execution duration, seconds (fixed at task creation).
    dur: f64,
    /// For encoders: raw-input transfer time from the request's source,
    /// seconds — the length of the task's input-transfer span.
    input_tx: f64,
    /// For encoders: embedding transfer time to the head device, seconds.
    output_tx: f64,
}

/// The bounded (offline) driver: fixed durations, Gantt spans, request
/// timings. The module docs say how `spans` comes out in report order.
struct Bounded<'a> {
    /// Per-device execution overhead, amortized when batching merges
    /// runs.
    exec_overhead: Vec<f64>,
    /// Per-request id and arrival (index-aligned with
    /// `Kernel::requests`); a span row's `request` indexes both.
    ids: Vec<u64>,
    arrivals: Cow<'a, [f64]>,
    /// Model-loading spans not yet in `spans`, front first.
    loading: VecDeque<SpanRow>,
    /// Request indices by arrival (stable) when the arrivals are not
    /// already in order; `None` = index order.
    by_arrival: Option<Vec<u32>>,
    /// How many requests, in that order, have their input-transfer
    /// spans in `spans`.
    inputs_done: usize,
    /// `start` of the front of `loading` and of the next request's
    /// input-transfer spans; infinite when that stream is exhausted (or,
    /// before [`Bounded::begin_merge`], not yet opened).
    next_loading: f64,
    next_input: f64,
    /// Every span recorded so far, as rows over the resolved instance's
    /// device and module indices.
    spans: Vec<SpanRow>,
    /// `(id, timing)` per finished request, in completion order.
    timings: Vec<(u64, RequestTiming)>,
    /// When the last device finishes loading its modules, seconds.
    loading_done: f64,
}

impl Bounded<'_> {
    /// Opens the two pre-clock streams for merging: loading spans sorted
    /// by `start` (stably, like everything here), requests in arrival
    /// order.
    fn begin_merge(&mut self) {
        // Loading starts come off the integral clock and arrivals are
        // validated: no NaN on either side. `partial_cmp`, not
        // `total_cmp`, because the report's order takes -0.0 for 0.0.
        let by_start = |a: f64, b: f64| a.partial_cmp(&b).expect("span starts are never NaN");
        self.loading
            .make_contiguous()
            .sort_by(|a, b| by_start(a.start, b.start));
        let arrivals = &*self.arrivals;
        if !arrivals.is_sorted() {
            let mut order: Vec<u32> = (0..arrivals.len() as u32).collect();
            order.sort_by(|&a, &b| by_start(arrivals[a as usize], arrivals[b as usize]));
            self.by_arrival = Some(order);
        }
        self.next_loading = self.loading.front().map_or(f64::INFINITY, |s| s.start);
        self.next_input = self.input_arrival();
    }

    /// The request whose input-transfer spans are emitted next.
    fn input_request(&self) -> Option<usize> {
        match &self.by_arrival {
            Some(order) => order.get(self.inputs_done).map(|&r| r as usize),
            None => (self.inputs_done < self.arrivals.len()).then_some(self.inputs_done),
        }
    }

    /// Its arrival; infinite when every request's spans are out.
    fn input_arrival(&self) -> f64 {
        self.input_request()
            .map_or(f64::INFINITY, |r| self.arrivals[r])
    }

    /// Pushes request `req`'s input-transfer spans. The build loop spawns
    /// a request's head task and then its encoders in dispatch order into
    /// an append-only table, so they are the rows after `head_task` that
    /// still belong to `req`.
    fn push_input_spans(&mut self, k: &Kernel<NoCustom, TaskInfo>, req: usize) {
        let arrival = self.arrivals[req];
        let mut tid = k.requests[req].head_task + 1;
        while tid < k.tasks.len() && k.tasks.req(tid) == req {
            let input_tx = k.tasks.payload(tid).input_tx;
            if input_tx > 0.0 {
                self.spans.push(SpanRow {
                    start: arrival,
                    end: arrival + input_tx,
                    request: req as u32,
                    device: k.tasks.device(tid) as u32,
                    module: k.tasks.module(tid),
                    phase: PhaseTag::InputTx,
                });
            }
            tid += 1;
        }
    }

    /// Records every pre-clock span starting at or before `upto`, in
    /// `start` order with loading ahead of input on a tie. The hooks call
    /// this before pushing spans that start at `upto`.
    #[inline]
    fn emit_due(&mut self, k: &Kernel<NoCustom, TaskInfo>, upto: f64) {
        while self.next_loading.min(self.next_input) <= upto {
            if self.next_loading <= self.next_input {
                self.spans.extend(self.loading.pop_front());
                self.next_loading = self.loading.front().map_or(f64::INFINITY, |s| s.start);
            } else {
                let req = self.input_request().expect("a finite arrival");
                self.push_input_spans(k, req);
                self.inputs_done += 1;
                self.next_input = self.input_arrival();
            }
        }
    }

    /// The finished run's report: `spans` as they stand, over
    /// `resolved`'s names and this run's request ids.
    fn into_report(self, resolved: &ResolvedInstance) -> SimReport {
        let loading_done = self.loading_done;
        // Bulk-built from the completion-ordered list: on a repeated id
        // the later completion wins, as with one insert per completion.
        let requests: BTreeMap<u64, RequestTiming> = self.timings.into_iter().collect();
        let makespan = requests
            .values()
            .map(|r| r.completion)
            .fold(loading_done, f64::max);
        SimReport {
            spans: Spans::from_parts(
                (0..resolved.device_count() as u32)
                    .map(|d| resolved.device_name(d).clone())
                    .collect(),
                (0..resolved.module_count() as u32)
                    .map(|m| resolved.module_name(m).clone())
                    .collect(),
                self.ids,
                self.spans,
            ),
            requests,
            loading_done,
            makespan,
        }
    }
}

impl Driver for Bounded<'_> {
    type Custom = NoCustom;
    type Payload = TaskInfo;
    type Error = SimError;

    fn dispatched(
        &mut self,
        k: &mut Kernel<NoCustom, TaskInfo>,
        device: usize,
        group: &[usize],
        now: u64,
    ) -> Result<u64, SimError> {
        let dur: f64 = group.iter().map(|&g| k.tasks.payload(g).dur).sum::<f64>()
            - (group.len() as f64 - 1.0) * self.exec_overhead[device];
        let start = secs(now);
        let end = start + dur;
        self.emit_due(k, start);
        for &g in group {
            self.spans.push(SpanRow {
                start,
                end,
                request: k.tasks.req(g) as u32,
                device: device as u32,
                module: k.tasks.module(g),
                phase: if k.tasks.is_head(g) {
                    PhaseTag::Head
                } else {
                    PhaseTag::Encode
                },
            });
        }
        Ok(ns(end))
    }

    fn encoder_ready_ns(
        &mut self,
        k: &mut Kernel<NoCustom, TaskInfo>,
        tid: usize,
        now: u64,
    ) -> Result<u64, SimError> {
        let output_tx = k.tasks.payload(tid).output_tx;
        if output_tx > 0.0 {
            let req = k.tasks.req(tid);
            let head_dev = k.tasks.device(k.requests[req].head_task);
            self.emit_due(k, secs(now));
            self.spans.push(SpanRow {
                start: secs(now),
                end: secs(now) + output_tx,
                request: req as u32,
                device: head_dev as u32,
                module: k.tasks.module(tid),
                phase: PhaseTag::OutputTx,
            });
        }
        Ok(ns(secs(now) + output_tx))
    }

    fn head_done(
        &mut self,
        _k: &mut Kernel<NoCustom, TaskInfo>,
        req: usize,
        now: u64,
    ) -> Result<(), SimError> {
        self.timings.push((
            self.ids[req],
            RequestTiming {
                arrival: self.arrivals[req],
                completion: secs(now),
            },
        ));
        Ok(())
    }
}

/// Stable-sorts every run of adjacent spans sharing a `start` by device
/// name — by its rank, which orders as the names do: all a stream already
/// non-decreasing in `start` needs to be in the report's order (by
/// `start`, then device name).
fn order_tie_groups(spans: &mut [SpanRow], resolved: &ResolvedInstance) {
    for group in spans.chunk_by_mut(|a, b| a.start == b.start) {
        if group.len() > 1 {
            group.sort_by_key(|s| resolved.device_rank(s.device));
        }
    }
}

/// Most (shape, table) pairs [`prepare`] remembers a pricing for; a plan
/// of requests that share nothing prices each of the rest from scratch.
const PRICED_CAPACITY: usize = 32;

/// Resolves the routed device of module `m` for `route`, with the same
/// error split as the string path: missing from the route is
/// [`CoreError::Unrouted`], outside the fleet is
/// [`CoreError::UnknownDevice`].
fn routed_device(resolved: &ResolvedInstance, route: &Route, m: u32) -> Result<u32, CoreError> {
    let dev = route
        .device_for(resolved.module_name(m))
        .ok_or_else(|| CoreError::Unrouted(resolved.module_name(m).clone()))?;
    resolved
        .device_index(dev)
        .ok_or_else(|| CoreError::UnknownDevice(dev.clone()))
}

/// Prices `request` over `route` from scratch: every name looked up in
/// the string path's order (so the first bad one fails with its error),
/// then [`ResolvedInstance::price_route`].
fn price(
    resolved: &ResolvedInstance,
    request: &Request,
    route: &Route,
) -> Result<PricedRoute, CoreError> {
    let model = resolved
        .model_index(&request.model)
        .ok_or_else(|| CoreError::UnknownModel(request.model.clone()))?;
    let rmodel = &resolved.models()[model];
    let source = resolved
        .device_index(&request.source)
        .ok_or_else(|| CoreError::UnknownDevice(request.source.clone()))?;
    let head = (rmodel.head, routed_device(resolved, route, rmodel.head)?);
    let mut routed = Vec::with_capacity(rmodel.encoders.len() + 1);
    for &m in &rmodel.encoders {
        routed.push((m, routed_device(resolved, route, m)?));
    }
    routed.push(head);
    let mut priced = PricedRoute::default();
    resolved.price_route(&request.profile, source, &routed, &mut priced);
    Ok(priced)
}

/// The pricing remembered for the (shape, table) pair `request` and
/// `route` hold, by pointer identity on both.
fn priced_for<'p>(
    cache: &'p [(&Request, &Route, PricedRoute)],
    request: &Request,
    route: &Route,
) -> Option<&'p PricedRoute> {
    cache
        .iter()
        .find(|(q, r, _)| q.shares_shape(request) && r.shares_assignments(route))
        .map(|(_, _, priced)| priced)
}

/// Runs a plan to completion in virtual time.
///
/// Builds the interned [`ResolvedInstance`] view internally; callers
/// that already hold one (parallel sweeps running many replicas of the
/// same instance) use [`simulate_shared`] instead.
///
/// # Errors
///
/// [`SimError::ArrivalsMismatch`] / [`SimError::BadArrival`] on bad
/// config; [`SimError::Core`] if the plan references unknown
/// models/devices (a validated plan cannot).
pub fn simulate(
    instance: &Instance,
    plan: &Plan,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let resolved = ResolvedInstance::new(instance)?;
    simulate_shared(instance, &resolved, plan, config)
}

/// [`simulate`] against a pre-built interned view: replicas of the same
/// instance share one `ResolvedInstance` (typically behind an `Arc`)
/// instead of re-interning per run. `resolved` must be built from
/// `instance`; results are byte-identical to [`simulate`].
///
/// # Errors
///
/// [`SimError::ArrivalsMismatch`] / [`SimError::BadArrival`] on bad
/// config; [`SimError::Core`] if the plan references unknown
/// models/devices (a validated plan cannot).
pub fn simulate_shared(
    instance: &Instance,
    resolved: &ResolvedInstance,
    plan: &Plan,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_caching(instance, resolved, plan, config, PRICED_CAPACITY)
}

/// [`simulate_shared`] remembering at most `capacity` pricings.
pub(crate) fn simulate_caching(
    instance: &Instance,
    resolved: &ResolvedInstance,
    plan: &Plan,
    config: &SimConfig,
    capacity: usize,
) -> Result<SimReport, SimError> {
    let (mut kernel, mut driver) = prepare(instance, resolved, plan, config, capacity)?;
    let reserved = driver.spans.capacity();
    driver.begin_merge();
    kernel.run_until_idle(&mut driver)?;
    // Whatever starts after the last run-time span (loading spans of a
    // plan without requests).
    driver.emit_due(&kernel, f64::MAX);
    debug_assert!(driver.spans.is_sorted_by(|a, b| a.start <= b.start));
    debug_assert_eq!(
        driver.spans.capacity(),
        reserved,
        "spans outgrew their reservation"
    );
    order_tie_groups(&mut driver.spans, resolved);
    Ok(driver.into_report(resolved))
}

/// The oracle [`simulate_shared`]'s span order and pricing cache are
/// tested against, sharing none of its ordering code and remembering no
/// pricing: every request is priced from scratch, every pre-clock span is
/// recorded before the clock starts (loading spans in placement order,
/// input transfers in request order), the run's spans follow as stamped,
/// and one plain stable sort by `(start, device name)` orders the lot.
#[cfg(test)]
pub(crate) fn simulate_reference(
    instance: &Instance,
    resolved: &ResolvedInstance,
    plan: &Plan,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let (mut kernel, mut driver) = prepare(instance, resolved, plan, config, 0)?;
    driver.spans.extend(std::mem::take(&mut driver.loading));
    for req in 0..driver.ids.len() {
        driver.push_input_spans(&kernel, req);
    }
    kernel.run_until_idle(&mut driver)?;
    driver.spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                resolved
                    .device_name(a.device)
                    .cmp(resolved.device_name(b.device))
            })
    });
    Ok(driver.into_report(resolved))
}

/// Validates `config` against `plan`, builds every task and initial
/// event, and returns the loaded kernel and its driver — pre-clock
/// streams not yet opened, `spans` empty at its final capacity.
///
/// What a request's tasks look like depends on its shape and its route's
/// table only, so the first `capacity` distinct (shape, table) pairs are
/// [priced](price) once and every later request holding such a pair — by
/// pointer, both — spawns from that pricing; debug builds price each hit
/// afresh and compare. Any other request is priced from scratch, which is
/// also what `capacity: 0` makes of every request.
fn prepare<'a>(
    instance: &Instance,
    resolved: &ResolvedInstance,
    plan: &Plan,
    config: &'a SimConfig,
    capacity: usize,
) -> Result<(Kernel<NoCustom, TaskInfo>, Bounded<'a>), SimError> {
    let arrivals: Cow<'a, [f64]> = match &config.arrivals {
        Some(a) => {
            if a.len() != plan.routed.len() {
                return Err(SimError::ArrivalsMismatch {
                    expected: plan.routed.len(),
                    got: a.len(),
                });
            }
            // `ns` would silently turn NaN and negatives into 0 and
            // saturate past the clock's range.
            if let Some((index, &value)) = a
                .iter()
                .enumerate()
                .find(|(_, &t)| !(0.0..=MAX_ARRIVAL_S).contains(&t))
            {
                return Err(SimError::BadArrival { index, value });
            }
            Cow::Borrowed(a)
        }
        None => Cow::Owned(vec![0.0; plan.routed.len()]),
    };

    let devices = instance.fleet().devices();

    // --- Model loading: each device streams its placed modules (largest
    //     first, deterministic) sequentially from t=0.
    let mut loading_done = 0.0;
    let mut loading = VecDeque::new();
    let mut open_at = vec![0u64; devices.len()];
    if config.include_loading {
        for (m, n) in plan.placement.iter() {
            let Some(mi) = resolved.module_index(m) else {
                continue;
            };
            let spec = resolved.module_spec(mi);
            let di = resolved
                .device_index(n)
                .ok_or_else(|| CoreError::UnknownDevice(n.clone()))? as usize;
            let dur = devices[di].load_time(spec);
            if dur <= 0.0 {
                continue;
            }
            let start = secs(open_at[di]);
            loading.push_back(SpanRow {
                start,
                end: start + dur,
                request: NO_REQUEST,
                device: di as u32,
                module: mi,
                phase: PhaseTag::ModelLoading,
            });
            open_at[di] = ns(start + dur);
        }
        loading_done = open_at.iter().copied().map(secs).fold(0.0, f64::max);
    }

    // --- Price the plan's distinct (shape, table) pairs and size the
    //     tables exactly: one head task per request plus its encoders;
    //     one span per loaded module, per task, per encoder whose input
    //     has to travel and per encoder whose embedding has to.
    let mut cache: Vec<(&Request, &Route, PricedRoute)> = Vec::new();
    let mut tasks_cap = 0;
    let mut n_spans = loading.len();
    for (request, route) in &plan.routed {
        let fresh;
        let priced = match priced_for(&cache, request, route) {
            Some(priced) => priced,
            None => {
                fresh = price(resolved, request, route)?;
                if cache.len() < capacity {
                    cache.push((request, route, fresh.clone()));
                }
                &fresh
            }
        };
        tasks_cap += 1 + priced.encoders.len();
        n_spans += priced
            .encoders
            .iter()
            .map(|e| usize::from(e.input_tx > 0.0) + usize::from(e.output_tx > 0.0))
            .sum::<usize>();
    }
    n_spans += tasks_cap;

    let mut kernel: Kernel<NoCustom, TaskInfo> = Kernel::with_capacity(
        devices
            .iter()
            .enumerate()
            .map(|(i, d)| Device::new(d.parallelism.max(1), open_at[i]))
            .collect(),
        Policy {
            immediate_head_fire: true,
            max_batch: config.max_batch,
            // Spans index the task table (a request's input transfers are
            // read back from its rows); ids must stay append-only.
            recycle_tasks: false,
            // Every arrival is pushed before the clock starts, so a large
            // plan holds far more pending events than the online driver
            // ever does; `Auto` keeps the heap for small plans and spills
            // to the wheel past its pending-event threshold.
            scheduler: Scheduler::Auto,
        },
        tasks_cap,
        plan.routed.len(),
    );
    let mut ids = Vec::with_capacity(plan.routed.len());

    // --- Build tasks and initial events.
    for (req_idx, ((request, route), &arrival)) in
        plan.routed.iter().zip(arrivals.iter()).enumerate()
    {
        let fresh;
        let priced = match priced_for(&cache, request, route) {
            Some(priced) => {
                debug_assert_eq!(Ok(priced), price(resolved, request, route).as_ref());
                priced
            }
            None => {
                fresh = price(resolved, request, route)?;
                &fresh
            }
        };
        let head = &priced.head;
        let head_task = kernel.spawn_task(
            req_idx,
            head.module,
            head.device as usize,
            true,
            TaskInfo {
                dur: head.compute,
                input_tx: 0.0,
                output_tx: 0.0,
            },
        );
        for e in &priced.encoders {
            let info = TaskInfo {
                dur: e.compute,
                input_tx: e.input_tx,
                output_tx: e.output_tx,
            };
            let tid = kernel.spawn_task(req_idx, e.module, e.device as usize, false, info);
            kernel.push_ready(ns(arrival + e.input_tx), tid);
        }

        ids.push(request.id);
        // A generative head's raw query travels at arrival.
        let head_ready = ns(arrival + head.input_tx);
        kernel.set_request(
            req_idx,
            RequestSlot {
                pending_encoders: priced.encoders.len(),
                head_ready_ns: head_ready,
                head_task,
            },
        );
        // Encoder-less models cannot exist (ModelSpec validates ≥1), but
        // guard anyway: head fires directly.
        if priced.encoders.is_empty() {
            kernel.push_ready(head_ready, head_task);
        }
    }

    for (i, &at) in open_at.iter().enumerate() {
        if at > 0 {
            kernel.push_device_open(at, i);
        }
    }

    let driver = Bounded {
        exec_overhead: devices.iter().map(|d| d.exec_overhead_s).collect(),
        timings: Vec::with_capacity(ids.len()),
        ids,
        arrivals,
        loading,
        by_arrival: None,
        inputs_done: 0,
        next_loading: f64::INFINITY,
        next_input: f64::INFINITY,
        spans: Vec::with_capacity(n_spans),
        loading_done,
    };
    Ok((kernel, driver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Phase;
    use s2m3_core::objective::total_latency;
    use s2m3_core::placement::PlacementOptions;
    use s2m3_net::fleet::Fleet;

    fn plan_for(name: &str, candidates: usize, n_requests: usize) -> (Instance, Plan) {
        let i = Instance::single_model(name, candidates).unwrap();
        let requests: Vec<_> = (0..n_requests)
            .map(|k| i.request(k as u64, name).unwrap())
            .collect();
        let plan = Plan::greedy(&i, requests).unwrap();
        (i, plan)
    }

    #[test]
    fn single_request_matches_analytic_objective() {
        for (name, c) in [
            ("CLIP ViT-B/16", 101),
            ("CLIP ResNet-50", 10),
            ("Encoder-only VQA (Small)", 1),
            ("Flint-v0.5-1B", 1),
            ("CLIP-Classifier Food-101", 0),
        ] {
            let (i, plan) = plan_for(name, c, 1);
            let report = simulate(&i, &plan, &SimConfig::default()).unwrap();
            let analytic = total_latency(&i, &plan.routed[0].1, &plan.routed[0].0).unwrap();
            let simulated = report.request_latency(0).unwrap();
            // Uncontended, the run is Eqs. 1–3 up to the clock's
            // nanosecond rounding.
            assert!(
                (simulated - analytic).abs() <= 10.0e-9,
                "{name}: sim {simulated} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn loading_gates_inference() {
        let (i, plan) = plan_for("CLIP ViT-B/16", 101, 1);
        let without = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let with = simulate(
            &i,
            &plan,
            &SimConfig {
                include_loading: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(with.loading_done > 0.5);
        assert!(with.request_latency(0).unwrap() > without.request_latency(0).unwrap() + 0.5);
        assert!(with
            .spans
            .iter()
            .any(|s| matches!(s.phase, Phase::ModelLoading(_))));
    }

    #[test]
    fn simultaneous_requests_queue_on_shared_modules() {
        // Two identical retrieval requests at t=0 share one text encoder:
        // the second must wait (Table X's queuing observation).
        let (i, plan) = plan_for("CLIP ViT-B/16", 101, 2);
        let r = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let l0 = r.request_latency(0).unwrap();
        let l1 = r.request_latency(1).unwrap();
        assert!(
            (l1 - l0).abs() > 0.5 || l1 > l0 + 0.5 || l0 > l1 + 0.5,
            "one of the colliding requests must queue: {l0:.2} vs {l1:.2}"
        );
        assert!(r.max_latency() > r.mean_latency());
    }

    #[test]
    fn pipelining_beats_serial_submission() {
        // 4 requests submitted together finish earlier than 4 submitted
        // each after the previous completes (encoders overlap).
        let (i, plan) = plan_for("CLIP ViT-B/16", 101, 4);
        let together = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let single = simulate(
            &i,
            &Plan {
                placement: plan.placement.clone(),
                routed: vec![plan.routed[0].clone()],
            },
            &SimConfig::default(),
        )
        .unwrap();
        let serial_makespan = 4.0 * single.request_latency(0).unwrap();
        assert!(
            together.makespan < serial_makespan,
            "pipelined {} vs serial {}",
            together.makespan,
            serial_makespan
        );
    }

    #[test]
    fn staggered_arrivals_respected() {
        let (i, plan) = plan_for("CLIP ViT-B/16", 10, 2);
        let r = simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(vec![0.0, 100.0]),
                ..SimConfig::default()
            },
        )
        .unwrap();
        let t1 = r.requests[&1];
        assert!(t1.arrival == 100.0 && t1.completion > 100.0);
        // Far-apart arrivals do not queue on each other.
        assert!((r.request_latency(0).unwrap() - r.request_latency(1).unwrap()).abs() < 0.05);
    }

    #[test]
    fn arrivals_mismatch_is_an_error() {
        let (i, plan) = plan_for("CLIP ViT-B/16", 10, 2);
        let err = simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(vec![0.0]),
                ..SimConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ArrivalsMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    fn bad_arrival(value: f64) -> SimError {
        let (i, plan) = plan_for("CLIP ViT-B/16", 10, 3);
        simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(vec![0.0, value, 1.0]),
                ..SimConfig::default()
            },
        )
        .unwrap_err()
    }

    #[test]
    fn nan_arrival_is_rejected() {
        // `assert_eq!` cannot compare the NaN payload.
        match bad_arrival(f64::NAN) {
            SimError::BadArrival { index: 1, value } => assert!(value.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_arrival_is_rejected() {
        for value in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(bad_arrival(value), SimError::BadArrival { index: 1, value });
        }
    }

    #[test]
    fn negative_arrival_is_rejected() {
        for value in [-1.0e-9, -3.5] {
            assert_eq!(bad_arrival(value), SimError::BadArrival { index: 1, value });
        }
    }

    #[test]
    fn arrival_past_the_clock_range_is_rejected() {
        for value in [MAX_ARRIVAL_S * 1.001, 1.0e19, f64::MAX] {
            assert_eq!(bad_arrival(value), SimError::BadArrival { index: 1, value });
        }
        let msg = bad_arrival(1.0e19).to_string();
        assert!(msg.contains("arrival 1 is 1"), "{msg}");
    }

    #[test]
    fn arrivals_at_the_range_ends_are_accepted() {
        let (i, plan) = plan_for("CLIP ViT-B/16", 10, 2);
        let r = simulate(
            &i,
            &plan,
            &SimConfig {
                // -0.0 is zero, not a negative time.
                arrivals: Some(vec![-0.0, 4.0e9]),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(r.requests[&1].completion > 4.0e9);
        assert_eq!(ns(MAX_ARRIVAL_S), 1 << 63);
    }

    #[test]
    fn repeated_request_id_keeps_the_later_completion() {
        let (i, mut plan) = plan_for("CLIP ViT-B/16", 10, 2);
        plan.routed[1].0.id = 0;
        plan.routed[1].1.request_id = 0;
        let r = simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(vec![50.0, 0.0]),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.requests.len(), 1);
        assert_eq!(r.requests[&0].arrival, 50.0);
    }

    #[test]
    fn multi_task_simultaneous_burst_runs_all() {
        let i = Instance::on_fleet(
            Fleet::edge_testbed(),
            &[
                ("CLIP ViT-B/16", 101),
                ("Encoder-only VQA (Small)", 1),
                ("AlignBind-B", 16),
                ("CLIP-Classifier Food-101", 0),
            ],
        )
        .unwrap();
        let requests: Vec<_> = i
            .deployments()
            .iter()
            .enumerate()
            .map(|(k, d)| i.request(k as u64, &d.model.name).unwrap())
            .collect();
        let plan = Plan::greedy(&i, requests).unwrap();
        let r = simulate(&i, &plan, &SimConfig::default()).unwrap();
        assert_eq!(r.requests.len(), 4);
        assert!(r.makespan > 0.0);
        // Gantt renders with something on multiple devices.
        let g = r.render_gantt(60);
        assert!(g.matches('|').count() >= 4);
    }

    #[test]
    fn loading_spans_outlive_the_last_run_time_span() {
        // No request ever catches the merge up with the loading stream:
        // the end-of-run flush has to, and in (start, device) order.
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let plan = Plan::greedy(&i, Vec::new()).unwrap();
        let config = SimConfig {
            include_loading: true,
            ..SimConfig::default()
        };
        let resolved = ResolvedInstance::new(&i).unwrap();
        let r = simulate_shared(&i, &resolved, &plan, &config).unwrap();
        assert!(!r.spans.is_empty());
        assert!(r
            .spans
            .iter()
            .all(|s| matches!(s.phase, Phase::ModelLoading(_))));
        assert_eq!(r.makespan, r.loading_done);
        assert_eq!(
            r,
            simulate_reference(&i, &resolved, &plan, &config).unwrap()
        );
    }

    #[test]
    fn an_arrival_tied_with_a_run_time_span_sorts_ahead_of_it() {
        // Request 1 arrives at the very instant request 0's remote encoder
        // starts, and ships its own input to the same device: equal
        // (start, device), where the report's order is recording order —
        // pre-clock first.
        let (i, plan) = plan_for("CLIP ViT-B/16", 101, 2);
        let resolved = ResolvedInstance::new(&i).unwrap();
        let alone = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let input = alone
            .spans
            .iter()
            .find(|s| matches!(s.phase, Phase::InputTx(_)))
            .expect("a remote encoder");
        let encode = alone
            .spans
            .iter()
            .find(|s| matches!(s.phase, Phase::Encode(_)) && s.device == input.device)
            .unwrap();
        assert!(encode.start > 0.0);
        let config = SimConfig {
            arrivals: Some(vec![0.0, encode.start]),
            ..SimConfig::default()
        };
        let r = simulate_shared(&i, &resolved, &plan, &config).unwrap();
        let tied: Vec<_> = r
            .spans
            .iter()
            .filter(|s| s.start == encode.start && s.device == encode.device)
            .map(|s| (s.request, matches!(s.phase, Phase::InputTx(_))))
            .collect();
        assert_eq!(tied, [(Some(1), true), (Some(0), false)]);
        assert_eq!(
            r,
            simulate_reference(&i, &resolved, &plan, &config).unwrap()
        );
    }

    #[test]
    fn a_pricing_is_reused_only_for_its_own_shape_and_table() {
        // Two shapes of one model (different sources, so different input
        // transfers) and, for the first, two route tables (the text
        // encoder moved), alternating. Whatever the cache holds — nothing,
        // the first pair only (so every other request is a miss between
        // two hits), all of them — each request gets its own pair's
        // pricing: the report is the from-scratch oracle's.
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let from_requester = i.request(0, "CLIP ViT-B/16").unwrap();
        let mut from_desktop = from_requester.clone();
        from_desktop.shape_mut().source = "desktop".into();
        let requests: Vec<_> = (0..9u64)
            .map(|k| {
                let mut q = [&from_requester, &from_desktop][(k % 2) as usize].clone();
                q.id = k;
                q
            })
            .collect();
        let placement =
            s2m3_core::placement::greedy_place_with(&i, PlacementOptions { replicate: true })
                .unwrap();
        let mut plan = Plan::route_all(&i, placement, requests).unwrap();
        let text = "text/CLIP-B-16".into();
        let elsewhere = plan
            .placement
            .hosts(&text)
            .find(|d| Some(*d) != plan.routed[0].1.device_for(&text))
            .expect("a replica")
            .clone();
        let mut moved = plan.routed[0].1.clone();
        moved.assign(text, elsewhere);
        for k in [4, 8] {
            moved.request_id = k as u64;
            plan.routed[k].1 = moved.clone();
        }
        assert!(plan.routed[0].0.shares_shape(&plan.routed[4].0));
        assert!(plan.routed[4].1.shares_assignments(&plan.routed[8].1));
        assert!(!plan.routed[0].1.shares_assignments(&plan.routed[4].1));

        let resolved = ResolvedInstance::new(&i).unwrap();
        let config = SimConfig::default();
        let expected = simulate_reference(&i, &resolved, &plan, &config).unwrap();
        // The three pairs really are priced differently.
        let input_spans = |req: u64| -> Vec<_> {
            expected
                .spans
                .iter()
                .filter(|s| s.request == Some(req) && matches!(s.phase, Phase::InputTx(_)))
                .map(|s| (s.device.clone(), s.end - s.start))
                .collect()
        };
        assert_ne!(input_spans(0), input_spans(1));
        assert_ne!(input_spans(0), input_spans(4));
        assert_eq!(input_spans(0), input_spans(2));
        for capacity in [0, 1, 2, PRICED_CAPACITY] {
            assert_eq!(
                simulate_caching(&i, &resolved, &plan, &config, capacity).unwrap(),
                expected,
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn deterministic_replay() {
        let (i, plan) = plan_for("CLIP ViT-B/16", 101, 3);
        let a = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let b = simulate(&i, &plan, &SimConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod batching_tests {
    use super::*;
    use crate::report::Phase;

    fn burst_plan(n: usize) -> (Instance, Plan) {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let requests: Vec<_> = (0..n as u64)
            .map(|k| i.request(k, "CLIP ViT-B/16").unwrap())
            .collect();
        let plan = Plan::greedy(&i, requests).unwrap();
        (i, plan)
    }

    #[test]
    fn batching_reduces_burst_makespan() {
        // Sec. VI-C: aggregating queued requests at the shared text
        // encoder amortizes the per-execution overhead.
        let (i, plan) = burst_plan(6);
        let plain = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let batched = simulate(
            &i,
            &plan,
            &SimConfig {
                max_batch: Some(8),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(
            batched.makespan < plain.makespan,
            "batched {:.2} vs plain {:.2}",
            batched.makespan,
            plain.makespan
        );
        assert_eq!(batched.requests.len(), 6);
    }

    #[test]
    fn batch_of_one_changes_nothing() {
        let (i, plan) = burst_plan(3);
        let plain = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let b1 = simulate(
            &i,
            &plan,
            &SimConfig {
                max_batch: Some(1),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain.requests, b1.requests);
    }

    #[test]
    fn batched_members_complete_together() {
        let (i, plan) = burst_plan(4);
        let batched = simulate(
            &i,
            &plan,
            &SimConfig {
                max_batch: Some(4),
                ..SimConfig::default()
            },
        )
        .unwrap();
        // The four text encodings batch into overlapping spans on the
        // text host: at least two encode spans share an end time.
        let mut ends: Vec<u64> = batched
            .spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::Encode(_)))
            .map(|s| ns(s.end))
            .collect();
        ends.sort_unstable();
        let shared = ends.windows(2).any(|w| w[0] == w[1]);
        assert!(shared, "expected batched completions: {ends:?}");
    }
}
