//! The resumable discrete-event kernel shared by the offline simulator
//! and the online serving control plane.
//!
//! Both `s2m3_sim::engine` and `s2m3_serve::engine` execute the same
//! machine: requests fan encoder tasks out across devices, each device
//! runs a `parallelism`-lane executor over FIFO module queues with
//! head-priority dispatch, and a request's head fires when its last
//! embedding lands. Before this module existed the two engines each
//! carried a private copy of that event loop; now the loop lives here
//! once, and the engines are *drivers* layered on top:
//!
//! - `s2m3_sim::engine` is the **bounded driver** — a fixed request set
//!   seeded up front, run to idle;
//! - `s2m3_serve::engine` is the **online driver** — admission queues,
//!   SLO windows, fleet churn, and live replanning injected through the
//!   hooks below, over an unbounded arrival stream.
//!
//! ## The injection-point API
//!
//! The kernel owns the event heap and the dense per-device / per-task /
//! per-request state; everything scenario-specific enters through the
//! [`Driver`] trait:
//!
//! - [`Driver::Custom`] — driver-defined events (arrivals, fleet churn)
//!   scheduled with [`Kernel::push_custom`] and delivered to
//!   [`Driver::custom`]; the handler has full mutable access to the
//!   kernel, so it can spawn tasks, cancel attempts, toggle device
//!   membership, or swap plans mid-run (the serve replan path pauses
//!   the machine exactly here: the kernel is between events while the
//!   driver drains and requeues);
//! - [`Driver::dispatched`] — the driver fixes each execution's
//!   completion time (and does its own span / duration bookkeeping),
//!   so engines with different timing arithmetic stay bit-exact;
//! - [`Driver::encoder_ready_ns`] — the embedding-transfer contribution
//!   an encoder completion adds to its request's head-readiness;
//! - [`Driver::head_done`] — a request finished; the driver records it
//!   and (online) admits the next waiting request;
//! - [`Driver::device_opened`] — a device's downtime window ended; the
//!   online driver drains its admission queue.
//!
//! ## Resumability
//!
//! The kernel is a plain state machine with no hidden iterator state:
//! [`Kernel::step`] processes exactly one event, [`Kernel::run_until`]
//! processes events up to a virtual-time bound and stops, and
//! [`Kernel::run_until_idle`] drains the heap. Stopping after any event
//! and resuming later is indistinguishable from an uninterrupted run —
//! the property `s2m3-serve` pins with its pause/resume proptest.

pub mod wheel;

use std::collections::VecDeque;

/// Nanoseconds per second.
const NS_PER_S: f64 = 1.0e9;

/// The clock's range: 2^63 ns (≈ 292 years), half the `u64`
/// nanosecond clock, so a time within it plus another never saturates
/// [`ns`]. Seconds entering the clock from outside — arrivals, fleet-event
/// times, deadlines — are checked against it.
pub const MAX_ARRIVAL_S: f64 = (1u64 << 63) as f64 / NS_PER_S;

/// Seconds to the kernel's `u64` nanosecond clock, rounded to nearest.
/// NaN and negatives become 0 and anything past `u64::MAX` saturates, so
/// inputs are validated against [`MAX_ARRIVAL_S`] first.
#[inline]
pub fn ns(t: f64) -> u64 {
    (t * NS_PER_S).round() as u64
}

/// The nanosecond clock back to seconds.
#[inline]
pub fn secs(t: u64) -> f64 {
    t as f64 / NS_PER_S
}

/// A kernel event. `X` is the driver's custom-event payload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event<X> {
    /// A task becomes ready to queue on its device.
    Ready(usize),
    /// A task finishes executing and frees its lane.
    Done(usize),
    /// A batched follower finishing alongside its leader: completes the
    /// task's request bookkeeping without freeing a lane.
    BatchedDone(usize),
    /// A device's downtime window ends; wake its scheduler.
    DeviceOpen(usize),
    /// A driver-defined event.
    Custom(X),
}

/// Task flag bits (packed into [`TaskMeta::flags`]).
const TASK_HEAD: u8 = 1;
const TASK_CANCELLED: u8 = 1 << 1;
const TASK_FINISHED: u8 = 1 << 2;

/// The kernel-facing half of a task, 24 bytes: everything the shared
/// event loop reads while scheduling.
#[derive(Debug, Clone, Copy)]
struct TaskMeta {
    /// Dense request index this task belongs to.
    req: u32,
    /// Interned module index (batch-merge key).
    module: u32,
    /// Dense device index the task executes on.
    device: u32,
    /// `TASK_HEAD` / `TASK_CANCELLED` / `TASK_FINISHED` bits.
    flags: u8,
    /// The device's lane epoch when this task was dispatched; a stale
    /// epoch means the lane counter was force-reset (the device left
    /// the fleet) and this task no longer holds a lane.
    lane_epoch: u64,
}

/// The task table, struct-of-arrays: scheduling metadata in one dense
/// vec, driver payloads (durations, transfer times — whatever the
/// timing hooks need) in a parallel vec.
///
/// The split keeps the event loop's working set tight: dispatch,
/// cancellation scans, and fan-in bookkeeping walk 24-byte
/// `TaskMeta` records (the serve driver's payload alone is twice
/// that), and a payload is only loaded inside the driver hook that
/// actually prices the task.
#[derive(Debug)]
pub struct TaskTable<P> {
    entries: Vec<TaskEntry<P>>,
}

/// One task row: scheduling metadata and the driver payload side by
/// side. Interleaved on purpose — every hot consumer (dispatch fixes a
/// duration right after reading units, completion charges busy time
/// next to the device index) touches both halves of the same task, so
/// one row per cache line beats a meta/payload split. A split-array
/// variant was measured ~4% slower end to end on the serve loop.
#[derive(Debug, Clone)]
struct TaskEntry<P> {
    meta: TaskMeta,
    payload: P,
}

impl<P> TaskTable<P> {
    fn with_capacity(cap: usize) -> Self {
        TaskTable {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Task-table slots (live plus, in recycling mode, free).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no task was ever registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dense request index `tid` belongs to.
    #[inline]
    pub fn req(&self, tid: usize) -> usize {
        self.entries[tid].meta.req as usize
    }

    /// Interned module index (batch-merge key).
    #[inline]
    pub fn module(&self, tid: usize) -> u32 {
        self.entries[tid].meta.module
    }

    /// Dense device index `tid` executes on.
    #[inline]
    pub fn device(&self, tid: usize) -> usize {
        self.entries[tid].meta.device as usize
    }

    /// Head tasks dispatch ahead of queued encoder work.
    #[inline]
    pub fn is_head(&self, tid: usize) -> bool {
        self.entries[tid].meta.flags & TASK_HEAD != 0
    }

    /// A cancelled task is skipped at dispatch and, if already running,
    /// completes without touching its request.
    #[inline]
    pub fn cancelled(&self, tid: usize) -> bool {
        self.entries[tid].meta.flags & TASK_CANCELLED != 0
    }

    /// Set once the task's completion event fired: its work has left
    /// the device, so later churn no longer disturbs it.
    #[inline]
    pub fn finished(&self, tid: usize) -> bool {
        self.entries[tid].meta.flags & TASK_FINISHED != 0
    }

    /// Marks `tid` cancelled (see [`TaskTable::cancelled`]).
    #[inline]
    pub fn cancel(&mut self, tid: usize) {
        self.entries[tid].meta.flags |= TASK_CANCELLED;
    }

    /// Driver payload fixed at [`Kernel::spawn_task`].
    #[inline]
    pub fn payload(&self, tid: usize) -> &P {
        &self.entries[tid].payload
    }

    /// Mutable driver payload (timing hooks fix durations here).
    #[inline]
    pub fn payload_mut(&mut self, tid: usize) -> &mut P {
        &mut self.entries[tid].payload
    }

    #[inline]
    fn mark_finished(&mut self, tid: usize) {
        self.entries[tid].meta.flags |= TASK_FINISHED;
    }

    #[inline]
    fn set_lane_epoch(&mut self, tid: usize, epoch: u64) {
        self.entries[tid].meta.lane_epoch = epoch;
    }

    /// Marks `tid` finished and returns its (updated) metadata — the
    /// completion path's single meta load.
    #[inline]
    fn finish(&mut self, tid: usize) -> TaskMeta {
        let m = &mut self.entries[tid].meta;
        m.flags |= TASK_FINISHED;
        *m
    }
}

/// Per-device executor state: a `lanes_total`-lane machine over two FIFO
/// queues (heads dispatch first).
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Whether the device participates in dispatch (online drivers
    /// toggle this at fleet churn; bounded drivers leave it `true`).
    pub active: bool,
    /// Parallel execution lanes the device offers.
    pub lanes_total: usize,
    /// Lanes currently running a task.
    pub lanes_busy: usize,
    /// Bumped whenever `lanes_busy` is force-reset, so completions of
    /// tasks dispatched before the reset do not free phantom lanes.
    pub lane_epoch: u64,
    /// The device cannot start new tasks before this time (model
    /// loading, migration downtime), nanoseconds.
    pub open_at_ns: u64,
    /// Head tasks awaiting a lane (dispatched before `fifo`).
    pub fifo_heads: VecDeque<usize>,
    /// Encoder tasks awaiting a lane.
    pub fifo: VecDeque<usize>,
}

impl Device {
    /// An active idle device with `lanes` lanes, open from `open_at_ns`.
    pub fn new(lanes: usize, open_at_ns: u64) -> Self {
        Device {
            active: true,
            lanes_total: lanes.max(1),
            open_at_ns,
            ..Device::default()
        }
    }

    /// Force-resets the device's execution state (fleet leave): clears
    /// both queues, zeroes the lane counter, and bumps the epoch so
    /// in-flight completions become stale.
    pub fn reset_lanes(&mut self) {
        self.fifo_heads.clear();
        self.fifo.clear();
        self.lanes_busy = 0;
        self.lane_epoch += 1;
    }
}

/// Per-request fan-in state: how many encoders are still running and
/// when the head may start.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestSlot {
    /// Encoder tasks of the current attempt still outstanding.
    pub pending_encoders: usize,
    /// Earliest head start: max over encoder-completion + output
    /// transfer and the raw-query arrival, nanoseconds.
    pub head_ready_ns: u64,
    /// Task id of the request's head execution.
    pub head_task: usize,
}

/// Which event-queue implementation backs the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Adapt to the workload at runtime: start on the heap and spill
    /// into the timing wheel only if the pending set ever exceeds
    /// `WHEEL_SPILL_LEN` (4,096). Interleaved A/B runs measured the heap
    /// fastest for the steady-state serve loop (a handful of in-flight
    /// events — heap depth ~2, while every wheel event still pays
    /// bucket routing plus a frontier advance) and the two at parity
    /// by ~2k pending events, where heap depth starts to matter; the
    /// spill threshold sits past that crossover so only genuinely
    /// event-dense runs migrate. Both backends pop in identical
    /// `(time_ns, seq)` order, so the switch is invisible in results.
    #[default]
    Auto,
    /// Always the 4-ary packed-key min-heap.
    Heap,
    /// Always the hierarchical timing wheel ([`wheel::TimingWheel`]).
    Wheel,
}

/// Scheduling-policy knobs that differ between the two engines but are
/// fixed for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Policy {
    /// When the last encoder of a request completes and the head is
    /// already ready, enqueue the head *directly* on its device's head
    /// queue so it wins the lane the encoder just freed (the bounded
    /// engine's semantics). When `false`, schedule a `Ready` event at
    /// the readiness time instead (the online engine's semantics).
    pub immediate_head_fire: bool,
    /// Module-level batch inference: when a lane frees, up to this many
    /// queued executions of the same module merge into one run.
    pub max_batch: Option<usize>,
    /// Recycle task-table slots through a free list: a task's slot is
    /// released the moment the kernel can prove no queue, event, or
    /// fan-in slot still references it, and the next
    /// [`Kernel::spawn_task`] reuses it. Keeps the task table
    /// O(in-flight) for unbounded online runs. Task ids lose their
    /// append-only meaning; drivers that index history by task id
    /// (the bounded engine's Gantt spans) must leave this `false`.
    pub recycle_tasks: bool,
    /// Event-queue implementation; see [`Scheduler`].
    pub scheduler: Scheduler,
}

/// A 4-ary min-heap over packed `(time_ns << 64) | seq` keys, stored
/// as parallel key/payload arrays — the kernel's bounded-run scheduler
/// and the timing wheel's near-window heap.
///
/// Profiling the serve loop showed the event heap near the top of the
/// hook-boundary cost added in the kernel extraction. Three structural
/// choices attack it:
///
/// - **packed keys** — the unique `(time, seq)` pair collapses into one
///   `u128`, so every ordering decision is a single integer compare
///   instead of a 3-field tuple compare that may touch the event
///   payload;
/// - **parallel arrays** — sift comparisons walk a dense `Vec<u128>`
///   (a 4-child group is 64 bytes, one cache line) and never load the
///   payloads; payloads move only when a compare demands it;
/// - **arity 4** — half the tree depth of a binary heap, and a direct
///   sift-down that beats std's sift-to-bottom-then-back strategy on
///   the *small* heaps the lazy-arrival serving loop keeps (std's
///   `BinaryHeap` with the same packed keys measured faster on the
///   synthetic 4k-event `kernel_step` fanout but consistently slower on
///   `serve_loop/*` — the product hot path — so small-heap behavior
///   wins the tie).
///
/// Ordering is bit-exact with the old `BinaryHeap<Reverse<(u64, u64,
/// Event)>>`: keys are unique, min-first by time then push sequence.
#[derive(Debug)]
pub(crate) struct KeyHeap<T> {
    keys: Vec<u128>,
    items: Vec<T>,
}

impl<T> KeyHeap<T> {
    const ARITY: usize = 4;

    pub(crate) fn with_capacity(cap: usize) -> Self {
        KeyHeap {
            keys: Vec::with_capacity(cap),
            items: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.keys.swap(a, b);
        self.items.swap(a, b);
    }

    pub(crate) fn push(&mut self, key: u128, item: T) {
        self.keys.push(key);
        self.items.push(item);
        // Sift up. Events pushed in time order (the common case: work
        // scheduled at or after `now` into a heap whose root is `now`)
        // settle with zero swaps.
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(u128, T)> {
        let key = *self.keys.first()?;
        let n = self.keys.len() - 1;
        self.keys.swap_remove(0);
        let item = self.items.swap_remove(0);
        // Sift down, comparing keys only; the displaced last entry
        // rides down to its slot.
        let mut i = 0;
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= n {
                break;
            }
            let last_child = (first_child + Self::ARITY).min(n);
            let mut min = first_child;
            let mut min_key = self.keys[first_child];
            for c in first_child + 1..last_child {
                if self.keys[c] < min_key {
                    min = c;
                    min_key = self.keys[c];
                }
            }
            if self.keys[i] <= min_key {
                break;
            }
            self.swap(i, min);
            i = min;
        }
        Some((key, item))
    }
}

/// Pending-event count past which an [`Scheduler::Auto`] queue drains
/// its heap into the timing wheel. Measured crossover: heap and wheel
/// run at parity near 2k pending events (`kernel_step/2k_req_fanout`);
/// below that the heap wins outright, above it heap depth keeps
/// growing while the wheel's per-event cost stays flat.
const WHEEL_SPILL_LEN: usize = 4096;

/// The kernel's event queue: heap, timing wheel, or the adaptive
/// default that starts as a heap and spills into a wheel, per
/// [`Policy::scheduler`] — dispatched through one enum so the run loop
/// stays monomorphic over drivers (no dyn indirection per event).
#[derive(Debug)]
enum EventQueue<X> {
    Heap(KeyHeap<Event<X>>),
    Wheel(wheel::TimingWheel<Event<X>>),
    /// [`Scheduler::Auto`]: a heap that converts itself into
    /// [`EventQueue::Wheel`] the first time a push lands while more
    /// than [`WHEEL_SPILL_LEN`] events are pending. The one-time drain
    /// is O(n log n); both backends pop in the same global order, so
    /// results are byte-identical wherever the switch happens.
    Adaptive(KeyHeap<Event<X>>),
}

impl<X> EventQueue<X> {
    fn for_policy(policy: &Policy, cap: usize) -> Self {
        match policy.scheduler {
            Scheduler::Auto => EventQueue::Adaptive(KeyHeap::with_capacity(cap)),
            Scheduler::Heap => EventQueue::Heap(KeyHeap::with_capacity(cap)),
            Scheduler::Wheel => EventQueue::Wheel(wheel::TimingWheel::with_capacity(cap)),
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) | EventQueue::Adaptive(h) => h.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    #[inline(always)]
    fn peek_key(&self) -> Option<u128> {
        match self {
            EventQueue::Heap(h) | EventQueue::Adaptive(h) => h.peek_key(),
            EventQueue::Wheel(w) => w.peek_key(),
        }
    }

    #[inline(always)]
    fn push(&mut self, key: u128, event: Event<X>) {
        match self {
            EventQueue::Heap(h) => h.push(key, event),
            EventQueue::Wheel(w) => w.push(key, event),
            EventQueue::Adaptive(h) => {
                h.push(key, event);
                if h.len() > WHEEL_SPILL_LEN {
                    self.spill_to_wheel();
                }
            }
        }
    }

    /// Converts an [`EventQueue::Adaptive`] heap into a wheel by
    /// draining it in key order (cold: runs at most once per kernel).
    fn spill_to_wheel(&mut self) {
        let EventQueue::Adaptive(h) = self else {
            unreachable!("spill_to_wheel on a non-adaptive queue");
        };
        let mut w = wheel::TimingWheel::with_capacity(h.len());
        while let Some((k, ev)) = h.pop() {
            w.push(k, ev);
        }
        *self = EventQueue::Wheel(w);
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<(u128, Event<X>)> {
        match self {
            EventQueue::Heap(h) | EventQueue::Adaptive(h) => h.pop(),
            EventQueue::Wheel(w) => w.pop(),
        }
    }
}

/// The hooks a driver supplies to specialize the shared event loop.
///
/// Hooks receive `&mut Kernel` so they can schedule further work; the
/// kernel never calls a hook while holding an internal borrow. All
/// hooks are fallible so online drivers can surface scenario errors
/// (e.g. a replan failure) out of the run loop; bounded drivers return
/// `Ok` unconditionally.
pub trait Driver: Sized {
    /// Driver-defined event payload.
    type Custom;
    /// Driver-defined per-task payload, stored inline in the
    /// [`TaskTable`].
    type Payload;
    /// Error surfaced out of [`Kernel::step`] and the run helpers.
    type Error;

    /// A lane dispatched `group` (≥1 task ids, batched leader first) on
    /// `device` at `now`. Record spans / fix durations, and return the
    /// group's completion time in nanoseconds.
    fn dispatched(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        device: usize,
        group: &[usize],
        now: u64,
    ) -> Result<u64, Self::Error>;

    /// Task `tid` completed at `now`. `lane_live` is true when the task
    /// still held a lane (its dispatch epoch survived) — the moment to
    /// account busy time. Runs before any request bookkeeping, for
    /// cancelled tasks too. Defaults to a no-op.
    fn task_finished(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        tid: usize,
        now: u64,
        lane_live: bool,
    ) -> Result<(), Self::Error> {
        let _ = (k, tid, now, lane_live);
        Ok(())
    }

    /// Encoder task `tid` completed at `now`: return the head-readiness
    /// contribution (completion + embedding transfer), nanoseconds, and
    /// record any output-transfer span.
    fn encoder_ready_ns(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        tid: usize,
        now: u64,
    ) -> Result<u64, Self::Error>;

    /// Request `req`'s head execution completed at `now`.
    fn head_done(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        req: usize,
        now: u64,
    ) -> Result<(), Self::Error>;

    /// A `DeviceOpen` event fired for `device` (after the kernel's own
    /// dispatch attempt). Online drivers drain admission queues here.
    /// Defaults to a no-op.
    fn device_opened(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        device: usize,
        now: u64,
    ) -> Result<(), Self::Error> {
        let _ = (k, device, now);
        Ok(())
    }

    /// A custom event fired at `now`. Defaults to a no-op (override in
    /// any driver that actually schedules custom events).
    fn custom(
        &mut self,
        k: &mut Kernel<Self::Custom, Self::Payload>,
        event: Self::Custom,
        now: u64,
    ) -> Result<(), Self::Error> {
        let _ = (k, event, now);
        Ok(())
    }
}

/// The resumable discrete-event executor: event heap plus dense device,
/// task, and request-fan-in state.
///
/// Event ordering is `(time_ns, push sequence)` — packed into one
/// `u128` heap key — and the sequence number makes every key unique, so
/// same-time events fire in push order and a run is a pure function of
/// the pushes (the determinism both report formats rely on).
#[derive(Debug)]
pub struct Kernel<X, P> {
    queue: EventQueue<X>,
    seq: u64,
    now: u64,
    /// Reused dispatch-group buffer (one allocation for the whole run).
    scratch_group: Vec<usize>,
    /// Scheduling policy, fixed for the run.
    pub policy: Policy,
    /// Per-module batch caps indexed by interned module id, overriding
    /// `policy.max_batch` when non-empty (a cap of 1 disables batching
    /// for that module). Only consulted while `policy.max_batch` is
    /// `Some`; drivers without per-module policy leave it empty.
    pub module_batch_caps: Vec<usize>,
    /// Per-device executor state, indexed by dense device id.
    pub devices: Vec<Device>,
    /// Every live task slot. Without [`Policy::recycle_tasks`] this is
    /// append-only (cancelled tasks are skipped, never removed); with
    /// it, slots of provably-unreferenced tasks return to `free_tasks`
    /// and are reused, keeping the table O(in-flight).
    pub tasks: TaskTable<P>,
    /// Released task slots awaiting reuse (recycling mode only).
    free_tasks: Vec<usize>,
    /// Per-request fan-in state, indexed by dense request id.
    pub requests: Vec<RequestSlot>,
}

impl<X, P> Kernel<X, P> {
    /// An empty kernel over `devices` under `policy`.
    pub fn new(devices: Vec<Device>, policy: Policy) -> Self {
        Self::with_capacity(devices, policy, 0, 0)
    }

    /// An empty kernel with task/request table capacity hints — callers
    /// that know the workload size up front (e.g. a bounded plan or a
    /// fixed-length arrival stream) avoid the growth reallocations.
    pub fn with_capacity(
        devices: Vec<Device>,
        policy: Policy,
        tasks_cap: usize,
        requests_cap: usize,
    ) -> Self {
        Kernel {
            // The event peak is well under the task count (lazy online
            // arrivals keep it tiny; bounded runs fan in); a clamped
            // hint skips the growth reallocations without pinning
            // megabytes for huge request tables.
            queue: EventQueue::for_policy(&policy, tasks_cap.min(4096)),
            seq: 0,
            now: 0,
            scratch_group: Vec::new(),
            policy,
            module_batch_caps: Vec::new(),
            devices,
            tasks: TaskTable::with_capacity(tasks_cap),
            free_tasks: Vec::new(),
            requests: Vec::with_capacity(requests_cap),
        }
    }

    /// Virtual time of the last processed event, nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Task-table slots currently holding a live (unreleased) task —
    /// with [`Policy::recycle_tasks`] this tracks in-flight work, not
    /// total spawns.
    pub fn live_tasks(&self) -> usize {
        self.tasks.len() - self.free_tasks.len()
    }

    /// Events still queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Virtual time of the next queued event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.queue.peek_key().map(|k| (k >> 64) as u64)
    }

    #[inline]
    fn push(&mut self, at: u64, event: Event<X>) {
        self.seq += 1;
        self.queue
            .push(((at as u128) << 64) | self.seq as u128, event);
    }

    /// Schedules task `tid` to become ready (queue on its device) at
    /// `at` nanoseconds.
    #[inline]
    pub fn push_ready(&mut self, at: u64, tid: usize) {
        self.push(at, Event::Ready(tid));
    }

    /// Schedules a scheduler wake-up for `device` at `at` nanoseconds
    /// (end of a downtime window).
    pub fn push_device_open(&mut self, at: u64, device: usize) {
        self.push(at, Event::DeviceOpen(device));
    }

    /// Schedules a driver-defined event at `at` nanoseconds.
    #[inline]
    pub fn push_custom(&mut self, at: u64, event: X) {
        self.push(at, Event::Custom(event));
    }

    /// Registers a new task and returns its id. Append-only without
    /// [`Policy::recycle_tasks`]; with it, a released slot is reused
    /// (every field overwritten) before the table grows.
    pub fn spawn_task(
        &mut self,
        req: usize,
        module: u32,
        device: usize,
        is_head: bool,
        payload: P,
    ) -> usize {
        let meta = TaskMeta {
            req: req as u32,
            module,
            device: device as u32,
            flags: if is_head { TASK_HEAD } else { 0 },
            lane_epoch: 0,
        };
        if self.policy.recycle_tasks {
            if let Some(tid) = self.free_tasks.pop() {
                self.tasks.entries[tid] = TaskEntry { meta, payload };
                return tid;
            }
        }
        let tid = self.tasks.len();
        self.tasks.entries.push(TaskEntry { meta, payload });
        tid
    }

    /// Returns `tid`'s slot to the free list (recycling mode only).
    /// Callers guarantee no queue entry, heap event, fan-in slot, or
    /// pending dispatch still names `tid`.
    #[inline]
    fn release_task(&mut self, tid: usize) {
        if self.policy.recycle_tasks {
            self.free_tasks.push(tid);
        }
    }

    /// Force-resets `device`'s execution state (fleet leave): the
    /// kernel-level version of [`Device::reset_lanes`]. In recycling
    /// mode the queued-but-never-dispatched tasks being discarded are
    /// marked cancelled+finished and their slots released — the queues
    /// were their only reference. Without recycling this is exactly
    /// `Device::reset_lanes`.
    pub fn reset_device_lanes(&mut self, di: usize) {
        if self.policy.recycle_tasks {
            while let Some(t) = self.devices[di].fifo_heads.pop_front() {
                self.tasks.cancel(t);
                self.tasks.mark_finished(t);
                self.free_tasks.push(t);
            }
            while let Some(t) = self.devices[di].fifo.pop_front() {
                self.tasks.cancel(t);
                self.tasks.mark_finished(t);
                self.free_tasks.push(t);
            }
        }
        self.devices[di].reset_lanes();
    }

    /// Sets (or overwrites, on re-dispatch) request `req`'s fan-in
    /// state, growing the table as needed.
    pub fn set_request(&mut self, req: usize, slot: RequestSlot) {
        if req >= self.requests.len() {
            self.requests.resize(req + 1, RequestSlot::default());
        }
        self.requests[req] = slot;
    }

    /// Dispatches one popped event to its handler.
    fn handle<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        now: u64,
        event: Event<X>,
        driver: &mut D,
    ) -> Result<(), D::Error> {
        self.now = now;
        match event {
            Event::Ready(tid) => {
                if !self.tasks.cancelled(tid) {
                    let di = self.tasks.device(tid);
                    if self.tasks.is_head(tid) {
                        self.devices[di].fifo_heads.push_back(tid);
                    } else {
                        self.devices[di].fifo.push_back(tid);
                    }
                    self.try_dispatch(di, now, driver)?;
                } else {
                    // Cancelled before it ever queued: this `Ready` was
                    // the task's only reference.
                    self.tasks.mark_finished(tid);
                    self.release_task(tid);
                }
            }
            Event::DeviceOpen(di) => {
                self.try_dispatch(di, now, driver)?;
                driver.device_opened(self, di, now)?;
            }
            Event::Done(tid) => self.finish_task(tid, true, now, driver)?,
            Event::BatchedDone(tid) => self.finish_task(tid, false, now, driver)?,
            Event::Custom(x) => driver.custom(self, x, now)?,
        }
        Ok(())
    }

    /// Processes the next event. Returns `Ok(false)` when the heap is
    /// empty (the machine is idle).
    ///
    /// # Errors
    ///
    /// Whatever a driver hook surfaces.
    pub fn step<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        driver: &mut D,
    ) -> Result<bool, D::Error> {
        let Some((key, event)) = self.queue.pop() else {
            return Ok(false);
        };
        self.handle((key >> 64) as u64, event, driver)?;
        Ok(true)
    }

    /// Processes every event with time ≤ `until_ns`, then stops (the
    /// pause half of pause/resume). Returns the number of events
    /// processed.
    ///
    /// # Errors
    ///
    /// Whatever a driver hook surfaces.
    pub fn run_until<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        driver: &mut D,
        until_ns: u64,
    ) -> Result<u64, D::Error> {
        let mut n = 0;
        while matches!(self.queue.peek_key(), Some(k) if (k >> 64) as u64 <= until_ns) {
            let Some((key, event)) = self.queue.pop() else {
                break;
            };
            self.handle((key >> 64) as u64, event, driver)?;
            n += 1;
        }
        Ok(n)
    }

    /// Drains the event heap (run to idle). Returns the number of
    /// events processed.
    ///
    /// # Errors
    ///
    /// Whatever a driver hook surfaces.
    pub fn run_until_idle<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        driver: &mut D,
    ) -> Result<u64, D::Error> {
        let mut n = 0;
        while let Some((key, event)) = self.queue.pop() {
            self.handle((key >> 64) as u64, event, driver)?;
            n += 1;
        }
        Ok(n)
    }

    /// The per-device lane scheduler: while a lane is free, pop the
    /// next non-cancelled task (heads first), absorb same-module queued
    /// work up to `policy.max_batch`, and let the driver fix the
    /// group's completion time.
    ///
    /// # Errors
    ///
    /// Whatever [`Driver::dispatched`] surfaces.
    #[inline]
    pub fn try_dispatch<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        di: usize,
        now: u64,
        driver: &mut D,
    ) -> Result<(), D::Error> {
        // Fast path: most calls find nothing to start (device closed,
        // lanes saturated, or queues empty) — bail before touching the
        // dispatch machinery so this inlines into the event handlers.
        {
            let d = &self.devices[di];
            if !d.active
                || now < d.open_at_ns
                || d.lanes_busy >= d.lanes_total
                || (d.fifo_heads.is_empty() && d.fifo.is_empty())
            {
                return Ok(());
            }
        }
        self.dispatch_loop(di, now, driver)
    }

    /// The heavy half of [`Kernel::try_dispatch`], entered only when a
    /// lane is free and work is queued.
    fn dispatch_loop<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        di: usize,
        now: u64,
        driver: &mut D,
    ) -> Result<(), D::Error> {
        if self.policy.max_batch.is_none() {
            // Singleton dispatches (no batching): no group buffer, one
            // `Done` per started task — the serve loop's hot path.
            loop {
                let tid = {
                    let d = &mut self.devices[di];
                    if now < d.open_at_ns || d.lanes_busy >= d.lanes_total {
                        return Ok(());
                    }
                    let mut next = None;
                    while let Some(t) = d.fifo_heads.pop_front().or_else(|| d.fifo.pop_front()) {
                        if !self.tasks.cancelled(t) {
                            next = Some(t);
                            break;
                        }
                        // A popped cancelled task leaves its last
                        // reference behind.
                        if self.policy.recycle_tasks {
                            self.tasks.mark_finished(t);
                            self.free_tasks.push(t);
                        }
                    }
                    let Some(tid) = next else {
                        return Ok(());
                    };
                    d.lanes_busy += 1;
                    self.tasks.set_lane_epoch(tid, d.lane_epoch);
                    tid
                };
                let end = driver.dispatched(self, di, &[tid], now)?;
                self.push(end, Event::Done(tid));
            }
        }
        loop {
            // Take the scratch buffer so the driver can borrow the
            // kernel mutably while reading the group slice.
            let mut group = std::mem::take(&mut self.scratch_group);
            group.clear();
            {
                let d = &mut self.devices[di];
                if now < d.open_at_ns || d.lanes_busy >= d.lanes_total {
                    self.scratch_group = group;
                    return Ok(());
                }
                // Next non-cancelled task, heads first.
                let mut next = None;
                while let Some(t) = d.fifo_heads.pop_front().or_else(|| d.fifo.pop_front()) {
                    if !self.tasks.cancelled(t) {
                        next = Some(t);
                        break;
                    }
                    if self.policy.recycle_tasks {
                        self.tasks.mark_finished(t);
                        self.free_tasks.push(t);
                    }
                }
                let Some(tid) = next else {
                    self.scratch_group = group;
                    return Ok(());
                };
                // Module-level batching: absorb queued runs of the same
                // module into this execution, up to the module's cap.
                group.push(tid);
                if let Some(global_cap) = self.policy.max_batch {
                    let cap = self
                        .module_batch_caps
                        .get(self.tasks.module(tid) as usize)
                        .copied()
                        .unwrap_or(global_cap);
                    while group.len() < cap {
                        let Some(&peek) = d.fifo.front() else { break };
                        if self.tasks.cancelled(peek)
                            || self.tasks.is_head(peek) != self.tasks.is_head(tid)
                            || self.tasks.module(peek) != self.tasks.module(tid)
                        {
                            break;
                        }
                        group.push(d.fifo.pop_front().expect("front exists"));
                    }
                }
                d.lanes_busy += 1;
                let epoch = d.lane_epoch;
                for &g in &group {
                    self.tasks.set_lane_epoch(g, epoch);
                }
            }
            let end = driver.dispatched(self, di, &group, now)?;
            // All batched members complete together; only the leader's
            // lane is occupied, and it frees once.
            for (i, &g) in group.iter().enumerate() {
                self.push(
                    end,
                    if i == 0 {
                        Event::Done(g)
                    } else {
                        Event::BatchedDone(g)
                    },
                );
            }
            self.scratch_group = group;
        }
    }

    /// Completion of task `tid`: lane accounting, then request fan-in
    /// bookkeeping (encoder → head readiness; head → request done), then
    /// another dispatch round on the freed device.
    fn finish_task<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        tid: usize,
        frees_lane: bool,
        now: u64,
        driver: &mut D,
    ) -> Result<(), D::Error> {
        let (di, req, is_head, lane_epoch, cancelled) = {
            let m = self.tasks.finish(tid);
            (
                m.device as usize,
                m.req as usize,
                m.flags & TASK_HEAD != 0,
                m.lane_epoch,
                m.flags & TASK_CANCELLED != 0,
            )
        };
        let lane_live = frees_lane && self.devices[di].lane_epoch == lane_epoch;
        if lane_live {
            self.devices[di].lanes_busy = self.devices[di].lanes_busy.saturating_sub(1);
        }
        driver.task_finished(self, tid, now, lane_live)?;
        if cancelled {
            self.try_dispatch(di, now, driver)?;
            self.release_task(tid);
            return Ok(());
        }
        if is_head {
            driver.head_done(self, req, now)?;
        } else {
            let contrib = driver.encoder_ready_ns(self, tid, now)?;
            let slot = &mut self.requests[req];
            slot.head_ready_ns = slot.head_ready_ns.max(contrib);
            slot.pending_encoders -= 1;
            if slot.pending_encoders == 0 {
                let (head_task, at) = (slot.head_task, slot.head_ready_ns);
                if self.policy.immediate_head_fire && at <= now {
                    // Enqueue directly so the head wins the lane this
                    // encoder just freed, ahead of later requests'
                    // queued work.
                    let hdi = self.tasks.device(head_task);
                    self.devices[hdi].fifo_heads.push_back(head_task);
                    if hdi != di {
                        self.try_dispatch(hdi, now, driver)?;
                    }
                } else {
                    self.push(at.max(now), Event::Ready(head_task));
                }
            }
        }
        self.try_dispatch(di, now, driver)?;
        // The completion event just consumed was this task's last
        // kernel-side reference: it is out of every queue, holds no
        // lane, and its request's fan-in no longer needs it.
        self.release_task(tid);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A driver with unit-duration tasks that logs completions.
    struct Fixed {
        dur_ns: u64,
        done: Vec<(usize, u64)>,
        heads: Vec<(usize, u64)>,
    }

    impl Driver for Fixed {
        type Custom = u32;
        type Payload = ();
        type Error = std::convert::Infallible;

        fn dispatched(
            &mut self,
            _k: &mut Kernel<u32, ()>,
            _device: usize,
            _group: &[usize],
            now: u64,
        ) -> Result<u64, Self::Error> {
            Ok(now + self.dur_ns)
        }

        fn task_finished(
            &mut self,
            _k: &mut Kernel<u32, ()>,
            tid: usize,
            now: u64,
            _lane_live: bool,
        ) -> Result<(), Self::Error> {
            self.done.push((tid, now));
            Ok(())
        }

        fn encoder_ready_ns(
            &mut self,
            _k: &mut Kernel<u32, ()>,
            _tid: usize,
            now: u64,
        ) -> Result<u64, Self::Error> {
            Ok(now)
        }

        fn head_done(
            &mut self,
            _k: &mut Kernel<u32, ()>,
            req: usize,
            now: u64,
        ) -> Result<(), Self::Error> {
            self.heads.push((req, now));
            Ok(())
        }
    }

    fn fixed(dur_ns: u64) -> Fixed {
        Fixed {
            dur_ns,
            done: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// One device, one request with two encoders and a head.
    fn seed_fanout(k: &mut Kernel<u32, ()>) {
        let head = k.spawn_task(0, 2, 0, true, ());
        let e0 = k.spawn_task(0, 0, 0, false, ());
        let e1 = k.spawn_task(0, 1, 0, false, ());
        k.set_request(
            0,
            RequestSlot {
                pending_encoders: 2,
                head_ready_ns: 0,
                head_task: head,
            },
        );
        k.push_ready(0, e0);
        k.push_ready(0, e1);
    }

    #[test]
    fn head_fires_after_last_encoder_single_lane() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let mut d = fixed(10);
        seed_fanout(&mut k);
        let n = k.run_until_idle(&mut d).unwrap();
        assert!(n >= 3);
        // Serial encoders at t=10, 20; head completes at t=30.
        assert_eq!(d.heads, vec![(0, 30)]);
        assert_eq!(k.pending_events(), 0);
    }

    #[test]
    fn immediate_head_fire_wins_the_freed_lane() {
        for immediate in [false, true] {
            let mut k: Kernel<u32, ()> = Kernel::new(
                vec![Device::new(1, 0)],
                Policy {
                    immediate_head_fire: immediate,
                    max_batch: None,
                    recycle_tasks: false,
                    scheduler: Scheduler::Auto,
                },
            );
            let mut d = fixed(10);
            seed_fanout(&mut k);
            // A competing encoder of request 1 queued behind request 0's
            // work; the head beats it in both modes (head priority), so
            // completion times agree — the modes differ only in event
            // scheduling, which this asserts stays consistent.
            let other = k.spawn_task(1, 7, 0, false, ());
            k.set_request(
                1,
                RequestSlot {
                    // Two pending with one spawned: the fan-in never
                    // reaches zero, so no head ever fires for it.
                    pending_encoders: 2,
                    head_ready_ns: 0,
                    head_task: usize::MAX,
                },
            );
            k.push_ready(5, other);
            k.run_until_idle(&mut d).unwrap();
            // Immediate mode: the head jumps straight onto the head
            // queue when the last encoder frees the lane at t=20, so it
            // beats the competing encoder (head done at 30). Event
            // mode: the `Ready` fires at t=20 *after* the freed lane
            // was handed to the waiting encoder, so the head queues
            // behind it (done at 40).
            let expected = if immediate { 30 } else { 40 };
            assert_eq!(d.heads, vec![(0, expected)], "immediate={immediate}");
        }
    }

    #[test]
    fn run_until_pauses_and_resume_matches_uninterrupted() {
        let run = |pause_at: Option<u64>| {
            let mut k: Kernel<u32, ()> = Kernel::new(
                vec![Device::new(2, 0), Device::new(1, 5)],
                Policy::default(),
            );
            let mut d = fixed(7);
            // Two requests fanning over both devices.
            for req in 0..2 {
                let head = k.spawn_task(req, 9, 0, true, ());
                let enc = k.spawn_task(req, req as u32, 1, false, ());
                k.set_request(
                    req,
                    RequestSlot {
                        pending_encoders: 1,
                        head_ready_ns: 0,
                        head_task: head,
                    },
                );
                k.push_ready(req as u64 * 3, enc);
            }
            k.push_device_open(5, 1);
            if let Some(t) = pause_at {
                k.run_until(&mut d, t).unwrap();
                // Paused: the kernel holds state; resuming drains it.
            }
            k.run_until_idle(&mut d).unwrap();
            (d.done, d.heads)
        };
        let uninterrupted = run(None);
        for pause in [0, 4, 7, 11, 100] {
            assert_eq!(run(Some(pause)), uninterrupted, "pause at {pause}");
        }
    }

    #[test]
    fn cancelled_tasks_skip_dispatch_and_request_bookkeeping() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let mut d = fixed(10);
        seed_fanout(&mut k);
        // Cancel one queued encoder before it runs: the head must never
        // fire (pending_encoders stays at 1).
        k.tasks.cancel(2);
        k.run_until_idle(&mut d).unwrap();
        assert!(d.heads.is_empty());
        assert_eq!(k.requests[0].pending_encoders, 1);
    }

    #[test]
    fn lane_epoch_guards_stale_completions() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let mut d = fixed(10);
        let t = k.spawn_task(0, 0, 0, false, ());
        k.set_request(
            0,
            RequestSlot {
                pending_encoders: 1,
                head_ready_ns: 0,
                head_task: usize::MAX,
            },
        );
        k.push_ready(0, t);
        // Dispatch it, then force-reset the device before completion.
        k.step(&mut d).unwrap();
        assert_eq!(k.devices[0].lanes_busy, 1);
        k.devices[0].reset_lanes();
        k.tasks.cancel(t);
        k.run_until_idle(&mut d).unwrap();
        // The stale completion neither underflows the counter nor
        // revives the lane.
        assert_eq!(k.devices[0].lanes_busy, 0);
        assert_eq!(k.devices[0].lane_epoch, 1);
    }

    #[test]
    fn event_heap_pops_in_key_order() {
        let mut h: KeyHeap<Event<u32>> = KeyHeap::with_capacity(0);
        // Keys deliberately pushed out of order, with same-time entries
        // distinguished only by sequence (low 64 bits).
        let keys: [(u64, u64); 7] = [(5, 2), (1, 9), (5, 1), (0, 3), (9, 4), (1, 8), (0, 7)];
        for &(t, s) in &keys {
            h.push(((t as u128) << 64) | s as u128, Event::Ready(s as usize));
        }
        let mut sorted: Vec<(u64, u64)> = keys.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (k, ev) = h.pop().unwrap();
            assert_eq!(((k >> 64) as u64, k as u64), want);
            assert_eq!(ev, Event::Ready(want.1 as usize));
        }
        assert!(h.pop().is_none());
        assert_eq!(h.len(), 0);
    }

    /// Four same-module tasks queued at a 1-lane device that opens at
    /// t=5, under a given per-module cap table; returns completion times.
    fn run_capped(module: u32, caps: Vec<usize>) -> Vec<u64> {
        let mut k: Kernel<u32, ()> = Kernel::new(
            vec![Device::new(1, 5)],
            Policy {
                immediate_head_fire: false,
                max_batch: Some(4),
                recycle_tasks: false,
                scheduler: Scheduler::Auto,
            },
        );
        k.module_batch_caps = caps;
        let mut d = fixed(10);
        for req in 0..4 {
            let t = k.spawn_task(req, module, 0, false, ());
            k.set_request(
                req,
                RequestSlot {
                    pending_encoders: 2,
                    head_ready_ns: 0,
                    head_task: usize::MAX,
                },
            );
            k.push_ready(0, t);
        }
        k.push_device_open(5, 0);
        k.run_until_idle(&mut d).unwrap();
        d.done.iter().map(|&(_, at)| at).collect()
    }

    #[test]
    fn per_module_caps_override_the_global_batch_bound() {
        // Cap table [2, 1] under a global cap of 4: module 0 batches in
        // pairs, module 1 serializes, and a module beyond the table
        // falls back to the global cap (all four merge).
        assert_eq!(run_capped(0, vec![2, 1]), vec![15, 15, 25, 25]);
        assert_eq!(run_capped(1, vec![2, 1]), vec![15, 25, 35, 45]);
        assert_eq!(run_capped(7, vec![2, 1]), vec![15, 15, 15, 15]);
        // An empty table means the global cap for everything.
        assert_eq!(run_capped(0, vec![]), vec![15, 15, 15, 15]);
    }

    #[test]
    fn batching_groups_same_module_followers() {
        // The device opens at t=5, so all three same-module tasks are
        // queued when the first dispatch happens and merge into one run.
        let mut k: Kernel<u32, ()> = Kernel::new(
            vec![Device::new(1, 5)],
            Policy {
                immediate_head_fire: false,
                max_batch: Some(4),
                recycle_tasks: false,
                scheduler: Scheduler::Auto,
            },
        );
        let mut d = fixed(10);
        for req in 0..3 {
            let t = k.spawn_task(req, 42, 0, false, ());
            k.set_request(
                req,
                RequestSlot {
                    // Never reaches zero: no head fan-in in this test.
                    pending_encoders: 2,
                    head_ready_ns: 0,
                    head_task: usize::MAX,
                },
            );
            k.push_ready(0, t);
        }
        k.push_device_open(5, 0);
        k.run_until_idle(&mut d).unwrap();
        // All three completed together at t=15: one leader + two
        // batched followers sharing its lane.
        assert_eq!(d.done.iter().filter(|&&(_, at)| at == 15).count(), 3);
    }

    #[test]
    fn recycling_reuses_slots_and_matches_append_only_timing() {
        // Serial single-lane fan-outs: with recycling the table stays at
        // the in-flight high-water (one request's 3 tasks) no matter how
        // many requests run, and completion times match the append-only
        // kernel exactly.
        let run = |recycle: bool| {
            let mut k: Kernel<u32, ()> = Kernel::new(
                vec![Device::new(1, 0)],
                Policy {
                    immediate_head_fire: false,
                    max_batch: None,
                    recycle_tasks: recycle,
                    scheduler: Scheduler::Auto,
                },
            );
            let mut d = fixed(10);
            for req in 0..8 {
                // Space the fan-outs so each completes before the next
                // spawns (spawn at t=req*100 via manual stepping).
                let head = k.spawn_task(req, 2, 0, true, ());
                let e0 = k.spawn_task(req, 0, 0, false, ());
                let e1 = k.spawn_task(req, 1, 0, false, ());
                k.set_request(
                    req,
                    RequestSlot {
                        pending_encoders: 2,
                        head_ready_ns: 0,
                        head_task: head,
                    },
                );
                let at = req as u64 * 100;
                k.push_ready(at, e0);
                k.push_ready(at, e1);
                k.run_until(&mut d, at + 99).unwrap();
            }
            k.run_until_idle(&mut d).unwrap();
            (d.heads, k.tasks.len(), k.live_tasks())
        };
        let (heads_a, table_a, live_a) = run(false);
        let (heads_r, table_r, live_r) = run(true);
        assert_eq!(heads_a, heads_r, "recycling never changes timing");
        assert_eq!(heads_r.len(), 8);
        assert_eq!(table_a, 24, "append-only grows with every spawn");
        assert_eq!(table_r, 3, "recycled table stays at in-flight peak");
        assert_eq!((live_a, live_r), (24, 0));
    }

    #[test]
    fn reset_device_lanes_releases_queued_tasks_when_recycling() {
        let mut k: Kernel<u32, ()> = Kernel::new(
            vec![Device::new(1, 0)],
            Policy {
                immediate_head_fire: false,
                max_batch: None,
                recycle_tasks: true,
                scheduler: Scheduler::Auto,
            },
        );
        let mut d = fixed(10);
        // Three encoders: one dispatches, two queue behind it.
        for req in 0..3 {
            let t = k.spawn_task(req, 0, 0, false, ());
            k.set_request(
                req,
                RequestSlot {
                    pending_encoders: 2,
                    head_ready_ns: 0,
                    head_task: usize::MAX,
                },
            );
            k.push_ready(0, t);
        }
        // Process the three Ready events (first one dispatches).
        k.run_until(&mut d, 0).unwrap();
        assert_eq!(k.devices[0].lanes_busy, 1);
        assert_eq!(k.devices[0].fifo.len(), 2);
        k.reset_device_lanes(0);
        // Queued tasks released immediately; the running one only when
        // its (stale) completion fires.
        assert_eq!(k.live_tasks(), 1);
        k.tasks.cancel(0);
        k.run_until_idle(&mut d).unwrap();
        assert_eq!(k.live_tasks(), 0);
        assert_eq!(k.devices[0].lanes_busy, 0);
    }
    /// An `Auto` queue runs as a heap while small and spills into the
    /// timing wheel — preserving exact pop order — once the pending
    /// set crosses [`WHEEL_SPILL_LEN`].
    #[test]
    fn adaptive_queue_spills_to_wheel_in_order() {
        let mut q: EventQueue<()> = EventQueue::for_policy(&Policy::default(), 16);
        assert!(matches!(q, EventQueue::Adaptive(_)));
        // A deterministic scatter of times, including duplicates.
        let n = WHEEL_SPILL_LEN + 500;
        let mut keys: Vec<u128> = Vec::with_capacity(n);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for seq in 0..n as u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x >> 20; // ~44-bit times: spans several wheel levels
            keys.push(((t as u128) << 64) | u128::from(seq));
        }
        for &k in &keys {
            q.push(k, Event::Ready(0));
        }
        assert!(
            matches!(q, EventQueue::Wheel(_)),
            "queue should have spilled past {WHEEL_SPILL_LEN} pending"
        );
        keys.sort_unstable();
        for &expect in &keys {
            assert_eq!(q.peek_key(), Some(expect));
            assert_eq!(q.pop().map(|(k, _)| k), Some(expect));
        }
        assert_eq!(q.pop().map(|(k, _)| k), None);
    }
}
