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
//! [`Kernel::run_until`] processes events up to a virtual-time bound and
//! stops, and [`Kernel::run_until_idle`] drains the heap. Stopping after
//! any event and resuming later is indistinguishable from an
//! uninterrupted run — the property `s2m3-serve` pins with its
//! pause/resume proptest.

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
///
/// Equal to `(t * 1e9).round() as u64` for every `f64` — the saturating
/// cast truncates and `x - whole` is exact, so halves round up — but
/// without a call to libm's `round`, which x86-64 without SSE4.1 cannot
/// inline.
#[inline]
pub fn ns(t: f64) -> u64 {
    let x = t * NS_PER_S;
    let whole = x as u64;
    whole.saturating_add((x - whole as f64 >= 0.5) as u64)
}

/// The nanosecond clock back to seconds.
#[inline]
pub fn secs(t: u64) -> f64 {
    t as f64 / NS_PER_S
}

/// `n` as one of the kernel's `u32` indices — a request, device or task
/// id. Past `u32::MAX` it panics, naming the limit, instead of wrapping
/// onto another index.
#[inline]
pub(crate) fn narrow(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "{what} {n} exceeds the kernel's u32 index limit ({})",
            u32::MAX
        )
    })
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

/// The kernel-facing half of a task, 20 bytes: everything the shared
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
    lane_epoch: u32,
}

/// The task table: one row per task, its 20-byte scheduling metadata
/// next to the driver's payload — durations, transfer times, whatever
/// the timing hooks need (the serve driver's 24 bytes, a 48-byte row),
/// or the `u32` index of a shared timing row (the bounded driver's
/// 24-byte row).
///
/// Dispatch, cancellation scans and fan-in bookkeeping read only the
/// metadata; a payload is only loaded inside the driver hook that
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
    pub(crate) fn is_head(&self, tid: usize) -> bool {
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
    fn set_lane_epoch(&mut self, tid: usize, epoch: u32) {
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
    pub lane_epoch: u32,
    /// The device cannot start new tasks before this time (model
    /// loading, migration downtime), nanoseconds.
    pub open_at_ns: u64,
    /// Head tasks awaiting a lane (dispatched before `fifo`).
    pub fifo_heads: VecDeque<u32>,
    /// Encoder tasks awaiting a lane.
    pub fifo: VecDeque<u32>,
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
    ///
    /// # Panics
    ///
    /// On a reset past the `u32` epoch limit, rather than wrapping onto
    /// an epoch that in-flight tasks may still carry.
    pub fn reset_lanes(&mut self) {
        self.fifo_heads.clear();
        self.fifo.clear();
        self.lanes_busy = 0;
        self.lane_epoch = self.lane_epoch.checked_add(1).unwrap_or_else(|| {
            panic!(
                "lane epoch exceeds its u32 limit ({}): too many lane resets",
                u32::MAX
            )
        });
    }
}

/// Per-request fan-in state: how many encoders are still running and
/// when the head may start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestSlot {
    /// Encoder tasks of the current attempt still outstanding.
    pub pending_encoders: usize,
    /// Earliest head start: max over encoder-completion + output
    /// transfer and the raw-query arrival, nanoseconds.
    pub head_ready_ns: u64,
    /// Task id of the request's head execution; `usize::MAX` for a
    /// request whose head never fires.
    pub head_task: usize,
}

/// A [`RequestSlot`] as the kernel stores it, 16 bytes: the counts and
/// ids narrowed to `u32`, like the task table's. `head_task` keeps
/// `usize::MAX` as `u32::MAX`, so a head task id of exactly `u32::MAX`
/// reads back as `usize::MAX` too — a table that large would hold
/// 4 billion rows.
#[derive(Debug, Clone, Copy, Default)]
struct Fanin {
    head_ready_ns: u64,
    head_task: u32,
    pending_encoders: u32,
}

impl Fanin {
    /// `slot`, narrowed.
    ///
    /// # Panics
    ///
    /// For a head task id (other than `usize::MAX`) or an encoder count
    /// past `u32::MAX`.
    fn new(slot: RequestSlot) -> Self {
        Fanin {
            head_ready_ns: slot.head_ready_ns,
            head_task: match slot.head_task {
                usize::MAX => u32::MAX,
                t => narrow(t, "head task"),
            },
            pending_encoders: narrow(slot.pending_encoders, "pending encoder count"),
        }
    }

    /// The head task id, widened back.
    #[inline]
    fn head_task(self) -> usize {
        match self.head_task {
            u32::MAX => usize::MAX,
            t => t as usize,
        }
    }
}

// The bounded run holds one task row per task and one fan-in slot per
// request for its whole clock: keep them at these sizes.
const _: () = {
    assert!(std::mem::size_of::<TaskEntry<u32>>() == 24);
    assert!(std::mem::size_of::<Fanin>() == 16);
};

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
///   synthetic kernel fanout at 2k pending events
///   (`sim.kernel.*.ns_per_event.p2k`) but consistently slower in the
///   serving loop — the product hot path — so small-heap behavior wins
///   the tie).
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
/// run at parity near 2k pending events (`sim.kernel.*.ns_per_event.p2k`);
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
    fn for_policy(policy: &Policy) -> Self {
        match policy.scheduler {
            Scheduler::Auto => EventQueue::Adaptive(KeyHeap::with_capacity(0)),
            Scheduler::Heap => EventQueue::Heap(KeyHeap::with_capacity(0)),
            Scheduler::Wheel => EventQueue::Wheel(wheel::TimingWheel::default()),
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
    /// Error surfaced out of [`Kernel::run_until`] and
    /// [`Kernel::run_until_idle`].
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
///
/// A caller that knows its arrivals before the clock starts may
/// [stage](Kernel::stage_ready) them instead of pushing them: staged
/// `Ready` events take the first sequence numbers and sit in a plain
/// vector, sorted once by time, that every pop merges with the queue —
/// the same `(time, seq)` order, without holding the whole arrival set
/// in the queue.
#[derive(Debug)]
pub struct Kernel<X, P> {
    queue: EventQueue<X>,
    seq: u64,
    /// Staged pre-clock `Ready` events as `(time_ns, staging index,
    /// task)`: 16 bytes, as `(u64, u32)` would be with its padding. The
    /// staging index is the event's sequence number less one.
    staged: Vec<(u64, u32, u32)>,
    /// Staged events already popped (the stream's cursor).
    staged_next: usize,
    /// Set by the first pop: the stream is sorted and takes no more.
    staged_sealed: bool,
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
    /// Per-request fan-in state, indexed by dense request id; read with
    /// [`Kernel::request`].
    requests: Vec<Fanin>,
}

impl<X, P> Kernel<X, P> {
    /// An empty kernel over `devices` under `policy`, whose task,
    /// request and event tables grow on demand — what the online
    /// driver uses, since its in-flight peak is unknown up front.
    pub fn new(devices: Vec<Device>, policy: Policy) -> Self {
        Self::with_capacity(devices, policy, 0, 0)
    }

    /// An empty kernel with task/request table capacity hints, for a
    /// caller that knows its exact task and request counts up front
    /// (the bounded `engine`, which registers a whole plan before the
    /// first event) and so skips the growth reallocations. The event
    /// queue gets no hint: it grows to the run's pending peak, which is
    /// small when the arrivals are [staged](Kernel::stage_ready).
    pub(crate) fn with_capacity(
        devices: Vec<Device>,
        policy: Policy,
        tasks_cap: usize,
        requests_cap: usize,
    ) -> Self {
        Kernel {
            queue: EventQueue::for_policy(&policy),
            seq: 0,
            staged: Vec::new(),
            staged_next: 0,
            staged_sealed: false,
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
    #[cfg(test)]
    pub(crate) fn live_tasks(&self) -> usize {
        self.tasks.len() - self.free_tasks.len()
    }

    /// Events still queued or staged.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.staged.len() - self.staged_next
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

    /// Stages task `tid` to become ready at `at` nanoseconds: the same
    /// event as [`Kernel::push_ready`], held outside the queue.
    ///
    /// Legal only before the first push and the first pop, so every
    /// staged event's sequence number precedes every queued one: a
    /// staged event wins an equal-time tie with a queued one, and staged
    /// events tie among themselves in staging order — exactly the order
    /// pushing them would give.
    ///
    /// # Panics
    ///
    /// After a push or a pop, or for a task id past `u32::MAX`.
    pub fn stage_ready(&mut self, at: u64, tid: usize) {
        assert!(
            !self.staged_sealed && self.seq == self.staged.len() as u64,
            "stage_ready after the first push or pop"
        );
        let order = narrow(self.staged.len(), "staged event");
        self.staged.push((at, order, narrow(tid, "task")));
        self.seq += 1;
    }

    /// Sorts the staged stream by time, ties in staging order, and
    /// closes it to further staging. Runs once, at the first pop. The
    /// keys are unique, so an in-place unstable sort gives the stable
    /// order without the temporary copy of the stream a stable sort
    /// allocates.
    #[cold]
    fn seal_staged(&mut self) {
        self.staged
            .sort_unstable_by_key(|&(at, order, _)| (at, order));
        self.staged_sealed = true;
    }

    /// Pops the next event due by `until_ns` with its time: the earlier
    /// of the staged stream's head and the queue's (an equal time goes to
    /// the staged one: its sequence number is lower). Every run method
    /// pops through here; the first pop seals the staged stream.
    #[inline(always)]
    fn pop_due(&mut self, until_ns: u64) -> Option<(u64, Event<X>)> {
        if !self.staged_sealed {
            self.seal_staged();
        }
        let queued = self.queue.peek_key().map(|k| (k >> 64) as u64);
        if let Some(&(at, _, tid)) = self.staged.get(self.staged_next) {
            if at <= until_ns && queued.is_none_or(|q| q >= at) {
                self.staged_next += 1;
                return Some((at, Event::Ready(tid as usize)));
            }
        }
        if queued? > until_ns {
            return None;
        }
        let (key, event) = self.queue.pop()?;
        Some(((key >> 64) as u64, event))
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
            req: narrow(req, "request"),
            module,
            device: narrow(device, "device"),
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
        // Device queues and the staged stream hold task ids as `u32`.
        narrow(tid, "task");
        self.tasks.entries.push(TaskEntry { meta, payload });
        tid
    }

    /// Retires dead task `tid`: marks it finished and, in recycling mode,
    /// returns its slot to the free list. Callers guarantee no queue
    /// entry, heap event, fan-in slot, or pending dispatch still names
    /// `tid`.
    #[inline]
    fn retire(&mut self, tid: usize) {
        self.tasks.mark_finished(tid);
        if self.policy.recycle_tasks {
            self.free_tasks.push(tid);
        }
    }

    /// Pops `di`'s next queued task, heads first.
    #[inline(always)]
    fn pop_queued(&mut self, di: usize) -> Option<usize> {
        let d = &mut self.devices[di];
        let t = d.fifo_heads.pop_front().or_else(|| d.fifo.pop_front())?;
        Some(t as usize)
    }

    /// Force-resets `device`'s execution state (fleet leave): the
    /// kernel-level version of [`Device::reset_lanes`]. The queued but
    /// never-dispatched tasks it discards come out cancelled and retired
    /// — the queues were their only reference.
    pub fn reset_device_lanes(&mut self, di: usize) {
        while let Some(t) = self.pop_queued(di) {
            self.tasks.cancel(t);
            self.retire(t);
        }
        self.devices[di].reset_lanes();
    }

    /// Sets (or overwrites, on re-dispatch) request `req`'s fan-in
    /// state, growing the table as needed.
    ///
    /// # Panics
    ///
    /// For a head task id (other than `usize::MAX`, "no head") or an
    /// encoder count past `u32::MAX`.
    pub fn set_request(&mut self, req: usize, slot: RequestSlot) {
        if req >= self.requests.len() {
            self.requests.resize(req + 1, Fanin::default());
        }
        self.requests[req] = Fanin::new(slot);
    }

    /// Request `req`'s fan-in state: as last set, with the encoder
    /// completions since folded in (fewer pending, a later head ready
    /// time).
    #[inline]
    pub(crate) fn request(&self, req: usize) -> RequestSlot {
        let f = self.requests[req];
        RequestSlot {
            pending_encoders: f.pending_encoders as usize,
            head_ready_ns: f.head_ready_ns,
            head_task: f.head_task(),
        }
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
                    let t = narrow(tid, "task");
                    if self.tasks.is_head(tid) {
                        self.devices[di].fifo_heads.push_back(t);
                    } else {
                        self.devices[di].fifo.push_back(t);
                    }
                    self.try_dispatch(di, now, driver)?;
                } else {
                    // Cancelled before it ever queued: this `Ready` was
                    // the task's only reference.
                    self.retire(tid);
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
        while let Some((at, event)) = self.pop_due(until_ns) {
            self.handle(at, event, driver)?;
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
        self.run_until(driver, u64::MAX)
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

    /// Starts `di`'s next live task, heads first, on a free lane: `None`
    /// when the device is closed, every lane is busy, or no live task is
    /// queued. A cancelled task popped on the way is retired — the queue
    /// held its last reference.
    #[inline(always)]
    fn take_lane(&mut self, di: usize, now: u64) -> Option<usize> {
        let d = &self.devices[di];
        if now < d.open_at_ns || d.lanes_busy >= d.lanes_total {
            return None;
        }
        loop {
            let tid = self.pop_queued(di)?;
            if self.tasks.cancelled(tid) {
                self.retire(tid);
                continue;
            }
            let d = &mut self.devices[di];
            d.lanes_busy += 1;
            self.tasks.set_lane_epoch(tid, d.lane_epoch);
            return Some(tid);
        }
    }

    /// The heavy half of [`Kernel::try_dispatch`], entered only when a
    /// lane is free and work is queued.
    fn dispatch_loop<D: Driver<Custom = X, Payload = P>>(
        &mut self,
        di: usize,
        now: u64,
        driver: &mut D,
    ) -> Result<(), D::Error> {
        let Some(global_cap) = self.policy.max_batch else {
            // Singleton dispatches (no batching): no group buffer, one
            // `Done` per started task — the serve loop's hot path. Folding
            // this into the batched loop at cap 1 measured ~7% slower on
            // the serve loop.
            while let Some(tid) = self.take_lane(di, now) {
                let end = driver.dispatched(self, di, &[tid], now)?;
                self.push(end, Event::Done(tid));
            }
            return Ok(());
        };
        while let Some(tid) = self.take_lane(di, now) {
            // Take the scratch buffer so the driver can borrow the
            // kernel mutably while reading the group slice.
            let mut group = std::mem::take(&mut self.scratch_group);
            group.clear();
            group.push(tid);
            // Module-level batching: absorb queued runs of the same
            // module into this execution, up to the module's cap; the
            // followers share the leader's lane.
            let cap = self
                .module_batch_caps
                .get(self.tasks.module(tid) as usize)
                .copied()
                .unwrap_or(global_cap);
            let d = &mut self.devices[di];
            while group.len() < cap {
                let Some(&peek) = d.fifo.front() else { break };
                let peek = peek as usize;
                if self.tasks.cancelled(peek)
                    || self.tasks.is_head(peek) != self.tasks.is_head(tid)
                    || self.tasks.module(peek) != self.tasks.module(tid)
                {
                    break;
                }
                d.fifo.pop_front();
                self.tasks.set_lane_epoch(peek, d.lane_epoch);
                group.push(peek);
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
        Ok(())
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
        // A cancelled task touches no request bookkeeping.
        if !cancelled {
            if is_head {
                driver.head_done(self, req, now)?;
            } else {
                let contrib = driver.encoder_ready_ns(self, tid, now)?;
                let slot = &mut self.requests[req];
                slot.head_ready_ns = slot.head_ready_ns.max(contrib);
                slot.pending_encoders -= 1;
                if slot.pending_encoders == 0 {
                    let (head_task, at) = (slot.head_task(), slot.head_ready_ns);
                    if self.policy.immediate_head_fire && at <= now {
                        // Enqueue directly so the head wins the lane this
                        // encoder just freed, ahead of later requests'
                        // queued work.
                        let hdi = self.tasks.device(head_task);
                        self.devices[hdi]
                            .fifo_heads
                            .push_back(narrow(head_task, "task"));
                        if hdi != di {
                            self.try_dispatch(hdi, now, driver)?;
                        }
                    } else {
                        self.push(at.max(now), Event::Ready(head_task));
                    }
                }
            }
        }
        self.try_dispatch(di, now, driver)?;
        // The completion event just consumed was this task's last
        // kernel-side reference: it is out of every queue, holds no
        // lane, and its request's fan-in no longer needs it.
        self.retire(tid);
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

    /// `(task or request, time)` pairs in the order a run logged them.
    type Log = Vec<(usize, u64)>;

    /// Two requests fanning over a two-lane device and a single-lane one
    /// that opens at t=5, their encoders made ready by `ready`; runs to
    /// idle, pausing first at `pause_at`. Returns the task completions and
    /// the head completions.
    fn run_two_fanouts(
        ready: fn(&mut Kernel<u32, ()>, u64, usize),
        pause_at: Option<u64>,
    ) -> (Log, Log) {
        let mut k: Kernel<u32, ()> = Kernel::new(
            vec![Device::new(2, 0), Device::new(1, 5)],
            Policy::default(),
        );
        let mut d = fixed(7);
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
            ready(&mut k, req as u64 * 3, enc);
        }
        k.push_device_open(5, 1);
        if let Some(t) = pause_at {
            k.run_until(&mut d, t).unwrap();
            // Paused: the kernel holds state; resuming drains it.
        }
        k.run_until_idle(&mut d).unwrap();
        (d.done, d.heads)
    }

    #[test]
    fn run_until_pauses_and_resume_matches_uninterrupted() {
        let uninterrupted = run_two_fanouts(Kernel::push_ready, None);
        for pause in [0, 4, 7, 11, 100] {
            assert_eq!(
                run_two_fanouts(Kernel::push_ready, Some(pause)),
                uninterrupted,
                "pause at {pause}"
            );
        }
    }

    #[test]
    fn staged_arrivals_pause_and_resume_like_pushed_ones() {
        let pushed = run_two_fanouts(Kernel::push_ready, None);
        for pause in [None, Some(0), Some(3), Some(5), Some(12), Some(100)] {
            assert_eq!(
                run_two_fanouts(Kernel::stage_ready, pause),
                pushed,
                "pause at {pause:?}"
            );
        }
    }

    #[test]
    fn pending_events_counts_staged_events() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let mut d = fixed(10);
        let head = k.spawn_task(0, 2, 0, true, ());
        k.set_request(
            0,
            RequestSlot {
                pending_encoders: 2,
                head_ready_ns: 0,
                head_task: head,
            },
        );
        // Staged out of time order: the stream sorts itself at the first
        // pop.
        for at in [20, 0] {
            let e = k.spawn_task(0, 0, 0, false, ());
            k.stage_ready(at, e);
        }
        k.push_device_open(5, 0);
        assert_eq!(k.pending_events(), 3);
        // The t=0 arrival: it dispatches at once and queues its `Done`.
        assert_eq!(k.run_until(&mut d, 0).unwrap(), 1);
        assert_eq!(k.now(), 0);
        assert_eq!(k.pending_events(), 3);
        k.run_until(&mut d, 15).unwrap();
        // Left: the t=20 arrival, staged.
        assert_eq!(k.pending_events(), 1);
        k.run_until_idle(&mut d).unwrap();
        assert_eq!(k.pending_events(), 0);
        assert_eq!(d.heads, vec![(0, 40)]);
    }

    #[test]
    #[should_panic(expected = "stage_ready after the first push or pop")]
    fn staging_after_a_push_panics() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let t = k.spawn_task(0, 0, 0, false, ());
        k.push_device_open(0, 0);
        k.stage_ready(0, t);
    }

    #[test]
    #[should_panic(
        expected = "request 4294967296 exceeds the kernel's u32 index limit (4294967295)"
    )]
    fn spawn_task_rejects_a_request_past_u32() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        k.spawn_task(1 << 32, 0, 0, false, ());
    }

    #[test]
    fn a_fan_in_slot_reads_back_as_set() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        for (req, head_task) in [(0, 0), (3, 7), (4, u32::MAX as usize - 1), (9, usize::MAX)] {
            let slot = RequestSlot {
                pending_encoders: req + 2,
                head_ready_ns: u64::MAX - req as u64,
                head_task,
            };
            k.set_request(req, slot);
            assert_eq!(k.request(req), slot);
        }
        // The slots grown past, never set, read as the default.
        assert_eq!(k.request(1), RequestSlot::default());
    }

    #[test]
    #[should_panic(
        expected = "head task 4294967296 exceeds the kernel's u32 index limit (4294967295)"
    )]
    fn set_request_rejects_a_head_task_past_u32() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        k.set_request(
            0,
            RequestSlot {
                pending_encoders: 1,
                head_ready_ns: 0,
                head_task: 1 << 32,
            },
        );
    }

    #[test]
    #[should_panic(expected = "lane epoch exceeds its u32 limit (4294967295)")]
    fn a_lane_reset_past_the_u32_epoch_panics() {
        let mut d = Device::new(1, 0);
        d.lane_epoch = u32::MAX - 1;
        d.reset_lanes();
        assert_eq!(d.lane_epoch, u32::MAX);
        d.reset_lanes();
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
        assert_eq!(k.request(0).pending_encoders, 1);
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
        assert_eq!(k.run_until(&mut d, 0).unwrap(), 1);
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

    #[test]
    fn reset_device_lanes_retires_queued_tasks_without_recycling() {
        let mut k: Kernel<u32, ()> = Kernel::new(vec![Device::new(1, 0)], Policy::default());
        let mut d = fixed(10);
        // A head and two encoders: one encoder dispatches, the other
        // queues behind it, and the head is queued directly.
        let head = k.spawn_task(0, 2, 0, true, ());
        k.set_request(
            0,
            RequestSlot {
                pending_encoders: 2,
                head_ready_ns: 0,
                head_task: head,
            },
        );
        let [running, queued] = [0, 1].map(|module| {
            let t = k.spawn_task(0, module, 0, false, ());
            k.push_ready(0, t);
            t
        });
        k.run_until(&mut d, 0).unwrap();
        k.devices[0].fifo_heads.push_back(head as u32);
        assert_eq!(k.devices[0].fifo, [queued as u32]);
        k.reset_device_lanes(0);
        for t in [head, queued] {
            assert!(k.tasks.cancelled(t) && k.tasks.finished(t), "task {t}");
        }
        assert!(!k.tasks.cancelled(running) && !k.tasks.finished(running));
        assert!(k.devices[0].fifo_heads.is_empty() && k.devices[0].fifo.is_empty());
        // Append-only: no slot is released, so the table keeps every row.
        assert_eq!((k.tasks.len(), k.live_tasks()), (3, 3));
        assert_eq!(k.devices[0].lanes_busy, 0);
    }
    /// An `Auto` queue runs as a heap while small and spills into the
    /// timing wheel — preserving exact pop order — once the pending
    /// set crosses [`WHEEL_SPILL_LEN`].
    #[test]
    fn adaptive_queue_spills_to_wheel_in_order() {
        let mut q: EventQueue<()> = EventQueue::for_policy(&Policy::default());
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
