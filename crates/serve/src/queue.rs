//! Per-device admission queues: policy-ordered waiting rooms between
//! request arrival and dispatch into the execution engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::{AdmissionPolicy, ValidScenario};

/// A queued request: everything the dispatcher needs to order it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Request id: the request's arrival sequence number. Unique and
    /// monotone in arrival order, so it stays the ordering tie-breaker
    /// regardless of how driver-side storage numbers its slots.
    pub id: u64,
    /// Packed [`ReqHandle`](crate::slab::ReqHandle) of the request's
    /// driver-side slot. Never participates in ordering (ids already
    /// total-order the keys); carried so dispatch is an O(1) slab
    /// lookup.
    pub handle: u64,
    /// Arrival time, nanoseconds of virtual time.
    pub arrival_ns: u64,
    /// SLO deadline, nanoseconds of virtual time.
    pub deadline_ns: u64,
    /// Deadline-class priority (larger dispatches first under EDF);
    /// class-free workloads leave every request at 0, reproducing the
    /// pure deadline order byte-for-byte.
    pub priority: u32,
}

/// What happened when a request was offered to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request is waiting in the queue.
    Queued,
    /// The request was rejected by shed-on-overload.
    Shed,
}

/// EDF heap key: `(inverted priority, deadline_ns, arrival_ns, id,
/// packed slab handle)`. The handle trails the (unique) id, so it
/// never affects the order.
type EdfKey = (u32, u64, u64, u64, u64);

/// The request an EDF heap key was built from.
fn from_key((inv_priority, deadline_ns, arrival_ns, id, handle): EdfKey) -> QueuedRequest {
    QueuedRequest {
        id,
        handle,
        arrival_ns,
        deadline_ns,
        priority: u32::MAX - inv_priority,
    }
}

/// One device's admission queue.
///
/// FIFO and shed-on-overload use arrival order (a `VecDeque`);
/// earliest-deadline-first always dispatches the waiting request with
/// the highest priority class, nearest deadline first within a class,
/// and keeps a `BinaryHeap` keyed on
/// `(inverted priority, deadline_ns, arrival_ns, id)` — an `O(log n)`
/// pop with a total order (ids are unique), so reports stay
/// byte-identical per seed. Workloads without deadline classes put
/// every request at priority 0, collapsing the key to the historic
/// deadline → arrival → id order.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    policy: AdmissionPolicy,
    /// Arrival-ordered waiting room (FIFO / shed-on-overload).
    waiting: VecDeque<QueuedRequest>,
    /// Priority+deadline-ordered waiting room (EDF). The first key
    /// component is `u32::MAX - priority` so larger priorities pop
    /// first from the min-heap.
    by_deadline: BinaryHeap<Reverse<EdfKey>>,
}

impl AdmissionQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionQueue {
            policy,
            waiting: VecDeque::new(),
            by_deadline: BinaryHeap::new(),
        }
    }

    fn is_edf(&self) -> bool {
        matches!(self.policy, AdmissionPolicy::EarliestDeadlineFirst)
    }

    /// Offers a request; shed-on-overload may reject it.
    pub fn offer(&mut self, request: QueuedRequest) -> Admission {
        if let AdmissionPolicy::ShedOnOverload { max_queue } = self.policy {
            if self.waiting.len() >= max_queue {
                return Admission::Shed;
            }
        }
        if self.is_edf() {
            self.by_deadline.push(Reverse((
                u32::MAX - request.priority,
                request.deadline_ns,
                request.arrival_ns,
                request.id,
                request.handle,
            )));
        } else {
            self.waiting.push_back(request);
        }
        Admission::Queued
    }

    /// Removes and returns the next request to dispatch, per policy.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        if self.is_edf() {
            return self.by_deadline.pop().map(|Reverse(key)| from_key(key));
        }
        self.waiting.pop_front()
    }

    /// Requests currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.waiting.len() + self.by_deadline.len()
    }

    /// Whether nothing is waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every waiting request (used when a device leaves and its
    /// queue must be re-admitted elsewhere). Returned in arrival order
    /// (`(arrival_ns, id)`), the canonical re-admission order.
    pub(crate) fn drain(&mut self) -> Vec<QueuedRequest> {
        let mut out: Vec<QueuedRequest> = self.waiting.drain(..).collect();
        out.extend(self.by_deadline.drain().map(|Reverse(key)| from_key(key)));
        out.sort_by_key(|qr| (qr.arrival_ns, qr.id));
        out
    }
}

/// The online engine's admission stage: per device (by universe index)
/// an [`AdmissionQueue`] and its in-flight requests, under a shared cap.
pub(crate) struct Queues {
    queues: Vec<AdmissionQueue>,
    inflight: Vec<usize>,
    max_inflight: usize,
}

impl Queues {
    /// Empty queues for every device of a validated scenario's fleet.
    pub(crate) fn new(valid: &ValidScenario) -> Self {
        let n = valid.universe.devices().len();
        Queues {
            queues: vec![AdmissionQueue::new(valid.scenario.admission.clone()); n],
            inflight: vec![0; n],
            max_inflight: valid.scenario.max_inflight_per_device,
        }
    }

    /// Offers `request` to device `ui`'s queue.
    #[inline]
    pub(crate) fn offer(&mut self, ui: usize, request: QueuedRequest) -> Admission {
        self.queues[ui].offer(request)
    }

    /// The next request device `ui` may dispatch: none while its queue
    /// is empty, its slots are full or `active()` says it is out. The
    /// empty check comes first, so the common case asks nothing else.
    #[inline]
    pub(crate) fn pop_ready(
        &mut self,
        ui: usize,
        active: impl FnOnce() -> bool,
    ) -> Option<QueuedRequest> {
        let queue = &mut self.queues[ui];
        if queue.is_empty() || self.inflight[ui] >= self.max_inflight || !active() {
            return None;
        }
        queue.pop()
    }

    /// A request was dispatched with its head on `ui`: it holds a slot.
    #[inline]
    pub(crate) fn dispatched(&mut self, ui: usize) {
        self.inflight[ui] += 1;
    }

    /// A request holding a slot on `ui` finished or was cancelled.
    #[inline]
    pub(crate) fn release(&mut self, ui: usize) {
        debug_assert!(self.inflight[ui] > 0, "device {ui} holds no slot");
        self.inflight[ui] -= 1;
    }

    /// Device `ui` left: its waiting requests, in arrival order.
    pub(crate) fn leave(&mut self, ui: usize) -> Vec<QueuedRequest> {
        self.queues[ui].drain()
    }

    /// Empties the queues of the devices in `order`, each in arrival order.
    pub(crate) fn drain(&mut self, order: &[usize]) -> Vec<QueuedRequest> {
        let mut out = Vec::new();
        for &ui in order {
            out.extend(self.queues[ui].drain());
        }
        out
    }

    /// Empties every queue (visited in `order`) for re-keying: oldest
    /// arrival first, `(arrival_ns, id)`.
    pub(crate) fn drain_waiting(&mut self, order: &[usize]) -> Vec<QueuedRequest> {
        let mut waiting = self.drain(order);
        waiting.sort_by_key(|qr| (qr.arrival_ns, qr.id));
        waiting
    }

    /// Requests waiting across every queue.
    pub(crate) fn queued(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeScenario;

    fn req(id: u64, arrival_ns: u64, deadline_ns: u64) -> QueuedRequest {
        QueuedRequest {
            id,
            handle: id,
            arrival_ns,
            deadline_ns,
            priority: 0,
        }
    }

    #[test]
    fn edf_priority_classes_preempt_the_deadline_order() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::EarliestDeadlineFirst);
        q.offer(req(0, 0, 100)); // priority 0, earliest deadline
        q.offer(QueuedRequest {
            priority: 5,
            ..req(1, 1, 900)
        });
        q.offer(QueuedRequest {
            priority: 5,
            ..req(2, 2, 400)
        });
        // Higher class first; deadlines order within a class.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::Fifo);
        for i in 0..4 {
            assert_eq!(q.offer(req(i, i, 1000 - i)), Admission::Queued);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edf_orders_by_deadline_with_stable_ties() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::EarliestDeadlineFirst);
        q.offer(req(0, 0, 300));
        q.offer(req(1, 1, 100));
        q.offer(req(2, 2, 100));
        q.offer(req(3, 3, 200));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.id).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn shed_rejects_above_capacity_only() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::ShedOnOverload { max_queue: 2 });
        assert_eq!(q.offer(req(0, 0, 10)), Admission::Queued);
        assert_eq!(q.offer(req(1, 1, 10)), Admission::Queued);
        assert_eq!(q.offer(req(2, 2, 10)), Admission::Shed);
        q.pop();
        assert_eq!(q.offer(req(3, 3, 10)), Admission::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_empties_the_queue() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::Fifo);
        q.offer(req(0, 0, 1));
        q.offer(req(1, 1, 2));
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn edf_heap_matches_naive_scan_under_interleaving() {
        // The heap must reproduce the old O(n) min-scan's order exactly,
        // including across interleaved offers and pops.
        let mut q = AdmissionQueue::new(AdmissionPolicy::EarliestDeadlineFirst);
        let mut naive: Vec<QueuedRequest> = Vec::new();
        let mut popped = Vec::new();
        for step in 0u64..200 {
            // Pseudo-random but deterministic offer/pop pattern.
            let deadline = 1_000 + (step * 7919) % 97;
            let r = req(step, step, deadline);
            q.offer(r);
            naive.push(r);
            if step % 3 == 0 {
                let got = q.pop().unwrap();
                let best = naive
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| (r.deadline_ns, r.arrival_ns, r.id))
                    .unwrap()
                    .0;
                assert_eq!(got, naive.remove(best));
                popped.push(got);
            }
        }
        while let Some(got) = q.pop() {
            let best = naive
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.deadline_ns, r.arrival_ns, r.id))
                .unwrap()
                .0;
            assert_eq!(got, naive.remove(best));
        }
        assert!(naive.is_empty() && q.is_empty());
    }

    #[test]
    fn edf_drain_returns_arrival_order() {
        let mut q = AdmissionQueue::new(AdmissionPolicy::EarliestDeadlineFirst);
        q.offer(req(2, 20, 100));
        q.offer(req(0, 5, 900));
        q.offer(req(1, 5, 500));
        let drained: Vec<u64> = q.drain().iter().map(|r| r.id).collect();
        assert_eq!(drained, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    /// Queues over the standard fleet's devices under `admission`, at
    /// most `max_inflight` dispatched requests per device.
    fn queues(admission: AdmissionPolicy, max_inflight: usize) -> Queues {
        let s = ServeScenario {
            admission,
            max_inflight_per_device: max_inflight,
            ..ServeScenario::churn_default()
        };
        Queues::new(&s.validate().unwrap())
    }

    /// Pops device `ui` dry, dispatching each request it yields.
    fn pop_all(q: &mut Queues, ui: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some(qr) = q.pop_ready(ui, || true) {
            q.dispatched(ui);
            ids.push(qr.id);
        }
        ids
    }

    #[test]
    fn the_inflight_cap_holds_until_a_slot_is_released() {
        let mut q = queues(AdmissionPolicy::Fifo, 2);
        for i in 0..5 {
            q.offer(1, req(i, i, 100));
        }
        assert_eq!(pop_all(&mut q, 1), [0, 1]);
        q.release(1);
        assert_eq!(pop_all(&mut q, 1), [2]);
        assert_eq!(q.queued(), 2);
    }

    #[test]
    fn an_inactive_device_pops_nothing() {
        let mut q = queues(AdmissionPolicy::Fifo, 4);
        q.offer(0, req(0, 0, 100));
        assert_eq!(q.pop_ready(0, || false), None);
        let mut asked = false;
        assert_eq!(
            q.pop_ready(2, || {
                asked = true;
                true
            }),
            None
        );
        assert!(!asked, "an empty queue answers before asking");
        assert_eq!(pop_all(&mut q, 0), [0]);
    }

    #[test]
    fn drain_waiting_comes_out_oldest_arrival_first() {
        let mut q = queues(AdmissionPolicy::EarliestDeadlineFirst, 1);
        q.offer(2, req(4, 30, 10));
        q.offer(0, req(1, 10, 900));
        q.offer(1, req(3, 10, 5));
        q.offer(0, req(2, 20, 1));
        assert_eq!(q.queued(), 4);
        let ids: Vec<u64> = q.drain_waiting(&[2, 0, 1]).iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 3, 2, 4]);
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn queued_sums_every_queue() {
        let mut q = queues(AdmissionPolicy::ShedOnOverload { max_queue: 2 }, 1);
        for (ui, id) in [(0, 0), (0, 1), (0, 2), (3, 3)] {
            q.offer(ui, req(id, id, 100));
        }
        assert_eq!(q.queued(), 3, "the third offer to device 0 shed");
        assert_eq!(q.drain(&[3, 0]).len(), 3);
    }

    #[test]
    fn a_leave_keeps_inflight_slots_until_each_request_releases_its_own() {
        let mut q = queues(AdmissionPolicy::Fifo, 2);
        for i in 0..4 {
            q.offer(1, req(i, i, 100));
        }
        assert_eq!(pop_all(&mut q, 1), [0, 1]);
        let waiting: Vec<u64> = q.leave(1).iter().map(|r| r.id).collect();
        assert_eq!(waiting, [2, 3]);
        // The engine requeues the two cancelled in-flight requests, each
        // releasing the slot it held.
        q.release(1);
        q.release(1);
        // Rejoined, the device dispatches up to the cap again.
        for i in 4..8 {
            q.offer(1, req(i, i, 100));
        }
        assert_eq!(pop_all(&mut q, 1), [4, 5]);
    }
}
