//! The per-window budget engine: serve under a fleet-wide cost cap.
//!
//! A [`BudgetPolicy`] caps what the fleet may *spend* per accounting
//! window of `window_s` virtual seconds. Spend is priced by a
//! per-device rate from the policy's [`BudgetMetric`]: marginal
//! energy (joules, from the `s2m3_sim::energy` power profiles), raw busy
//! device-seconds, or a custom flat rate. A request's cost is its
//! route's compute seconds — head plus encoders, each times its
//! device's rate — and a dispatch reserves it in full, so a window's
//! recorded spend can never exceed the cap.
//!
//! The whole policy lives here, behind the crate-private `BudgetState`,
//! so it is tested without a kernel. The serve engine asks it for a
//! verdict per popped request, the next window wake after a defer or a
//! wake, and whether a replan candidate's mean route cost is affordable.
//!
//! When a dispatch would breach the cap, [`BudgetEnforcement`] decides
//! what happens. Admission queues pop EDF-ordered (priority first, then
//! deadline), so the remaining headroom always goes to the
//! highest-priority work and the *lowest*-`DeadlineClass`-priority
//! requests are the first deferred or shed:
//!
//! - `Shed` — reject the request outright (an SLO miss, like any shed);
//! - `Defer` — park it in an EDF-ordered heap and re-admit when the
//!   next window opens fresh headroom;
//! - `DeferThenShed` — defer while the request's deadline is still
//!   ahead, shed once it has passed.
//!
//! A request whose solo cost exceeds the cap can never fit any window
//! and is shed under every mode (deferring it would stall it forever).
//!
//! The state also keeps an *uncapped shadow counter* — what the run
//! would have spent had every request dispatched on first attempt — and
//! the *latency price*: the total extra seconds deferred requests spent
//! parked. Both land in the final [`BudgetReport`], next to per-window
//! rows and per-class defer/shed counts, so a sweep can chart the
//! cost × SLO trade-off frontier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use s2m3_core::resolved::PricedRoute;
use s2m3_sim::kernel::ns;
use serde::{Deserialize, Serialize};

use crate::queue::QueuedRequest;

/// What a unit of spend measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BudgetMetric {
    /// Marginal energy, joules: each device's busy seconds cost
    /// `active_w - idle_w` from the `s2m3_sim::energy` default
    /// profiles (devices without a profile cost nothing).
    Energy,
    /// Raw busy device-seconds: every device costs `1.0` per second.
    DeviceSeconds,
    /// A flat custom rate (e.g. $/device-second) applied to every
    /// device.
    Custom {
        /// Cost units per busy device-second.
        per_device_rate: f64,
    },
}

/// What to do with a request the current window cannot afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetEnforcement {
    /// Park it EDF-ordered; re-admit when the next window opens.
    Defer,
    /// Reject it outright (counts as a shed, hence an SLO miss).
    Shed,
    /// Defer while its deadline is ahead, shed once it has passed.
    DeferThenShed,
}

/// A per-window fleet-wide cost cap, enforced online by the serve
/// engine's admission/dispatch path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetPolicy {
    /// Maximum spend per accounting window, in the metric's units.
    pub cap_per_window: f64,
    /// How spend is priced.
    pub metric: BudgetMetric,
    /// Accounting-window width, virtual seconds.
    pub window_s: f64,
    /// What happens to work the window cannot afford.
    pub enforcement: BudgetEnforcement,
}

impl BudgetPolicy {
    /// A device-seconds cap with the default 60 s window and
    /// `DeferThenShed` enforcement — the CLI's `--budget-cap` shape.
    pub fn device_seconds(cap_per_window: f64) -> Self {
        BudgetPolicy {
            cap_per_window,
            metric: BudgetMetric::DeviceSeconds,
            window_s: 60.0,
            enforcement: BudgetEnforcement::DeferThenShed,
        }
    }

    /// Validates the policy's numbers.
    ///
    /// # Errors
    ///
    /// A human-readable message on a non-finite/negative cap, a
    /// non-positive window, or a non-finite custom rate.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.cap_per_window.is_finite() || self.cap_per_window < 0.0 {
            return Err(format!(
                "budget.cap_per_window: must be finite and >= 0 (got {})",
                self.cap_per_window
            ));
        }
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(format!(
                "budget.window_s: must be finite and > 0 (got {})",
                self.window_s
            ));
        }
        if let BudgetMetric::Custom { per_device_rate } = self.metric {
            if !per_device_rate.is_finite() || per_device_rate < 0.0 {
                return Err(format!(
                    "budget.metric.per_device_rate: must be finite and >= 0 (got {per_device_rate})"
                ));
            }
        }
        Ok(())
    }
}

/// One closed accounting window's spend record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetWindow {
    /// Window index (`floor(virtual time / window_s)`).
    pub index: u64,
    /// Spend actually reserved by dispatches in this window.
    pub spend: f64,
    /// What the uncapped run would have spent (first-attempt pricing).
    pub shadow_spend: f64,
    /// Requests dispatched within budget.
    pub dispatched: u64,
    /// Requests first deferred in this window.
    pub deferred: u64,
    /// Requests budget-shed in this window.
    pub shed: u64,
}

/// Per-class budget enforcement counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetClassReport {
    /// Deadline-class name.
    pub class: String,
    /// Scheduling priority of the class (shed order is lowest-first).
    pub priority: u32,
    /// Requests of this class the budget deferred at least once.
    pub deferred: u64,
    /// Requests of this class the budget shed.
    pub shed: u64,
}

/// The budget section of a [`ServeReport`](crate::ServeReport):
/// present only when the scenario ran with a [`BudgetPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetReport {
    /// The enforced cap, per window.
    pub cap_per_window: f64,
    /// Accounting-window width, seconds.
    pub window_s: f64,
    /// How spend was priced.
    pub metric: BudgetMetric,
    /// The enforcement mode.
    pub enforcement: BudgetEnforcement,
    /// Windows that saw any budget activity.
    pub windows_total: u64,
    /// Active windows whose recorded spend exceeded the cap (0 by
    /// construction: the gate reserves before dispatching).
    pub windows_over_cap: u64,
    /// Fraction of active windows within the cap (1.0 when none).
    pub adherence: f64,
    /// Total spend reserved across the run.
    pub spend_total: f64,
    /// What an uncapped run would have spent.
    pub shadow_spend_total: f64,
    /// Requests dispatched within budget.
    pub dispatched: u64,
    /// Requests deferred at least once.
    pub deferred: u64,
    /// Requests shed by budget enforcement.
    pub shed: u64,
    /// Total extra seconds deferred requests spent parked before their
    /// eventual dispatch — the latency price of the cap.
    pub latency_price_s: f64,
    /// Per-class defer/shed counts (classed scenarios only).
    pub classes: Vec<BudgetClassReport>,
    /// Per-window rows, oldest first (capped at
    /// [`MAX_WINDOW_ROWS`](BudgetReport::MAX_WINDOW_ROWS); the scalar
    /// totals above always cover the whole run).
    pub windows: Vec<BudgetWindow>,
}

impl BudgetReport {
    /// Retained per-window rows: a long run keeps its first this many
    /// active windows and drops the rest, while the scalar totals stay
    /// exact.
    pub const MAX_WINDOW_ROWS: usize = 512;
}

/// What the gate decided for a popped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Within budget: its cost is reserved, dispatch now.
    Dispatch,
    /// Parked until a later window.
    Defer,
    /// Rejected by enforcement (counts as a shed).
    Shed,
}

/// One request's history at the gate, one word in the driver's request
/// table: `NEW`, `PRICED` (never deferred), or the virtual time of its
/// first deferral (clock times stay below both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark(u64);

impl Mark {
    const NEW: u64 = u64::MAX;
    const PRICED: u64 = u64::MAX - 1;
}

impl Default for Mark {
    fn default() -> Self {
        Mark(Mark::NEW)
    }
}

/// A parked request awaiting headroom, EDF-ordered: priority first
/// (`urgency` is `u32::MAX - priority`, so lower priority pops later),
/// then deadline, arrival, and the monotone arrival sequence number —
/// the same key shape the EDF admission queue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deferred {
    urgency: u32,
    deadline_ns: u64,
    arrival_ns: u64,
    seq: u64,
    /// Packed [`ReqHandle`](crate::slab::ReqHandle) of the parked slot.
    handle: u64,
}

/// Running counts of the window currently open, or of the whole run.
#[derive(Debug, Clone, Copy, Default)]
struct WindowAccum {
    spend: f64,
    shadow: f64,
    dispatched: u64,
    deferred: u64,
    shed: u64,
}

impl WindowAccum {
    fn active(&self) -> bool {
        self.dispatched + self.deferred + self.shed > 0 || self.shadow > 0.0
    }
}

/// The engine-side budget state: the policy, per-device cost rates,
/// window accounting, the deferred heap, the pending wake, and the
/// running totals the final [`BudgetReport`] folds from.
#[derive(Debug)]
pub(crate) struct BudgetState {
    policy: BudgetPolicy,
    /// Spend per busy second of each universe device, priced once from
    /// the policy's metric (rates never change mid-run).
    rates: Vec<f64>,
    window_ns: u64,
    cur_index: u64,
    cur: WindowAccum,
    total: WindowAccum,
    windows: Vec<BudgetWindow>,
    windows_total: u64,
    windows_over_cap: u64,
    /// Wide enough that no run's sum of parked times can overflow it.
    latency_price_ns: u128,
    /// `(priority, [deferred, shed])` per deadline class.
    by_class: Vec<(u32, [u64; 2])>,
    deferred: BinaryHeap<Reverse<Deferred>>,
    /// Virtual time of the pending wake, if any (at most one is).
    wake_at: Option<u64>,
}

/// The latest window start a wake may be scheduled at: the clock's
/// range, `ns(MAX_ARRIVAL_S)`, so a wake plus a transfer time cannot
/// overflow the `u64` clock.
const LAST_WAKE_NS: u64 = 1 << 63;

impl BudgetState {
    /// Builds the state for a validated policy over the universe
    /// `devices` and the deadline classes' `class_priorities`, by index.
    pub(crate) fn new(policy: BudgetPolicy, class_priorities: &[u32], devices: &[String]) -> Self {
        let profiles = match policy.metric {
            BudgetMetric::Energy => s2m3_sim::energy::default_profiles(),
            _ => Default::default(),
        };
        let rates = devices
            .iter()
            .map(|n| match policy.metric {
                BudgetMetric::DeviceSeconds => 1.0,
                BudgetMetric::Custom { per_device_rate } => per_device_rate,
                // Marginal energy: joules per busy second above idle,
                // from the simulator's default power profiles.
                // Unprofiled devices cost nothing.
                BudgetMetric::Energy => profiles
                    .get(&n.as_str().into())
                    .map_or(0.0, |p| (p.active_w - p.idle_w).max(0.0)),
            })
            .collect();
        let window_ns = ns(policy.window_s).max(1);
        BudgetState {
            policy,
            rates,
            window_ns,
            cur_index: 0,
            cur: WindowAccum::default(),
            total: WindowAccum::default(),
            windows: Vec::new(),
            windows_total: 0,
            windows_over_cap: 0,
            latency_price_ns: 0,
            by_class: class_priorities.iter().map(|&p| (p, [0, 0])).collect(),
            deferred: BinaryHeap::new(),
            wake_at: None,
        }
    }

    /// The spend one request on `route` reserves: each task's compute
    /// seconds times its device's rate (`uni_of_res` maps resolved to
    /// universe devices), summed head first, then encoders in send order.
    /// Compute ignores the query's origin: any source's pricing will do.
    pub(crate) fn route_cost(&self, route: &PricedRoute, uni_of_res: &[usize]) -> f64 {
        let rate = |d: u32| self.rates[uni_of_res[d as usize]];
        let mut cost = route.head.compute * rate(route.head.device);
        for e in &route.encoders {
            cost += e.compute * rate(e.device);
        }
        cost
    }

    /// The replan gate's feasibility term: whether a placement whose
    /// mean route cost is `mean_cost` keeps its steady-state spend —
    /// `rate_per_s` arrivals over one window — under the cap.
    pub(crate) fn affords(&self, rate_per_s: f64, mean_cost: f64) -> bool {
        rate_per_s * self.policy.window_s * mean_cost <= self.policy.cap_per_window
    }

    /// Prices the popped request `qr` (of deadline class `class`, gate
    /// history `mark`, route cost `cost`) against the window open at
    /// `now`. The shadow counter charges each request once, however
    /// often it is offered; `Dispatch` reserves `cost` and pays the
    /// latency price from the first deferral; `Defer` parks `qr`.
    pub(crate) fn gate(
        &mut self,
        qr: &QueuedRequest,
        mark: &mut Mark,
        class: Option<u32>,
        cost: f64,
        now: u64,
    ) -> Verdict {
        self.roll(now);
        if mark.0 == Mark::NEW {
            mark.0 = Mark::PRICED;
            self.tally(|w| w.shadow += cost);
        }
        if self.fits(cost) {
            self.charge(cost);
            if mark.0 != Mark::PRICED {
                self.latency_price_ns += u128::from(now.saturating_sub(mark.0));
            }
            return Verdict::Dispatch;
        }
        // The open window cannot afford it. A request whose solo cost
        // exceeds the cap can never fit any window: shed it under every
        // mode rather than park it forever.
        let shed = cost > self.policy.cap_per_window
            || match self.policy.enforcement {
                BudgetEnforcement::Shed => true,
                BudgetEnforcement::Defer => false,
                BudgetEnforcement::DeferThenShed => now > qr.deadline_ns,
            };
        if shed {
            self.tally(|w| w.shed += 1);
            self.note_class(class, 1);
            return Verdict::Shed;
        }
        if mark.0 == Mark::PRICED {
            debug_assert!(now < Mark::PRICED, "clock times stay below the sentinels");
            mark.0 = now;
            self.tally(|w| w.deferred += 1);
            self.note_class(class, 0);
        }
        self.deferred.push(Reverse(Deferred {
            urgency: u32::MAX - qr.priority,
            deadline_ns: qr.deadline_ns,
            arrival_ns: qr.arrival_ns,
            seq: qr.id,
            handle: qr.handle,
        }));
        Verdict::Defer
    }

    /// The wake to schedule after a defer or a wake: the next window's
    /// start while any request is parked, unless that wake is already
    /// pending (at most one is). A window that would open past the
    /// clock's range never opens: what is parked for it stays parked,
    /// and the run's `finish` sheds it.
    pub(crate) fn next_wake(&mut self) -> Option<u64> {
        let at = (self.cur_index + 1)
            .checked_mul(self.window_ns)
            .filter(|&at| at <= LAST_WAKE_NS)?;
        if self.deferred.is_empty() || self.wake_at == Some(at) {
            return None;
        }
        self.wake_at = Some(at);
        Some(at)
    }

    /// A wake fired at `now`: opens the window and hands back every
    /// parked request's packed handle, EDF order (highest priority, then
    /// earliest deadline, first). The heap is empty on return, so a
    /// request the new window still cannot afford re-parks through
    /// [`BudgetState::gate`] without being handed back again.
    pub(crate) fn wake(&mut self, now: u64) -> Vec<u64> {
        if self.wake_at == Some(now) {
            self.wake_at = None;
        }
        self.roll(now);
        std::iter::from_fn(|| self.deferred.pop().map(|Reverse(d)| d.handle)).collect()
    }

    /// Advances window accounting to `now`, closing the open window
    /// (and recording it, if it saw activity) when `now` has crossed
    /// its end. Idle windows in between are skipped entirely.
    fn roll(&mut self, now_ns: u64) {
        let idx = now_ns / self.window_ns;
        if idx <= self.cur_index {
            return;
        }
        self.close_current();
        self.cur_index = idx;
    }

    fn close_current(&mut self) {
        if !self.cur.active() {
            return;
        }
        self.windows_total += 1;
        if self.cur.spend > self.policy.cap_per_window {
            self.windows_over_cap += 1;
        }
        if self.windows.len() < BudgetReport::MAX_WINDOW_ROWS {
            self.windows.push(BudgetWindow {
                index: self.cur_index,
                spend: self.cur.spend,
                shadow_spend: self.cur.shadow,
                dispatched: self.cur.dispatched,
                deferred: self.cur.deferred,
                shed: self.cur.shed,
            });
        }
        self.cur = WindowAccum::default();
    }

    /// Whether `cost` still fits under the open window's cap.
    fn fits(&self, cost: f64) -> bool {
        self.cur.spend + cost <= self.policy.cap_per_window
    }

    /// Reserves `cost` in the open window (the request dispatches).
    fn charge(&mut self, cost: f64) {
        self.tally(|w| {
            w.spend += cost;
            w.dispatched += 1;
        });
    }

    /// Applies `count` to the open window and to the run's totals.
    fn tally(&mut self, count: impl Fn(&mut WindowAccum)) {
        count(&mut self.cur);
        count(&mut self.total);
    }

    /// Counts a deferral (`column` 0) or a shed (1) against `class`.
    fn note_class(&mut self, class: Option<u32>, column: usize) {
        if let Some(ci) = class {
            self.by_class[ci as usize].1[column] += 1;
        }
    }

    /// Closes the open window and folds everything into the report.
    pub(crate) fn finish(mut self, class_names: &[String]) -> BudgetReport {
        self.close_current();
        let adherence = if self.windows_total == 0 {
            1.0
        } else {
            (self.windows_total - self.windows_over_cap) as f64 / self.windows_total as f64
        };
        let classes = class_names
            .iter()
            .zip(&self.by_class)
            .map(|(name, &(priority, [deferred, shed]))| BudgetClassReport {
                class: name.clone(),
                priority,
                deferred,
                shed,
            })
            .collect();
        BudgetReport {
            cap_per_window: self.policy.cap_per_window,
            window_s: self.policy.window_s,
            metric: self.policy.metric,
            enforcement: self.policy.enforcement,
            windows_total: self.windows_total,
            windows_over_cap: self.windows_over_cap,
            adherence,
            spend_total: self.total.spend,
            shadow_spend_total: self.total.shadow,
            dispatched: self.total.dispatched,
            deferred: self.total.deferred,
            shed: self.total.shed,
            // `secs`, widened: the same rounding for every `u64` sum.
            latency_price_s: self.latency_price_ns as f64 / 1e9,
            classes,
            windows: self.windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServeScenario};
    use s2m3_core::resolved::PricedTask;

    const S: u64 = 1_000_000_000;

    fn policy(cap: f64, enforcement: BudgetEnforcement) -> BudgetPolicy {
        BudgetPolicy {
            cap_per_window: cap,
            metric: BudgetMetric::DeviceSeconds,
            window_s: 10.0,
            enforcement,
        }
    }

    fn state(cap: f64, enforcement: BudgetEnforcement) -> BudgetState {
        BudgetState::new(policy(cap, enforcement), &[5, 0], &[])
    }

    /// A popped request: arrival sequence `seq` (also its handle),
    /// priority 0, due at `deadline_ns`.
    fn queued(seq: u64, deadline_ns: u64) -> QueuedRequest {
        QueuedRequest {
            id: seq,
            handle: seq,
            arrival_ns: 0,
            deadline_ns,
            priority: 0,
        }
    }

    /// Offers a fresh request of `cost` at `now`, due far in the future.
    fn offer(b: &mut BudgetState, seq: u64, cost: f64, now: u64) -> Verdict {
        b.gate(
            &queued(seq, u64::MAX / 2),
            &mut Mark::default(),
            None,
            cost,
            now,
        )
    }

    #[test]
    fn validation_rejects_bad_numbers() {
        assert!(policy(1.0, BudgetEnforcement::Shed).validate().is_ok());
        assert!(policy(-1.0, BudgetEnforcement::Shed).validate().is_err());
        assert!(policy(f64::NAN, BudgetEnforcement::Shed)
            .validate()
            .is_err());
        let mut p = policy(1.0, BudgetEnforcement::Defer);
        p.window_s = 0.0;
        assert!(p.validate().is_err());
        let mut p = policy(1.0, BudgetEnforcement::Defer);
        p.metric = BudgetMetric::Custom {
            per_device_rate: f64::INFINITY,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn windows_roll_and_skip_idle_spans() {
        let mut b = state(5.0, BudgetEnforcement::Shed);
        b.charge(2.0);
        // Jump 5 windows ahead: only the active one is recorded.
        b.roll(52 * S);
        b.charge(1.0);
        let r = b.finish(&[]);
        assert_eq!(r.windows_total, 2);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].index, 0);
        assert_eq!(r.windows[1].index, 5);
        assert_eq!(r.spend_total, 3.0);
        assert_eq!(r.windows_over_cap, 0);
        assert_eq!(r.adherence, 1.0);
    }

    #[test]
    fn window_rows_keep_the_first_active_windows() {
        let mut b = state(5.0, BudgetEnforcement::Shed);
        let active = BudgetReport::MAX_WINDOW_ROWS as u64 + 88;
        // One charge in every other 10 s window: the idle ones between
        // are skipped, so row `i` is window `2 * i`.
        for i in 0..active {
            b.roll(i * 20 * S);
            b.charge(1.0);
        }
        let r = b.finish(&[]);
        assert_eq!(r.windows_total, active);
        assert_eq!(r.windows.len(), BudgetReport::MAX_WINDOW_ROWS);
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, 2 * i as u64);
        }
        assert_eq!(r.spend_total, active as f64);
    }

    #[test]
    fn fits_is_exact_at_the_cap() {
        let mut b = state(5.0, BudgetEnforcement::Shed);
        assert!(b.fits(5.0));
        b.charge(5.0);
        assert!(!b.fits(0.1));
        assert!(b.fits(0.0));
        b.roll(10 * S);
        assert!(b.fits(5.0), "a fresh window restores headroom");
    }

    #[test]
    fn a_cost_exactly_at_the_cap_dispatches() {
        let mut b = state(5.0, BudgetEnforcement::Defer);
        assert_eq!(offer(&mut b, 0, 5.0, 0), Verdict::Dispatch);
        assert_eq!(offer(&mut b, 1, 0.1, S), Verdict::Defer);
        assert_eq!(offer(&mut b, 2, 5.0, 10 * S), Verdict::Dispatch);
        let r = b.finish(&[]);
        assert_eq!((r.dispatched, r.deferred, r.shed), (2, 1, 0));
        assert_eq!(r.spend_total, 10.0);
    }

    #[test]
    fn a_solo_cost_above_the_cap_sheds_under_every_mode() {
        for mode in [
            BudgetEnforcement::Defer,
            BudgetEnforcement::Shed,
            BudgetEnforcement::DeferThenShed,
        ] {
            let mut b = state(5.0, mode);
            // An empty window and a deadline far ahead: nothing but the
            // cap itself refuses it.
            assert_eq!(offer(&mut b, 0, 5.5, 0), Verdict::Shed, "{mode:?}");
            assert_eq!(b.next_wake(), None, "{mode:?}: nothing parked");
            let r = b.finish(&[]);
            assert_eq!((r.dispatched, r.deferred, r.shed), (0, 0, 1), "{mode:?}");
            assert_eq!(r.shadow_spend_total, 5.5, "{mode:?}");
        }
    }

    #[test]
    fn defer_then_shed_parks_at_the_deadline_and_sheds_past_it() {
        let deadline_ns = 5 * S;
        let mut b = state(1.0, BudgetEnforcement::DeferThenShed);
        assert_eq!(offer(&mut b, 0, 1.0, 0), Verdict::Dispatch);
        let mut mark = Mark::default();
        let qr = queued(1, deadline_ns);
        assert_eq!(
            b.gate(&qr, &mut mark, Some(1), 1.0, deadline_ns),
            Verdict::Defer
        );
        assert_eq!(
            b.gate(&qr, &mut mark, Some(1), 1.0, deadline_ns + 1),
            Verdict::Shed
        );
        let r = b.finish(&["a".into(), "b".into()]);
        assert_eq!((r.deferred, r.shed), (1, 1));
        assert_eq!((r.classes[1].deferred, r.classes[1].shed), (1, 1));
        assert_eq!((r.classes[0].deferred, r.classes[0].shed), (0, 0));
    }

    #[test]
    fn the_shadow_spend_is_charged_once_across_a_retry() {
        let mut b = state(10.0, BudgetEnforcement::Defer);
        let mut mark = Mark::default();
        let qr = queued(0, u64::MAX / 2);
        assert_eq!(b.gate(&qr, &mut mark, None, 3.0, 0), Verdict::Dispatch);
        // A fleet leave voided the attempt: the retry reserves again,
        // but the uncapped run would have paid for it only once.
        assert_eq!(b.gate(&qr, &mut mark, None, 3.0, S), Verdict::Dispatch);
        let r = b.finish(&[]);
        assert_eq!(r.shadow_spend_total, 3.0);
        assert_eq!(r.spend_total, 6.0);
        assert_eq!(r.dispatched, 2);
    }

    #[test]
    fn the_latency_price_runs_from_the_first_deferral() {
        let mut b = state(1.0, BudgetEnforcement::Defer);
        let mut mark = Mark::default();
        let late = queued(9, u64::MAX / 2);
        assert_eq!(offer(&mut b, 0, 1.0, 0), Verdict::Dispatch);
        assert_eq!(b.gate(&late, &mut mark, None, 1.0, S), Verdict::Defer);
        assert_eq!(b.next_wake(), Some(10 * S));
        assert_eq!(b.next_wake(), None, "one pending wake at a time");
        // The next window's headroom goes to other work first: the
        // request parks a second time, still priced from 1 s.
        assert_eq!(b.wake(10 * S), vec![9]);
        assert_eq!(offer(&mut b, 1, 1.0, 10 * S), Verdict::Dispatch);
        assert_eq!(b.gate(&late, &mut mark, None, 1.0, 10 * S), Verdict::Defer);
        assert_eq!(b.next_wake(), Some(20 * S));
        assert_eq!(b.wake(20 * S), vec![9]);
        assert_eq!(
            b.gate(&late, &mut mark, None, 1.0, 20 * S),
            Verdict::Dispatch
        );
        assert_eq!(b.next_wake(), None);
        let r = b.finish(&[]);
        assert_eq!(r.latency_price_s, 19.0);
        assert_eq!(r.deferred, 1, "a request counts as deferred once");
        assert_eq!(r.shadow_spend_total, 3.0);
    }

    #[test]
    fn deferred_heap_pops_priority_then_deadline() {
        let mut b = state(1.0, BudgetEnforcement::Defer);
        assert_eq!(offer(&mut b, 99, 1.0, 0), Verdict::Dispatch);
        // Priority 0 with a late deadline, priority 7, then priority 0
        // with an early deadline.
        for (seq, priority, deadline_ns) in [(0, 0, 50), (1, 7, 90), (2, 0, 10)] {
            let qr = QueuedRequest {
                priority,
                ..queued(seq, deadline_ns)
            };
            assert_eq!(
                b.gate(&qr, &mut Mark::default(), None, 1.0, 0),
                Verdict::Defer
            );
        }
        assert_eq!(b.wake(10 * S), vec![1, 2, 0]);
        assert_eq!(b.next_wake(), None, "the heap is empty after a wake");
    }

    #[test]
    fn report_folds_classes_and_latency_price() {
        let names = vec!["interactive".to_string(), "batch".to_string()];
        let mut b = state(1.0, BudgetEnforcement::DeferThenShed);
        let far = u64::MAX / 2;
        assert_eq!(offer(&mut b, 0, 1.0, 0), Verdict::Dispatch);
        // A batch request defers at 0 s and dispatches at 12.5 s; another
        // sheds past its deadline; an unclassed one is too big to fit.
        let mut parked = Mark::default();
        let qr = queued(1, far);
        assert_eq!(b.gate(&qr, &mut parked, Some(1), 1.0, 0), Verdict::Defer);
        let late = queued(2, 0);
        let shed = b.gate(&late, &mut Mark::default(), Some(1), 1.0, 1);
        assert_eq!(shed, Verdict::Shed);
        assert_eq!(offer(&mut b, 3, 2.0, 1), Verdict::Shed);
        assert_eq!(b.wake(10 * S), vec![1]);
        let at = 12 * S + S / 2;
        assert_eq!(
            b.gate(&qr, &mut parked, Some(1), 1.0, at),
            Verdict::Dispatch
        );
        let r = b.finish(&names);
        assert_eq!(r.deferred, 1);
        assert_eq!(r.shed, 2);
        assert_eq!(r.classes.len(), 2);
        assert_eq!(r.classes[1].class, "batch");
        assert_eq!((r.classes[0].priority, r.classes[1].priority), (5, 0));
        assert_eq!(r.classes[1].deferred, 1);
        assert_eq!(r.classes[1].shed, 1);
        assert_eq!(r.classes[0].deferred, 0);
        assert_eq!(r.latency_price_s, 12.5);
        assert_eq!(r.shadow_spend_total, 5.0);
        assert_eq!(r.spend_total, 2.0);
    }

    #[test]
    fn routes_are_priced_head_first_at_each_device_rate() {
        let task = |device, compute| PricedTask {
            device,
            compute,
            ..PricedTask::default()
        };
        let mut route = PricedRoute::default();
        route.head = task(0, 1.5);
        route.encoders = vec![task(1, 0.5), task(0, 0.25)];
        // Resolved devices 0 and 1 are universe devices 2 and 0.
        let uni_of_res = [2, 0];
        let devices: Vec<String> = ["server", "laptop", "unprofiled"]
            .map(String::from)
            .to_vec();
        let mut custom = policy(1.0, BudgetEnforcement::Shed);
        custom.metric = BudgetMetric::Custom {
            per_device_rate: 2.0,
        };
        let b = BudgetState::new(custom, &[], &devices);
        assert_eq!(b.route_cost(&route, &uni_of_res), 4.5);
        let mut energy = policy(1.0, BudgetEnforcement::Shed);
        energy.metric = BudgetMetric::Energy;
        let b = BudgetState::new(energy, &[], &devices);
        // Only the encoder on the profiled server (320 W active, 90 W
        // idle) costs anything.
        assert_eq!(b.route_cost(&route, &uni_of_res), 0.5 * 230.0);
    }

    #[test]
    fn a_placement_is_affordable_up_to_the_cap() {
        let b = state(5.0, BudgetEnforcement::Defer);
        // 0.5 req/s over a 10 s window at 1.0 each spends exactly 5.
        assert!(b.affords(0.5, 1.0));
        assert!(!b.affords(0.6, 1.0));
        assert!(b.affords(0.0, f64::MAX));
    }

    #[test]
    fn budget_policy_json_roundtrip() {
        for p in [
            policy(2.5, BudgetEnforcement::Shed),
            BudgetPolicy {
                cap_per_window: 100.0,
                metric: BudgetMetric::Energy,
                window_s: 30.0,
                enforcement: BudgetEnforcement::Defer,
            },
            BudgetPolicy {
                cap_per_window: 1.0,
                metric: BudgetMetric::Custom {
                    per_device_rate: 0.004,
                },
                window_s: 1.0,
                enforcement: BudgetEnforcement::DeferThenShed,
            },
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: BudgetPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }

    // Through the serve engine.

    fn small_scenario(n: usize) -> ServeScenario {
        ServeScenario {
            requests: n,
            events: vec![],
            ..ServeScenario::churn_default()
        }
    }

    fn device_seconds(cap: f64, window_s: f64, enforcement: BudgetEnforcement) -> BudgetPolicy {
        BudgetPolicy {
            window_s,
            enforcement,
            ..BudgetPolicy::device_seconds(cap)
        }
    }

    #[test]
    fn roomy_budget_changes_nothing_but_adds_the_report() {
        let uncapped = serve(&small_scenario(300)).unwrap();
        let mut s = small_scenario(300);
        s.budget = Some(device_seconds(1e18, 60.0, BudgetEnforcement::DeferThenShed));
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
        s.budget = Some(device_seconds(
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
        s.budget = Some(device_seconds(
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
}
