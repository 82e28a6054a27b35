//! The per-window budget engine: serve under a fleet-wide cost cap.
//!
//! A [`BudgetPolicy`] caps what the fleet may *spend* per accounting
//! window of `window_s` virtual seconds. Spend is priced by a
//! [`CostModel`](s2m3_core::cost::CostModel) built from the policy's
//! [`BudgetMetric`]: marginal energy (joules, from the
//! `s2m3_sim::energy` power profiles), raw busy device-seconds, or a
//! custom flat rate. The serve engine reserves a request's full route
//! cost — head plus encoder compute seconds, each times its device's
//! rate — at dispatch time, so a window's recorded spend can never
//! exceed the cap.
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
//! The engine also keeps an *uncapped shadow counter* — what the run
//! would have spent had every request dispatched on first attempt — and
//! the *latency price*: the total extra seconds deferred requests spent
//! parked. Both land in the final [`BudgetReport`], next to per-window
//! rows and per-class defer/shed counts, so a sweep can chart the
//! cost × SLO trade-off frontier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use s2m3_sim::kernel::{ns, secs};
use serde::{Deserialize, Serialize};

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
    pub fn validate(&self) -> Result<(), String> {
        if !self.cap_per_window.is_finite() || self.cap_per_window < 0.0 {
            return Err("budget cap_per_window must be finite and >= 0".into());
        }
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err("budget window_s must be finite and > 0".into());
        }
        if let BudgetMetric::Custom { per_device_rate } = self.metric {
            if !per_device_rate.is_finite() || per_device_rate < 0.0 {
                return Err("budget per_device_rate must be finite and >= 0".into());
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
    /// Retained per-window rows: long streaming runs keep the newest
    /// activity bounded while the scalar totals stay exact.
    pub const MAX_WINDOW_ROWS: usize = 512;
}

/// A parked request awaiting headroom, EDF-ordered: priority first
/// (`urgency` is `u32::MAX - priority`, so lower priority pops later),
/// then deadline, arrival, and the monotone arrival sequence number —
/// the same key shape the EDF admission queue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Deferred {
    pub urgency: u32,
    pub deadline_ns: u64,
    pub arrival_ns: u64,
    pub seq: u64,
    /// Packed [`ReqHandle`](crate::slab::ReqHandle) of the parked slot.
    pub handle: u64,
}

/// Running accumulator for the window currently open.
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

/// The engine-side budget state: window accounting, the deferred heap,
/// and the running totals the final [`BudgetReport`] folds from.
#[derive(Debug)]
pub(crate) struct BudgetState {
    pub policy: BudgetPolicy,
    window_ns: u64,
    cur_index: u64,
    cur: WindowAccum,
    windows: Vec<BudgetWindow>,
    windows_total: u64,
    windows_over_cap: u64,
    spend_total: f64,
    shadow_total: f64,
    dispatched: u64,
    deferred_total: u64,
    shed_total: u64,
    latency_price_ns: u64,
    /// `[deferred, shed]` per deadline class.
    by_class: Vec<[u64; 2]>,
    deferred: BinaryHeap<Reverse<Deferred>>,
    /// Virtual time of the pending `BudgetWake` event, if one is
    /// scheduled (dedups wake pushes).
    pub wake_at: Option<u64>,
}

impl BudgetState {
    /// Builds the engine state for a validated policy.
    pub fn new(policy: BudgetPolicy, n_classes: usize) -> Self {
        let window_ns = ns(policy.window_s).max(1);
        BudgetState {
            policy,
            window_ns,
            cur_index: 0,
            cur: WindowAccum::default(),
            windows: Vec::new(),
            windows_total: 0,
            windows_over_cap: 0,
            spend_total: 0.0,
            shadow_total: 0.0,
            dispatched: 0,
            deferred_total: 0,
            shed_total: 0,
            latency_price_ns: 0,
            by_class: vec![[0, 0]; n_classes],
            deferred: BinaryHeap::new(),
            wake_at: None,
        }
    }

    /// Advances window accounting to `now`, closing the open window
    /// (and recording it, if it saw activity) when `now` has crossed
    /// its end. Idle windows in between are skipped entirely.
    pub fn roll(&mut self, now_ns: u64) {
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
    pub fn fits(&self, cost: f64) -> bool {
        self.cur.spend + cost <= self.policy.cap_per_window
    }

    /// Reserves `cost` in the open window (the request dispatches).
    pub fn charge(&mut self, cost: f64) {
        self.cur.spend += cost;
        self.cur.dispatched += 1;
        self.spend_total += cost;
        self.dispatched += 1;
    }

    /// Accrues `cost` on the uncapped shadow counter (once per
    /// request, at its first budget evaluation).
    pub fn charge_shadow(&mut self, cost: f64) {
        self.cur.shadow += cost;
        self.shadow_total += cost;
    }

    /// Records a request's first deferral.
    pub fn note_deferred(&mut self, class: Option<u32>) {
        self.cur.deferred += 1;
        self.deferred_total += 1;
        if let Some(ci) = class {
            self.by_class[ci as usize][0] += 1;
        }
    }

    /// Records a budget shed.
    pub fn note_shed(&mut self, class: Option<u32>) {
        self.cur.shed += 1;
        self.shed_total += 1;
        if let Some(ci) = class {
            self.by_class[ci as usize][1] += 1;
        }
    }

    /// Accrues the waiting time a deferred request paid before its
    /// eventual dispatch.
    pub fn pay_latency_price(&mut self, waited_ns: u64) {
        self.latency_price_ns += waited_ns;
    }

    /// Parks a request in the deferred heap.
    pub fn push_deferred(&mut self, d: Deferred) {
        self.deferred.push(Reverse(d));
    }

    /// Whether any request is parked.
    pub fn has_deferred(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Drains every parked request into `into`, EDF order (highest
    /// priority, then earliest deadline, first).
    pub fn drain_deferred_into(&mut self, into: &mut Vec<Deferred>) {
        into.clear();
        while let Some(Reverse(d)) = self.deferred.pop() {
            into.push(d);
        }
    }

    /// Start of the window after the one currently open, ns.
    pub fn next_window_start_ns(&self) -> u64 {
        (self.cur_index + 1).saturating_mul(self.window_ns)
    }

    /// Closes the open window and folds everything into the report.
    pub fn finish(mut self, class_names: &[String], class_priorities: &[u32]) -> BudgetReport {
        self.close_current();
        let adherence = if self.windows_total == 0 {
            1.0
        } else {
            (self.windows_total - self.windows_over_cap) as f64 / self.windows_total as f64
        };
        let classes = class_names
            .iter()
            .zip(class_priorities)
            .zip(&self.by_class)
            .map(|((name, &priority), &[deferred, shed])| BudgetClassReport {
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
            spend_total: self.spend_total,
            shadow_spend_total: self.shadow_total,
            dispatched: self.dispatched,
            deferred: self.deferred_total,
            shed: self.shed_total,
            latency_price_s: secs(self.latency_price_ns),
            classes,
            windows: self.windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(cap: f64, enforcement: BudgetEnforcement) -> BudgetPolicy {
        BudgetPolicy {
            cap_per_window: cap,
            metric: BudgetMetric::DeviceSeconds,
            window_s: 10.0,
            enforcement,
        }
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
        let mut b = BudgetState::new(policy(5.0, BudgetEnforcement::Shed), 0);
        b.charge(2.0);
        // Jump 5 windows ahead: only the active one is recorded.
        b.roll(52_000_000_000);
        b.charge(1.0);
        let r = b.finish(&[], &[]);
        assert_eq!(r.windows_total, 2);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].index, 0);
        assert_eq!(r.windows[1].index, 5);
        assert_eq!(r.spend_total, 3.0);
        assert_eq!(r.windows_over_cap, 0);
        assert_eq!(r.adherence, 1.0);
    }

    #[test]
    fn fits_is_exact_at_the_cap() {
        let mut b = BudgetState::new(policy(5.0, BudgetEnforcement::Shed), 0);
        assert!(b.fits(5.0));
        b.charge(5.0);
        assert!(!b.fits(0.1));
        assert!(b.fits(0.0));
        b.roll(10_000_000_000);
        assert!(b.fits(5.0), "a fresh window restores headroom");
    }

    #[test]
    fn deferred_heap_pops_priority_then_deadline() {
        let mut b = BudgetState::new(policy(0.0, BudgetEnforcement::Defer), 0);
        let d = |urgency, deadline_ns, seq| Deferred {
            urgency,
            deadline_ns,
            arrival_ns: 0,
            seq,
            handle: seq,
        };
        b.push_deferred(d(u32::MAX, 50, 0)); // priority 0, late deadline
        b.push_deferred(d(u32::MAX - 7, 90, 1)); // priority 7
        b.push_deferred(d(u32::MAX, 10, 2)); // priority 0, early deadline
        let mut out = Vec::new();
        b.drain_deferred_into(&mut out);
        let seqs: Vec<u64> = out.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
    }

    #[test]
    fn report_folds_classes_and_latency_price() {
        let names = vec!["interactive".to_string(), "batch".to_string()];
        let prios = vec![5, 0];
        let mut b = BudgetState::new(policy(1.0, BudgetEnforcement::DeferThenShed), 2);
        b.charge_shadow(3.0);
        b.note_deferred(Some(1));
        b.note_shed(Some(1));
        b.note_shed(None);
        b.pay_latency_price(2_500_000_000);
        let r = b.finish(&names, &prios);
        assert_eq!(r.deferred, 1);
        assert_eq!(r.shed, 2);
        assert_eq!(r.classes.len(), 2);
        assert_eq!(r.classes[1].class, "batch");
        assert_eq!(r.classes[1].deferred, 1);
        assert_eq!(r.classes[1].shed, 1);
        assert_eq!(r.classes[0].deferred, 0);
        assert_eq!(r.latency_price_s, 2.5);
        assert_eq!(r.shadow_spend_total, 3.0);
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
}
