//! The replan controller: the paper's Sec. VI-C adaptive reallocation as
//! the online engine runs it. A fleet event, or a rolling-p95 breach of
//! the deadline, wakes it; it solves a candidate switch with
//! [`s2m3_core::adaptive::replan`] and gates it — a mandatory switch
//! always applies, an optional one must fit the budget and amortize
//! within the horizon at the observed arrival rate — and it keeps the
//! control part of the report. The engine charges the accepted switch's
//! downtime and re-routes, because those need the kernel.

use std::mem::take;

use s2m3_core::adaptive::{replan, ReplanDecision};
use s2m3_core::problem::{Instance, Placement};

use crate::budget::BudgetState;
use crate::config::ReplanPolicy;
use crate::engine::ServeError;
use crate::report::{EventRecord, RejectedSloRun, ReplanRecord, ReplanTrigger};
use crate::slo::SloWindow;

/// A candidate switch plus the gate's budget-feasibility input, which
/// is priced at most once per candidate.
struct PricedReplan {
    decision: ReplanDecision,
    /// Mean route cost of `decision.placement` (`None` until the gate
    /// first needs it).
    mean_spend: Option<f64>,
    /// Whether a rejected SLO-breach evaluation of this candidate has
    /// opened its run: the last of `rejected_slo`, since a fresh
    /// candidate's first rejection opens the next one.
    opened_run: bool,
}

/// The replan controller's state and its part of the report.
#[derive(Default)]
pub(crate) struct Replanner {
    /// An optional switch must amortize within this many seconds of
    /// arrivals at the observed rate.
    horizon_s: f64,
    /// The SLO trigger's `(min_window, cooldown ns)`, when set.
    slo_trigger: Option<(usize, u64)>,
    /// Last virtual time the SLO trigger sampled the window, ns.
    last_slo_eval_ns: u64,
    /// The candidate `replan(&instance, &placement)`, a pure function of
    /// two values that change only when the engine rebuilds the instance
    /// ([`Replanner::forget`]) or accepts a switch (which consumes it):
    /// every breach evaluation in between reuses one greedy solve (debug
    /// builds re-solve and compare).
    candidate: Option<PricedReplan>,
    events: Vec<EventRecord>,
    replans: Vec<ReplanRecord>,
    rejected_slo: Vec<RejectedSloRun>,
}

impl Replanner {
    /// A controller for `policy`, with the SLO trigger's cooldown in
    /// clock nanoseconds.
    pub(crate) fn new(policy: &ReplanPolicy, slo_cooldown_ns: u64) -> Self {
        Replanner {
            horizon_s: policy.horizon_s,
            slo_trigger: policy.slo_trigger.map(|t| (t.min_window, slo_cooldown_ns)),
            ..Replanner::default()
        }
    }

    /// Records a fleet event applied at `at_s`.
    pub(crate) fn record_event(&mut self, at_s: f64, description: String) {
        self.events.push(EventRecord { at_s, description });
    }

    /// Whether the SLO trigger fires after a completion at `now`: armed
    /// once `slo` holds `min(min_window, capacity)` outcomes (a smaller
    /// window would never arm), it samples at most once per cooldown
    /// and fires when the p95 exceeds `deadline_s`. Without a trigger
    /// this is one branch, paid on every completion.
    #[inline]
    pub(crate) fn slo_due(&mut self, slo: &SloWindow, deadline_s: f64, now: u64) -> bool {
        let Some((min_window, cooldown_ns)) = self.slo_trigger else {
            return false;
        };
        let arm_at = min_window.min(slo.capacity());
        if slo.len() < arm_at || now < self.last_slo_eval_ns.saturating_add(cooldown_ns) {
            return false;
        }
        self.last_slo_eval_ns = now;
        slo.p95_exceeds(deadline_s)
    }

    /// Solves the candidate switch from `placement` onto `instance`, or
    /// keeps the memoised one; fails as the solve does. Returns whether
    /// it moves any module.
    pub(crate) fn candidate(
        &mut self,
        instance: &Instance,
        placement: &Placement,
    ) -> Result<bool, ServeError> {
        match &self.candidate {
            Some(memo) => debug_assert_eq!(
                Ok(&memo.decision),
                replan(instance, placement).as_ref(),
                "memoised replan decision went stale"
            ),
            None => {
                let decision = replan(instance, placement)?;
                self.candidate = Some(PricedReplan {
                    decision,
                    mean_spend: None,
                    opened_run: false,
                });
            }
        }
        Ok(self
            .candidate
            .as_ref()
            .is_some_and(|c| !c.decision.migrations.is_empty()))
    }

    /// The gate's verdict on the candidate: the accepted decision, for the
    /// engine to install, or `None`. A mandatory switch (the old
    /// placement lost a module) bypasses every test; an optional one
    /// must first keep its steady-state spend — `observed_rate` over one
    /// window at its `mean_spend` route cost — under the cap, then break
    /// even within `observed_rate × horizon_s` requests, `queued`
    /// waiting requests credited
    /// ([`ReplanDecision::break_even_requests_with_queue`]; only an SLO
    /// breach passes any). Records keep the steady-state break-even, so
    /// both triggers compare in reports.
    ///
    /// A rejected SLO-breach evaluation extends its candidate's
    /// [`RejectedSloRun`] and keeps the candidate; every other
    /// evaluation is a [`ReplanRecord`] and consumes it.
    pub(crate) fn verdict(
        &mut self,
        trigger: ReplanTrigger,
        queued: u64,
        at_s: f64,
        observed_rate: f64,
        budget: Option<&BudgetState>,
        mean_spend: impl FnOnce(&BudgetState, &Placement) -> f64,
    ) -> Option<ReplanDecision> {
        let mut priced = self.candidate.take().expect("verdict after candidate");
        let expected_in_horizon = observed_rate * self.horizon_s;
        let decision = &priced.decision;
        let mandatory = decision.mandatory();
        let break_even = decision.break_even_requests();
        let effective = decision.break_even_requests_with_queue(queued);
        let budget_feasible = mandatory
            || budget.is_none_or(|b| {
                let spend = *priced
                    .mean_spend
                    .get_or_insert_with(|| mean_spend(b, &decision.placement));
                b.affords(observed_rate, spend)
            });
        let accepted = mandatory
            || (budget_feasible
                && matches!(effective, Some(b) if (b as f64) <= expected_in_horizon));
        if !accepted && matches!(trigger, ReplanTrigger::SloBreach { .. }) {
            if !priced.opened_run {
                priced.opened_run = true;
                self.rejected_slo.push(RejectedSloRun {
                    first_at_s: at_s,
                    last_at_s: at_s,
                    over_budget: 0,
                    below_break_even: 0,
                    break_even_requests: break_even,
                });
            }
            let run = self.rejected_slo.last_mut().expect("its run is open");
            run.last_at_s = at_s;
            run.below_break_even += u64::from(budget_feasible);
            run.over_budget += u64::from(!budget_feasible);
            self.candidate = Some(priced);
            return None;
        }
        let (switching_cost_s, migrations) = if accepted {
            (decision.switching_cost_s, decision.migrations.len())
        } else {
            (0.0, 0)
        };
        self.replans.push(ReplanRecord {
            at_s,
            trigger,
            mandatory,
            break_even_requests: break_even,
            observed_rate_per_s: observed_rate,
            accepted,
            switching_cost_s,
            migrations,
        });
        accepted.then_some(priced.decision)
    }

    /// Drops the memoised candidate: its instance is being rebuilt.
    pub(crate) fn forget(&mut self) {
        self.candidate = None;
    }

    /// Hands over the fleet events, replan records and rejected SLO runs.
    /// The report outlives the run, and a streaming run's peak heap is
    /// its report plus the printed JSON: the replan log drops its
    /// doubling slack here.
    pub(crate) fn finish(&mut self) -> (Vec<EventRecord>, Vec<ReplanRecord>, Vec<RejectedSloRun>) {
        self.replans.shrink_to_fit();
        let (events, replans, runs) = (&mut self.events, &mut self.replans, &mut self.rejected_slo);
        (take(events), take(replans), take(runs))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use s2m3_core::adaptive::Migration;
    use s2m3_core::placement::{greedy_place_resolved, PlacementOptions};
    use s2m3_core::resolved::ResolvedInstance;
    use s2m3_net::fleet::Fleet;

    use super::*;
    use crate::budget::BudgetPolicy;
    use crate::config::SloReplanTrigger;
    use crate::slo::Outcome;

    /// One module moved at `cost_s`: mandatory without an old latency,
    /// otherwise gaining `old_s - 1` seconds per request.
    fn decision(old_s: Option<f64>, cost_s: f64) -> ReplanDecision {
        ReplanDecision {
            placement: Placement::default(),
            migrations: vec![Migration {
                module: "vision/m".into(),
                from: None,
                to: "laptop".into(),
                cost_s,
            }],
            switching_cost_s: cost_s,
            old_latency_s: old_s,
            new_latency_s: 1.0,
        }
    }

    /// A controller with `horizon_s`, holding `decision` as a freshly
    /// solved candidate (what `candidate` installs after a solve).
    fn holding(horizon_s: f64, decision: ReplanDecision) -> Replanner {
        let policy = ReplanPolicy {
            horizon_s,
            ..ReplanPolicy::default()
        };
        let mut r = Replanner::new(&policy, 0);
        r.candidate = Some(PricedReplan {
            decision,
            mean_spend: None,
            opened_run: false,
        });
        r
    }

    fn breach() -> ReplanTrigger {
        ReplanTrigger::SloBreach {
            p95_s: 2.0,
            deadline_s: 1.0,
        }
    }

    /// A device-seconds budget of `cap` per 60 s window.
    fn budget(cap: f64) -> BudgetState {
        BudgetState::new(BudgetPolicy::device_seconds(cap), &[], &[])
    }

    #[test]
    fn a_mandatory_switch_bypasses_the_budget_and_the_horizon() {
        let mut r = holding(0.0, decision(None, 50.0));
        let never = |_: &BudgetState, _: &Placement| -> f64 { unreachable!("not priced") };
        let accepted = r.verdict(breach(), 0, 1.0, 0.0, Some(&budget(0.0)), never);
        assert!(accepted.is_some());
        assert!(r.rejected_slo.is_empty());
        let record = &r.replans[0];
        assert!(record.mandatory && record.accepted);
        assert_eq!((record.migrations, record.switching_cost_s), (1, 50.0));
        assert!(
            r.candidate.is_none(),
            "an accepted switch consumes its candidate"
        );
    }

    #[test]
    fn an_optional_switch_must_break_even_within_the_horizon() {
        // Gain 1 s per request: a 10 s switch breaks even after 10
        // requests, and 2 req/s over a 5 s horizon brings exactly 10.
        let free = |_: &BudgetState, _: &Placement| 0.0;
        let mut r = holding(5.0, decision(Some(2.0), 10.0));
        let text = || ReplanTrigger::Text("laptop joins".into());
        assert!(r.verdict(text(), 0, 3.0, 2.0, None, free).is_some());
        r.candidate = holding(5.0, decision(Some(2.0), 11.0)).candidate;
        assert!(r.verdict(text(), 0, 4.0, 2.0, None, free).is_none());
        assert!(
            r.candidate.is_none(),
            "a fleet-event verdict consumes its candidate"
        );
        assert_eq!(r.replans.len(), 2);
        let rejected = &r.replans[1];
        assert!(!rejected.accepted && !rejected.mandatory);
        assert_eq!(rejected.break_even_requests, Some(11));
        assert_eq!((rejected.migrations, rejected.switching_cost_s), (0, 0.0));
        assert_eq!(rejected.observed_rate_per_s, 2.0);
    }

    #[test]
    fn the_queue_credit_turns_a_rejection_into_an_acceptance() {
        let free = |_: &BudgetState, _: &Placement| 0.0;
        let mut r = holding(5.0, decision(Some(2.0), 11.0));
        assert!(r.verdict(breach(), 0, 1.0, 2.0, None, free).is_none());
        assert!(
            r.replans.is_empty(),
            "a rejected breach is a run, not a record"
        );
        // One queued request drains at the 1 s gain: 10 requests to go.
        assert!(r.verdict(breach(), 1, 2.0, 2.0, None, free).is_some());
        let record = &r.replans[0];
        assert!(record.accepted);
        assert_eq!(
            record.break_even_requests,
            Some(11),
            "the record keeps the steady state"
        );
    }

    #[test]
    fn rejected_breaches_of_one_candidate_extend_one_run() {
        // Break-even 11: below it at 2 req/s (10 expected), above it at
        // 3 req/s (15), where 3 × 60 s × 1.0 spends past the cap of 120.
        let priced = Cell::new(0);
        let spend = |_: &BudgetState, _: &Placement| {
            priced.set(priced.get() + 1);
            1.0
        };
        let cap = budget(120.0);
        let mut r = holding(5.0, decision(Some(2.0), 11.0));
        assert!(r
            .verdict(breach(), 0, 10.0, 2.0, Some(&cap), spend)
            .is_none());
        assert!(r
            .verdict(breach(), 0, 20.0, 3.0, Some(&cap), spend)
            .is_none());
        assert!(r
            .verdict(breach(), 0, 30.0, 2.0, Some(&cap), spend)
            .is_none());
        assert_eq!(priced.get(), 1, "a candidate is priced once");
        assert_eq!(
            r.rejected_slo,
            [RejectedSloRun {
                first_at_s: 10.0,
                last_at_s: 30.0,
                over_budget: 1,
                below_break_even: 2,
                break_even_requests: Some(11),
            }]
        );
        assert!(r.replans.is_empty());
    }

    #[test]
    fn a_forgotten_candidate_is_solved_afresh_and_opens_a_new_run() {
        let instance = Instance::on_fleet(Fleet::edge_testbed(), &[("CLIP ViT-B/16", 8)]).unwrap();
        let resolved = ResolvedInstance::new(&instance).unwrap();
        let placement = greedy_place_resolved(&resolved, PlacementOptions::default()).unwrap();
        let mut r = Replanner::new(&ReplanPolicy::default(), 0);
        let free = |_: &BudgetState, _: &Placement| 0.0;
        // Greedy replans onto its own placement: nothing moves and
        // nothing is gained, so every breach evaluation rejects it.
        for at_s in [1.0, 2.0] {
            assert!(!r.candidate(&instance, &placement).unwrap());
            assert!(r.verdict(breach(), 0, at_s, 1.0, None, free).is_none());
        }
        r.forget();
        assert!(r.candidate.is_none());
        assert!(!r.candidate(&instance, &placement).unwrap());
        assert!(r.verdict(breach(), 0, 3.0, 1.0, None, free).is_none());
        let runs: Vec<_> = r
            .rejected_slo
            .iter()
            .map(|run| (run.first_at_s, run.last_at_s))
            .collect();
        assert_eq!(runs, [(1.0, 2.0), (3.0, 3.0)]);
        assert_eq!(r.rejected_slo[0].evaluations(), 2);
    }

    #[test]
    fn the_trigger_arms_at_the_clamped_window_and_keeps_its_cooldown() {
        let policy = ReplanPolicy {
            slo_trigger: Some(SloReplanTrigger {
                min_window: 10,
                cooldown_s: 0.0,
            }),
            ..ReplanPolicy::default()
        };
        let mut r = Replanner::new(&policy, 100);
        let mut slo = SloWindow::new(4);
        let late = Outcome {
            completed_at_s: 0.0,
            latency_s: 5.0,
            missed: true,
        };
        for _ in 0..3 {
            slo.push(late);
            assert!(!r.slo_due(&slo, 1.0, 1_000), "armed before 4 outcomes");
        }
        slo.push(late);
        assert!(r.slo_due(&slo, 1.0, 1_000), "min(10, capacity 4) arms it");
        assert!(!r.slo_due(&slo, 1.0, 1_099), "inside the cooldown");
        assert!(r.slo_due(&slo, 1.0, 1_100));
        assert!(!r.slo_due(&slo, 10.0, 1_200), "p95 within the deadline");
        assert!(
            !r.slo_due(&slo, 1.0, 1_250),
            "a quiet sample restarts the cooldown"
        );
        assert!(!Replanner::new(&ReplanPolicy::default(), 100).slo_due(&slo, 1.0, 1_000));
    }
}
