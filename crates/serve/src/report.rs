//! The serving run's output: end-of-run SLO summary, windowed snapshots,
//! fleet-event and replan history, per-device utilization.

use std::fmt::Write as _;

use serde::Serialize;

use s2m3_core::sketch::ceil_rank;

use crate::slo::WindowSnapshot;

/// Latency percentile summary over all completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct LatencySummary {
    /// Completed requests.
    pub completed: u64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

impl LatencySummary {
    /// Builds a summary from already-sorted latencies.
    #[cfg(test)]
    pub(crate) fn from_sorted(latencies: &[f64]) -> Self {
        Self::from_ascending(latencies.len(), latencies.iter().copied())
    }

    /// Builds a summary from `n` latencies in ascending order, in one
    /// pass: the mean sums them in that order, each percentile is the
    /// sample at its [`ceil_rank`], and the maximum is the last sample.
    pub(crate) fn from_ascending(n: usize, ascending: impl IntoIterator<Item = f64>) -> Self {
        if n == 0 {
            return LatencySummary::default();
        }
        let ranks = [0.50, 0.95, 0.99].map(|p| ceil_rank(n, p));
        let (mut seen, mut sum, mut at, mut max_s) = (0, 0.0, [0.0; 3], 0.0);
        for v in ascending {
            seen += 1;
            sum += v;
            for (slot, &rank) in at.iter_mut().zip(&ranks) {
                if seen == rank {
                    *slot = v;
                }
            }
            max_s = v;
        }
        debug_assert_eq!(seen, n, "latency count");
        let [p50_s, p95_s, p99_s] = at;
        LatencySummary {
            completed: n as u64,
            mean_s: sum / n as f64,
            p50_s,
            p95_s,
            p99_s,
            max_s,
        }
    }

    /// Builds a summary from a streaming
    /// [`LatencySketch`](s2m3_core::sketch::LatencySketch): count,
    /// mean, and max are exact; the percentiles carry the sketch's
    /// ≤ 1% relative error bound.
    pub fn from_sketch(sketch: &s2m3_core::sketch::LatencySketch) -> Self {
        LatencySummary {
            completed: sketch.count(),
            mean_s: sketch.mean(),
            p50_s: sketch.quantile(0.50),
            p95_s: sketch.quantile(0.95),
            p99_s: sketch.quantile(0.99),
            max_s: sketch.max(),
        }
    }
}

/// One applied fleet event, as recorded.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventRecord {
    /// When it took effect, seconds.
    pub at_s: f64,
    /// Human-readable description (e.g. `"desktop leaves"`).
    pub description: String,
}

/// What prompted a replan evaluation.
///
/// The report stores values; shared text is rendered when printed. An
/// accepted SLO-breach switch keeps the two numbers and
/// [`Display`](std::fmt::Display) writes the sentence, and JSON carries
/// the rendered text.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplanTrigger {
    /// Free text: a fleet-event description (e.g. `"desktop leaves"`).
    Text(String),
    /// The rolling p95 exceeded the scenario deadline
    /// ([`ReplanPolicy::slo_trigger`](crate::config::ReplanPolicy)).
    SloBreach {
        /// The rolling-window p95 latency, seconds.
        p95_s: f64,
        /// The scenario deadline, seconds.
        deadline_s: f64,
    },
}

impl std::fmt::Display for ReplanTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanTrigger::Text(text) => f.write_str(text),
            ReplanTrigger::SloBreach { p95_s, deadline_s } => write!(
                f,
                "SLO breach: rolling p95 {p95_s:.2}s exceeds {deadline_s:.2}s deadline"
            ),
        }
    }
}

impl From<&str> for ReplanTrigger {
    fn from(text: &str) -> Self {
        ReplanTrigger::Text(text.to_string())
    }
}

impl Serialize for ReplanTrigger {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            ReplanTrigger::Text(text) => s.serialize_str(text),
            breach => s.serialize_str(&breach.to_string()),
        }
    }
}

/// One replan decision by the controller: a fleet-event evaluation,
/// accepted or not, or an accepted SLO-breach switch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplanRecord {
    /// When the controller ran, seconds.
    pub at_s: f64,
    /// What prompted it: a fleet-event description, or an SLO breach
    /// kept as its two numbers and rendered when printed.
    pub trigger: ReplanTrigger,
    /// Whether the old placement could no longer serve (forced switch).
    pub mandatory: bool,
    /// Requests needed to amortize the switch (`None`: never pays off).
    pub break_even_requests: Option<u64>,
    /// Observed arrival rate at decision time, requests/second.
    pub observed_rate_per_s: f64,
    /// Whether the migration was applied.
    pub accepted: bool,
    /// One-time switching cost, seconds (0 when rejected).
    pub switching_cost_s: f64,
    /// Modules moved (0 when rejected).
    pub migrations: usize,
}

/// A run of rejected SLO-breach replan evaluations of one candidate.
///
/// Between fleet events and accepted switches the trigger re-gates the
/// same memoised candidate at every cooldown, and a long run rejects it
/// thousands of times. The report keeps one run per candidate: its
/// first and last evaluation and why each was rejected. A new run
/// starts whenever the trigger solves a fresh candidate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RejectedSloRun {
    /// The run's first rejected evaluation, seconds.
    pub first_at_s: f64,
    /// The run's last rejected evaluation, seconds.
    pub last_at_s: f64,
    /// Evaluations rejected by the budget-feasibility term.
    pub over_budget: u64,
    /// Evaluations rejected because the switch would not amortize
    /// within the horizon at the observed rate (queue credit included).
    pub below_break_even: u64,
    /// The candidate's steady-state break-even, requests (`None`:
    /// never pays off).
    pub break_even_requests: Option<u64>,
}

impl RejectedSloRun {
    /// Evaluations in the run.
    pub fn evaluations(&self) -> u64 {
        self.over_budget + self.below_break_even
    }
}

/// Per-[`DeadlineClass`](s2m3_core::problem::DeadlineClass) serving
/// statistics: the scenario-level counters and latency summary, split
/// by the class each request drew from the workload's
/// [`ClassShare`](s2m3_sim::workload::ClassShare)s. Empty when the
/// scenario defines no classes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassReport {
    /// Class name (from the workload's `DeadlineClass`).
    pub class: String,
    /// Requests of this class that arrived.
    pub arrived: u64,
    /// Requests of this class that completed.
    pub completed: u64,
    /// Requests of this class shed at admission.
    pub shed: u64,
    /// Completed requests of this class past their class deadline.
    pub late: u64,
    /// Class deadline-miss rate: (late + shed) / arrived.
    pub miss_rate: f64,
    /// Latency summary over this class's completed requests.
    pub latency: LatencySummary,
}

/// Per-device serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceReport {
    /// Device name.
    pub device: String,
    /// Module executions the device ran to completion while active.
    pub executions: u64,
    /// Busy lane-seconds accumulated by completed executions.
    pub busy_s: f64,
    /// Seconds the device was in the active fleet.
    pub active_s: f64,
    /// Busy fraction of offered lane-seconds, `[0, 1]`.
    pub utilization: f64,
}

/// The full, deterministic output of a serving run.
///
/// Serialization note: `rejected_slo` is omitted when empty and
/// `budget` when `None`, so runs without them keep the exact JSON shape
/// pinned by `tests/fixtures/serve_churn_*.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct ServeReport {
    /// Scenario seed label (same seed ⇒ identical report).
    pub seed: String,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Completed requests that finished past their deadline.
    pub late: u64,
    /// Deadline-miss rate over all arrivals: (late + shed) / arrived.
    pub miss_rate: f64,
    /// Requests re-admitted after losing their device mid-flight.
    pub retried: u64,
    /// Latency summary over completed requests.
    pub latency: LatencySummary,
    /// Completion throughput, requests per second of virtual time.
    pub throughput_per_s: f64,
    /// Virtual time when the last request finished, seconds.
    pub makespan_s: f64,
    /// Per-deadline-class statistics, in workload class order (empty
    /// without classes).
    pub classes: Vec<ClassReport>,
    /// Rolling-window SLO snapshots over the run.
    pub windows: Vec<WindowSnapshot>,
    /// Fleet events applied.
    pub events: Vec<EventRecord>,
    /// Replan decisions: every fleet-event evaluation, accepted or
    /// not, and every accepted SLO-breach switch. Rejected SLO-breach
    /// evaluations are counted in `rejected_slo` instead.
    pub replans: Vec<ReplanRecord>,
    /// Rejected SLO-breach evaluations, one run per candidate, in time
    /// order (empty without the SLO trigger).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub rejected_slo: Vec<RejectedSloRun>,
    /// Per-device serving statistics, in name order.
    pub devices: Vec<DeviceReport>,
    /// Budget-enforcement summary; present only when the scenario ran
    /// with a [`BudgetPolicy`](crate::budget::BudgetPolicy).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub budget: Option<crate::budget::BudgetReport>,
}

impl ServeReport {
    /// Number of accepted replans.
    pub fn accepted_replans(&self) -> usize {
        self.replans.iter().filter(|r| r.accepted).count()
    }

    /// JSON export.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure (not expected for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// A compact human-readable summary.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve run `{}`: {} arrived, {} completed, {} shed, {} late \
             ({} retried after device loss)",
            self.seed, self.arrived, self.completed, self.shed, self.late, self.retried
        );
        let _ = writeln!(
            out,
            "latency  p50 {:.2}s  p95 {:.2}s  p99 {:.2}s  max {:.2}s  (mean {:.2}s)",
            self.latency.p50_s,
            self.latency.p95_s,
            self.latency.p99_s,
            self.latency.max_s,
            self.latency.mean_s
        );
        let _ = writeln!(
            out,
            "deadline-miss rate {:.2}%   throughput {:.2} req/s over {:.0}s of virtual time",
            100.0 * self.miss_rate,
            self.throughput_per_s,
            self.makespan_s
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "class  {:<12} {:>6} arrived  {:>6} completed  {:>5} shed  {:>5} late  \
                 miss {:>5.1}%  p95 {:.2}s",
                c.class,
                c.arrived,
                c.completed,
                c.shed,
                c.late,
                100.0 * c.miss_rate,
                c.latency.p95_s
            );
        }
        for e in &self.events {
            let _ = writeln!(out, "event  t={:>7.0}s  {}", e.at_s, e.description);
        }
        for r in &self.replans {
            let verdict = if r.accepted {
                format!(
                    "ACCEPTED ({} migrations, {:.1}s switching cost)",
                    r.migrations, r.switching_cost_s
                )
            } else {
                "rejected".to_string()
            };
            let _ = writeln!(
                out,
                "replan t={:>7.0}s  {}  break-even {} req @ {:.2} req/s  {}{}",
                r.at_s,
                r.trigger,
                break_even_text(r.break_even_requests),
                r.observed_rate_per_s,
                if r.mandatory { "mandatory " } else { "" },
                verdict
            );
        }
        for r in &self.rejected_slo {
            let _ = writeln!(
                out,
                "replan t={:>7.0}s..{:.0}s  SLO breach  break-even {} req  \
                 {} rejected ({} over budget, {} below break-even)",
                r.first_at_s,
                r.last_at_s,
                break_even_text(r.break_even_requests),
                r.evaluations(),
                r.over_budget,
                r.below_break_even
            );
        }
        for d in &self.devices {
            let _ = writeln!(
                out,
                "device {:<10} {:>8} execs  busy {:>9.1}s  active {:>9.1}s  util {:>5.1}%",
                d.device,
                d.executions,
                d.busy_s,
                d.active_s,
                100.0 * d.utilization
            );
        }
        if let Some(b) = &self.budget {
            let _ = writeln!(
                out,
                "budget cap {:.2}/{:.0}s window  spend {:.2} (uncapped {:.2})  \
                 adherence {:.1}%  deferred {}  shed {}  latency price {:.1}s",
                b.cap_per_window,
                b.window_s,
                b.spend_total,
                b.shadow_spend_total,
                100.0 * b.adherence,
                b.deferred,
                b.shed,
                b.latency_price_s
            );
            for c in &b.classes {
                let _ = writeln!(
                    out,
                    "budget class {:<12} prio {:>3}  {:>6} deferred  {:>6} shed",
                    c.class, c.priority, c.deferred, c.shed
                );
            }
        }
        out
    }
}

/// A break-even for printing (`∞`: never pays off).
fn break_even_text(requests: Option<u64>) -> String {
    requests.map_or_else(|| "∞".to_string(), |b| b.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let latencies: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let s = LatencySummary::from_sorted(&latencies);
        assert_eq!(s.completed, 200);
        assert_eq!(s.p50_s, 100.0);
        assert_eq!(s.p95_s, 190.0);
        assert_eq!(s.p99_s, 198.0);
        assert_eq!(s.max_s, 200.0);
        assert_eq!(LatencySummary::from_sorted(&[]).completed, 0);
    }

    #[test]
    fn report_json_roundtrip_and_summary() {
        let report = ServeReport {
            seed: "t".into(),
            arrived: 10,
            completed: 8,
            shed: 2,
            late: 1,
            miss_rate: 0.3,
            retried: 1,
            latency: LatencySummary::from_sorted(&[1.0, 2.0, 3.0]),
            throughput_per_s: 0.5,
            makespan_s: 20.0,
            classes: vec![ClassReport {
                class: "interactive".into(),
                arrived: 6,
                completed: 5,
                shed: 1,
                late: 1,
                miss_rate: 2.0 / 6.0,
                latency: LatencySummary::from_sorted(&[1.0, 2.0]),
            }],
            windows: vec![],
            events: vec![EventRecord {
                at_s: 5.0,
                description: "desktop leaves".into(),
            }],
            replans: vec![ReplanRecord {
                at_s: 5.0,
                trigger: "desktop leaves".into(),
                mandatory: true,
                break_even_requests: Some(0),
                observed_rate_per_s: 0.4,
                accepted: true,
                switching_cost_s: 12.0,
                migrations: 2,
            }],
            rejected_slo: vec![],
            devices: vec![],
            budget: None,
        };
        let json = report.to_json().unwrap();
        // `budget: None` and no rejected SLO evaluation must leave the
        // JSON shape untouched — the golden fixtures without them
        // depend on the keys being absent.
        assert!(!json.contains("\"budget\""));
        assert!(!json.contains("\"rejected_slo\""));
        assert!(json.contains("\"trigger\": \"desktop leaves\""));
        assert_eq!(report.accepted_replans(), 1);
        let text = report.render_summary();
        assert!(text.contains("ACCEPTED"));
        assert!(text.contains("desktop leaves"));
        assert!(text.contains("p95"));
        assert!(text.contains("interactive"));
        assert!(!text.contains("budget cap"));

        let mut capped = report.clone();
        capped.budget = Some(crate::budget::BudgetReport {
            cap_per_window: 4.0,
            window_s: 10.0,
            metric: crate::budget::BudgetMetric::DeviceSeconds,
            enforcement: crate::budget::BudgetEnforcement::DeferThenShed,
            windows_total: 2,
            windows_over_cap: 0,
            adherence: 1.0,
            spend_total: 6.5,
            shadow_spend_total: 9.0,
            dispatched: 7,
            deferred: 2,
            shed: 1,
            latency_price_s: 3.25,
            classes: vec![crate::budget::BudgetClassReport {
                class: "interactive".into(),
                priority: 2,
                deferred: 2,
                shed: 1,
            }],
            windows: vec![crate::budget::BudgetWindow {
                index: 0,
                spend: 3.5,
                shadow_spend: 5.0,
                dispatched: 4,
                deferred: 2,
                shed: 1,
            }],
        });
        let json = capped.to_json().unwrap();
        assert!(json.contains("\"budget\""));
        assert!(json.contains("\"enforcement\": \"DeferThenShed\""));
        assert!(json.contains("\"latency_price_s\": 3.25"));
        let text = capped.render_summary();
        assert!(text.contains("budget cap 4.00"));
        assert!(text.contains("latency price 3.2s"));

        // SLO-breach triggers keep their numbers and render the text
        // the engine used to format per evaluation, rounding edges
        // included, and JSON carries that text.
        let mut breached = report.clone();
        for (i, p95_s) in [0.125, 2.675, 0.0, 1e6].into_iter().enumerate() {
            let trigger = ReplanTrigger::SloBreach {
                p95_s,
                deadline_s: 15.0,
            };
            assert_eq!(
                trigger.to_string(),
                format!("SLO breach: rolling p95 {p95_s:.2}s exceeds 15.00s deadline")
            );
            breached.replans.push(ReplanRecord {
                at_s: 60.0 * (i + 1) as f64,
                trigger,
                accepted: false,
                mandatory: false,
                switching_cost_s: 0.0,
                migrations: 0,
                ..report.replans[0].clone()
            });
        }
        assert_eq!(
            breached.replans[1].trigger.to_string(),
            "SLO breach: rolling p95 0.12s exceeds 15.00s deadline"
        );
        let json = breached.to_json().unwrap();
        assert!(json.contains("\"trigger\": \"SLO breach: rolling p95 1000000.00s exceeds"));
        assert!(
            json.contains("\"trigger\": \"SLO breach: rolling p95 0.12s exceeds 15.00s deadline\"")
        );
        let text = breached.render_summary();
        assert!(text.contains("SLO breach: rolling p95 2.67s exceeds 15.00s deadline"));

        // Rejected SLO evaluations are runs: one JSON entry and one
        // summary line each, however many evaluations they count.
        let mut rejected = report.clone();
        rejected.rejected_slo = vec![
            RejectedSloRun {
                first_at_s: 60.0,
                last_at_s: 1_260.0,
                over_budget: 20,
                below_break_even: 1,
                break_even_requests: Some(8),
            },
            RejectedSloRun {
                first_at_s: 1_900.0,
                last_at_s: 1_900.0,
                over_budget: 0,
                below_break_even: 1,
                break_even_requests: None,
            },
        ];
        let json = rejected.to_json().unwrap();
        assert_eq!(json.matches("\"first_at_s\"").count(), 2);
        assert!(json.contains("\"break_even_requests\": null"));
        let text = rejected.render_summary();
        assert!(text.contains(
            "replan t=     60s..1260s  SLO breach  break-even 8 req  \
             21 rejected (20 over budget, 1 below break-even)"
        ));
        assert!(text.contains("break-even ∞ req  1 rejected (0 over budget, 1 below"));
    }
}
