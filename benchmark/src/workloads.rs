//! The five workloads: input generators (from `--seed`) and one
//! repetition of each — the whole user-visible call from inputs to the
//! final report string — with or without spans around the public calls.

use s2m3_core::plan::Plan;
use s2m3_core::problem::{DeadlineClass, Instance};
use s2m3_core::resolved::ResolvedInstance;
use s2m3_net::fleet::Fleet;
use s2m3_serve::{
    prepare, AdmissionPolicy, BatchPolicy, BudgetPolicy, ClassShare, ModelDeployment, ModelMix,
    ModelWeight, ServeReport, ServeScenario, ServeSession, SloReplanTrigger, StreamingConfig,
    TrafficSource,
};
use s2m3_sim::engine::{simulate_shared, SimConfig};
use s2m3_sim::workload::{latency_stats, ArrivalProcess, WorkloadSpec};
use s2m3_sweep::{run_sweep, SweepReport, SweepSpec};

use crate::stats::digest;
use crate::trace::Recorder;

/// Workload names with the one-line reason each exists (the same lines
/// `BENCHMARK.json` carries).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "steady_mix",
        "under capacity, five models: every request runs its whole lifecycle; kernel, dispatch and accounting dominate",
    ),
    (
        "overload_churn",
        "traffic crosses capacity both ways with fleet churn: arrival sampling, the depth-48 queue and the shed path dominate",
    ),
    (
        "exact_budget",
        "exact mode with batching, budget gate and SLO replans: O(requests) state, sorted latencies and a large JSON report",
    ),
    (
        "offline_burst",
        "bounded path with all arrivals pre-pushed: the only workload past 64k pending events, with per-request routing and Gantt spans",
    ),
    (
        "sweep_grid",
        "thousands of short replicas on two threads: prepare, session set-up, finish, aggregation and the pool dominate",
    ),
];

/// The five-model deployment shared by four workloads.
pub const FIVE_MODELS: [(&str, usize); 5] = [
    ("CLIP ViT-B/16", 101),
    ("Encoder-only VQA (Small)", 1),
    ("AlignBind-B", 16),
    ("CLIP-Classifier Food-101", 0),
    ("Flint-v0.5-1B", 1),
];

/// `--quick` divides every request, replica and replay-op count by this.
pub const QUICK_DIVISOR: usize = 20;

/// `serve.run` is traced as this many `run_until` slices of equal
/// virtual time.
pub const RUN_SLICES: usize = 128;

/// Generated inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `prepare` → `ServeSession` → `finish` → `ServeReport::to_json`.
    Serve(Box<ServeScenario>),
    /// `materialize` → `Plan::greedy` → `simulate` → `latency_stats`.
    Offline {
        instance: Box<Instance>,
        spec: WorkloadSpec,
        requests: usize,
    },
    /// `run_sweep` → `SweepReport::to_json`.
    Sweep(Box<SweepSpec>),
}

fn five_model_deployments() -> Vec<ModelDeployment> {
    FIVE_MODELS
        .iter()
        .map(|&(name, candidates)| ModelDeployment {
            name: name.to_string(),
            candidates,
        })
        .collect()
}

/// The 1:2:3:4:5 weighted mix over [`FIVE_MODELS`].
fn five_model_mix() -> ModelMix {
    ModelMix::Weighted {
        weights: FIVE_MODELS
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| ModelWeight {
                model: name.to_string(),
                weight: (i + 1) as f64,
            })
            .collect(),
    }
}

/// Builds `workload`'s inputs. The program under test sees only the
/// label `bench/<workload>/<seed>`, never what the seed means.
///
/// # Errors
///
/// An unknown workload name.
pub fn generate(workload: &str, seed: &str, quick: bool) -> Result<Inputs, String> {
    let label = format!("bench/{workload}/{seed}");
    let scale = |n: usize| if quick { n.div_ceil(QUICK_DIVISOR) } else { n };
    Ok(match workload {
        "steady_mix" => {
            let mut s = ServeScenario::churn_default();
            s.fleet = "edge".to_string();
            s.models = five_model_deployments();
            s.mix = Some(five_model_mix());
            s.sources = vec![
                TrafficSource {
                    device: "jetson-a".to_string(),
                    arrivals: ArrivalProcess::Poisson { rate_per_s: 0.42 },
                    weight: None,
                    mix: None,
                },
                TrafficSource {
                    device: "laptop".to_string(),
                    arrivals: ArrivalProcess::Diurnal {
                        base_rate_per_s: 0.14,
                        peak_rate_per_s: 0.42,
                        period_s: 3600.0,
                    },
                    weight: None,
                    mix: None,
                },
            ];
            s.classes = vec![
                ClassShare {
                    class: DeadlineClass {
                        name: "interactive".to_string(),
                        deadline_s: 8.0,
                        priority: 2,
                    },
                    weight: 1.0,
                },
                ClassShare {
                    class: DeadlineClass {
                        name: "batch".to_string(),
                        deadline_s: 60.0,
                        priority: 0,
                    },
                    weight: 3.0,
                },
            ];
            s.admission = AdmissionPolicy::EarliestDeadlineFirst;
            s.events.clear();
            s.requests = scale(STEADY_MIX_REQUESTS);
            s.streaming = Some(StreamingConfig::default());
            s.max_windows = Some(64);
            s.seed = label;
            Inputs::Serve(Box::new(s))
        }
        "overload_churn" => {
            let mut s = ServeScenario::churn_default();
            s.arrivals = ArrivalProcess::Mmpp {
                rates_per_s: vec![0.6, 4.0],
                mean_dwell_s: 300.0,
            };
            s.requests = scale(OVERLOAD_CHURN_REQUESTS);
            s.streaming = Some(StreamingConfig::default());
            s.max_windows = Some(64);
            s.seed = label;
            Inputs::Serve(Box::new(s))
        }
        "exact_budget" => {
            let mut s = ServeScenario::churn_default();
            s.models = five_model_deployments();
            s.mix = Some(five_model_mix());
            s.arrivals = ArrivalProcess::Mmpp {
                rates_per_s: vec![0.25, 1.0],
                mean_dwell_s: 120.0,
            };
            s.admission = AdmissionPolicy::EarliestDeadlineFirst;
            s.batch = Some(BatchPolicy {
                max_batch: 4,
                per_kind: vec![],
            });
            s.budget = Some(BudgetPolicy::device_seconds(30.0));
            s.replan.slo_trigger = Some(SloReplanTrigger::default());
            s.requests = scale(EXACT_BUDGET_REQUESTS);
            s.seed = label;
            Inputs::Serve(Box::new(s))
        }
        "offline_burst" => {
            let instance = Instance::on_fleet(Fleet::standard_testbed(), &FIVE_MODELS)
                .map_err(|e| e.to_string())?;
            let mut spec =
                WorkloadSpec::single_source(ArrivalProcess::Poisson { rate_per_s: 1000.0 }, label);
            spec.mix = five_model_mix();
            Inputs::Offline {
                instance: Box::new(instance),
                spec,
                requests: scale(OFFLINE_BURST_REQUESTS),
            }
        }
        "sweep_grid" => {
            let mut base = ServeScenario::churn_default();
            base.requests = 500;
            base.snapshot_every = 50;
            base.seed = label;
            Inputs::Sweep(Box::new(SweepSpec {
                base,
                seeds: scale(SWEEP_GRID_SEEDS),
                rate_scales: vec![0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0],
                fleet_sizes: vec![1, 2, 3, 4],
                bin_s: 600.0,
                miss_budget: 0.01,
                threads: 2,
            }))
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// Sizes chosen so one repetition takes 0.5–2 s on the 2-core reference
// box; only request/replica counts may be rescaled (BENCHMARK.json and
// the README record them).
const STEADY_MIX_REQUESTS: usize = 2_000_000;
const OVERLOAD_CHURN_REQUESTS: usize = 3_000_000;
const EXACT_BUDGET_REQUESTS: usize = 500_000;
const OFFLINE_BURST_REQUESTS: usize = 150_000;
const SWEEP_GRID_SEEDS: usize = 192;

/// Simulated-time results of one repetition: what the modelled fleet
/// delivered. Exact for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sim {
    /// The report's headline latency: mean over completed requests
    /// (exact in both serve modes); on `sweep_grid` the grid-wide mean
    /// of per-replica p95s — the only latency scalar a `SweepReport`
    /// carries.
    pub latency_s: f64,
    pub p50_s: Option<f64>,
    pub p99_s: Option<f64>,
    pub miss_rate: Option<f64>,
    pub goodput_per_s: f64,
    pub frontier_rate_per_s: Option<f64>,
}

/// What the replay pass needs to know about a serve run, read off the
/// scenario and its report.
#[derive(Debug, Clone)]
pub struct ServeShape {
    pub scenario: Box<ServeScenario>,
    pub arrived: u64,
    pub completed: u64,
    pub shed: u64,
    /// Mean requests in the system by Little's law (throughput × mean
    /// latency): the depth the slab and queue replays hold.
    pub inflight: usize,
}

/// Everything one repetition produced besides its wall time.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub digest: u64,
    pub report_bytes: u64,
    /// Simulated requests offered (for `sweep_grid`, replicas × requests).
    pub requests: u64,
    /// Kernel events processed by `serve.run` (0 off the serve path).
    pub events: u64,
    /// Allocator calls made inside `serve.run` (0 off the serve path).
    pub run_allocs: u64,
    pub makespan_s: f64,
    pub sim: Sim,
    /// Exact counters, for diffing two commits.
    pub counters: Vec<(&'static str, f64)>,
    /// Correctness checks; each is one attempted operation.
    pub checks: Vec<(&'static str, bool)>,
    pub shape: Option<ServeShape>,
}

impl Outcome {
    /// An exact counter by name (0 when this workload has none such).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<T>(
    rec: &mut Option<&mut Recorder>,
    workload: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => {
            let id = r.begin(workload, name);
            let out = f();
            r.end(id, None);
            out
        }
        None => f(),
    }
}

/// One repetition of `workload`. With a recorder, every public call
/// gets a span and `serve.run` is driven as [`RUN_SLICES`] `run_until`
/// slices over `horizon_s` (the untraced run's makespan); slicing is
/// invisible in the report, so the digests must agree.
///
/// # Errors
///
/// The program's own error, as text: a failed call is a failed check.
pub fn run(
    workload: &'static str,
    inputs: &Inputs,
    mut rec: Option<&mut Recorder>,
    horizon_s: f64,
) -> Result<Outcome, String> {
    let rec = &mut rec;
    match inputs {
        Inputs::Serve(scenario) => {
            let shared =
                spanned(rec, workload, "serve.prepare", || prepare(scenario)).map_err(err)?;
            let mut session = spanned(rec, workload, "serve.session_new", || {
                ServeSession::with_shared(scenario, &shared)
            })
            .map_err(err)?;
            let allocs_before = crate::alloc::calls();
            let events = match rec {
                None => session.run_to_idle().map_err(err)?,
                Some(r) => {
                    let run = r.begin(workload, "serve.run");
                    let mut events = 0;
                    for i in 1..=RUN_SLICES {
                        let slice = r.begin(workload, "serve.run.slice");
                        let n = if i < RUN_SLICES {
                            session.run_until(horizon_s * i as f64 / RUN_SLICES as f64)
                        } else {
                            session.run_to_idle()
                        }
                        .map_err(err)?;
                        r.end(slice, Some(n));
                        events += n;
                    }
                    r.end(run, Some(events));
                    events
                }
            };
            let run_allocs = crate::alloc::calls() - allocs_before;
            let report = spanned(rec, workload, "serve.finish", || session.finish());
            let json =
                spanned(rec, workload, "serve.report.json", || report.to_json()).map_err(err)?;
            let mut outcome = serve_outcome(scenario, &report, &json, events);
            outcome.run_allocs = run_allocs;
            Ok(outcome)
        }
        Inputs::Offline {
            instance,
            spec,
            requests,
        } => {
            let (reqs, arrivals) = spanned(rec, workload, "sim.workload.materialize", || {
                spec.materialize(instance, *requests)
            })
            .map_err(err)?;
            let plan = spanned(rec, workload, "core.plan.greedy", || {
                Plan::greedy(instance, reqs)
            })
            .map_err(err)?;
            let resolved = spanned(rec, workload, "core.resolved.build", || {
                ResolvedInstance::new(instance)
            })
            .map_err(err)?;
            let config = SimConfig {
                arrivals: Some(arrivals),
                ..SimConfig::default()
            };
            let report = spanned(rec, workload, "sim.engine.simulate", || {
                simulate_shared(instance, &resolved, &plan, &config)
            })
            .map_err(err)?;
            let stats = spanned(rec, workload, "sim.workload.latency_stats", || {
                latency_stats(&report)
            });
            // `s2m3 simulate` prints a summary, not a report JSON; full
            // float precision here so the digest sees every bit.
            let text = format!(
                "{stats:?} makespan {:?} spans {}",
                report.makespan,
                report.spans.len()
            );
            Ok(Outcome {
                digest: digest(text.as_bytes()),
                report_bytes: text.len() as u64,
                requests: *requests as u64,
                makespan_s: report.makespan,
                sim: Sim {
                    latency_s: stats.mean,
                    p50_s: Some(stats.p50),
                    p99_s: Some(stats.p99),
                    miss_rate: None,
                    goodput_per_s: stats.throughput,
                    frontier_rate_per_s: None,
                },
                counters: vec![
                    ("completed", stats.n as f64),
                    ("gantt_spans", report.spans.len() as f64),
                ],
                checks: vec![
                    ("completed == requests", stats.n == *requests),
                    ("p50 <= p99", stats.p50 <= stats.p99),
                ],
                ..Outcome::default()
            })
        }
        Inputs::Sweep(spec) => {
            let report = spanned(rec, workload, "sweep.run", || run_sweep(spec)).map_err(err)?;
            let json =
                spanned(rec, workload, "sweep.report.json", || report.to_json()).map_err(err)?;
            Ok(sweep_outcome(spec, &report, &json))
        }
    }
}

/// The program's errors cross into the benchmark as text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn serve_outcome(scenario: &ServeScenario, r: &ServeReport, json: &str, events: u64) -> Outcome {
    let budget = r.budget.as_ref();
    let mut checks = vec![
        ("arrived == requests", r.arrived == scenario.requests as u64),
        (
            "completed + shed == arrived",
            r.completed + r.shed == r.arrived,
        ),
        ("p50 <= p99", r.latency.p50_s <= r.latency.p99_s),
    ];
    if let Some(b) = budget {
        checks.push((
            "budget adherence <= 1",
            b.adherence <= 1.0 && b.windows_over_cap == 0,
        ));
    }
    Outcome {
        digest: digest(json.as_bytes()),
        report_bytes: json.len() as u64,
        requests: scenario.requests as u64,
        events,
        run_allocs: 0,
        makespan_s: r.makespan_s,
        sim: Sim {
            latency_s: r.latency.mean_s,
            p50_s: Some(r.latency.p50_s),
            p99_s: Some(r.latency.p99_s),
            miss_rate: Some(r.miss_rate),
            goodput_per_s: (r.completed - r.late) as f64 / r.makespan_s.max(1e-9),
            frontier_rate_per_s: None,
        },
        counters: vec![
            ("arrived", r.arrived as f64),
            ("completed", r.completed as f64),
            ("shed", r.shed as f64),
            ("late", r.late as f64),
            ("retried", r.retried as f64),
            ("events", events as f64),
            ("replans", r.replans.len() as f64),
            ("replans_accepted", r.accepted_replans() as f64),
            ("budget_deferred", budget.map_or(0.0, |b| b.deferred as f64)),
            ("budget_shed", budget.map_or(0.0, |b| b.shed as f64)),
        ],
        checks,
        shape: Some(ServeShape {
            scenario: Box::new(scenario.clone()),
            arrived: r.arrived,
            completed: r.completed,
            shed: r.shed,
            inflight: (r.throughput_per_s * r.latency.mean_s).round().max(1.0) as usize,
        }),
    }
}

fn sweep_outcome(spec: &SweepSpec, r: &SweepReport, json: &str) -> Outcome {
    let per_replica = spec.base.requests as f64;
    // Grid-wide goodput: every cell's mean on-time completions over its
    // mean makespan, summed — total on-time work per simulated second.
    let on_time: f64 = r
        .cells
        .iter()
        .map(|c| per_replica * (1.0 - c.scalars.miss_rate_mean))
        .sum();
    let sim_seconds: f64 = r.cells.iter().map(|c| c.scalars.makespan_mean_s).sum();
    let full = spec.fleet_sizes.iter().copied().max().unwrap_or(0);
    let p95_mean_s = r
        .cells
        .iter()
        .map(|c| c.scalars.latency_p95_mean_s)
        .sum::<f64>()
        / r.cells.len().max(1) as f64;
    let frontier = r.frontier.iter().find(|f| f.fleet_size == full);
    let mut counters = vec![
        ("replicas", r.replicas as f64),
        ("cells", r.cells.len() as f64),
    ];
    const FRONTIER_SCALE: [&str; 4] = [
        "frontier_scale_fleet1",
        "frontier_scale_fleet2",
        "frontier_scale_fleet3",
        "frontier_scale_fleet4",
    ];
    for (name, f) in FRONTIER_SCALE.iter().zip(&r.frontier) {
        counters.push((name, f.max_rate_scale.unwrap_or(0.0)));
    }
    Outcome {
        digest: digest(json.as_bytes()),
        report_bytes: json.len() as u64,
        requests: (spec.replica_count() * spec.base.requests) as u64,
        makespan_s: sim_seconds,
        sim: Sim {
            latency_s: p95_mean_s,
            p50_s: None,
            p99_s: None,
            miss_rate: None,
            goodput_per_s: on_time / sim_seconds.max(1e-9),
            frontier_rate_per_s: Some(frontier.and_then(|f| f.max_rate_per_s).unwrap_or(0.0)),
        },
        counters,
        checks: vec![
            ("replicas == grid", r.replicas == spec.replica_count()),
            ("cells == grid", r.cells.len() == spec.cell_count()),
        ],
        ..Outcome::default()
    }
}

/// `sweep_grid`'s second traced call: the same spec on one thread. The
/// report must not depend on the thread count.
///
/// # Errors
///
/// The sweep's own error, as text.
pub fn run_sweep_single_thread(
    workload: &'static str,
    spec: &SweepSpec,
    rec: &mut Recorder,
) -> Result<u64, String> {
    let mut one = spec.clone();
    one.threads = 1;
    let id = rec.begin(workload, "sweep.run.t1");
    let report = run_sweep(&one);
    rec.end(id, None);
    let json = report.map_err(err)?.to_json().map_err(err)?;
    Ok(digest(json.as_bytes()))
}
