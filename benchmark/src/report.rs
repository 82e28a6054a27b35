//! Results: per-workload bookkeeping, the printed tables, `results.json`,
//! the driver's result line, the self-check and `--compare`.

use serde_json::Value;

use crate::metrics::{self, Better, Def, END_TO_END, PER_LAYER};
use crate::replay::{BudgetRow, Values};
use crate::stats::{quantile, spread, summarize};
use crate::trace::Span;
use crate::workloads::Outcome;

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    pub on_cpu_s: Option<f64>,
    pub peak_bytes: u64,
    /// Wall exceeded on-CPU time by more than 5%: reported, never
    /// dropped or re-run.
    pub descheduled: bool,
}

/// One traced repetition with what was measured around it.
#[derive(Debug, Clone)]
pub struct TracedRun {
    pub outcome: Outcome,
    pub spans: Vec<Span>,
    pub wall_s: f64,
    /// `sweep_grid` only: wall time and report digest of the same spec
    /// on one thread.
    pub single_thread: Option<(f64, u64)>,
    /// Serve workloads only: leaf-layer replays with the run's shape.
    pub serve: Option<(Values, Vec<BudgetRow>)>,
}

/// One per-layer value. `own` is false when the workload never enters
/// the layer and the value is the layer's reference measurement (a
/// `--quick`-size run of the workload that does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub own: bool,
}

/// Per-layer values of one workload plus its outside-in layer budget.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Every [`PER_LAYER`] name, in registry order.
    pub values: Vec<LayerValue>,
    /// Replayed layers of `serve.run` (serve workloads only); what they
    /// leave of `serve.run.ns_per_req` is the residual.
    pub budget: Vec<BudgetRow>,
}

/// Everything measured on one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub why: &'static str,
    /// The warm-up repetition's outcome; same seed ⇒ same bytes, so
    /// every later repetition must reproduce its digest.
    pub reference: Outcome,
    pub setup_samples: Vec<f64>,
    pub reps: Vec<Rep>,
    pub attempted: u64,
    pub failed: Vec<String>,
    pub layers: Option<LayerReport>,
}

impl WorkloadResult {
    pub fn new(name: &'static str, why: &'static str, warm: Outcome) -> Self {
        let mut r = WorkloadResult {
            name,
            why,
            reference: warm,
            setup_samples: Vec::new(),
            reps: Vec::new(),
            attempted: 0,
            failed: Vec::new(),
            layers: None,
        };
        r.check("warm-up: call returned Ok", true);
        for (what, ok) in r.reference.checks.clone() {
            r.check(&format!("warm-up: {what}"), ok);
        }
        r
    }

    /// Counts one attempted check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what.to_string());
        }
    }

    /// Counts a repetition's checks: the call returned `Ok`, its own
    /// conservation checks hold, and its digest equals the warm-up's.
    pub fn check_outcome(&mut self, pass: &str, outcome: Result<&Outcome, &str>) {
        match outcome {
            Err(e) => self.check(&format!("{pass}: call failed: {e}"), false),
            Ok(o) => {
                self.check(&format!("{pass}: call returned Ok"), true);
                for &(what, ok) in &o.checks {
                    self.check(&format!("{pass}: {what}"), ok);
                }
                let same = o.digest == self.reference.digest;
                self.check(&format!("{pass}: digest == warm-up digest"), same);
            }
        }
    }

    fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_s).collect()
    }

    fn median_wall_s(&self) -> f64 {
        summarize(&self.walls()).map_or(f64::NAN, |s| s.median)
    }

    fn descheduled(&self) -> usize {
        self.reps.iter().filter(|r| r.descheduled).count()
    }

    /// End-to-end metrics as `(definition, value, per-repetition
    /// samples)`. Host-time values are medians over the samples;
    /// simulated values come from the (exactly repeating) report.
    pub fn end_to_end(&self) -> Vec<(&'static Def, f64, Vec<f64>)> {
        let requests = self.reference.requests as f64;
        let peaks: Vec<f64> = self.reps.iter().map(|r| r.peak_bytes as f64).collect();
        let median = |v: &[f64]| summarize(v).map_or(f64::NAN, |s| s.median);
        END_TO_END
            .iter()
            .map(|d| {
                let (value, samples) = match d.name {
                    "req_per_s" => (
                        requests / self.median_wall_s(),
                        self.walls().iter().map(|w| requests / w).collect(),
                    ),
                    "peak_heap_bytes" => (median(&peaks), peaks.clone()),
                    "setup_s" => (median(&self.setup_samples), self.setup_samples.clone()),
                    "sim_latency_s" => (self.reference.sim.latency_s, vec![]),
                    "sim_goodput_per_s" => (self.reference.sim.goodput_per_s, vec![]),
                    other => unreachable!("end-to-end metric `{other}` has no source"),
                };
                (d, value, samples)
            })
            .collect()
    }

    /// Per-layer metrics, once the traced pass has run. The two
    /// benchmark-health counts are filled in at read time, after every
    /// check has been counted.
    pub fn per_layer(&self) -> Option<Vec<LayerValue>> {
        let mut values = self.layers.as_ref()?.values.clone();
        for v in &mut values {
            match v.name {
                "fail_ratio" => v.value = self.failed.len() as f64 / self.attempted.max(1) as f64,
                "descheduled_reps" => v.value = self.descheduled() as f64,
                _ => {}
            }
        }
        Some(values)
    }
}

impl LayerReport {
    /// Builds a workload's per-layer ledger. `references` are the
    /// quick-size runs of each workload kind: they give every layer a
    /// measurement; whatever `own` (the workload's traced run) measures
    /// itself then replaces the reference value.
    pub fn assemble(
        result: &WorkloadResult,
        references: &[TracedRun],
        own: &TracedRun,
        fixed: &Values,
    ) -> LayerReport {
        let mut report = LayerReport {
            values: PER_LAYER
                .iter()
                // A count no run of this workload produces is its own 0.
                .map(|d| LayerValue {
                    name: d.name,
                    value: 0.0,
                    own: d.exact,
                })
                .collect(),
            budget: Vec::new(),
        };
        for &(name, v) in fixed {
            report.set(name, v, true);
        }
        for run in references {
            report.add_run(run, false);
        }
        report.add_run(own, true);
        // About this workload's own run and the benchmark's health,
        // never taken from a reference.
        report.set(
            "trace_overhead_ratio",
            own.wall_s / result.median_wall_s(),
            true,
        );
        let sim = &own.outcome.sim;
        report.set("sim_p50_s", sim.p50_s.unwrap_or(0.0), true);
        report.set("sim_p99_s", sim.p99_s.unwrap_or(0.0), true);
        report.set("sim_miss_rate", sim.miss_rate.unwrap_or(0.0), true);
        report.set(
            "sim_frontier_rate_per_s",
            sim.frontier_rate_per_s.unwrap_or(0.0),
            true,
        );
        report.set("fail_ratio", 0.0, true);
        report.set("descheduled_reps", 0.0, true);
        report
    }

    /// Records a value. A reference run supplies timings only: a count
    /// the workload itself did not produce stays 0.
    fn set(&mut self, name: &str, value: f64, own: bool) {
        if !own && metrics::find(name).is_some_and(|d| d.exact) {
            return;
        }
        let slot = self
            .values
            .iter_mut()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a registered per-layer metric"));
        slot.value = value;
        slot.own = own;
    }

    /// A value by name (0 for a name that is not registered).
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.value)
    }

    /// Folds one traced run's spans, counters and replays in.
    fn add_run(&mut self, run: &TracedRun, own: bool) {
        let span_ns = |name: &str| -> f64 {
            run.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .sum()
        };
        let has = |name: &str| run.spans.iter().any(|s| s.name == name);
        let traced = &run.outcome;
        let requests = traced.requests.max(1) as f64;

        if has("serve.run") {
            let run_ns = span_ns("serve.run");
            let events = traced.events.max(1) as f64;
            let run_ns_per_req = run_ns / requests;
            let per_event: Vec<f64> = run
                .spans
                .iter()
                .filter(|s| s.name == "serve.run.slice")
                .filter_map(|s| {
                    let n = s.count.filter(|&n| n > 0)?;
                    Some(s.duration_ns() as f64 / n as f64)
                })
                .collect();
            self.set("serve.run.ns_per_req", run_ns_per_req, own);
            self.set("serve.run.ns_per_event", run_ns / events, own);
            self.set(
                "serve.run.ns_per_event_p90",
                quantile(&per_event, 0.9).unwrap_or(0.0),
                own,
            );
            self.set("serve.run.events_per_req", events / requests, own);
            self.set(
                "serve.run.allocs_per_req",
                traced.run_allocs as f64 / requests,
                own,
            );
            self.set("serve.prepare_us", span_ns("serve.prepare") / 1e3, own);
            self.set(
                "serve.session_new_us",
                span_ns("serve.session_new") / 1e3,
                own,
            );
            self.set("serve.finish_us", span_ns("serve.finish") / 1e3, own);
            self.set(
                "serve.report.json_us",
                span_ns("serve.report.json") / 1e3,
                own,
            );
            self.set("serve.report.json_bytes", traced.report_bytes as f64, own);
            self.set("serve.shed_share", traced.counter("shed") / requests, own);
            self.set("serve.replans", traced.counter("replans"), own);
            self.set(
                "serve.budget.deferred",
                traced.counter("budget_deferred"),
                own,
            );
            self.set("serve.budget.shed", traced.counter("budget_shed"), own);
            if let Some((layer_values, rows)) = &run.serve {
                for &(name, v) in layer_values {
                    self.set(name, v, own);
                }
                let kernel_ns = self.value("sim.kernel.auto.ns_per_event.p16");
                let mut budget = rows.clone();
                budget.push(BudgetRow {
                    layer: "sim.kernel (events, auto scheduler at 16 pending)",
                    ops_per_req: events / requests,
                    ns_per_op: kernel_ns,
                });
                let explained: f64 = budget.iter().map(BudgetRow::ns_per_req).sum();
                let residual = run_ns_per_req - explained;
                self.set("serve.residual_ns_per_req", residual, own);
                self.set("serve.residual_share", residual / run_ns_per_req, own);
                if own {
                    self.budget = budget;
                }
            }
        }
        if has("sim.engine.simulate") {
            self.set(
                "sim.workload.materialize_ns_per_req",
                span_ns("sim.workload.materialize") / requests,
                own,
            );
            self.set(
                "core.plan.greedy_ns_per_req",
                span_ns("core.plan.greedy") / requests,
                own,
            );
            self.set(
                "sim.engine.simulate_ns_per_req",
                span_ns("sim.engine.simulate") / requests,
                own,
            );
            self.set(
                "sim.engine.spans_per_req",
                traced.counter("gantt_spans") / requests,
                own,
            );
            self.set(
                "sim.engine.latency_stats_us",
                span_ns("sim.workload.latency_stats") / 1e3,
                own,
            );
        }
        if has("sweep.run") {
            let replicas = traced.counter("replicas").max(1.0);
            let two_threads_ns = span_ns("sweep.run");
            self.set(
                "sweep.run.us_per_replica",
                two_threads_ns / 1e3 / replicas,
                own,
            );
            self.set(
                "sweep.report.json_us",
                span_ns("sweep.report.json") / 1e3,
                own,
            );
            self.set("sweep.replicas", replicas, own);
            if let Some((one_thread_s, _)) = run.single_thread {
                self.set(
                    "sweep.pool.speedup_t2",
                    one_thread_s * 1e9 / (two_threads_ns + span_ns("sweep.report.json")),
                    own,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |d| d.unit)
}

/// Prints every metric by name, with unit and value, per workload.
pub fn print_tables(results: &[WorkloadResult], timed: bool) {
    for r in results {
        println!("== {} ==  {}", r.name, r.why);
        println!(
            "  requests {}  digest {:016x}  checks {}/{} ok  reps {} ({} descheduled)",
            r.reference.requests,
            r.reference.digest,
            r.attempted - r.failed.len() as u64,
            r.attempted,
            r.reps.len(),
            r.descheduled()
        );
        let counters: Vec<String> = r
            .reference
            .counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("  exact counters: {}", counters.join(" "));
        if timed {
            println!("  end to end:");
            for (d, value, samples) in r.end_to_end() {
                let range = summarize(&samples).map_or(String::new(), |s| {
                    format!("  (min {:.6} max {:.6} n={})", s.min, s.max, s.n)
                });
                println!("    {:<42} {:>18.6} {:<6}{range}", d.name, value, d.unit);
            }
        }
        if let (Some(values), Some(layers)) = (r.per_layer(), &r.layers) {
            println!("  per layer:");
            for v in values {
                let note = if v.own { "" } else { "  (reference run)" };
                println!(
                    "    {:<42} {:>18.6} {}{note}",
                    v.name,
                    v.value,
                    unit_of(v.name)
                );
            }
            if !layers.budget.is_empty() {
                let total = layers.value("serve.run.ns_per_req");
                let residual = layers.value("serve.residual_ns_per_req");
                let share = |ns: f64| 100.0 * ns / total;
                println!("  layer budget of serve.run ({total:.1} ns/request):");
                for row in &layers.budget {
                    println!(
                        "    {:<52} {:>7.3} ops/req x {:>8.2} ns = {:>8.2} ns  {:>5.1}%",
                        row.layer,
                        row.ops_per_req,
                        row.ns_per_op,
                        row.ns_per_req(),
                        share(row.ns_per_req())
                    );
                }
                println!(
                    "    {:<52} {:>37.2} ns  {:>5.1}%",
                    "residual (dispatch + accounting, not reachable)",
                    residual,
                    share(residual)
                );
            }
        }
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_value(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// The last line the driver reads: `correct`, `attempted`, `failed`
/// and the metrics of the pass that ran.
pub fn result_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<(String, Value)> = if traced {
        r.per_layer()
            .unwrap_or_default()
            .into_iter()
            .map(|v| (v.name.to_string(), metric_value(v.value, unit_of(v.name))))
            .collect()
    } else {
        r.end_to_end()
            .into_iter()
            .map(|(d, v, _)| (d.name.to_string(), metric_value(v, d.unit)))
            .collect()
    };
    let line = obj(vec![
        ("correct", Value::Bool(r.failed.is_empty())),
        ("attempted", Value::UInt(r.attempted)),
        ("failed", Value::UInt(r.failed.len() as u64)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

/// `benchmark/out/results.json`: everything, for `--compare` and for
/// diffing two commits exactly.
pub fn results_json(results: &[WorkloadResult], seed: &str, quick: bool, timed: bool) -> String {
    let floats = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|r| {
            let end_to_end: Vec<(String, Value)> = if timed {
                r.end_to_end()
                    .into_iter()
                    .map(|(d, value, samples)| {
                        (
                            d.name.to_string(),
                            obj(vec![
                                ("value", Value::Float(value)),
                                ("unit", Value::Str(d.unit.to_string())),
                                ("samples", floats(&samples)),
                            ]),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let per_layer: Vec<(String, Value)> = r
                .per_layer()
                .unwrap_or_default()
                .into_iter()
                .map(|v| {
                    (
                        v.name.to_string(),
                        obj(vec![
                            ("value", Value::Float(v.value)),
                            ("unit", Value::Str(unit_of(v.name).to_string())),
                            ("own", Value::Bool(v.own)),
                        ]),
                    )
                })
                .collect();
            let budget: Vec<Value> = r
                .layers
                .iter()
                .flat_map(|l| &l.budget)
                .map(|row| {
                    obj(vec![
                        ("layer", Value::Str(row.layer.to_string())),
                        ("ops_per_req", Value::Float(row.ops_per_req)),
                        ("ns_per_op", Value::Float(row.ns_per_op)),
                        ("ns_per_req", Value::Float(row.ns_per_req())),
                    ])
                })
                .collect();
            let reps: Vec<Value> = r
                .reps
                .iter()
                .map(|rep| {
                    obj(vec![
                        ("wall_s", Value::Float(rep.wall_s)),
                        ("on_cpu_s", rep.on_cpu_s.map_or(Value::Null, Value::Float)),
                        ("peak_bytes", Value::UInt(rep.peak_bytes)),
                        ("descheduled", Value::Bool(rep.descheduled)),
                    ])
                })
                .collect();
            let counters: Vec<(String, Value)> = r
                .reference
                .counters
                .iter()
                .map(|(n, v)| (n.to_string(), Value::Float(*v)))
                .collect();
            let value = obj(vec![
                ("why", Value::Str(r.why.to_string())),
                ("requests", Value::UInt(r.reference.requests)),
                ("digest", Value::Str(format!("{:016x}", r.reference.digest))),
                ("counters", Value::Object(counters)),
                ("attempted", Value::UInt(r.attempted)),
                (
                    "failed",
                    Value::Array(r.failed.iter().cloned().map(Value::Str).collect()),
                ),
                ("descheduled_reps", Value::UInt(r.descheduled() as u64)),
                ("reps", Value::Array(reps)),
                ("end_to_end", Value::Object(end_to_end)),
                ("per_layer", Value::Object(per_layer)),
                ("layer_budget", Value::Array(budget)),
            ]);
            (r.name.to_string(), value)
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let root = obj(vec![
        ("seed", Value::Str(seed.to_string())),
        ("quick", Value::Bool(quick)),
        ("available_parallelism", Value::UInt(threads)),
        ("workloads", Value::Object(workloads)),
    ]);
    serde_json::to_string_pretty(&root).expect("a value tree serializes")
}

// ---------------------------------------------------------------------
// Self-check.
// ---------------------------------------------------------------------

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Problems with the emitted metric set: a registered name missing or
/// repeated, a non-finite value, a zero end-to-end value (the driver
/// divides by medians), or `BENCHMARK.json` disagreeing with the
/// registry.
pub fn self_check(results: &[WorkloadResult], timed: bool, traced: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for r in results {
        if timed {
            for (d, v, _) in r.end_to_end() {
                if !v.is_finite() || v == 0.0 {
                    problems.push(format!("{}: {} = {v}", r.name, d.name));
                }
            }
        }
        if traced {
            let values = r.per_layer().unwrap_or_default();
            for d in &PER_LAYER {
                let hits: Vec<f64> = values
                    .iter()
                    .filter(|v| v.name == d.name)
                    .map(|v| v.value)
                    .collect();
                if hits.len() != 1 || !hits[0].is_finite() || d.unit.is_empty() {
                    problems.push(format!("{}: {} emitted {hits:?}", r.name, d.name));
                }
            }
            if values.len() != PER_LAYER.len() {
                problems.push(format!("{}: {} per-layer values", r.name, values.len()));
            }
        }
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => problems.extend(manifest_problems(&text)),
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    problems
}

/// Differences between `BENCHMARK.json` and the registry.
fn manifest_problems(text: &str) -> Vec<String> {
    let Ok(root) = serde_json::parse(text) else {
        return vec!["BENCHMARK.json does not parse".into()];
    };
    let list = |key: &str| -> Vec<Value> {
        match get(&root, key) {
            Some(Value::Array(items)) => items.clone(),
            _ => Vec::new(),
        }
    };
    let text_of = |v: &Value, key: &str| get(v, key).and_then(Value::as_str).map(str::to_string);
    let mut problems = Vec::new();
    let declared: Vec<Option<String>> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let known: Vec<Option<String>> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| Some(w.0.to_string()))
        .collect();
    if declared != known {
        problems.push(format!("BENCHMARK.json workloads {declared:?}"));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let items = list(key);
        if items.len() != defs.len() {
            problems.push(format!(
                "BENCHMARK.json {key}: {} entries, registry {}",
                items.len(),
                defs.len()
            ));
        }
        for (item, d) in items.iter().zip(defs) {
            let same = text_of(item, "name").as_deref() == Some(d.name)
                && text_of(item, "unit").as_deref() == Some(d.unit)
                && text_of(item, "better").as_deref() == Some(d.better.as_str())
                && get(item, "bound").and_then(Value::as_f64) == d.bound;
            if !same {
                problems.push(format!(
                    "BENCHMARK.json {key}: entry for {} differs",
                    d.name
                ));
            }
        }
    }
    problems
}

// ---------------------------------------------------------------------
// --compare.
// ---------------------------------------------------------------------

/// How far `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict on one (metric, workload) pair of two results files.
fn verdict(d: &Def, a: f64, b: f64, spread_a: f64, spread_b: f64) -> &'static str {
    if d.exact {
        return if a == b { "within" } else { "exact-differs" };
    }
    let Some(bound) = d.bound else {
        return "-";
    };
    if spread_a.max(spread_b) > bound {
        "unresolved"
    } else if worsening(a, b, d.better) > bound {
        "regressed"
    } else {
        "within"
    }
}

/// Prints one row per (metric, workload) of two `results.json` files:
/// both values, the bound and a verdict.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn compare(path_a: &str, path_b: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    if get(&a, "seed") != get(&b, "seed") || get(&a, "quick") != get(&b, "quick") {
        println!(
            "note: the two files were run with different seeds or sizes; exact metrics will differ"
        );
    }
    println!(
        "{:<15} {:<42} {:>16} {:>16} {:>7}  verdict",
        "workload", "metric", "A", "B", "bound"
    );
    let empty = Vec::new();
    let workloads = get(&a, "workloads")
        .and_then(Value::as_object)
        .map_or(&empty[..], |w| w);
    for (name, wa) in workloads {
        let Some(wb) = get(&b, "workloads").and_then(|w| get(w, name)) else {
            println!("{name:<15} (absent from {path_b})");
            continue;
        };
        let same_digest = get(wa, "digest") == get(wb, "digest");
        println!(
            "{name:<15} {:<42} {:>16} {:>16} {:>7}  {}",
            "digest",
            get(wa, "digest").and_then(Value::as_str).unwrap_or("?"),
            get(wb, "digest").and_then(Value::as_str).unwrap_or("?"),
            "exact",
            if same_digest {
                "within"
            } else {
                "exact-differs"
            }
        );
        for section in ["end_to_end", "per_layer"] {
            let Some(entries) = get(wa, section).and_then(Value::as_object) else {
                continue;
            };
            for (metric, ma) in entries {
                let Some(d) = metrics::find(metric) else {
                    continue;
                };
                let Some(mb) = get(wb, section).and_then(|s| get(s, metric)) else {
                    continue;
                };
                let number =
                    |m: &Value| get(m, "value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let samples = |m: &Value| -> Vec<f64> {
                    match get(m, "samples") {
                        Some(Value::Array(items)) => {
                            items.iter().filter_map(Value::as_f64).collect()
                        }
                        _ => Vec::new(),
                    }
                };
                let (va, vb) = (number(ma), number(mb));
                let bound = match (d.exact, d.bound) {
                    (true, _) => "exact".to_string(),
                    (false, Some(b)) => format!("{:.0}%", b * 100.0),
                    (false, None) => "-".to_string(),
                };
                println!(
                    "{name:<15} {metric:<42} {va:>16.6} {vb:>16.6} {bound:>7}  {}",
                    verdict(d, va, vb, spread(&samples(ma)), spread(&samples(mb)))
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_exactness() {
        let host = Def {
            name: "host",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.10),
            exact: false,
        };
        assert_eq!(verdict(&host, 100.0, 95.0, 0.01, 0.01), "within");
        assert_eq!(verdict(&host, 100.0, 85.0, 0.01, 0.01), "regressed");
        assert_eq!(verdict(&host, 100.0, 150.0, 0.01, 0.01), "within");
        assert_eq!(verdict(&host, 100.0, 85.0, 0.2, 0.01), "unresolved");
        let exact = Def {
            exact: true,
            ..host
        };
        assert_eq!(verdict(&exact, 2.5, 2.5, 0.0, 0.0), "within");
        assert_eq!(verdict(&exact, 2.5, 2.5000001, 0.0, 0.0), "exact-differs");
        let layer = Def {
            bound: None,
            ..host
        };
        assert_eq!(verdict(&layer, 5.0, 9.0, 0.0, 0.0), "-");
    }

    #[test]
    fn manifest_check_spots_a_renamed_metric() {
        let entry = |d: &Def| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(",\"bound\":{b:?}"));
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"{bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        };
        let list = |defs: &[Def]| defs.iter().map(entry).collect::<Vec<_>>().join(",");
        let workloads: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\":\"{}\",\"why\":\"x\"}}", w.0))
            .collect();
        let good = format!(
            "{{\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
            workloads.join(","),
            list(&END_TO_END),
            list(&PER_LAYER)
        );
        assert_eq!(manifest_problems(&good), Vec::<String>::new());
        let bad = good.replace("\"req_per_s\"", "\"requests_per_s\"");
        assert_eq!(manifest_problems(&bad).len(), 1);
    }
}
