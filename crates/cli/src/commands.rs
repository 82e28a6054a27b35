//! CLI command implementations. Every command returns its output as a
//! `String` so tests can exercise it without spawning processes.

use std::fmt::Write as _;

use s2m3_baselines::centralized::centralized_latency;
use s2m3_core::objective::total_latency;
use s2m3_core::placement::{greedy_place_with, PlacementOptions};
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_core::upper::optimal_placement;
use s2m3_data::{evaluate, Benchmark, Dataset};
use s2m3_models::zoo::Zoo;
use s2m3_net::fleet::Fleet;
use s2m3_runtime::{reference, RequestInput, Runtime};
use s2m3_serve::{
    serve as serve_scenario, AdmissionPolicy, BatchPolicy, ServeScenario, SloReplanTrigger,
    StreamingConfig,
};
use s2m3_sim::workload::{latency_stats, mixed_stream, ArrivalProcess, ModelMix, ModelWeight};
use s2m3_sim::{simulate, SimConfig};
use s2m3_sweep::{run_sweep, SweepSpec};

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub(crate) const USAGE: &str = "\
s2m3 — split-and-share multi-modal inference on the edge

USAGE: s2m3 <command> [options]

COMMANDS:
  zoo                          list the model zoo (Table II)
  fleet      [--fleet F]       show devices and network (Table III)
  plan       --model M [--candidates N] [--fleet F] [--replicate] [--upper]
                               greedy placement + predicted latency
  simulate   --model M [--requests N] [--rate R] [--batch B] [--candidates N]
                               sustained-load simulation with p50/p95/p99
                               (--rate R, here and in serve: Poisson
                               arrivals per second, finite and above 0;
                               --batch, here and in serve: at least 1)
  serve      [--config FILE] [--requests N] [--rate R] [--deadline S]
             [--policy fifo|edf|shed] [--queue N] [--seed S] [--json]
             [--slo-replan COOLDOWN_S] [--mix M=W,M=W,...] [--batch N]
             [--streaming] [--sink FILE] [--max-windows N]
             [--budget-cap COST] [--budget-metric energy|device-seconds|custom:RATE]
             [--budget-window S] [--budget-mode defer|shed|defer-shed]
             [--trace FILE] [--capture-trace FILE] [--print-config]
                               online serving control plane: admission
                               control, SLO windows, live replanning under
                               fleet churn (default: 10k-request churn run);
                               --slo-replan also replans on rolling-p95
                               breaches; --mix weights the model mix
                               (default: round-robin); --batch merges up
                               to N same-module runs per dispatch;
                               multi-source traffic, per-source mixes,
                               deadline classes, and per-kind batch caps
                               via the config file; --streaming serves in
                               O(in-flight) memory (sketch percentiles,
                               <=1% error), --sink streams per-completion
                               rows to a columnar file, --max-windows
                               caps snapshot history; --trace replays a
                               recorded workload file, --capture-trace
                               records this run's arrivals for replay;
                               --budget-cap enforces a per-window
                               fleet-wide cost cap online (deferring or
                               shedding the lowest-priority work first),
                               priced in device-seconds, joules
                               (--budget-metric energy), or a flat
                               per-device-second rate (custom:RATE)
  sweep      [--config FILE] [--seeds N] [--requests N] [--threads N]
             [--budget F] [--json] [--print-config]
                               parallel Monte Carlo sweep: the serving
                               scenario fanned over a seed x rate x
                               fleet-size grid on a thread pool, with
                               p50/p95/p99 bands across replicas and the
                               capacity frontier (max rate at <1% miss);
                               --config takes a SweepSpec JSON (default:
                               quick grid over the churn scenario);
                               deterministic: same grid => byte-identical
                               report at any --threads
  evaluate   --model M --benchmark B [--samples N]
                               zero-shot accuracy on a synthetic benchmark
  infer      --model M [--label L] [--candidates N]
                               one distributed inference on the runtime,
                               verified bit-identical vs centralized
  compare    --model M [--candidates N]
                               S2M3 vs every centralized deployment
  experiments                  list the paper-reproduction binaries

FLEETS: edge (default; desktop+laptop+2 Jetsons) | standard (adds the GPU server)
";

/// Command errors (message-carrying).
pub(crate) type CmdResult = Result<String, String>;

fn fleet_for(args: &Args) -> Result<Fleet, String> {
    match args.get_or("fleet", "edge") {
        "edge" => Ok(Fleet::edge_testbed()),
        "standard" => Ok(Fleet::standard_testbed()),
        other => Err(format!("unknown fleet '{other}' (edge|standard)")),
    }
}

fn instance_for(args: &Args) -> Result<(Instance, String, usize), String> {
    let model = args
        .flags
        .get("model")
        .ok_or("--model is required (see `s2m3 zoo`)")?
        .clone();
    let candidates = args.get_num("candidates", 101usize)?;
    let instance =
        Instance::on_fleet(fleet_for(args)?, &[(&model, candidates)]).map_err(|e| e.to_string())?;
    Ok((instance, model, candidates))
}

/// `s2m3 zoo`.
pub(crate) fn zoo(_args: &Args) -> CmdResult {
    let zoo = Zoo::standard();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:<22} {:>9} {:>10}",
        "model", "task", "params", "max module"
    );
    for m in zoo.models() {
        let _ = writeln!(
            out,
            "{:<28} {:<22} {:>8}M {:>9}M",
            m.name,
            m.task.to_string(),
            m.total_params() / 1_000_000,
            m.max_module_params() / 1_000_000
        );
    }
    Ok(out)
}

/// `s2m3 fleet`.
pub(crate) fn fleet(args: &Args) -> CmdResult {
    let f = fleet_for(args)?;
    let mut out = String::new();
    let _ = writeln!(out, "requester: {}", f.requester());
    for d in f.devices() {
        let _ = writeln!(
            out,
            "{:<10} {:>7.0} GFLOP/s  {:>5.1} GB  x{}  {}",
            d.id.as_str(),
            d.speed_gflops,
            d.memory_bytes as f64 / 1e9,
            d.parallelism,
            d.description
        );
    }
    Ok(out)
}

/// `s2m3 plan`.
pub(crate) fn plan(args: &Args) -> CmdResult {
    let (instance, model, _) = instance_for(args)?;
    let placement = greedy_place_with(
        &instance,
        PlacementOptions {
            replicate: args.has("replicate"),
        },
    )
    .map_err(|e| e.to_string())?;
    let request = instance.request(0, &model).map_err(|e| e.to_string())?;
    let plan =
        Plan::route_all(&instance, placement, vec![request.clone()]).map_err(|e| e.to_string())?;
    let latency =
        total_latency(&instance, &plan.routed[0].1, &request).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(out, "placement (greedy, Algorithm 1):");
    for (m, d) in plan.placement.iter() {
        let _ = writeln!(out, "  {m} -> {d}");
    }
    let _ = writeln!(out, "predicted latency: {latency:.2} s");
    if args.has("upper") {
        let opt = optimal_placement(&instance).map_err(|e| e.to_string())?;
        let tag = if (latency - opt.latency).abs() < 1e-6 {
            "greedy = optimal"
        } else {
            "greedy > optimal"
        };
        let _ = writeln!(out, "brute-force optimum: {:.2} s  ({tag})", opt.latency);
    }
    Ok(out)
}

/// `--batch`, if given: at least 1. The kernel runs a cap of 0 as 1, so
/// `simulate --batch 0` would run unbatched while claiming otherwise,
/// and a serve scenario rejects a zero cap by its path.
fn batch_cap(args: &Args) -> Result<Option<usize>, ArgError> {
    Ok(args
        .get_opt_num::<std::num::NonZeroUsize>("batch")?
        .map(std::num::NonZeroUsize::get))
}

/// `s2m3 simulate`.
pub(crate) fn simulate_cmd(args: &Args) -> CmdResult {
    let (instance, _, _) = instance_for(args)?;
    let n = args.get_num("requests", 20usize)?;
    let rate = args.get_opt_rate("rate")?.unwrap_or(0.5);
    let batch = batch_cap(args)?;
    let requests = mixed_stream(&instance, n).map_err(|e| e.to_string())?;
    let plan = Plan::greedy(&instance, requests).map_err(|e| e.to_string())?;
    let arrivals = ArrivalProcess::Poisson { rate_per_s: rate }.arrivals(n, "cli");
    let report = simulate(
        &instance,
        &plan,
        &SimConfig {
            arrivals: Some(arrivals),
            max_batch: batch,
            ..SimConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let stats = latency_stats(&report);
    Ok(format!(
        "{n} requests @ {rate:.2} req/s{}\n\
         mean {:.2} s   p50 {:.2}   p95 {:.2}   p99 {:.2}   max {:.2}\n\
         throughput {:.2} req/s over {:.2} s of virtual time\n",
        batch
            .map(|b: usize| format!("  (batching x{b})"))
            .unwrap_or_default(),
        stats.mean,
        stats.p50,
        stats.p95,
        stats.p99,
        stats.max,
        stats.throughput,
        report.makespan
    ))
}

/// `s2m3 serve`.
pub(crate) fn serve_cmd(args: &Args) -> CmdResult {
    let mut scenario = match args.flags.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config `{path}`: {e}"))?;
            ServeScenario::from_json(&text)?
        }
        None => ServeScenario::churn_default(),
    };
    // Flag overrides on top of the config (or the default scenario).
    if let Some(n) = args.get_opt_num("requests")? {
        scenario.requests = n;
    }
    if let Some(rate_per_s) = args.get_opt_rate("rate")? {
        scenario.arrivals = ArrivalProcess::Poisson { rate_per_s };
    }
    if let Some(d) = args.get_opt_num("deadline")? {
        scenario.deadline_s = d;
    }
    if let Some(s) = args.flags.get("seed") {
        scenario.seed = s.clone();
    }
    if let Some(p) = args.flags.get("policy") {
        scenario.admission = match p.as_str() {
            "fifo" => AdmissionPolicy::Fifo,
            "edf" => AdmissionPolicy::EarliestDeadlineFirst,
            // Keep the scenario's existing bound; --queue overrides below.
            "shed" => match scenario.admission {
                AdmissionPolicy::ShedOnOverload { .. } => scenario.admission.clone(),
                _ => AdmissionPolicy::ShedOnOverload { max_queue: 48 },
            },
            other => return Err(format!("unknown policy `{other}` (fifo|edf|shed)")),
        };
    }
    if let Some(q) = args.get_opt_num::<usize>("queue")? {
        match &mut scenario.admission {
            AdmissionPolicy::ShedOnOverload { max_queue } => *max_queue = q,
            _ => {
                return Err(
                    "--queue only applies to the shed admission policy (use --policy shed)"
                        .to_string(),
                )
            }
        }
    }
    if let Some(cooldown_s) = args.get_opt_num("slo-replan")? {
        scenario.replan.slo_trigger = Some(SloReplanTrigger {
            cooldown_s,
            ..SloReplanTrigger::default()
        });
    }
    if let Some(mix) = args.flags.get("mix") {
        // `model=weight` pairs, comma-separated; weights apply to the
        // scenario's deployed models via the unified workload layer.
        let weights: Vec<ModelWeight> = mix
            .split(',')
            .map(|pair| {
                let (model, weight) = pair
                    .rsplit_once('=')
                    .ok_or_else(|| format!("bad --mix entry `{pair}` (want model=weight)"))?;
                Ok(ModelWeight {
                    model: model.trim().to_string(),
                    weight: weight
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad --mix weight in `{pair}`"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        scenario.mix = Some(ModelMix::Weighted { weights });
    }
    if let Some(max_batch) = batch_cap(args)? {
        scenario.batch = Some(BatchPolicy {
            max_batch,
            per_kind: vec![],
        });
    }
    if args.has("streaming") {
        scenario
            .streaming
            .get_or_insert_with(StreamingConfig::default);
    }
    if let Some(path) = args.flags.get("sink") {
        let streaming = scenario
            .streaming
            .get_or_insert_with(StreamingConfig::default);
        streaming.sink = Some(path.clone());
    }
    if let Some(w) = args.get_opt_num("max-windows")? {
        scenario.max_windows = Some(w);
    }
    if let Some(cap) = args.get_opt_num("budget-cap")? {
        let policy = scenario
            .budget
            .get_or_insert_with(|| s2m3_serve::BudgetPolicy::device_seconds(0.0));
        policy.cap_per_window = cap;
    }
    if let Some(metric) = args.flags.get("budget-metric") {
        let policy = scenario
            .budget
            .as_mut()
            .ok_or("--budget-metric needs --budget-cap (or a config with a budget)")?;
        policy.metric = match metric.as_str() {
            "energy" => s2m3_serve::BudgetMetric::Energy,
            "device-seconds" => s2m3_serve::BudgetMetric::DeviceSeconds,
            other => match other.strip_prefix("custom:").and_then(|r| r.parse().ok()) {
                Some(per_device_rate) => s2m3_serve::BudgetMetric::Custom { per_device_rate },
                None => {
                    return Err(format!(
                        "bad --budget-metric '{other}' (energy|device-seconds|custom:RATE)"
                    ))
                }
            },
        };
    }
    if let Some(w) = args.get_opt_num("budget-window")? {
        let policy = scenario
            .budget
            .as_mut()
            .ok_or("--budget-window needs --budget-cap (or a config with a budget)")?;
        policy.window_s = w;
    }
    if let Some(mode) = args.flags.get("budget-mode") {
        let policy = scenario
            .budget
            .as_mut()
            .ok_or("--budget-mode needs --budget-cap (or a config with a budget)")?;
        policy.enforcement = match mode.as_str() {
            "defer" => s2m3_serve::BudgetEnforcement::Defer,
            "shed" => s2m3_serve::BudgetEnforcement::Shed,
            "defer-shed" => s2m3_serve::BudgetEnforcement::DeferThenShed,
            other => {
                return Err(format!(
                    "bad --budget-mode '{other}' (defer|shed|defer-shed)"
                ))
            }
        };
    }
    if let Some(path) = args.flags.get("trace") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
        let records = s2m3_serve::trace::parse(&text)?;
        s2m3_serve::trace::apply(&mut scenario, &records)?;
    }
    if let Some(path) = args.flags.get("capture-trace") {
        // Materialize the scenario's merged arrival stream to a replay
        // file, then serve as usual; `--trace FILE` re-serves it.
        let records = s2m3_serve::trace::capture(&scenario)?;
        std::fs::write(path, s2m3_serve::trace::render(&records))
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if args.has("print-config") {
        return scenario.to_json();
    }
    let report = serve_scenario(&scenario).map_err(|e| e.to_string())?;
    if args.has("json") {
        report.to_json().map_err(|e| e.to_string())
    } else {
        Ok(report.render_summary())
    }
}

/// `s2m3 sweep`.
pub(crate) fn sweep_cmd(args: &Args) -> CmdResult {
    let mut spec = match args.flags.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config `{path}`: {e}"))?;
            SweepSpec::from_json(&text)?
        }
        None => {
            // A quick grid over the churn scenario, kept modest so the
            // default invocation finishes in seconds.
            let mut base = ServeScenario::churn_default();
            base.requests = 400;
            base.snapshot_every = 50;
            SweepSpec::quick(base)
        }
    };
    if let Some(n) = args.get_opt_num("seeds")? {
        spec.seeds = n;
    }
    if let Some(n) = args.get_opt_num("requests")? {
        spec.base.requests = n;
    }
    if let Some(n) = args.get_opt_num("threads")? {
        spec.threads = n;
    }
    if let Some(b) = args.get_opt_num("budget")? {
        spec.miss_budget = b;
    }
    if args.has("print-config") {
        return spec.to_json();
    }
    let report = run_sweep(&spec).map_err(|e| e.to_string())?;
    if args.has("json") {
        report.to_json().map_err(|e| e.to_string())
    } else {
        Ok(report.render_summary())
    }
}

/// `s2m3 evaluate`.
pub(crate) fn evaluate_cmd(args: &Args) -> CmdResult {
    let model_name = args
        .flags
        .get("model")
        .ok_or("--model is required")?
        .clone();
    let bench_name = args.get_or("benchmark", "cifar10");
    let samples = args.get_num("samples", 300usize)?;
    let bench = Benchmark::by_name(bench_name)
        .ok_or_else(|| format!("unknown benchmark '{bench_name}'"))?;
    let zoo = Zoo::standard();
    let model = zoo
        .model(&model_name)
        .ok_or_else(|| format!("unknown model '{model_name}'"))?;
    let dataset = Dataset::generate(&bench, samples);
    let result = evaluate(model, &dataset).map_err(|e| e.to_string())?;
    Ok(format!(
        "{model_name} on {bench_name}: {:.1}% ({}/{} over synthetic samples)\n",
        result.percent(),
        result.correct,
        result.total
    ))
}

/// `s2m3 infer`.
pub(crate) fn infer(args: &Args) -> CmdResult {
    let (instance, model_name, candidates) = instance_for(args)?;
    let label = args.get_or("label", "cli-input");
    let request = instance
        .request(0, &model_name)
        .map_err(|e| e.to_string())?;
    let plan = Plan::greedy(&instance, vec![request.clone()]).map_err(|e| e.to_string())?;
    let model = instance
        .deployment(&model_name)
        .ok_or("model not deployed")?
        .model
        .clone();
    let input = RequestInput::synthetic(&model, label, candidates.max(1));
    let runtime = Runtime::start(&instance, &plan).map_err(|e| e.to_string())?;
    let output = runtime
        .infer(&request, &plan.routed[0].1, &input)
        .map_err(|e| e.to_string())?;
    runtime.shutdown();
    let central = reference::run_model(&model, &input).map_err(|e| e.to_string())?;
    let identical = output == central;
    let top = s2m3_tensor::ops::argmax_rows(&output).map_err(|e| e.to_string())?[0];
    Ok(format!(
        "distributed inference complete: top-1 index {top} over {} candidates\n\
         split == centralized (bit-identical): {identical}\n",
        output.cols()
    ))
}

/// `s2m3 compare`.
pub(crate) fn compare(args: &Args) -> CmdResult {
    let model = args
        .flags
        .get("model")
        .ok_or("--model is required")?
        .clone();
    let candidates = args.get_num("candidates", 101usize)?;
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(&model, candidates)])
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for dev in ["server", "desktop", "laptop", "jetson-a"] {
        match centralized_latency(&full, &model, dev) {
            Ok(t) => {
                let _ = writeln!(out, "centralized {dev:<10} {t:>7.2} s");
            }
            Err(_) => {
                let _ = writeln!(out, "centralized {dev:<10}       – (does not fit)");
            }
        }
    }
    let edge = Instance::on_fleet(Fleet::edge_testbed(), &[(&model, candidates)])
        .map_err(|e| e.to_string())?;
    let request = edge.request(0, &model).map_err(|e| e.to_string())?;
    let plan = Plan::greedy(&edge, vec![request.clone()]).map_err(|e| e.to_string())?;
    let t = total_latency(&edge, &plan.routed[0].1, &request).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "S2M3 (edge fleet)     {t:>7.2} s");
    Ok(out)
}

/// `s2m3 experiments`.
pub(crate) fn experiments(_args: &Args) -> CmdResult {
    Ok(
        "The evaluation lives in the s2m3-bench crate; regenerate any artifact with:

  cargo run --release -p s2m3-bench --bin table6        Table VI   cost & latency per architecture
  cargo run --release -p s2m3-bench --bin table7        Table VII  deployment comparison (+ loading)
  cargo run --release -p s2m3-bench --bin fig3          Fig. 3     inference timeline (ASCII Gantt)
  cargo run --release -p s2m3-bench --bin table8        Table VIII zero-shot accuracy
  cargo run --release -p s2m3-bench --bin table9        Table IX   device availability
  cargo run --release -p s2m3-bench --bin table10       Table X    multi-task sharing
  cargo run --release -p s2m3-bench --bin table11       Table XI   baseline comparison
  cargo run --release -p s2m3-bench --bin optimality    Sec. VI-A  greedy vs brute force (19x5)
  cargo run --release -p s2m3-bench --bin batching      footnote 4 batch scaling
  cargo run --release -p s2m3-bench --bin ablations     mechanism ablations
  cargo run --release -p s2m3-bench --bin load_sweep    queuing knee under Poisson load
  cargo run --release -p s2m3-bench --bin churn         serving SLOs under fleet churn
  cargo run --release -p s2m3-bench --bin sweep         Monte Carlo capacity frontier (all cores)
  cargo run --release -p s2m3-bench --bin scalability   placement cost vs fleet size
  cargo run --release -p s2m3-bench --bin all_experiments  everything + markdown export
"
        .to_string(),
    )
}

/// Every `--flag` and `--switch` a command reads (`None`: not a
/// command). [`dispatch`] rejects anything else, so a typo cannot
/// silently run the default.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "zoo" | "experiments" | "help" | "--help" | "-h" => &[],
        "fleet" => &["fleet"],
        "plan" => &["model", "candidates", "fleet", "replicate", "upper"],
        "simulate" => &["model", "candidates", "fleet", "requests", "rate", "batch"],
        "serve" => &[
            "config",
            "requests",
            "rate",
            "deadline",
            "seed",
            "policy",
            "queue",
            "slo-replan",
            "mix",
            "batch",
            "streaming",
            "sink",
            "max-windows",
            "budget-cap",
            "budget-metric",
            "budget-window",
            "budget-mode",
            "trace",
            "capture-trace",
            "print-config",
            "json",
        ],
        "sweep" => &[
            "config",
            "seeds",
            "requests",
            "threads",
            "budget",
            "print-config",
            "json",
        ],
        "evaluate" => &["model", "benchmark", "samples"],
        "infer" => &["model", "candidates", "fleet", "label"],
        "compare" => &["model", "candidates"],
        _ => return None,
    })
}

/// Dispatches a parsed command.
pub(crate) fn dispatch(args: &Args) -> CmdResult {
    if let Some(known) = known_flags(&args.command) {
        args.reject_unknown(known)?;
    }
    match args.command.as_str() {
        "zoo" => zoo(args),
        "experiments" => experiments(args),
        "fleet" => fleet(args),
        "plan" => plan(args),
        "simulate" => simulate_cmd(args),
        "serve" => serve_cmd(args),
        "sweep" => sweep_cmd(args),
        "evaluate" => evaluate_cmd(args),
        "infer" => infer(args),
        "compare" => compare(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::args::parse;

    fn run(argv: &[&str]) -> CmdResult {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = parse(
            &v,
            &["replicate", "upper", "json", "print-config", "streaming"],
        )
        .map_err(|e| e.to_string())?;
        dispatch(&args)
    }

    #[test]
    fn unknown_flags_fail_instead_of_running_the_default() {
        let err = run(&["serve", "--request", "50"]).unwrap_err();
        assert_eq!(err, "unknown flag --request (did you mean --requests?)");
        // A flag another command reads is still unknown here.
        let err = run(&["sweep", "--rate", "2.0"]).unwrap_err();
        assert!(err.starts_with("unknown flag --rate"), "{err}");
        let err = run(&["serve", "--threads", "2"]).unwrap_err();
        assert!(err.starts_with("unknown flag --threads"), "{err}");
        assert!(run(&["zoo", "--json"]).is_err());
    }

    #[test]
    fn every_flag_in_the_usage_text_is_known_to_its_command() {
        // USAGE lists each command's flags after its name, up to the
        // next command entry (two-space indent, lowercase name).
        let mut command = "";
        for line in USAGE.lines().skip_while(|l| *l != "COMMANDS:").skip(1) {
            if let Some(entry) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                command = entry.split_whitespace().next().unwrap();
            }
            let Some(known) = known_flags(command) else {
                continue;
            };
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--").filter(|f| !f.is_empty()) {
                    assert!(known.contains(&flag), "{command}: --{flag} not known");
                }
            }
        }
    }

    #[test]
    fn zoo_lists_models() {
        let out = run(&["zoo"]).unwrap();
        assert!(out.contains("CLIP ViT-B/16"));
        assert!(out.contains("ImageBind"));
        assert!(out.lines().count() > 15);
    }

    #[test]
    fn fleet_shows_devices() {
        let out = run(&["fleet", "--fleet", "standard"]).unwrap();
        assert!(out.contains("server"));
        assert!(out.contains("jetson-a"));
        let edge = run(&["fleet"]).unwrap();
        assert!(!edge.contains("server"));
        assert!(run(&["fleet", "--fleet", "mars"]).is_err());
    }

    #[test]
    fn plan_places_and_optionally_compares_upper() {
        let out = run(&["plan", "--model", "CLIP ViT-B/16", "--upper"]).unwrap();
        assert!(out.contains("vision/ViT-B-16"));
        assert!(out.contains("predicted latency"));
        assert!(out.contains("greedy = optimal"));
        assert!(run(&["plan"]).is_err(), "--model required");
    }

    #[test]
    fn simulate_reports_stats() {
        let out = run(&[
            "simulate",
            "--model",
            "CLIP ViT-B/16",
            "--requests",
            "8",
            "--rate",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("p95"));
        assert!(out.contains("throughput"));
        let batched = run(&[
            "simulate",
            "--model",
            "CLIP ViT-B/16",
            "--requests",
            "8",
            "--batch",
            "4",
        ])
        .unwrap();
        assert!(batched.contains("batching x4"));
    }

    #[test]
    fn unparsable_numeric_flags_fail_instead_of_running_the_default() {
        let model = ["--model", "CLIP ViT-B/16"];
        for (cmd, flag, value) in [
            ("simulate", "--requests", "10k"),
            ("simulate", "--rate", "fast"),
            ("simulate", "--batch", "four"),
            ("simulate", "--batch", "0"),
            ("plan", "--candidates", "1e2"),
            ("compare", "--candidates", "-1"),
            ("evaluate", "--samples", "many"),
        ] {
            let err = run(&[cmd, model[0], model[1], flag, value]).unwrap_err();
            assert!(err.contains(flag) && err.contains(value), "{cmd}: {err}");
        }
        for (cmd, flag, value) in [
            ("serve", "--requests", "10k"),
            ("serve", "--rate", "fast"),
            ("serve", "--deadline", "soon"),
            ("serve", "--queue", "-4"),
            ("serve", "--slo-replan", "45s"),
            ("serve", "--batch", "four"),
            ("serve", "--batch", "0"),
            ("serve", "--max-windows", "1.5"),
            ("serve", "--budget-cap", "lots"),
            ("sweep", "--seeds", "none"),
            ("sweep", "--threads", "two"),
            ("sweep", "--budget", "1%"),
        ] {
            let err = run(&[cmd, flag, value]).unwrap_err();
            assert!(err.contains(flag) && err.contains(value), "{cmd}: {err}");
        }
        // A rate that parses but no Poisson process has: these used to
        // run at the 1e-9 req/s floor.
        for value in ["nan", "inf", "-inf", "0", "-0.0", "-3"] {
            for cmd in [
                &["simulate", model[0], model[1], "--requests", "4"][..],
                &["serve", "--requests", "4"][..],
            ] {
                let argv = [cmd, &["--rate", value][..]].concat();
                let err = run(&argv).unwrap_err();
                assert!(
                    err.contains("--rate") && err.contains(value) && err.contains("above 0"),
                    "{argv:?}: {err}"
                );
            }
        }
        // A valid rate too small for the clock: its second arrival is
        // past the clock's range.
        let err = run(&[
            "simulate",
            model[0],
            model[1],
            "--requests",
            "3",
            "--rate",
            "1e-300",
        ])
        .unwrap_err();
        assert!(err.contains("arrival 1 is"), "{err}");
    }

    #[test]
    fn serve_runs_summary_json_and_config_modes() {
        // Small stream so the test stays fast; the default churn events
        // still fire (after the last completion) and exercise replanning.
        let out = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "0.5",
            "--deadline",
            "30",
            "--seed",
            "cli-test",
        ])
        .unwrap();
        assert!(out.contains("60 arrived"));
        assert!(out.contains("p95"));
        let json = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "0.5",
            "--deadline",
            "30",
            "--seed",
            "cli-test",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"arrived\": 60"));
        let config = run(&["serve", "--print-config"]).unwrap();
        assert!(config.contains("\"requests\": 10000"));
        assert!(!config.contains("\"threads\""));
        assert!(run(&["serve", "--policy", "bogus"]).is_err());
        assert!(run(&["serve", "--config", "/nonexistent.json"]).is_err());
        // --slo-replan enables the rolling-p95 trigger with the given
        // cooldown; bad cooldowns are rejected.
        let slo_config = run(&["serve", "--slo-replan", "45", "--print-config"]).unwrap();
        assert!(slo_config.contains("slo_trigger"));
        assert!(slo_config.contains("\"cooldown_s\": 45"));
        assert!(run(&["serve", "--slo-replan", "soon"]).is_err());
    }

    #[test]
    fn serve_mix_and_batch_flags_shape_the_scenario() {
        // --batch merges same-module runs; the run still conserves.
        let batched = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "2.0",
            "--batch",
            "4",
            "--seed",
            "b",
        ])
        .unwrap();
        assert!(batched.contains("60 arrived"));
        let config = run(&["serve", "--batch", "8", "--print-config"]).unwrap();
        assert!(config.contains("\"max_batch\": 8"));

        // --mix takes model=weight pairs against the deployed models.
        let mix_config = run(&["serve", "--mix", "CLIP ViT-B/16=3", "--print-config"]).unwrap();
        assert!(mix_config.contains("Weighted"));
        assert!(mix_config.contains("\"weight\": 3"));
        let mixed = run(&[
            "serve",
            "--requests",
            "40",
            "--rate",
            "0.5",
            "--mix",
            "CLIP ViT-B/16=1",
            "--seed",
            "m",
        ])
        .unwrap();
        assert!(mixed.contains("40 arrived"));

        // Malformed mixes and unknown models fail loudly.
        assert!(run(&["serve", "--mix", "CLIP ViT-B/16"]).is_err());
        assert!(run(&["serve", "--mix", "CLIP ViT-B/16=lots"]).is_err());
        assert!(run(&["serve", "--requests", "10", "--mix", "nope=1"]).is_err());
        assert!(run(&["serve", "--batch", "many"]).is_err());
    }

    #[test]
    fn serve_budget_flags_enable_and_shape_the_cap() {
        // --budget-cap alone turns the budget on (device-seconds,
        // defer-then-shed defaults) and the summary reports adherence.
        let out = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "2.0",
            "--seed",
            "b",
            "--budget-cap",
            "2.5",
        ])
        .unwrap();
        assert!(out.contains("budget cap 2.50/60s window"), "{out}");
        assert!(out.contains("adherence 100.0%"), "{out}");
        let json = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "2.0",
            "--seed",
            "b",
            "--budget-cap",
            "2.5",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"adherence\": 1.0"), "{json}");

        // The satellite flags reshape metric, window, and enforcement.
        let config = run(&[
            "serve",
            "--budget-cap",
            "900",
            "--budget-metric",
            "energy",
            "--budget-window",
            "30",
            "--budget-mode",
            "shed",
            "--print-config",
        ])
        .unwrap();
        assert!(config.contains("\"cap_per_window\": 900"), "{config}");
        assert!(config.contains("Energy"), "{config}");
        assert!(config.contains("\"window_s\": 30"), "{config}");
        assert!(config.contains("Shed"), "{config}");
        let custom = run(&[
            "serve",
            "--budget-cap",
            "5",
            "--budget-metric",
            "custom:0.25",
            "--print-config",
        ])
        .unwrap();
        assert!(custom.contains("\"per_device_rate\": 0.25"), "{custom}");

        // Budget-free scenarios carry a null policy and keep the
        // budget section out of the report entirely.
        let free = run(&["serve", "--print-config"]).unwrap();
        assert!(free.contains("\"budget\": null"), "{free}");

        // Modifier flags without a cap, and malformed values, fail loudly.
        assert!(run(&["serve", "--budget-metric", "energy"]).is_err());
        assert!(run(&["serve", "--budget-window", "30"]).is_err());
        assert!(run(&["serve", "--budget-mode", "shed"]).is_err());
        assert!(run(&["serve", "--budget-cap", "lots"]).is_err());
        assert!(run(&["serve", "--budget-cap", "5", "--budget-metric", "carbon"]).is_err());
        assert!(run(&["serve", "--budget-cap", "5", "--budget-mode", "panic"]).is_err());
        assert!(
            run(&["serve", "--budget-cap", "-1"]).is_err(),
            "validate() rejects"
        );
    }

    #[test]
    fn serve_queue_flag_requires_shed_policy() {
        // --queue alone tightens the default shed bound.
        let tight = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "2.0",
            "--queue",
            "3",
            "--seed",
            "qq",
        ])
        .unwrap();
        assert!(tight.contains("shed"));
        // --queue with a non-shed policy is an error, not a silent no-op.
        let err = run(&[
            "serve",
            "--requests",
            "10",
            "--policy",
            "fifo",
            "--queue",
            "5",
        ])
        .unwrap_err();
        assert!(err.contains("--queue"), "{err}");
    }

    #[test]
    fn serve_rejects_a_deadline_at_or_before_arrival() {
        // These used to run with a 1 ms deadline and report every
        // request late.
        for value in ["0", "-5"] {
            let err = run(&["serve", "--requests", "200", "--deadline", value]).unwrap_err();
            assert!(
                err.contains("deadline_s: must be > 0") && err.contains(value),
                "--deadline {value}: {err}"
            );
        }
    }

    #[test]
    fn serve_policies_parse() {
        for policy in ["fifo", "edf", "shed"] {
            let out = run(&[
                "serve",
                "--requests",
                "20",
                "--rate",
                "1.0",
                "--policy",
                policy,
                "--seed",
                "p",
            ])
            .unwrap();
            assert!(out.contains("20 arrived"), "{policy}: {out}");
        }
    }

    #[test]
    fn sweep_runs_grid_and_prints_frontier() {
        let out = run(&[
            "sweep",
            "--requests",
            "40",
            "--seeds",
            "1",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("capacity frontier"), "{out}");
        assert!(out.contains("replicas"));
        let json = run(&[
            "sweep",
            "--requests",
            "40",
            "--seeds",
            "1",
            "--threads",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"frontier\""));
        let config = run(&["sweep", "--print-config"]).unwrap();
        assert!(config.contains("\"rate_scales\""));
        assert!(run(&["sweep", "--seeds", "none"]).is_err());
        assert!(run(&["sweep", "--config", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn evaluate_and_infer_roundtrip() {
        let out = run(&[
            "evaluate",
            "--model",
            "CLIP ViT-B/16",
            "--benchmark",
            "cifar10",
            "--samples",
            "60",
        ])
        .unwrap();
        assert!(out.contains('%'));
        let inf = run(&["infer", "--model", "CLIP ViT-B/16", "--candidates", "8"]).unwrap();
        assert!(inf.contains("bit-identical): true"));
    }

    #[test]
    fn compare_includes_infeasible_dashes() {
        let out = run(&["compare", "--model", "ImageBind", "--candidates", "8"]).unwrap();
        assert!(out.contains("does not fit"));
        assert!(out.contains("S2M3"));
    }

    #[test]
    fn experiments_lists_all_binaries() {
        let out = run(&["experiments"]).unwrap();
        for bin in [
            "table6",
            "table11",
            "optimality",
            "scalability",
            "all_experiments",
        ] {
            assert!(out.contains(bin), "missing {bin}");
        }
    }

    #[test]
    fn experiments_names_exactly_the_experiment_bins() {
        let out = run(&["experiments"]).unwrap();
        let listed: BTreeSet<String> = out
            .split("--bin ")
            .skip(1)
            .map(|rest| rest.split_whitespace().next().unwrap().to_string())
            .collect();
        // `capture_fixtures` regenerates the goldens: tooling, not an
        // experiment (the README documents it).
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/src/bin");
        let bins: BTreeSet<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
            .filter(|b| b != "capture_fixtures")
            .collect();
        assert_eq!(listed, bins);
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn serve_streaming_flags_work_end_to_end() {
        // --streaming alone: memory-flat run, same counters in the
        // summary, streaming block in the echoed config.
        let out = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "0.5",
            "--seed",
            "cli-stream",
            "--streaming",
        ])
        .unwrap();
        assert!(out.contains("60 arrived"));
        let config = run(&[
            "serve",
            "--streaming",
            "--max-windows",
            "32",
            "--print-config",
        ])
        .unwrap();
        assert!(config.contains("\"streaming\""));
        assert!(config.contains("\"max_windows\": 32"));
        assert!(!config.contains("\"sink\": \""), "no sink unless asked");

        // --sink implies streaming and writes a readable columnar file.
        let path = std::env::temp_dir().join(format!("s2m3_cli_sink_{}.bin", std::process::id()));
        let sink = path.to_string_lossy().into_owned();
        let json = run(&[
            "serve",
            "--requests",
            "60",
            "--rate",
            "0.5",
            "--seed",
            "cli-stream",
            "--sink",
            &sink,
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"arrived\": 60"));
        let rows = s2m3_data::sink::read_rows(std::fs::File::open(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(!rows.is_empty());
        assert!(run(&["serve", "--max-windows", "zero?"]).is_err());
    }

    #[test]
    fn serve_capture_trace_then_replay_reproduces_the_run() {
        let path =
            std::env::temp_dir().join(format!("s2m3_cli_trace_{}.jsonl", std::process::id()));
        let trace = path.to_string_lossy().into_owned();
        let captured = run(&[
            "serve",
            "--requests",
            "120",
            "--seed",
            "cli-trace",
            "--capture-trace",
            &trace,
            "--json",
        ])
        .unwrap();
        let replayed = run(&[
            "serve",
            "--requests",
            "120",
            "--seed",
            "cli-trace",
            "--trace",
            &trace,
            "--json",
        ]);
        let _ = std::fs::remove_file(&path);
        let replayed = replayed.unwrap();
        // The replay regenerates arrivals from recorded gaps; outcomes
        // must match the captured run.
        for key in ["\"arrived\":", "\"completed\":", "\"shed\":"] {
            let field = |s: &str| {
                let i = s.find(key).unwrap();
                s[i..].chars().take_while(|c| *c != ',').collect::<String>()
            };
            assert_eq!(field(&captured), field(&replayed), "{key}");
        }
        assert!(run(&["serve", "--trace", "/nonexistent.jsonl"]).is_err());
    }
}
