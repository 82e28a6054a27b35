//! The repo benchmark. See `benchmark/README.md` for the workloads, the
//! metrics and the protocol; `benchmark/run.sh` builds and runs this.

mod alloc;
mod metrics;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::{LayerReport, Rep, TracedRun, WorkloadResult};
use workloads::{Inputs, Outcome, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Files the benchmark writes, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

/// Timed repetitions per workload when `--seconds` is not given.
const DEFAULT_REPS: usize = 9;
/// Fewest timed repetitions a median is taken over.
const MIN_REPS: usize = 3;
/// Cold set-ups timed per workload: this process's own, the rest in
/// child processes.
const SETUP_SAMPLES: usize = 3;
/// A repetition whose wall time exceeds its on-CPU time by more than
/// this share was descheduled.
const DESCHEDULED_SHARE: f64 = 0.05;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] \
[--trace 0|1] [--quick] [--no-trace] [--check] | --compare A.json B.json";

#[derive(Debug, Clone)]
struct Config {
    workloads: Vec<&'static str>,
    seed: String,
    /// Timed-pass budget per workload; `None` runs [`DEFAULT_REPS`].
    seconds: Option<f64>,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: traced pass
    /// only; `None`: both.
    trace: Option<bool>,
    quick: bool,
    check: bool,
    setup_probe: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        seed: "bench-v1".to_string(),
        seconds: None,
        trace: None,
        quick: false,
        check: false,
        setup_probe: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.0 == name)
                    .ok_or(format!("unknown workload `{name}`"))?;
                cfg.workloads = vec![known.0];
            }
            "--seed" => cfg.seed = value()?.clone(),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cfg.seconds = Some(s);
            }
            "--trace" => {
                cfg.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--no-trace" => cfg.trace = Some(false),
            "--quick" => cfg.quick = true,
            "--check" => cfg.check = true,
            "--setup-probe" => cfg.setup_probe = true,
            "--compare" => cfg.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cfg)
}

/// One workload's set-up: inputs from the seed, then the untimed
/// warm-up repetition whose outcome every later one must reproduce.
fn set_up(
    name: &'static str,
    cfg: &Config,
    since: Instant,
) -> Result<(Inputs, Outcome, f64), String> {
    let inputs = workloads::generate(name, &cfg.seed, cfg.quick)?;
    let warm = workloads::run(name, &inputs, None, 0.0)?;
    Ok((inputs, warm, since.elapsed().as_secs_f64()))
}

/// Times a cold set-up of `name` in a child process (process start →
/// end of the warm-up repetition), which prints the seconds it took.
fn probe_setup(name: &str, cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--setup-probe", "--workload", name, "--seed", &cfg.seed]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up probe printed no time".to_string())
}

/// One timed repetition: wall, on-CPU and peak heap around the whole
/// call, then the checks against the warm-up's outcome.
fn timed_rep(result: &mut WorkloadResult, inputs: &Inputs) {
    let baseline = alloc::reset_peak();
    let cpu0 = stats::on_cpu_ns();
    let t0 = Instant::now();
    let outcome = workloads::run(result.name, inputs, None, 0.0);
    let wall_s = t0.elapsed().as_secs_f64();
    let on_cpu_s = match (cpu0, stats::on_cpu_ns()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64 / 1e9),
        _ => None,
    };
    let peak_bytes = alloc::peak_bytes().saturating_sub(baseline);
    result.reps.push(Rep {
        wall_s,
        on_cpu_s,
        peak_bytes,
        descheduled: on_cpu_s.is_some_and(|c| wall_s > c * (1.0 + DESCHEDULED_SHARE)),
    });
    result.check_outcome("timed", outcome.as_ref().map_err(String::as_str));
}

/// One traced repetition of `inputs` (spans labelled `label`), the
/// single-thread rerun a sweep gets, and the leaf-layer replays a serve
/// run's shape calls for.
fn trace_run(
    label: &'static str,
    inputs: &Inputs,
    horizon_s: f64,
    rec: &mut trace::Recorder,
) -> Result<TracedRun, String> {
    let first_span = rec.spans.len();
    let t0 = Instant::now();
    let outcome = workloads::run(label, inputs, Some(rec), horizon_s)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let single_thread = match inputs {
        Inputs::Sweep(spec) => {
            let t0 = Instant::now();
            let digest = workloads::run_sweep_single_thread(label, spec, rec)?;
            Some((t0.elapsed().as_secs_f64(), digest))
        }
        _ => None,
    };
    let serve = match &outcome.shape {
        Some(shape) => Some(replay::serve_layers(shape)?),
        None => None,
    };
    Ok(TracedRun {
        outcome,
        spans: rec.spans[first_span..].to_vec(),
        wall_s,
        single_thread,
        serve,
    })
}

/// Quick-size traced runs of one workload per kind (serve, bounded,
/// sweep): the reference measurement of every layer, so that a trace of
/// any workload yields the whole ledger.
fn reference_runs(cfg: &Config, rec: &mut trace::Recorder) -> Result<Vec<TracedRun>, String> {
    [
        ("steady_mix", "steady_mix.ref"),
        ("offline_burst", "offline_burst.ref"),
        ("sweep_grid", "sweep_grid.ref"),
    ]
    .into_iter()
    .map(|(name, label)| {
        let inputs = workloads::generate(name, &cfg.seed, true)?;
        let untraced = workloads::run(label, &inputs, None, 0.0)?;
        let run = trace_run(label, &inputs, untraced.makespan_s, rec)?;
        let digests_agree = run.outcome.digest == untraced.digest
            && run.single_thread.is_none_or(|(_, d)| d == untraced.digest);
        if !digests_agree {
            return Err(format!("{label}: traced digest differs from untraced"));
        }
        Ok(run)
    })
    .collect()
}

/// The traced pass of one workload: its checks and its layer ledger.
fn traced_pass(
    result: &mut WorkloadResult,
    inputs: &Inputs,
    rec: &mut trace::Recorder,
    references: &[TracedRun],
    fixed: &replay::Values,
) {
    let run = trace_run(result.name, inputs, result.reference.makespan_s, rec);
    result.check_outcome(
        "traced (128 slices)",
        run.as_ref().map(|r| &r.outcome).map_err(String::as_str),
    );
    let Ok(run) = run else { return };
    if let Some((_, digest)) = run.single_thread {
        result.check(
            "threads 1 digest == threads 2 digest",
            digest == result.reference.digest,
        );
    }
    let layers = LayerReport::assemble(result, references, &run, fixed);
    result.layers = Some(layers);
}

fn run_benchmark(cfg: &Config, started: Instant) -> Result<ExitCode, String> {
    let timed = cfg.trace != Some(true);
    let traced = cfg.trace != Some(false);

    // Set-up: inputs and warm-up, one workload after the other. The
    // first one's clock starts with the process.
    let mut benches: Vec<(WorkloadResult, Inputs)> = Vec::new();
    let mut since = started;
    for &(name, why) in WORKLOADS.iter().filter(|w| cfg.workloads.contains(&w.0)) {
        let (inputs, warm, setup_s) = set_up(name, cfg, since)?;
        let mut result = WorkloadResult::new(name, why, warm);
        result.setup_samples.push(setup_s);
        benches.push((result, inputs));
        since = Instant::now();
    }
    if timed {
        for (result, _) in &mut benches {
            for _ in 1..SETUP_SAMPLES {
                match probe_setup(result.name, cfg) {
                    Ok(s) => result.setup_samples.push(s),
                    Err(e) => result.check(&format!("set-up probe: {e}"), false),
                }
            }
        }
    }

    // Timed pass: round-robin across workloads, so a throttle window
    // hits all alike. The traced-only mode still needs a few untraced
    // repetitions as the base of `trace_overhead_ratio`.
    let mut active = true;
    while active {
        active = false;
        for (result, inputs) in &mut benches {
            let spent: f64 = result.reps.iter().map(|r| r.wall_s).sum();
            let wanted = match (timed, cfg.seconds) {
                (false, _) => result.reps.len() < MIN_REPS,
                (true, None) => result.reps.len() < DEFAULT_REPS,
                (true, Some(s)) => result.reps.len() < MIN_REPS || spent < s,
            };
            if wanted {
                timed_rep(result, inputs);
                active = true;
            }
        }
    }

    let out_dir = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if traced {
        let fixed = replay::fixed_layers(cfg.quick, &out_dir.join("sink.tmp"))?;
        let mut rec = trace::Recorder::new();
        let references = reference_runs(cfg, &mut rec)?;
        for (result, inputs) in &mut benches {
            traced_pass(result, inputs, &mut rec, &references, &fixed);
        }
        rec.write_jsonl(&out_dir.join("trace.jsonl"))
            .map_err(|e| format!("trace.jsonl: {e}"))?;
    }

    let results: Vec<WorkloadResult> = benches.into_iter().map(|(r, _)| r).collect();
    report::print_tables(&results, timed);
    let json = report::results_json(&results, &cfg.seed, cfg.quick, timed);
    std::fs::write(out_dir.join("results.json"), json + "\n")
        .map_err(|e| format!("results.json: {e}"))?;

    let mut ok = results.iter().all(|r| r.failed.is_empty());
    for r in &results {
        for f in &r.failed {
            eprintln!("FAILED {}: {f}", r.name);
        }
    }
    if cfg.check {
        let problems = report::self_check(&results, timed, traced);
        for p in &problems {
            eprintln!("CHECK {p}");
        }
        println!(
            "self-check: {} metric names x {} workloads, {} problems",
            metrics::END_TO_END.len() + metrics::PER_LAYER.len(),
            results.len(),
            problems.len()
        );
        ok &= problems.is_empty();
    }
    // The driver's contract: one workload, one pass, one JSON line last.
    if let ([result], Some(trace_on)) = (results.as_slice(), cfg.trace) {
        println!("{}", report::result_line(result, trace_on));
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &cfg.compare {
        report::compare(a, b).map(|()| ExitCode::SUCCESS)
    } else if cfg.setup_probe {
        set_up(cfg.workloads[0], &cfg, started).map(|(_, _, s)| {
            println!("{s:?}");
            ExitCode::SUCCESS
        })
    } else {
        run_benchmark(&cfg, started)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
