//! Heap-profile comparison of the serving loop's two latency
//! aggregations over the one (slab-recycling) request-lifetime path:
//! exact (every latency sample kept) versus streaming (histogram
//! sketch). Runs the same churn scenario in both modes at increasing
//! request counts and prints the peak-heap delta of each run: exact
//! grows by its samples — 8 bytes per completion — and nothing else,
//! streaming stays flat:
//!
//! ```text
//! cargo run --release -p s2m3-bench --bin serve_memory [-- --requests N]
//! ```

use peak_alloc::PeakAlloc;
use s2m3_serve::{serve, AdmissionPolicy, ServeScenario, StreamingConfig};
use s2m3_sim::workload::ArrivalProcess;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn scenario(requests: usize, streaming: bool) -> ServeScenario {
    let mut s = ServeScenario::churn_default();
    s.requests = requests;
    s.arrivals = ArrivalProcess::Poisson { rate_per_s: 3.0 };
    s.admission = AdmissionPolicy::ShedOnOverload { max_queue: 48 };
    if streaming {
        s.streaming = Some(StreamingConfig::default());
        s.max_windows = Some(64);
    }
    s
}

/// Peak-heap delta (bytes) and completions of one serving run.
fn measure(s: &ServeScenario) -> (usize, u64) {
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let report = serve(s).unwrap();
    let peak = ALLOC.peak_bytes().saturating_sub(before);
    assert_eq!(report.completed + report.shed, report.arrived);
    (peak, report.completed)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_requests: usize = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--requests takes a count"))
        .unwrap_or(1_000_000);

    // Warm up one-time globals (zoo interning, fleet tables) so they
    // don't land in the first measurement's peak.
    let _ = measure(&scenario(512, true));

    println!(
        "{:>10}  {:>16}  {:>16}  {:>7}",
        "requests", "exact peak MiB", "streaming MiB", "ratio"
    );
    let mut n = 10_000;
    while n <= max_requests {
        let (exact, _) = measure(&scenario(n, false));
        let (stream, completed) = measure(&scenario(n, true));
        println!(
            "{:>10}  {:>16.2}  {:>16.2}  {:>6.1}x   ({} completed)",
            n,
            mib(exact),
            mib(stream),
            exact as f64 / stream.max(1) as f64,
            completed
        );
        n *= 10;
    }
    println!(
        "\nstreaming peak is O(in-flight): it should stay ~constant down \
         the column while the exact peak grows by its latency samples only"
    );
}
