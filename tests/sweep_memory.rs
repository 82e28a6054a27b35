//! Heap bound for the sweep: a cell is folded into its report when its
//! last replica lands, so a sweep holds replica summaries for at most
//! one cell per thread, and its peak heap grows with the grid only by
//! the cell reports it returns — not by the replicas it runs.
//!
//! Own binary, like `serve_memory_flat.rs`: the counting allocator's
//! peak is process-wide, so this file holds one test.

use peak_alloc::PeakAlloc;
use s2m3::serve::ServeScenario;
use s2m3::sweep::{run_sweep, CellReport, SweepReport, SweepSpec, TimeBand};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Short replicas, `seeds` per cell, one fleet size, two threads.
fn spec(rate_scales: Vec<f64>, seeds: usize) -> SweepSpec {
    let mut base = ServeScenario::churn_default();
    base.requests = 40;
    SweepSpec {
        seeds,
        rate_scales,
        fleet_sizes: vec![4],
        bin_s: 600.0,
        threads: 2,
        ..SweepSpec::quick(base)
    }
}

/// Runs the sweep; returns its report and its peak heap above what was
/// live before, in bytes.
fn measure(spec: &SweepSpec) -> (SweepReport, usize) {
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let report = run_sweep(spec).unwrap();
    (report, ALLOC.peak_bytes().saturating_sub(before))
}

#[test]
fn sweep_peak_heap_grows_by_cell_reports_not_replicas() {
    let seeds = 32;
    // The small grid's scales bound the big grid's, so the busiest
    // replica (and the sessions in flight with it) is the same in both.
    let small_scales = vec![0.5, 1.0];
    let big_scales: Vec<f64> = (1..=8).map(|k| f64::from(k) / 8.0).collect();
    let _ = measure(&spec(small_scales.clone(), 2));

    let (small_report, small) = measure(&spec(small_scales, seeds));
    let (big_report, big) = measure(&spec(big_scales, seeds));
    // What the extra cells must add: their reports. The slack covers
    // which sessions happen to be in flight at the peak (it moves by
    // about 8 KiB between runs); a sweep that kept every replica's
    // summary to the end peaks about 56 KB higher on the big grid.
    let slack = 16 << 10;
    let allowed = small + report_bytes(&big_report) - report_bytes(&small_report) + slack;
    assert!(
        big <= allowed,
        "{} cells of {seeds} seeds peaked at {small} B, {} cells at {big} B: \
         more than the {} B their extra reports hold plus {slack} B, so the \
         sweep keeps something per replica",
        small_report.cells.len(),
        big_report.cells.len(),
        report_bytes(&big_report) - report_bytes(&small_report)
    );
}

/// Heap the report's cells hold: each `CellReport` and its time bands.
fn report_bytes(report: &SweepReport) -> usize {
    report.cells.capacity() * size_of::<CellReport>()
        + report
            .cells
            .iter()
            .map(|c| c.bands.capacity() * size_of::<TimeBand>())
            .sum::<usize>()
}
