//! Run accounting: SLO windows, latency aggregation, per-class
//! counters, per-device usage, and the optional columnar completion
//! sink — everything the report derives from completions, kept apart
//! from the serving driver that feeds it.

use s2m3_core::sketch::LatencySketch;
use s2m3_data::sink::{ColumnWriter, CompletionRow};
use s2m3_sim::kernel::secs;

use crate::engine::ServeError;
use crate::report::LatencySummary;
use crate::slo::{DeviceUsage, Outcome, SloWindow, WindowSnapshot};

/// Latency accumulator behind [`LatencySummary`]: exact mode keeps
/// every sample (sorted once at `finish`, byte-identical to the golden
/// fixtures) — the only O(requests) state a run holds — and streaming
/// mode folds into a [`LatencySketch`] so memory stays flat over
/// unbounded runs. Both start empty and grow with what they hold.
#[derive(Debug, Clone)]
pub(crate) enum LatAgg {
    /// Every sample, summarized by one sort at the end.
    Exact(ExactSamples),
    /// Bounded-memory log-bucket histogram (≤ 1% quantile error).
    Sketch(LatencySketch),
}

/// Samples per block of [`ExactSamples`]: 32 KiB.
const BLOCK: usize = 4096;

/// Exact latency samples, in arrival order, grown in fixed blocks: the
/// tail `Vec` grows by doubling up to [`BLOCK`] samples, exactly as a
/// plain `Vec` would, and a full tail moves (uncopied) into `blocks`
/// while the next tail reserves one block. A doubling `Vec` holds up to
/// twice its samples while it grows; this holds the samples plus one
/// block.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSamples {
    /// Full blocks of `BLOCK` samples each, oldest first.
    blocks: Vec<Vec<f64>>,
    /// The samples after the last full block.
    tail: Vec<f64>,
}

impl ExactSamples {
    #[inline]
    fn push(&mut self, v: f64) {
        if self.tail.len() == BLOCK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(BLOCK));
            self.blocks.push(full);
        }
        self.tail.push(v);
    }

    /// Every sample in one slice. The blocks move into the first one,
    /// which grows by exactly one block per block copied, and each
    /// block is freed once copied: the samples plus about one block are
    /// live at any point.
    fn gather(&mut self) -> &mut [f64] {
        let mut blocks = std::mem::take(&mut self.blocks).into_iter();
        if let Some(mut all) = blocks.next() {
            for block in blocks.chain([std::mem::take(&mut self.tail)]) {
                all.reserve_exact(block.len());
                all.extend_from_slice(&block);
            }
            self.tail = all;
        }
        &mut self.tail
    }
}

impl Default for LatAgg {
    fn default() -> Self {
        LatAgg::Exact(ExactSamples::default())
    }
}

impl LatAgg {
    pub(crate) fn new(streaming: bool) -> Self {
        if streaming {
            LatAgg::Sketch(LatencySketch::new())
        } else {
            LatAgg::default()
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, v: f64) {
        match self {
            LatAgg::Exact(samples) => samples.push(v),
            LatAgg::Sketch(sketch) => sketch.record(v),
        }
    }

    /// Folds the accumulator into a summary. Gathers the exact samples
    /// into one buffer and sorts it in place. Latencies are finite and
    /// ≥ +0.0, where `total_cmp` agrees with `<` and equal samples are
    /// bit-equal, so the unstable sort yields the stable sort's bytes.
    pub(crate) fn summarize(&mut self) -> LatencySummary {
        match self {
            LatAgg::Exact(samples) => {
                let samples = samples.gather();
                debug_assert!(samples.iter().all(|v| !v.is_nan()), "NaN latency sample");
                samples.sort_unstable_by(f64::total_cmp);
                LatencySummary::from_sorted(samples)
            }
            LatAgg::Sketch(sketch) => LatencySummary::from_sketch(sketch),
        }
    }
}

/// Running per-deadline-class counters, folded into
/// [`ClassReport`](crate::report::ClassReport)s at the end of the run.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassStats {
    pub arrived: u64,
    pub completed: u64,
    pub shed: u64,
    pub late: u64,
    pub latencies: LatAgg,
}

/// The accounting state of one serving run. Owns everything the report
/// derives from completions: the SLO ring, snapshot cadence, latency
/// aggregators, class counters, per-device usage/executions, and the
/// streaming sink.
#[derive(Debug)]
pub(crate) struct Accounting {
    pub slo: SloWindow,
    /// Completions between window snapshots. Starts at the scenario's
    /// `snapshot_every` and doubles whenever `max_windows` forces a
    /// downsample.
    pub snapshot_stride: u64,
    /// Outcomes left until the next snapshot — the running remainder
    /// of `snapshot_stride`, kept so the per-outcome hot path is a
    /// decrement instead of a 64-bit modulo.
    pub until_snapshot: u64,
    /// Snapshot-count cap (`None`: retain every snapshot).
    pub max_windows: Option<usize>,
    pub last_snapshot_seen: u64,
    pub latencies: LatAgg,
    pub class_stats: Vec<ClassStats>,
    /// Per-universe-device usage, indexed by universe device index.
    pub usage: Vec<DeviceUsage>,
    /// Per-universe-device execution counts.
    pub executions: Vec<u64>,
    /// Optional columnar per-completion event sink (streaming mode
    /// only): one row per completed request, O(1) memory.
    pub sink: Option<ColumnWriter<std::io::BufWriter<std::fs::File>>>,
    pub completed: u64,
    pub late: u64,
    pub shed: u64,
    /// Rolling-window snapshots, in completion order (moved into the
    /// report at `finish`).
    pub windows: Vec<WindowSnapshot>,
    pub last_completion_ns: u64,
}

impl Accounting {
    /// A request completed: counters, latency aggregation, the SLO
    /// window, and the optional sink row. `device` is the universe
    /// index of the head device (`u32::MAX`: none).
    ///
    /// # Errors
    ///
    /// [`ServeError::Sink`] when the sink row cannot be written.
    #[inline]
    pub fn complete(
        &mut self,
        arrival_ns: u64,
        finish_ns: u64,
        device: u32,
        class: Option<u32>,
        missed: bool,
        latency_s: f64,
    ) -> Result<(), ServeError> {
        if let Some(w) = self.sink.as_mut() {
            w.push(CompletionRow {
                arrival_ns,
                finish_ns,
                device,
                class,
                latency_s,
            })
            .map_err(|e| ServeError::Sink(e.to_string()))?;
        }
        self.completed += 1;
        if missed {
            self.late += 1;
        }
        if let Some(ci) = class {
            let cs = &mut self.class_stats[ci as usize];
            cs.completed += 1;
            if missed {
                cs.late += 1;
            }
            cs.latencies.record(latency_s);
        }
        self.latencies.record(latency_s);
        self.last_completion_ns = self.last_completion_ns.max(finish_ns);
        self.outcome(Outcome {
            completed_at_s: secs(finish_ns),
            latency_s,
            missed,
        });
        Ok(())
    }

    /// A request was shed at `at_s`: counters and the SLO window only —
    /// no latency sample, no sink row. A shed request is an SLO miss;
    /// the window records it at `latency_s` (the deadline bound) so
    /// percentiles reflect the rejection.
    #[inline]
    pub fn shed(&mut self, at_s: f64, latency_s: f64, class: Option<u32>) {
        self.shed += 1;
        if let Some(ci) = class {
            self.class_stats[ci as usize].shed += 1;
        }
        self.outcome(Outcome {
            completed_at_s: at_s,
            latency_s,
            missed: true,
        });
    }

    /// A classed request arrived.
    #[inline]
    pub fn class_arrived(&mut self, class: u32) {
        self.class_stats[class as usize].arrived += 1;
    }

    /// Device `ui` finished an execution whose lane survived: charge
    /// busy time and bump the execution count.
    #[inline]
    pub fn charge(&mut self, ui: usize, dur_ns: u64) {
        self.usage[ui].busy_s += secs(dur_ns);
        self.executions[ui] += 1;
    }

    /// Device `ui` joined the fleet at `at_s`.
    pub fn join(&mut self, ui: usize, at_s: f64) {
        let u = &mut self.usage[ui];
        u.active = true;
        u.active_since_s = at_s;
    }

    /// Device `ui` left the fleet at `at_s`.
    pub fn leave(&mut self, ui: usize, at_s: f64) {
        let u = &mut self.usage[ui];
        if u.active {
            u.active = false;
            u.active_s += (at_s - u.active_since_s).max(0.0);
        }
    }

    /// Pushes one outcome into the SLO ring and emits a window snapshot
    /// on the running cadence (with `max_windows` downsampling).
    fn outcome(&mut self, outcome: Outcome) {
        self.slo.push(outcome);
        self.until_snapshot -= 1;
        if self.until_snapshot == 0 {
            let mut snap = self.slo.snapshot(outcome.completed_at_s);
            snap.utilization = self.utilization(outcome.completed_at_s);
            self.windows.push(snap);
            self.last_snapshot_seen = self.slo.total_seen();
            // Bounded-report mode: over the cap, drop every other
            // retained snapshot and double the stride, so `windows`
            // holds at most `max_windows` entries at a geometrically
            // coarsening (still deterministic) cadence.
            if let Some(cap) = self.max_windows {
                if self.windows.len() >= cap.max(2) {
                    let mut keep = false;
                    self.windows.retain(|_| {
                        keep = !keep;
                        keep
                    });
                    self.snapshot_stride = self.snapshot_stride.saturating_mul(2);
                }
            }
            // Re-arm: `total_seen` is a multiple of the old stride, so
            // against a doubled stride the remainder is 0 or the old
            // stride — exactly what the modulo formulation produced.
            let rem = self.slo.total_seen() % self.snapshot_stride;
            self.until_snapshot = self.snapshot_stride - rem;
        }
    }

    /// Fleet-wide utilization at `now_s`: busy lane-seconds over
    /// offered lane-seconds summed in universe device order
    /// (deterministic).
    pub fn utilization(&self, now_s: f64) -> f64 {
        let mut busy = 0.0;
        let mut offered = 0.0;
        for u in &self.usage {
            busy += u.busy_s;
            offered += u.active_total_s(now_s) * u.lanes.max(1) as f64;
        }
        if offered <= 0.0 {
            0.0
        } else {
            (busy / offered).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_samples_up_to_one_block_hold_what_a_plain_vec_holds() {
        for n in [0, 1, 3, 4, 5, 100, 1_000, BLOCK - 1, BLOCK] {
            let mut samples = ExactSamples::default();
            let mut plain = Vec::new();
            for i in 0..n {
                samples.push(i as f64);
                plain.push(i as f64);
            }
            assert!(samples.blocks.is_empty(), "{n} samples");
            assert_eq!(samples.tail.capacity(), plain.capacity(), "{n} samples");
        }
    }

    #[test]
    fn exact_samples_past_one_block_reserve_one_block_at_a_time() {
        let mut samples = ExactSamples::default();
        for i in 0..3 * BLOCK + 1 {
            samples.push(i as f64);
        }
        assert_eq!(samples.blocks.len(), 3);
        assert!(samples.blocks.iter().all(|b| b.capacity() == BLOCK));
        assert_eq!(samples.tail.capacity(), BLOCK);
        let all = samples.gather();
        assert_eq!(all.len(), 3 * BLOCK + 1);
        assert!(all.iter().enumerate().all(|(i, &v)| v == i as f64));
        assert_eq!(samples.tail.capacity(), 3 * BLOCK + 1);
        assert!(samples.blocks.is_empty());
    }
}
