//! Run accounting: request counters, SLO windows, latency aggregation,
//! per-class counters, per-device usage, and the optional columnar
//! completion sink — everything the report derives from arrivals and
//! outcomes, kept apart from the serving driver that feeds it, and
//! folded into the report by [`Accounting::finish`].

use std::fs::File;
use std::io::BufWriter;

use s2m3_core::sketch::LatencySketch;
use s2m3_data::sink::{ColumnWriter, CompletionRow};
use s2m3_sim::kernel::secs;

use crate::arrivals::Arrived;
use crate::config::ValidScenario;
use crate::engine::ServeError;
use crate::report::{ClassReport, DeviceReport, LatencySummary, ServeReport};
use crate::slo::{DeviceUsage, Outcome, SloWindow, WindowSnapshot};

/// Latency accumulator behind [`LatencySummary`]: exact mode keeps
/// every sample as integer nanoseconds (sorted at `finish`,
/// byte-identical to the golden fixtures) — the only O(requests) state
/// a run holds — and streaming mode folds into a [`LatencySketch`] so
/// memory stays flat over unbounded runs. Both start empty and grow
/// with what they hold.
#[derive(Debug, Clone)]
pub(crate) enum LatAgg {
    /// Every sample, in 4 or 5 bytes each, sorted once at the end.
    Exact(ExactSamples),
    /// Bounded-memory log-bucket histogram (≤ 1% quantile error).
    Sketch(LatencySketch),
}

/// Samples per block of [`Blocks`] (16 KiB), and the most samples
/// [`ExactSamples`] keeps packed before it files them by top byte.
const BLOCK: usize = 4096;

/// Samples from here on (2^40 ns ≈ 1,099.5 s) do not fit in 5 bytes
/// and are kept whole.
const WIDE_NS: u64 = 1 << 40;

/// Exact latency samples in integer nanoseconds.
///
/// A sample below 2^40 ns is narrow. The first [`BLOCK`] narrow samples
/// are packed in 5 bytes each; once there are more, every narrow sample
/// keeps only its low 32 bits, in the bucket of its top byte (bits
/// 32–39), so it costs 4 bytes and every sample of a bucket lies below
/// every sample of the next. A sample of 2^40 ns or more is wide: kept
/// whole, above every narrow one. Sorting the packed samples, then each
/// bucket on its own in bucket order, then the wide ones, sorts them
/// all. Packing first keeps a short run (a sweep replica) to one small
/// `Vec`, not one per top byte in use; filing lets a long run sort
/// `u32` buckets instead of one buffer of every sample, and faster.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSamples {
    /// The samples below 2^40 ns.
    narrow: Narrow,
    /// The samples of 2^40 ns or more.
    wide: Vec<u64>,
}

/// The narrow samples of [`ExactSamples`].
#[derive(Debug, Clone)]
enum Narrow {
    /// At most `BLOCK` samples, each in 5 big-endian bytes, so their
    /// derived order is their numeric order.
    Packed(Vec<[u8; 5]>),
    /// `Filed(by_top)`: `by_top[b]` holds the low halves of the samples
    /// in `[b · 2^32, (b + 1) · 2^32)` ns, up to the highest top byte
    /// seen.
    Filed(Vec<Blocks>),
}

impl Default for Narrow {
    fn default() -> Self {
        Narrow::Packed(Vec::new())
    }
}

impl ExactSamples {
    #[inline]
    fn push(&mut self, latency_ns: u64) {
        match &mut self.narrow {
            _ if latency_ns >= WIDE_NS => self.wide.push(latency_ns),
            Narrow::Packed(packed) if packed.len() < BLOCK => packed.push(pack(latency_ns)),
            Narrow::Packed(packed) => {
                let by_top = file_all(std::mem::take(packed), latency_ns);
                self.narrow = Narrow::Filed(by_top);
            }
            Narrow::Filed(by_top) => file(by_top, latency_ns),
        }
    }

    fn len(&self) -> usize {
        let narrow = match &self.narrow {
            Narrow::Packed(packed) => packed.len(),
            Narrow::Filed(by_top) => by_top.iter().map(Blocks::len).sum(),
        };
        narrow + self.wide.len()
    }

    /// Every sample in ascending order. Each bucket is gathered into one
    /// `Vec`, sorted in place and freed before the next is gathered, so
    /// no buffer of all the samples ever exists.
    fn into_ascending(self) -> impl Iterator<Item = u64> {
        let (mut packed, by_top) = match self.narrow {
            Narrow::Packed(packed) => (packed, Vec::new()),
            Narrow::Filed(by_top) => (Vec::new(), by_top),
        };
        let mut wide = self.wide;
        packed.sort_unstable();
        wide.sort_unstable();
        let filed = (0u64..).zip(by_top).flat_map(|(top, blocks)| {
            let mut low = blocks.gather();
            low.sort_unstable();
            low.into_iter().map(move |lo| top << 32 | u64::from(lo))
        });
        packed.into_iter().map(unpack).chain(filed).chain(wide)
    }
}

/// The full block of `packed` samples and narrow `latency_ns`, filed
/// by top byte.
#[cold]
fn file_all(packed: Vec<[u8; 5]>, latency_ns: u64) -> Vec<Blocks> {
    let mut by_top = Vec::new();
    for p in packed {
        file(&mut by_top, unpack(p));
    }
    file(&mut by_top, latency_ns);
    by_top
}

/// Files narrow `latency_ns` under its top byte in `by_top`.
#[inline]
fn file(by_top: &mut Vec<Blocks>, latency_ns: u64) {
    let top = (latency_ns >> 32) as usize;
    if top >= by_top.len() {
        by_top.resize_with(top + 1, Blocks::default);
    }
    by_top[top].push(latency_ns as u32);
}

/// Narrow `latency_ns` in 5 big-endian bytes.
#[inline]
fn pack(latency_ns: u64) -> [u8; 5] {
    let [_, _, _, b @ ..] = latency_ns.to_be_bytes();
    b
}

/// The nanoseconds [`pack`] packed.
#[inline]
fn unpack([b0, b1, b2, b3, b4]: [u8; 5]) -> u64 {
    u64::from_be_bytes([0, 0, 0, b0, b1, b2, b3, b4])
}

/// One bucket's samples, in arrival order, grown in fixed blocks: the
/// tail `Vec` grows by doubling up to [`BLOCK`] samples, exactly as a
/// plain `Vec` would, and a full tail moves (uncopied) into `full`
/// while the next tail reserves one block. A doubling `Vec` holds up to
/// twice its samples while it grows; this holds the samples plus one
/// block.
#[derive(Debug, Clone, Default)]
struct Blocks {
    /// Full blocks of `BLOCK` samples each, oldest first.
    full: Vec<Vec<u32>>,
    /// The samples after the last full block.
    tail: Vec<u32>,
}

impl Blocks {
    #[inline]
    fn push(&mut self, v: u32) {
        if self.tail.len() == BLOCK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(BLOCK));
            self.full.push(full);
        }
        self.tail.push(v);
    }

    fn len(&self) -> usize {
        self.full.len() * BLOCK + self.tail.len()
    }

    /// Every sample in one `Vec`. The blocks move into the first one,
    /// which grows by exactly one block per block copied, and each
    /// block is freed once copied: the samples plus about one block are
    /// live at any point.
    fn gather(self) -> Vec<u32> {
        let mut blocks = self.full.into_iter();
        let Some(mut all) = blocks.next() else {
            return self.tail;
        };
        for block in blocks.chain([self.tail]) {
            all.reserve_exact(block.len());
            all.extend_from_slice(&block);
        }
        all
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
    pub(crate) fn record(&mut self, latency_ns: u64) {
        match self {
            LatAgg::Exact(samples) => samples.push(latency_ns),
            LatAgg::Sketch(sketch) => sketch.record(secs(latency_ns)),
        }
    }

    /// Folds the accumulator into a summary, leaving exact mode's store
    /// empty. [`secs`] is monotone and maps equal integers to equal
    /// `f64`s, so the samples in ascending nanoseconds are the seconds
    /// in the order one sort of the seconds gives.
    pub(crate) fn summarize(&mut self) -> LatencySummary {
        match self {
            LatAgg::Exact(samples) => {
                let samples = std::mem::take(samples);
                LatencySummary::from_ascending(samples.len(), samples.into_ascending().map(secs))
            }
            LatAgg::Sketch(sketch) => LatencySummary::from_sketch(sketch),
        }
    }
}

/// Running request counters of the whole run or of one deadline class,
/// folded into the report at the end of the run.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    arrived: u64,
    completed: u64,
    shed: u64,
    late: u64,
    latencies: LatAgg,
}

impl ClassStats {
    fn new(streaming: bool) -> Self {
        ClassStats {
            latencies: LatAgg::new(streaming),
            ..ClassStats::default()
        }
    }

    #[inline]
    fn complete(&mut self, missed: bool, latency_ns: u64) {
        self.completed += 1;
        self.late += u64::from(missed);
        self.latencies.record(latency_ns);
    }

    /// Deadline-miss rate: (late + shed) / arrived, 0 before any arrival.
    fn miss_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            (self.late + self.shed) as f64 / self.arrived as f64
        }
    }
}

/// The accounting state of one serving run: everything the report
/// derives from arrivals and outcomes.
#[derive(Debug)]
pub(crate) struct Accounting {
    /// The scenario's seed label, the report's first field.
    seed: String,
    slo: SloWindow,
    /// Completions between window snapshots. Starts at the scenario's
    /// `snapshot_every` and doubles whenever `max_windows` forces a
    /// downsample.
    snapshot_stride: u64,
    /// Outcomes left until the next snapshot — the running remainder
    /// of `snapshot_stride`, kept so the per-outcome hot path is a
    /// decrement instead of a 64-bit modulo.
    until_snapshot: u64,
    /// Snapshot-count cap (`None`: retain every snapshot).
    max_windows: Option<usize>,
    last_snapshot_seen: u64,
    /// The whole run's counters and latencies.
    total: ClassStats,
    class_stats: Vec<ClassStats>,
    /// Per-universe-device usage, indexed by universe device index.
    usage: Vec<DeviceUsage>,
    /// Per-universe-device execution counts.
    executions: Vec<u64>,
    /// Optional columnar per-completion event sink (streaming mode
    /// only): one row per completed request, O(1) memory.
    sink: Option<ColumnWriter<BufWriter<File>>>,
    retried: u64,
    /// Rolling-window snapshots, in completion order (moved into the
    /// report at `finish`).
    windows: Vec<WindowSnapshot>,
    last_completion_ns: u64,
}

impl Accounting {
    /// The accounting state of a run of `valid` over its universe (a
    /// streaming run's completion sink is created here).
    ///
    /// # Errors
    ///
    /// [`ServeError::Sink`] when the sink cannot be created.
    pub(crate) fn new(valid: &ValidScenario) -> Result<Self, ServeError> {
        let scenario = valid.scenario;
        let streaming = scenario.streaming.is_some();
        let sink = match scenario.streaming.as_ref().and_then(|c| c.sink.as_deref()) {
            Some(path) => {
                let file = File::create(path)
                    .map_err(|e| ServeError::Sink(format!("create {path}: {e}")))?;
                Some(
                    ColumnWriter::new(BufWriter::new(file))
                        .map_err(|e| ServeError::Sink(format!("write {path}: {e}")))?,
                )
            }
            None => None,
        };
        let devices = valid.universe.devices();
        Ok(Accounting {
            seed: scenario.seed.clone(),
            slo: SloWindow::new(scenario.slo_window),
            snapshot_stride: scenario.snapshot_every as u64,
            until_snapshot: scenario.snapshot_every as u64,
            max_windows: scenario.max_windows,
            last_snapshot_seen: 0,
            total: ClassStats::new(streaming),
            class_stats: (0..valid.class_names.len())
                .map(|_| ClassStats::new(streaming))
                .collect(),
            usage: devices
                .iter()
                .zip(&valid.active)
                .map(|(d, &active)| DeviceUsage {
                    active,
                    lanes: d.parallelism.max(1),
                    ..DeviceUsage::default()
                })
                .collect(),
            executions: vec![0; devices.len()],
            sink,
            retried: 0,
            windows: Vec::new(),
            last_completion_ns: 0,
        })
    }

    /// `req` completed at `now` with its head on universe device
    /// `device`: counters, latency aggregation, the SLO window, and the
    /// optional sink row.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sink`] when the sink row cannot be written.
    #[inline]
    pub(crate) fn complete(
        &mut self,
        req: &Arrived,
        now: u64,
        device: usize,
    ) -> Result<(), ServeError> {
        let (latency_ns, missed) = (now - req.arrival_ns, now > req.deadline_ns);
        let latency_s = secs(latency_ns);
        if let Some(w) = self.sink.as_mut() {
            w.push(CompletionRow {
                arrival_ns: req.arrival_ns,
                finish_ns: now,
                device: device as u32,
                class: req.class,
                latency_s,
            })
            .map_err(|e| ServeError::Sink(e.to_string()))?;
        }
        if let Some(ci) = req.class {
            self.class_stats[ci as usize].complete(missed, latency_ns);
        }
        self.total.complete(missed, latency_ns);
        self.last_completion_ns = self.last_completion_ns.max(now);
        self.outcome(Outcome {
            completed_at_s: secs(now),
            latency_s,
            missed,
        });
        Ok(())
    }

    /// `req` was shed at `now`: counters and the SLO window only — no
    /// latency sample, no sink row. A shed request is an SLO miss; the
    /// window records it at its deadline bound so percentiles reflect
    /// the rejection.
    #[inline]
    pub(crate) fn shed(&mut self, req: &Arrived, now: u64) {
        self.total.shed += 1;
        if let Some(ci) = req.class {
            self.class_stats[ci as usize].shed += 1;
        }
        self.outcome(Outcome {
            completed_at_s: secs(now),
            latency_s: secs(req.deadline_ns - req.arrival_ns),
            missed: true,
        });
    }

    /// A request of deadline class `class` arrived.
    #[inline]
    pub(crate) fn arrive(&mut self, class: Option<u32>) {
        self.total.arrived += 1;
        if let Some(ci) = class {
            self.class_stats[ci as usize].arrived += 1;
        }
    }

    /// A request lost its device mid-flight and is re-admitted.
    pub(crate) fn retry(&mut self) {
        self.retried += 1;
    }

    /// The arrival rate observed by `now`, requests per second (0 at
    /// the first instant).
    pub(crate) fn observed_rate(&self, now: u64) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.total.arrived as f64 / secs(now)
        }
    }

    /// The rolling SLO window.
    pub(crate) fn slo(&self) -> &SloWindow {
        &self.slo
    }

    /// The rolling SLO window's p95 latency, seconds.
    pub(crate) fn slo_p95(&mut self) -> f64 {
        self.slo.p95()
    }

    /// Virtual time of the latest completion, ns.
    pub(crate) fn last_completion_ns(&self) -> u64 {
        self.last_completion_ns
    }

    /// Device `ui` finished an execution whose lane survived: charge
    /// busy time and bump the execution count.
    #[inline]
    pub(crate) fn charge(&mut self, ui: usize, dur_ns: u64) {
        self.usage[ui].busy_s += secs(dur_ns);
        self.executions[ui] += 1;
    }

    /// Device `ui` joined the fleet at `at_s`.
    pub(crate) fn join(&mut self, ui: usize, at_s: f64) {
        let u = &mut self.usage[ui];
        u.active = true;
        u.active_since_s = at_s;
    }

    /// Device `ui` left the fleet at `at_s`.
    pub(crate) fn leave(&mut self, ui: usize, at_s: f64) {
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
            let snap = self.snapshot(outcome.completed_at_s);
            self.windows.push(snap);
            self.last_snapshot_seen = self.slo.total_seen();
            // Bounded-report mode: over the cap, drop every other
            // retained snapshot and double the stride, so `windows`
            // holds at most `max_windows` entries at a geometrically
            // coarsening (still deterministic) cadence.
            if let Some(cap) = self.max_windows {
                if self.windows.len() >= cap {
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

    /// The rolling window's snapshot at `now_s`, stamped with the
    /// fleet-wide utilization: busy lane-seconds over offered
    /// lane-seconds, summed in universe device order (deterministic).
    fn snapshot(&mut self, now_s: f64) -> WindowSnapshot {
        let mut snap = self.slo.snapshot(now_s);
        let (mut busy, mut offered) = (0.0, 0.0);
        for u in &self.usage {
            busy += u.busy_s;
            offered += u.active_total_s(now_s) * u.lanes.max(1) as f64;
        }
        snap.utilization = if offered <= 0.0 {
            0.0
        } else {
            (busy / offered).min(1.0)
        };
        snap
    }

    /// Folds the run into its report at `now`, the last completion (ns),
    /// with class reports by `class_names` and device reports in
    /// `by_name_order` (indices into `device_names`). The fleet events,
    /// replans and budget are the caller's to add.
    pub(crate) fn finish(
        mut self,
        now: u64,
        class_names: &[String],
        device_names: &[String],
        by_name_order: &[usize],
    ) -> ServeReport {
        // Flush the sink's buffered tail. Best-effort: `finish` has no
        // error channel, and every full row group already surfaced its
        // write errors through `complete`.
        if let Some(w) = self.sink.take() {
            let _ = w.finish();
        }
        let now_s = secs(now);
        let latency = self.total.latencies.summarize();
        // Final rolling-window snapshot (unless one just landed there).
        if self.slo.total_seen() != self.last_snapshot_seen {
            let snap = self.snapshot(now_s);
            self.windows.push(snap);
        }
        let classes = class_names
            .iter()
            .zip(&mut self.class_stats)
            .map(|(name, cs)| ClassReport {
                class: name.clone(),
                arrived: cs.arrived,
                completed: cs.completed,
                shed: cs.shed,
                late: cs.late,
                miss_rate: cs.miss_rate(),
                latency: cs.latencies.summarize(),
            })
            .collect();
        let devices = by_name_order
            .iter()
            .map(|&ui| {
                let u = &self.usage[ui];
                DeviceReport {
                    device: device_names[ui].clone(),
                    executions: self.executions[ui],
                    busy_s: u.busy_s,
                    active_s: u.active_total_s(now_s),
                    utilization: u.utilization(now_s),
                }
            })
            .collect();
        let total = &self.total;
        ServeReport {
            seed: self.seed,
            arrived: total.arrived,
            completed: total.completed,
            shed: total.shed,
            late: total.late,
            miss_rate: total.miss_rate(),
            retried: self.retried,
            latency,
            throughput_per_s: if now_s > 0.0 {
                total.completed as f64 / now_s
            } else {
                0.0
            },
            makespan_s: now_s,
            classes,
            windows: self.windows,
            devices,
            ..ServeReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use s2m3_core::problem::DeadlineClass;
    use s2m3_sim::workload::ClassShare;

    use super::*;
    use crate::config::ServeScenario;

    /// Folds `acct` at `now` over the churn scenario's fleet.
    fn fold(acct: Accounting, valid: &ValidScenario, now: u64, classes: &[String]) -> ServeReport {
        let names: Vec<String> = valid
            .universe
            .devices()
            .iter()
            .map(|d| d.id.to_string())
            .collect();
        let order: Vec<usize> = (0..names.len()).collect();
        acct.finish(now, classes, &names, &order)
    }

    #[test]
    fn a_run_without_arrivals_folds_to_zero_rates() {
        let scenario = ServeScenario::churn_default();
        let valid = scenario.validate().unwrap();
        let report = fold(Accounting::new(&valid).unwrap(), &valid, 0, &[]);
        assert_eq!((report.arrived, report.completed, report.shed), (0, 0, 0));
        assert_eq!(report.miss_rate, 0.0);
        assert_eq!(report.throughput_per_s, 0.0);
        assert!(report.windows.is_empty(), "no outcome, no final snapshot");
        assert_eq!(report.seed, scenario.seed);
        assert_eq!(report.devices.len(), valid.universe.devices().len());
    }

    #[test]
    fn the_final_snapshot_is_not_taken_twice() {
        let scenario = ServeScenario {
            snapshot_every: 2,
            ..ServeScenario::churn_default()
        };
        let valid = scenario.validate().unwrap();
        let on_time = Arrived {
            deadline_ns: u64::MAX,
            ..Arrived::default()
        };
        for (completions, windows) in [(2, 1), (3, 2), (4, 2)] {
            let mut acct = Accounting::new(&valid).unwrap();
            for i in 1..=completions {
                acct.arrive(None);
                acct.complete(&on_time, i * 1_000_000_000, 0).unwrap();
            }
            let now = acct.last_completion_ns();
            let report = fold(acct, &valid, now, &[]);
            assert_eq!(report.windows.len(), windows, "{completions} completions");
            assert_eq!(report.windows.last().unwrap().at_s, completions as f64);
        }
    }

    #[test]
    fn per_class_miss_rates_fold_late_and_shed_over_arrivals() {
        let class = |name: &str| ClassShare {
            class: DeadlineClass {
                name: name.to_string(),
                deadline_s: 1.0,
                priority: 0,
            },
            weight: 1.0,
        };
        let scenario = ServeScenario {
            classes: vec![class("interactive"), class("batch")],
            ..ServeScenario::churn_default()
        };
        let valid = scenario.validate().unwrap();
        let mut acct = Accounting::new(&valid).unwrap();
        // interactive: 4 arrive, 2 on time, 1 late, 1 shed; batch: 2
        // arrive, 1 on time, 1 still in flight.
        for class in [0, 0, 0, 0, 1, 1] {
            acct.arrive(Some(class));
        }
        // Arrived at 0 and done at 2 s, due at 3 s (on time) or 1 s.
        for (class, missed) in [(0, false), (0, false), (0, true), (1, false)] {
            let req = Arrived {
                class: Some(class),
                deadline_ns: if missed { 1 } else { 3 } * 1_000_000_000,
                ..Arrived::default()
            };
            acct.complete(&req, 2_000_000_000, 0).unwrap();
        }
        let shed = Arrived {
            class: Some(0),
            arrival_ns: 1_000_000_000,
            deadline_ns: 2_000_000_000,
            ..Arrived::default()
        };
        acct.shed(&shed, 2_000_000_000);
        let names = valid.class_names.clone();
        let report = fold(acct, &valid, 2_000_000_000, &names);
        let folded: Vec<_> = report
            .classes
            .iter()
            .map(|c| {
                (
                    c.class.as_str(),
                    c.arrived,
                    c.completed,
                    c.late,
                    c.shed,
                    c.miss_rate,
                )
            })
            .collect();
        assert_eq!(
            folded,
            [("interactive", 4, 3, 1, 1, 0.5), ("batch", 2, 1, 0, 0, 0.0)]
        );
        assert_eq!(report.classes[0].latency.completed, 3);
        assert_eq!((report.arrived, report.late, report.shed), (6, 1, 1));
        assert_eq!(report.miss_rate, 2.0 / 6.0);
        assert_eq!(report.throughput_per_s, 2.0);
    }

    #[test]
    fn exact_samples_up_to_one_block_hold_what_a_plain_vec_holds() {
        for n in [0, 1, 3, 4, 5, 100, 1_000, BLOCK - 1, BLOCK] {
            let mut blocks = Blocks::default();
            let mut plain = Vec::new();
            for i in 0..n {
                blocks.push(i as u32);
                plain.push(i as u32);
            }
            assert!(blocks.full.is_empty(), "{n} samples");
            assert_eq!(blocks.tail.capacity(), plain.capacity(), "{n} samples");
        }
    }

    #[test]
    fn exact_samples_past_one_block_reserve_one_block_at_a_time() {
        let mut blocks = Blocks::default();
        for i in 0..3 * BLOCK + 1 {
            blocks.push(i as u32);
        }
        assert_eq!(blocks.full.len(), 3);
        assert!(blocks.full.iter().all(|b| b.capacity() == BLOCK));
        assert_eq!(blocks.tail.capacity(), BLOCK);
        assert_eq!(blocks.len(), 3 * BLOCK + 1);
        let all = blocks.gather();
        assert_eq!(all.len(), 3 * BLOCK + 1);
        assert!(all.iter().enumerate().all(|(i, &v)| v == i as u32));
        assert_eq!(all.capacity(), 3 * BLOCK + 1);
    }

    #[test]
    fn exact_samples_are_packed_until_one_block_then_filed_by_top_byte() {
        let mut samples = ExactSamples::default();
        for _ in 0..BLOCK {
            samples.push(0);
        }
        assert!(matches!(&samples.narrow, Narrow::Packed(p) if p.len() == BLOCK));
        for ns in [5 << 32 | 7, 3, WIDE_NS - 1, u64::from(u32::MAX), 1 << 32] {
            samples.push(ns);
        }
        let Narrow::Filed(by_top) = &samples.narrow else {
            panic!("{} samples are still packed", BLOCK + 5);
        };
        let held: Vec<usize> = by_top.iter().map(Blocks::len).collect();
        assert_eq!(held.len(), 256, "2^40 - 1 is in the last bucket");
        assert_eq!(&held[..6], [BLOCK + 2, 1, 0, 0, 0, 1]);
        assert_eq!(held[255], 1);
        assert!(samples.wide.is_empty());
        assert_eq!(samples.len(), BLOCK + 5);
    }

    #[test]
    fn a_wide_sample_sorts_after_every_packed_one() {
        let pushed = [WIDE_NS + 9, WIDE_NS, 0, WIDE_NS - 1, 1 << 32, WIDE_NS, 17];
        let narrow = [0, 17, 1 << 32, WIDE_NS - 1];
        let wide = [WIDE_NS, WIDE_NS, WIDE_NS + 9];
        // Packed, then filed by top byte behind a block of zeros.
        for zeros in [0, BLOCK] {
            let mut samples = ExactSamples::default();
            for ns in std::iter::repeat_n(0, zeros).chain(pushed) {
                samples.push(ns);
            }
            assert_eq!(
                matches!(samples.narrow, Narrow::Packed(_)),
                zeros == 0,
                "{zeros} zeros"
            );
            assert_eq!(samples.wide, [WIDE_NS + 9, WIDE_NS, WIDE_NS]);
            assert_eq!(samples.len(), zeros + pushed.len());
            let ascending: Vec<u64> = samples.into_ascending().skip(zeros).collect();
            assert_eq!(
                ascending,
                [&narrow[..], &wide[..]].concat(),
                "{zeros} zeros"
            );
        }
    }

    #[test]
    fn packing_keeps_the_order_of_narrow_samples() {
        let narrow = [0, 1, 255, 256, u64::from(u32::MAX), 1 << 32, WIDE_NS - 1];
        for pair in narrow.windows(2) {
            assert_eq!(unpack(pack(pair[0])), pair[0]);
            assert!(pack(pair[0]) < pack(pair[1]), "{pair:?}");
        }
    }
}
