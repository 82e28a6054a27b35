//! Rolling SLO tracking: a bounded ring buffer of recent request
//! outcomes, summarized into latency percentiles and deadline-miss rates.

use serde::Serialize;

use s2m3_core::sketch::ceil_rank;

/// One finished request as the SLO tracker sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Completion time, seconds of virtual time.
    pub completed_at_s: f64,
    /// Latency (completion − arrival), seconds.
    pub latency_s: f64,
    /// Whether the request finished past its deadline (shed requests are
    /// recorded with `missed = true` and their queueing latency).
    pub missed: bool,
}

/// A bounded ring buffer of the most recent [`Outcome`]s.
#[derive(Debug, Clone)]
pub struct SloWindow {
    /// Configured ring size (`Vec::capacity` may over-allocate, so the
    /// bound is stored explicitly to keep eviction deterministic).
    capacity: usize,
    /// The ring: grows from empty until it holds `capacity` outcomes,
    /// so a window larger than the run costs only what the run records.
    buf: Vec<Outcome>,
    /// Next write position.
    head: usize,
    /// Total outcomes ever recorded.
    seen: u64,
    /// Latency scratch [`SloWindow::snapshot`] selects percentiles in:
    /// it keeps its buffer, so a snapshot allocates only when the ring
    /// has grown since the last one.
    scratch: Vec<f64>,
}

impl SloWindow {
    /// A window retaining the last `capacity` outcomes (≥1). It
    /// allocates nothing up front: `usize::MAX` keeps every outcome.
    pub fn new(capacity: usize) -> Self {
        SloWindow {
            capacity: capacity.max(1),
            buf: Vec::new(),
            head: 0,
            seen: 0,
            scratch: Vec::new(),
        }
    }

    /// Records an outcome, evicting the oldest when full.
    pub fn push(&mut self, outcome: Outcome) {
        if self.buf.len() < self.capacity {
            self.buf.push(outcome);
        } else {
            self.buf[self.head] = outcome;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.seen += 1;
    }

    /// Outcomes recorded over the window's lifetime.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Configured ring size.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Outcomes currently held (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window's p95 latency is above `bound_s` — the same
    /// answer as `snapshot(..).p95_s > bound_s` in one pass over the
    /// ring, with no selection: the ceil-rank p95 exceeds the bound
    /// exactly when fewer than `rank` latencies are at or below it.
    pub(crate) fn p95_exceeds(&self, bound_s: f64) -> bool {
        let n = self.buf.len();
        if n == 0 {
            return 0.0 > bound_s;
        }
        let at_or_below = self.buf.iter().filter(|o| o.latency_s <= bound_s).count();
        at_or_below < ceil_rank(n, 0.95)
    }

    /// The window's p95 latency (0 when empty): `snapshot(..).p95_s`
    /// from one selection, for callers that need no other percentile.
    pub(crate) fn p95(&mut self) -> f64 {
        let n = self.buf.len();
        if n == 0 {
            return 0.0;
        }
        *self
            .latencies()
            .select_nth_unstable_by(ceil_rank(n, 0.95) - 1, f64::total_cmp)
            .1
    }

    /// The ring's latencies, copied into the scratch buffer. The scratch
    /// mirrors the ring's capacity, so it grows only after the ring has.
    fn latencies(&mut self) -> &mut [f64] {
        self.scratch.clear();
        self.scratch.reserve_exact(self.buf.capacity());
        self.scratch.extend(self.buf.iter().map(|o| o.latency_s));
        &mut self.scratch
    }

    /// Summarizes the current window contents at virtual time `now_s`.
    /// O(window), and allocation-free once the ring is full: the
    /// percentiles are selected (highest first, each inside the prefix
    /// the previous selection left below it) rather than read off a
    /// full sort — the values
    /// [`percentile_sorted`](s2m3_core::sketch::percentile_sorted)
    /// returns on the sorted window.
    pub fn snapshot(&mut self, now_s: f64) -> WindowSnapshot {
        let missed = self.buf.iter().filter(|o| o.missed).count();
        let latencies = self.latencies();
        let n = latencies.len();
        // Called with descending `p`: each selection partitions only
        // the prefix the previous one left below its rank.
        let mut below = n;
        let mut value = 0.0;
        let mut select = |p: f64| {
            if n > 0 {
                let idx = ceil_rank(n, p) - 1;
                // Equal ranks (small windows) share the selected value.
                if idx < below {
                    value = *latencies[..below]
                        .select_nth_unstable_by(idx, f64::total_cmp)
                        .1;
                    below = idx;
                }
            }
            value
        };
        let p99_s = select(0.99);
        let p95_s = select(0.95);
        let p50_s = select(0.50);
        WindowSnapshot {
            at_s: now_s,
            window: n,
            p50_s,
            p95_s,
            p99_s,
            miss_rate: if n == 0 {
                0.0
            } else {
                missed as f64 / n as f64
            },
            // The window tracks outcomes only; the serving loop stamps
            // the fleet-wide busy fraction before a snapshot is recorded.
            utilization: 0.0,
        }
    }
}

/// A point-in-time summary of the rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowSnapshot {
    /// Virtual time of the snapshot, seconds.
    pub at_s: f64,
    /// Outcomes in the window when taken.
    pub window: usize,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Fraction of windowed requests that missed their deadline.
    pub miss_rate: f64,
    /// Fleet-wide utilization when the snapshot was taken: busy
    /// lane-seconds over offered lane-seconds across active devices.
    pub utilization: f64,
}

/// Per-device busy-time accounting for utilization reporting.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceUsage {
    /// Seconds of lane-busy time accumulated.
    pub busy_s: f64,
    /// Virtual time at which the device became active (joined), seconds.
    pub active_since_s: f64,
    /// Seconds of active membership accumulated over completed stints.
    pub active_s: f64,
    /// Whether the device is currently in the active fleet.
    pub active: bool,
    /// Lanes the device offers while active.
    pub lanes: usize,
}

impl DeviceUsage {
    /// Closes the books at `now_s` and returns total active seconds.
    pub(crate) fn active_total_s(&self, now_s: f64) -> f64 {
        self.active_s
            + if self.active {
                (now_s - self.active_since_s).max(0.0)
            } else {
                0.0
            }
    }

    /// Utilization in `[0, 1]`: busy lane-seconds over offered
    /// lane-seconds at `now_s`.
    pub(crate) fn utilization(&self, now_s: f64) -> f64 {
        let offered = self.active_total_s(now_s) * self.lanes.max(1) as f64;
        if offered <= 0.0 {
            0.0
        } else {
            (self.busy_s / offered).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(latency: f64, missed: bool) -> Outcome {
        Outcome {
            completed_at_s: 0.0,
            latency_s: latency,
            missed,
        }
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = SloWindow::new(3);
        for (i, l) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            w.push(outcome(*l, i % 2 == 0));
        }
        assert_eq!(w.total_seen(), 4);
        let s = w.snapshot(5.0);
        assert_eq!(s.window, 3);
        // 10.0 evicted: remaining {20, 30, 40}.
        assert_eq!(s.p50_s, 30.0);
        assert_eq!(s.p99_s, 40.0);
        assert!((s.miss_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unbounded_window_grows_with_what_it_holds() {
        // Reserving `usize::MAX` outcomes up front would abort; the ring
        // grows on demand and keeps every outcome instead.
        let mut w = SloWindow::new(usize::MAX);
        for i in 1..=1000 {
            w.push(outcome(i as f64, i > 990));
        }
        assert_eq!((w.len(), w.total_seen()), (1000, 1000));
        assert!(w.buf.capacity() < 2 * 1000);
        let s = w.snapshot(1.0);
        assert_eq!((s.window, s.p50_s, s.p99_s), (1000, 500.0, 990.0));
        assert!((s.miss_rate - 0.01).abs() < 1e-12);
        assert_eq!(w.p95(), 950.0);
    }

    #[test]
    fn empty_window_snapshot_is_zero() {
        let mut w = SloWindow::new(8);
        assert!(!w.p95_exceeds(0.0));
        let s = w.snapshot(1.0);
        assert_eq!(s.window, 0);
        assert_eq!(s.p95_s, 0.0);
        assert_eq!(s.miss_rate, 0.0);
    }

    #[test]
    fn percentiles_use_ceiling_rank() {
        let mut w = SloWindow::new(100);
        for i in 1..=100 {
            w.push(outcome(i as f64, false));
        }
        let s = w.snapshot(0.0);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
    }

    #[test]
    fn utilization_accounts_membership_stints() {
        let mut u = DeviceUsage {
            lanes: 2,
            active: true,
            active_since_s: 10.0,
            ..DeviceUsage::default()
        };
        u.busy_s = 30.0;
        // Active from t=10 to t=40: offered 2 lanes × 30 s = 60 s.
        assert!((u.utilization(40.0) - 0.5).abs() < 1e-12);
        // Leaving closes the stint.
        u.active_s += 30.0;
        u.active = false;
        assert!((u.utilization(100.0) - 0.5).abs() < 1e-12);
    }
}
