//! Arrivals: the scenario's seeded request stream as the online engine
//! consumes it. The merged [`WorkloadStream`] is pulled lazily in small
//! batches; each arrival is numbered in arrival order and given its
//! deadline class's SLO. The engine schedules one future arrival at a
//! time, so an arrival past the clock's range is found when it is drawn.

use s2m3_sim::kernel::MAX_ARRIVAL_S;
use s2m3_sim::workload::{WorkloadRequest, WorkloadStream};

use crate::config::ValidScenario;
use crate::engine::ServeError;

/// Arrivals sampled from the workload stream per buffer refill.
const ARRIVAL_BATCH: usize = 64;

/// One arrived request: its sequence number (0, 1, 2, … in arrival
/// order), source rank, deployed-model index, deadline class (`None`
/// when unclassed), arrival time and absolute deadline in clock
/// nanoseconds, and the class's admission priority (0 when unclassed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Arrived {
    pub(crate) seq: u64,
    pub(crate) source: usize,
    pub(crate) model: usize,
    pub(crate) class: Option<u32>,
    pub(crate) arrival_ns: u64,
    pub(crate) deadline_ns: u64,
    pub(crate) priority: u32,
}

/// The lazily pulled arrival stream and the per-class SLO table.
pub(crate) struct Arrivals {
    /// The merged arrival stream, never materialized.
    stream: WorkloadStream,
    /// Upcoming arrivals, sampled in batches so the stream merge
    /// amortizes (draws stay in stream order), read from `cursor` on.
    buf: Vec<WorkloadRequest>,
    cursor: usize,
    next_seq: u64,
    /// Per-class `(relative deadline ns, priority)`, by class id, and
    /// the scenario's relative deadline for unclassed requests.
    class_table: Vec<(u64, u32)>,
    deadline_ns: u64,
}

impl Arrivals {
    /// The arrival stream of a validated scenario.
    pub(crate) fn new(valid: &ValidScenario) -> Result<Self, ServeError> {
        let stream = valid
            .workload
            .stream(valid.scenario.requests, &valid.model_names)
            .map_err(|e| ServeError::BadScenario(e.to_string()))?;
        Ok(Arrivals {
            stream,
            buf: Vec::new(),
            cursor: 0,
            next_seq: 0,
            class_table: valid.class_table.clone(),
            deadline_ns: valid.deadline_ns,
        })
    }

    /// The clock time of the next arrival (`None`: the stream is done),
    /// sampling a fresh batch when the buffer runs dry. An arrival past
    /// the clock's range is a [`ServeError::BadScenario`] naming its index.
    #[inline]
    pub(crate) fn next_ns(&mut self) -> Result<Option<u64>, ServeError> {
        if self.cursor == self.buf.len() {
            self.cursor = 0;
            self.buf.clear();
            let stream = &mut self.stream;
            self.buf
                .extend(std::iter::from_fn(|| stream.next_request()).take(ARRIVAL_BATCH));
        }
        let Some(next) = self.buf.get(self.cursor) else {
            return Ok(None);
        };
        if next.at_ns > 1 << 63 {
            return Err(ServeError::BadScenario(format!(
                "arrival {}: at_s must be at most {MAX_ARRIVAL_S} s (got {:e})",
                self.next_seq, next.at_s
            )));
        }
        Ok(Some(next.at_ns))
    }

    /// Takes the arrival [`Arrivals::next_ns`] announced, arriving at
    /// `now` with its class's SLO (unclassed: the scenario's, priority 0).
    #[inline]
    pub(crate) fn take(&mut self, now: u64) -> Arrived {
        let rec = self.buf[self.cursor];
        self.cursor += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let (deadline_ns, priority) = match rec.class {
            Some(ci) => self.class_table[ci as usize],
            None => (self.deadline_ns, 0),
        };
        Arrived {
            seq,
            source: rec.source as usize,
            model: rec.model as usize,
            class: rec.class,
            arrival_ns: now,
            // Both terms reach 2^63 ns; a deadline past the clock is
            // never missed.
            deadline_ns: now.saturating_add(deadline_ns),
            priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use s2m3_core::problem::DeadlineClass;
    use s2m3_sim::workload::{ArrivalProcess, ClassShare};

    use super::*;
    use crate::config::ServeScenario;

    fn scenario(requests: usize) -> ServeScenario {
        ServeScenario {
            requests,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 5.0 },
            ..ServeScenario::churn_default()
        }
    }

    /// Every arrival of `s`, drawn as the engine draws them.
    fn drain(s: &ServeScenario) -> Vec<(u64, Arrived)> {
        let valid = s.validate().unwrap();
        let mut arrivals = Arrivals::new(&valid).unwrap();
        let mut out = Vec::new();
        while let Some(at) = arrivals.next_ns().unwrap() {
            out.push((at, arrivals.take(at)));
        }
        out
    }

    #[test]
    fn the_stream_is_the_generated_workload_across_refills() {
        for n in [1, 63, 64, 65, 129] {
            let s = scenario(n);
            let valid = s.validate().unwrap();
            let want = valid.workload.stream(n, &valid.model_names).unwrap();
            let got = drain(&s);
            assert_eq!(got.len(), n);
            for (i, ((at, a), w)) in got.iter().zip(want).enumerate() {
                assert_eq!(*at, w.at_ns, "{n}: arrival {i}");
                assert_eq!(a.seq, i as u64);
                assert_eq!((a.source, a.model), (w.source as usize, w.model as usize));
                assert_eq!(a.class, w.class);
                assert_eq!(a.arrival_ns, *at);
                assert_eq!((a.deadline_ns, a.priority), (at + valid.deadline_ns, 0));
            }
        }
    }

    #[test]
    fn a_classed_request_takes_its_class_slo() {
        let class = |name: &str, deadline_s, priority| ClassShare {
            class: DeadlineClass {
                name: name.to_string(),
                deadline_s,
                priority,
            },
            weight: 1.0,
        };
        let mut s = scenario(40);
        s.classes = vec![class("fast", 0.5, 7), class("slow", 30.0, 1)];
        let got = drain(&s);
        let mut seen = [false; 2];
        for (at, a) in got {
            let ci = a.class.expect("every request is classed") as usize;
            seen[ci] = true;
            let want = [(500_000_000, 7), (30_000_000_000, 1)][ci];
            assert_eq!((a.deadline_ns - at, a.priority), want);
        }
        assert_eq!(seen, [true, true]);
    }

    #[test]
    fn an_arrival_past_the_clock_range_names_its_index() {
        let mut s = scenario(50);
        s.arrivals = ArrivalProcess::Poisson { rate_per_s: 1e-12 };
        let valid = s.validate().unwrap();
        let mut arrivals = Arrivals::new(&valid).unwrap();
        let mut index = 0;
        let err = loop {
            match arrivals.next_ns() {
                Ok(Some(at)) => assert_eq!(arrivals.take(at).seq, index),
                Ok(None) => panic!("every arrival fit the clock"),
                Err(e) => break e,
            }
            index += 1;
        };
        let ServeError::BadScenario(msg) = err else {
            panic!("{err}");
        };
        assert!(
            msg.starts_with(&format!("arrival {index}: at_s must be at most")),
            "{msg}"
        );
    }
}
