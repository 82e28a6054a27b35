//! The unified workload layer: request streams specified once, consumed
//! by both execution engines.
//!
//! The paper evaluates single requests and a simultaneous four-task burst
//! (Table X). This module generalizes to sustained load: seeded arrival
//! processes (Poisson / uniform / burst, plus the bursty
//! [`ArrivalProcess::Mmpp`], time-varying [`ArrivalProcess::Diurnal`],
//! and [`ArrivalProcess::Trace`] replay), and — since the workload
//! unification — [`WorkloadSpec`]: multi-source traffic with weighted
//! budget splits, per-source model mixes ([`ModelMix`]: legacy
//! round-robin, seeded weighted sampling, or trace replay), and weighted
//! deadline/priority classes ([`ClassShare`] over
//! [`DeadlineClass`]).
//!
//! Two consumers drive the API shape, and both go through the same
//! generator: the offline simulator **materializes** a bounded request
//! set ([`WorkloadSpec::materialize`] → requests + arrival times for
//! `SimConfig::arrivals`), and the `s2m3-serve` control plane
//! **streams** the same merged sequence unbounded
//! ([`WorkloadSpec::stream`], assembled from a scenario by
//! `ServeScenario::workload`). Identical specs (including seeds) give
//! identical traffic in both, which is what makes serving reports
//! reproducible — and [`ModelMix::LegacyRoundRobin`] reproduces the
//! pre-unification `rid % n_models` streams byte-for-byte (pinned by
//! the golden fixtures and property-tested in this crate).

use rand_chacha::rand_core::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use s2m3_core::error::CoreError;
use s2m3_core::problem::{DeadlineClass, Instance, Request};
use s2m3_core::sketch::percentile_sorted;
use s2m3_tensor::seed::seed_from_label;

use crate::kernel::ns;
use crate::report::SimReport;

/// An arrival process.
///
/// Every number must be finite, within the bounds each field states;
/// [`WorkloadSpec::validate`] rejects the rest by source and field.
///
/// The serving control plane in `s2m3-serve` consumes these as its
/// request source; the bursty and time-varying variants exist so churn
/// experiments can stress admission control the way real traffic does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ArrivalProcess {
    /// All requests at t = 0 (the Table X burst).
    Simultaneous,
    /// Evenly spaced at the given interval, seconds.
    Uniform {
        /// Gap between consecutive arrivals (≥ 0).
        interval_s: f64,
    },
    /// Poisson arrivals at the given mean rate, requests/second.
    Poisson {
        /// Mean arrival rate λ (> 0).
        rate_per_s: f64,
    },
    /// A Markov-modulated Poisson process: the arrival rate jumps between
    /// `rates_per_s` states, dwelling an exponential time with mean
    /// `mean_dwell_s` in each before moving to the next (cyclically).
    /// The classic bursty-traffic model: calm and storm phases alternate.
    Mmpp {
        /// Per-state arrival rates, requests/second (each ≥ 0, at least
        /// one > 0).
        rates_per_s: Vec<f64>,
        /// Mean dwell time in each state, seconds (> 0).
        mean_dwell_s: f64,
    },
    /// A diurnal (sinusoidal) rate profile: the instantaneous rate swings
    /// between `base_rate_per_s` and `peak_rate_per_s` over `period_s`,
    /// sampled by thinning a peak-rate Poisson stream.
    Diurnal {
        /// Trough arrival rate, requests/second (≥ 0).
        base_rate_per_s: f64,
        /// Peak arrival rate, requests/second (> 0).
        peak_rate_per_s: f64,
        /// Length of one base→peak→base cycle, seconds (> 0).
        period_s: f64,
    },
    /// Replays recorded inter-arrival gaps, cycling when the trace is
    /// shorter than the requested stream.
    Trace {
        /// Inter-arrival gaps, seconds (negative entries are clamped to 0).
        inter_arrival_s: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// Generates `n` deterministic arrival times (sorted, starting at 0),
    /// seeded by `label`. A bounded collect of [`ArrivalProcess::stream`]
    /// — the streaming and batch paths are the same generator.
    pub fn arrivals(&self, n: usize, label: &str) -> Vec<f64> {
        let mut stream = self.stream(label);
        (0..n).map(|_| stream.next_time()).collect()
    }

    /// The lazy form of [`ArrivalProcess::arrivals`]: an unbounded
    /// iterator over the same arrival sequence in O(1) memory. The k-th
    /// [`ArrivalStream::next_time`] is bit-identical to `arrivals(n,
    /// label)[k]` for any `n > k` — same sampler, same draw order, same
    /// shift-to-zero arithmetic — which is what lets the online serving
    /// driver pull millions of arrivals without materializing them.
    pub fn stream(&self, label: &str) -> ArrivalStream {
        let mut unit = UnitSampler::new(&format!("arrivals/{label}"));
        let state = match self {
            ArrivalProcess::Simultaneous => StreamState::Simultaneous,
            ArrivalProcess::Uniform { interval_s } => StreamState::Uniform {
                interval_s: *interval_s,
                i: 0,
            },
            ArrivalProcess::Poisson { rate_per_s } => StreamState::Poisson {
                rate_per_s: *rate_per_s,
                t: 0.0,
            },
            ArrivalProcess::Mmpp {
                rates_per_s,
                mean_dwell_s,
            } => StreamState::Mmpp {
                rates_per_s: rates_per_s.clone(),
                mean_dwell_s: *mean_dwell_s,
                t: 0.0,
                state: 0,
                // The batch generator draws the initial dwell before the
                // first gap; match the draw order exactly.
                state_left: -unit.next().ln() * mean_dwell_s.max(1e-9),
            },
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_s,
            } => {
                let base = base_rate_per_s.max(0.0);
                StreamState::Diurnal {
                    base,
                    peak: peak_rate_per_s.max(base).max(1e-9),
                    period: period_s.max(1e-9),
                    t: 0.0,
                }
            }
            ArrivalProcess::Trace { inter_arrival_s } => StreamState::Trace {
                inter_arrival_s: inter_arrival_s.clone(),
                t: 0.0,
                i: 0,
            },
        };
        ArrivalStream {
            unit,
            state,
            offset: None,
        }
    }

    /// The long-run mean arrival rate this process targets, requests per
    /// second (`None` for [`ArrivalProcess::Simultaneous`], whose rate is
    /// unbounded). Useful for sizing serving scenarios against fleet
    /// capacity; note the online replan controller in `s2m3-serve` uses
    /// the *observed* rate of the running stream, not this target.
    pub fn mean_rate_per_s(&self) -> Option<f64> {
        match self {
            ArrivalProcess::Simultaneous => None,
            ArrivalProcess::Uniform { interval_s } => Some(1.0 / interval_s.max(1e-9)),
            ArrivalProcess::Poisson { rate_per_s } => Some(*rate_per_s),
            ArrivalProcess::Mmpp { rates_per_s, .. } => {
                if rates_per_s.is_empty() {
                    return Some(0.0);
                }
                Some(rates_per_s.iter().sum::<f64>() / rates_per_s.len() as f64)
            }
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                ..
            } => {
                // Mirror `arrivals`' clamp: peak is never below base.
                let base = base_rate_per_s.max(0.0);
                Some(0.5 * (base + peak_rate_per_s.max(base)))
            }
            ArrivalProcess::Trace { inter_arrival_s } => {
                if inter_arrival_s.is_empty() {
                    return Some(0.0);
                }
                let mean_gap = inter_arrival_s.iter().map(|g| g.max(0.0)).sum::<f64>()
                    / inter_arrival_s.len() as f64;
                Some(1.0 / mean_gap.max(1e-9))
            }
        }
    }
}

/// Per-variant generator state of an [`ArrivalStream`].
#[derive(Debug, Clone)]
enum StreamState {
    /// Every arrival at t = 0.
    Simultaneous,
    /// Evenly spaced: arrival `i` at `i * interval_s`.
    Uniform { interval_s: f64, i: u64 },
    /// Exponential inter-arrival gaps via inverse CDF.
    Poisson { rate_per_s: f64, t: f64 },
    /// Markov-modulated Poisson: gaps under the current state's rate,
    /// state advances when the dwell budget expires first.
    Mmpp {
        rates_per_s: Vec<f64>,
        mean_dwell_s: f64,
        t: f64,
        state: usize,
        state_left: f64,
    },
    /// Lewis–Shedler thinning of a peak-rate Poisson stream.
    Diurnal {
        base: f64,
        peak: f64,
        period: f64,
        t: f64,
    },
    /// Recorded gaps, cycled.
    Trace {
        inter_arrival_s: Vec<f64>,
        t: f64,
        i: u64,
    },
}

/// An unbounded, O(1)-memory arrival-time iterator — the lazy
/// equivalent of [`ArrivalProcess::arrivals`] (see
/// [`ArrivalProcess::stream`] for the bit-identity contract).
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    unit: UnitSampler,
    state: StreamState,
    /// The first raw arrival, once drawn: the batch generator shifts
    /// every time by it so streams start at t = 0.
    offset: Option<f64>,
}

impl ArrivalStream {
    /// Draws the next raw (unshifted) arrival time.
    fn raw_next(&mut self) -> f64 {
        match &mut self.state {
            StreamState::Simultaneous => 0.0,
            StreamState::Uniform { interval_s, i } => {
                let t = *i as f64 * *interval_s;
                *i += 1;
                t
            }
            StreamState::Poisson { rate_per_s, t } => {
                // Exponential inter-arrival via inverse CDF.
                *t += -self.unit.next().ln() / *rate_per_s;
                *t
            }
            StreamState::Mmpp {
                rates_per_s,
                mean_dwell_s,
                t,
                state,
                state_left,
            } => loop {
                let rate = rates_per_s
                    .get(*state % rates_per_s.len().max(1))
                    .copied()
                    .unwrap_or(1.0)
                    .max(1e-9);
                let gap = -self.unit.next().ln() / rate;
                if gap <= *state_left || rates_per_s.len() <= 1 {
                    *t += gap;
                    *state_left -= gap;
                    break *t;
                }
                // Dwell expired before the next arrival: advance to the
                // state boundary and redraw under the new rate.
                *t += *state_left;
                *state += 1;
                *state_left = -self.unit.next().ln() * mean_dwell_s.max(1e-9);
            },
            StreamState::Diurnal {
                base,
                peak,
                period,
                t,
            } => loop {
                // Thinning (Lewis–Shedler): candidates at the peak rate,
                // accepted with probability rate(t)/peak.
                *t += -self.unit.next().ln() / *peak;
                let phase = (*t / *period) * std::f64::consts::TAU;
                let rate = *base + (*peak - *base) * 0.5 * (1.0 - phase.cos());
                if self.unit.next() * *peak <= rate {
                    break *t;
                }
            },
            StreamState::Trace {
                inter_arrival_s,
                t,
                i,
            } => {
                if !inter_arrival_s.is_empty() {
                    *t += inter_arrival_s[*i as usize % inter_arrival_s.len()].max(0.0);
                }
                *i += 1;
                *t
            }
        }
    }

    /// The next arrival time, seconds, shifted so the stream starts at
    /// t = 0 (non-decreasing; the stream never ends).
    pub fn next_time(&mut self) -> f64 {
        let raw = self.raw_next();
        let offset = *self.offset.get_or_insert(raw);
        // Matches the batch shift exactly: no-op when the first arrival
        // is already at 0.
        if offset != 0.0 {
            raw - offset
        } else {
            raw
        }
    }
}

// ---------------------------------------------------------------------------
// The unified workload-specification layer.
// ---------------------------------------------------------------------------

/// How a request stream chooses among the deployed models.
///
/// This is *the* model-mix abstraction shared by the bounded simulator
/// and the online serving control plane: both materialize their traffic
/// through [`WorkloadSpec`], so a mix defined once means the same thing
/// in a one-shot `load_sweep` run and a 10k-request serving scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ModelMix {
    /// The historic default: model = stream index mod the number of
    /// deployed models. At the spec level the index is the *merged*
    /// stream position (exactly the pre-`WorkloadSpec` `rid % n_models`
    /// behavior the golden fixtures pin); as a per-source override it is
    /// the source's own emission index.
    LegacyRoundRobin,
    /// Seeded weighted sampling over deployed models: each request
    /// draws a model with probability `weight / Σ weights`. Same seed ⇒
    /// same model sequence.
    Weighted {
        /// Per-model weights; every named model must be deployed and
        /// every weight finite and positive.
        weights: Vec<ModelWeight>,
    },
    /// Replays a recorded model-name sequence, cycling when the stream
    /// outlives the trace — the model-mix analogue of
    /// [`ArrivalProcess::Trace`].
    Trace {
        /// Model names in replay order (all must be deployed).
        models: Vec<String>,
    },
}

/// One model's share of a [`ModelMix::Weighted`] mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ModelWeight {
    /// Deployed model name.
    pub model: String,
    /// Relative weight (finite, > 0).
    pub weight: f64,
}

/// One weighted service class of a workload: requests draw a
/// [`DeadlineClass`] with probability `weight / Σ weights` (seeded by
/// the spec seed, so the class sequence is deterministic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClassShare {
    /// The deadline/priority class assigned to sampled requests.
    pub class: DeadlineClass,
    /// Relative share of the stream (finite, > 0).
    pub weight: f64,
}

/// One traffic source of a workload: a device emitting its own seeded
/// arrival stream, with an optional share of the bounded request budget
/// and an optional per-source model mix.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Emitting device name; `None` is the consumer's default origin
    /// (the fleet requester).
    pub device: Option<String>,
    /// The source's arrival process.
    pub arrivals: ArrivalProcess,
    /// Seed label for this source's arrivals (and, suffixed `/mix`, its
    /// model sampling). Distinct labels keep sources independent.
    pub label: String,
    /// Relative share of the bounded request budget. When every source
    /// leaves this `None` the budget splits round-robin (the legacy
    /// multi-source behavior); otherwise missing weights count as 1.
    pub weight: Option<f64>,
    /// Per-source model mix, overriding the spec-level mix.
    pub mix: Option<ModelMix>,
}

/// A complete workload specification: traffic sources (arrival
/// processes), the model mix, and optional deadline/priority classes.
///
/// This is the one place request streams are defined. The bounded
/// simulator materializes `n` [`Request`]s from it
/// ([`WorkloadSpec::materialize`]); the serving control plane consumes
/// the same generator as an unbounded merged stream
/// ([`WorkloadSpec::stream`]). Identical specs (including seeds)
/// produce identical traffic in both worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Traffic sources (≥ 1). Their order is their *rank*: the merge
    /// tie-break for simultaneous arrivals.
    pub sources: Vec<SourceSpec>,
    /// Spec-level model mix for sources without an override.
    pub mix: ModelMix,
    /// Weighted service classes; empty means no per-request classes
    /// (consumers fall back to their scenario-wide deadline).
    pub classes: Vec<ClassShare>,
    /// Seed label for stream-level sampling (class assignment).
    pub seed: String,
}

/// One generated request of a workload stream, in merged arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRequest {
    /// Arrival time, nanoseconds (the merge key).
    pub at_ns: u64,
    /// Arrival time, seconds, exactly as the arrival process produced
    /// it (bounded consumers keep full `f64` precision).
    pub at_s: f64,
    /// Rank of the emitting source.
    pub source: u32,
    /// Index into the consumer's deployed-model list.
    pub model: u32,
    /// Index into [`WorkloadSpec::classes`], when classes are defined.
    pub class: Option<u32>,
}

/// Per-source model-assignment state of a [`WorkloadStream`].
#[derive(Debug, Clone)]
enum ModelAssign {
    /// Spec-level legacy round-robin: model = merged stream index mod
    /// the model count, assigned when the merge pops the request.
    Merged,
    /// Per-source round-robin override over the source's own emissions.
    SourceRoundRobin { i: u32, n_models: u32 },
    /// Seeded weighted sampling, one draw per emission.
    Weighted {
        idx: Vec<u32>,
        weights: Vec<f64>,
        total: f64,
        unit: UnitSampler,
    },
    /// Recorded model sequence, cycled.
    Trace { idx: Vec<u32>, i: usize },
}

/// One source's lazy emission state inside a [`WorkloadStream`].
#[derive(Debug, Clone)]
struct SourceStream {
    arrivals: ArrivalStream,
    assign: ModelAssign,
    /// Emissions this source still owes its bounded budget share.
    remaining: usize,
    /// Prefetched head of the source's stream: `(at_ns, at_s, model)`,
    /// with `model == u32::MAX` until merge-time assignment for the
    /// spec-level round-robin.
    head: Option<(u64, f64, u32)>,
}

impl SourceStream {
    /// Pulls the source's next emission into `head` (or `None` when its
    /// budget is exhausted).
    fn refill(&mut self) {
        if self.remaining == 0 {
            self.head = None;
            return;
        }
        self.remaining -= 1;
        let t = self.arrivals.next_time();
        let model = match &mut self.assign {
            ModelAssign::Merged => u32::MAX,
            ModelAssign::SourceRoundRobin { i, n_models } => {
                let m = *i % *n_models;
                *i += 1;
                m
            }
            ModelAssign::Weighted {
                idx,
                weights,
                total,
                unit,
            } => idx[weighted_index(weights, *total, unit.next()) as usize],
            ModelAssign::Trace { idx, i } => {
                let m = idx[*i % idx.len()];
                *i += 1;
                m
            }
        };
        self.head = Some((ns(t), t, model));
    }
}

/// The spec-level class sampler, drawing in merged stream order.
#[derive(Debug, Clone)]
struct ClassSampler {
    weights: Vec<f64>,
    total: f64,
    unit: UnitSampler,
}

/// A bounded, lazily-generated workload: the k-way merge of the spec's
/// per-source arrival streams, yielding [`WorkloadRequest`]s one at a
/// time in O(sources) memory. Produced by [`WorkloadSpec::stream`].
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    sources: Vec<SourceStream>,
    class_sampler: Option<ClassSampler>,
    n_models: u32,
    /// Requests popped so far (the spec-level round-robin index).
    merged_index: usize,
    /// `merged_index % n_models`, maintained by wrap-around increment
    /// so the per-request hot path carries no division.
    merged_rr: u32,
    /// Requests the stream still owes.
    remaining: usize,
}

impl WorkloadStream {
    /// Pops the next request in merged `(arrival, source rank)` order.
    pub fn next_request(&mut self) -> Option<WorkloadRequest> {
        if self.remaining == 0 {
            return None;
        }
        // Minimum (at_ns, rank) candidate; strict `<` keeps the lowest
        // rank on ties, as a stable sort by arrival time would.
        let mut best: Option<(u64, usize)> = None;
        for (rank, s) in self.sources.iter().enumerate() {
            if let Some((at_ns, _, _)) = s.head {
                if best.is_none_or(|(bk, _)| at_ns < bk) {
                    best = Some((at_ns, rank));
                }
            }
        }
        let (_, rank) = best?;
        let source = &mut self.sources[rank];
        let (at_ns, at_s, mut model) = source.head.take().expect("candidate exists");
        source.refill();
        if model == u32::MAX {
            model = self.merged_rr;
        }
        let class = self
            .class_sampler
            .as_mut()
            .map(|cs| weighted_index(&cs.weights, cs.total, cs.unit.next()));
        self.merged_index += 1;
        self.merged_rr += 1;
        if self.merged_rr == self.n_models {
            self.merged_rr = 0;
        }
        self.remaining -= 1;
        Some(WorkloadRequest {
            at_ns,
            at_s,
            source: rank as u32,
            model,
            class,
        })
    }
}

impl Iterator for WorkloadStream {
    type Item = WorkloadRequest;

    fn next(&mut self) -> Option<WorkloadRequest> {
        self.next_request()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Workload-specification errors.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The spec has no traffic sources (or the consumer no models).
    Empty(String),
    /// A mix or trace references a model that is not deployed.
    UnknownModel(String),
    /// A weight is non-finite, non-positive, or the weights are empty.
    BadWeight(String),
    /// A source's arrival process has a parameter the generator cannot
    /// honour.
    BadArrival {
        /// Rank of the source.
        source: usize,
        /// The process field, e.g. `rate_per_s`.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
        /// The value given.
        got: String,
    },
    /// Materializing requests against an instance failed.
    Core(CoreError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Empty(msg) => write!(f, "empty workload: {msg}"),
            WorkloadError::UnknownModel(m) => write!(f, "workload references unknown model `{m}`"),
            WorkloadError::BadWeight(msg) => write!(f, "bad workload weight: {msg}"),
            WorkloadError::BadArrival {
                source,
                field,
                expected,
                got,
            } => write!(
                f,
                "source {source} arrivals: {field} must be {expected} (got {got})"
            ),
            WorkloadError::Core(e) => write!(f, "workload materialization failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<CoreError> for WorkloadError {
    fn from(e: CoreError) -> Self {
        WorkloadError::Core(e)
    }
}

/// A seeded uniform-`(0,1)` sampler: top 24 bits of a ChaCha word. The
/// one construction every stochastic workload draw flows through —
/// arrival gaps, model-mix sampling, class assignment — so the streams
/// stay bit-for-bit reproducible from their labels.
#[derive(Debug, Clone)]
struct UnitSampler {
    rng: ChaCha8Rng,
}

impl UnitSampler {
    fn new(label: &str) -> Self {
        UnitSampler {
            rng: ChaCha8Rng::from_seed(seed_from_label(label)),
        }
    }

    #[inline]
    fn next(&mut self) -> f64 {
        ((self.rng.next_u32() >> 8) as f64 + 0.5) / (1u32 << 24) as f64
    }
}

/// Draws an index from cumulative weighted sampling: `weights` must be
/// validated positive.
fn weighted_index(weights: &[f64], total: f64, u: f64) -> u32 {
    let target = u * total;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return i as u32;
        }
    }
    (weights.len() - 1) as u32
}

/// Per-weight checks alone admit sums that overflow to infinity (every
/// weight finite, total not), which would zero every proportional
/// share downstream — so weight *sets* are validated by their sum.
fn validate_weight_sum(weights: impl Iterator<Item = f64>, at: &str) -> Result<(), WorkloadError> {
    let total: f64 = weights.sum();
    if !total.is_finite() {
        return Err(WorkloadError::BadWeight(format!(
            "{at}: weights sum to {total}"
        )));
    }
    Ok(())
}

fn validate_mix(mix: &ModelMix, models: &[String], at: &str) -> Result<(), WorkloadError> {
    match mix {
        ModelMix::LegacyRoundRobin => Ok(()),
        ModelMix::Weighted { weights } => {
            if weights.is_empty() {
                return Err(WorkloadError::BadWeight(format!(
                    "{at}: weighted mix needs at least one weight"
                )));
            }
            for w in weights {
                if !models.contains(&w.model) {
                    return Err(WorkloadError::UnknownModel(w.model.clone()));
                }
                if !w.weight.is_finite() || w.weight <= 0.0 {
                    return Err(WorkloadError::BadWeight(format!(
                        "{at}: model `{}` has weight {}",
                        w.model, w.weight
                    )));
                }
            }
            validate_weight_sum(weights.iter().map(|w| w.weight), at)
        }
        ModelMix::Trace { models: trace } => {
            if trace.is_empty() {
                return Err(WorkloadError::Empty(format!("{at}: empty model trace")));
            }
            for name in trace {
                if !models.iter().any(|m| m == name) {
                    return Err(WorkloadError::UnknownModel(name.clone()));
                }
            }
            Ok(())
        }
    }
}

/// Checks one source's arrival process. The generator would otherwise
/// draw infinite Poisson gaps from a rate of 0 and negative ones from a
/// rate below, run an empty or all-zero MMPP at 1 req/s, and a negative
/// interval as one burst. Trace gaps keep their documented clamp of
/// negatives to 0. A valid rate too small for the clock is not caught
/// here: its arrivals land past [`MAX_ARRIVAL_S`](crate::kernel::MAX_ARRIVAL_S),
/// where the engines reject them.
fn validate_arrivals(process: &ArrivalProcess, source: usize) -> Result<(), WorkloadError> {
    let bad = |field, expected, got: String| {
        Err(WorkloadError::BadArrival {
            source,
            field,
            expected,
            got,
        })
    };
    let check = |field, value: f64, ok: bool, expected| {
        if value.is_finite() && ok {
            Ok(())
        } else {
            bad(field, expected, value.to_string())
        }
    };
    match process {
        ArrivalProcess::Simultaneous => Ok(()),
        ArrivalProcess::Uniform { interval_s } => check(
            "interval_s",
            *interval_s,
            *interval_s >= 0.0,
            "finite and >= 0",
        ),
        ArrivalProcess::Poisson { rate_per_s } => check(
            "rate_per_s",
            *rate_per_s,
            *rate_per_s > 0.0,
            "finite and > 0",
        ),
        ArrivalProcess::Mmpp {
            rates_per_s,
            mean_dwell_s,
        } => {
            for &rate in rates_per_s {
                check("rates_per_s", rate, rate >= 0.0, "finite and >= 0")?;
            }
            if !rates_per_s.iter().any(|&rate| rate > 0.0) {
                return bad(
                    "rates_per_s",
                    "at least one state with a rate > 0",
                    format!("{rates_per_s:?}"),
                );
            }
            check(
                "mean_dwell_s",
                *mean_dwell_s,
                *mean_dwell_s > 0.0,
                "finite and > 0",
            )
        }
        ArrivalProcess::Diurnal {
            base_rate_per_s,
            peak_rate_per_s,
            period_s,
        } => {
            check(
                "base_rate_per_s",
                *base_rate_per_s,
                *base_rate_per_s >= 0.0,
                "finite and >= 0",
            )?;
            check(
                "peak_rate_per_s",
                *peak_rate_per_s,
                *peak_rate_per_s > 0.0,
                "finite and > 0",
            )?;
            check("period_s", *period_s, *period_s > 0.0, "finite and > 0")
        }
        ArrivalProcess::Trace { inter_arrival_s } => {
            for &gap in inter_arrival_s {
                check("inter_arrival_s", gap, true, "finite")?;
            }
            Ok(())
        }
    }
}

impl WorkloadSpec {
    /// The classic single-source workload: the consumer's default origin
    /// emits `arrivals` under `seed`, models round-robin, no classes —
    /// byte-identical traffic to the pre-`WorkloadSpec` engines.
    pub fn single_source(arrivals: ArrivalProcess, seed: impl Into<String>) -> Self {
        let seed = seed.into();
        WorkloadSpec {
            sources: vec![SourceSpec {
                device: None,
                arrivals,
                label: seed.clone(),
                weight: None,
                mix: None,
            }],
            mix: ModelMix::LegacyRoundRobin,
            classes: Vec::new(),
            seed,
        }
    }

    /// Validates the spec against a deployed-model list.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] naming the offending source, mix, or class.
    pub fn validate(&self, models: &[String]) -> Result<(), WorkloadError> {
        if self.sources.is_empty() {
            return Err(WorkloadError::Empty("no traffic sources".into()));
        }
        if models.is_empty() {
            return Err(WorkloadError::Empty("no deployed models".into()));
        }
        validate_mix(&self.mix, models, "spec mix")?;
        for (i, s) in self.sources.iter().enumerate() {
            validate_arrivals(&s.arrivals, i)?;
            if let Some(w) = s.weight {
                if !w.is_finite() || w <= 0.0 {
                    return Err(WorkloadError::BadWeight(format!("source {i} weight {w}")));
                }
            }
            if let Some(mix) = &s.mix {
                validate_mix(mix, models, &format!("source {i} mix"))?;
            }
        }
        validate_weight_sum(
            self.sources.iter().map(|s| s.weight.unwrap_or(1.0)),
            "source weights",
        )?;
        for (i, c) in self.classes.iter().enumerate() {
            if !c.weight.is_finite() || c.weight <= 0.0 {
                return Err(WorkloadError::BadWeight(format!(
                    "class {i} weight {}",
                    c.weight
                )));
            }
            if !c.class.deadline_s.is_finite() || c.class.deadline_s <= 0.0 {
                return Err(WorkloadError::BadWeight(format!(
                    "class {i} (`{}`) deadline {}",
                    c.class.name, c.class.deadline_s
                )));
            }
        }
        validate_weight_sum(self.classes.iter().map(|c| c.weight), "class weights")?;
        Ok(())
    }

    /// Splits a bounded budget of `n` requests across the sources:
    /// round-robin when no source declares a weight (the legacy split),
    /// otherwise largest-remainder proportional shares (missing weights
    /// count as 1).
    fn source_counts(&self, n: usize) -> Vec<usize> {
        let k = self.sources.len();
        if self.sources.iter().all(|s| s.weight.is_none()) {
            return (0..k)
                .map(|rank| n / k + usize::from(rank < n % k))
                .collect();
        }
        let weights: Vec<f64> = self
            .sources
            .iter()
            .map(|s| s.weight.unwrap_or(1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        // Distribute the remainder by largest fractional part, source
        // rank breaking ties — deterministic for equal fractions.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.partial_cmp(&fa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        for &rank in order.iter().take(n - assigned) {
            counts[rank] += 1;
        }
        counts
    }

    /// The first `n` requests of the workload, merged across sources by
    /// `(arrival time, source rank, per-source emission order)` and
    /// annotated with model and class choices, produced one request at
    /// a time in O(sources) memory. Deterministic: equal specs
    /// (including seeds) produce bit-identical streams, whether
    /// collected at once or consumed lazily.
    ///
    /// Per-source arrival iterators are time-sorted with emission order
    /// preserved, and each stochastic choice (a source's arrival gaps,
    /// its weighted model mix, the spec-level class assignment) draws
    /// from its *own* labeled sampler, so a k-way merge popping the
    /// minimum `(arrival ns, source rank)` candidate is a stable sort
    /// of the sources' emissions by arrival time (pinned by the golden
    /// fixtures and this crate's tests).
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] if the spec does not validate against `models`.
    pub fn stream(&self, n: usize, models: &[String]) -> Result<WorkloadStream, WorkloadError> {
        self.validate(models)?;
        let n_models = models.len() as u32;
        let counts = self.source_counts(n);
        let mut sources = Vec::with_capacity(self.sources.len());
        for (source, &count) in self.sources.iter().zip(&counts) {
            let mix = source.mix.as_ref().unwrap_or(&self.mix);
            let assign = match (mix, source.mix.is_some()) {
                // Spec-level round-robin walks the merged stream: the
                // model is assigned at merge time.
                (ModelMix::LegacyRoundRobin, false) => ModelAssign::Merged,
                // A per-source round-robin override walks the source's
                // own emission index.
                (ModelMix::LegacyRoundRobin, true) => {
                    ModelAssign::SourceRoundRobin { i: 0, n_models }
                }
                (ModelMix::Weighted { weights }, _) => {
                    let idx: Vec<u32> = weights
                        .iter()
                        .map(|w| {
                            models
                                .iter()
                                .position(|m| *m == w.model)
                                .expect("validated") as u32
                        })
                        .collect();
                    let ws: Vec<f64> = weights.iter().map(|w| w.weight).collect();
                    let total: f64 = ws.iter().sum();
                    ModelAssign::Weighted {
                        idx,
                        weights: ws,
                        total,
                        unit: UnitSampler::new(&format!("{}/mix", source.label)),
                    }
                }
                (ModelMix::Trace { models: trace }, _) => {
                    let idx: Vec<u32> = trace
                        .iter()
                        .map(|name| {
                            models.iter().position(|m| m == name).expect("validated") as u32
                        })
                        .collect();
                    ModelAssign::Trace { idx, i: 0 }
                }
            };
            let mut ss = SourceStream {
                arrivals: source.arrivals.stream(&source.label),
                assign,
                remaining: count,
                head: None,
            };
            ss.refill();
            sources.push(ss);
        }
        let class_sampler = if self.classes.is_empty() {
            None
        } else {
            let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
            let total: f64 = weights.iter().sum();
            Some(ClassSampler {
                weights,
                total,
                unit: UnitSampler::new(&format!("{}/class", self.seed)),
            })
        };
        Ok(WorkloadStream {
            sources,
            class_sampler,
            n_models,
            merged_index: 0,
            merged_rr: 0,
            remaining: counts.iter().sum(),
        })
    }

    /// Materializes a bounded workload against an instance: `n`
    /// [`Request`]s (ids in merged stream order, class attached, source
    /// resolved to a fleet device) plus their arrival times for
    /// `SimConfig::arrivals`.
    ///
    /// The stream is consumed as it is generated (nothing but the result
    /// is ever `n` long), and the requests hold one shared
    /// [`RequestShape`](s2m3_core::problem::RequestShape) per (model,
    /// source, class) the stream actually emits, built the first time
    /// that combination comes up: a request costs its id and a
    /// reference-count step, and the passes downstream recognise a shape
    /// they have resolved before by pointer.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] on an invalid spec, unknown source devices, or
    /// request construction failure.
    pub fn materialize(
        &self,
        instance: &Instance,
        n: usize,
    ) -> Result<(Vec<Request>, Vec<f64>), WorkloadError> {
        let models: Vec<String> = instance
            .deployments()
            .iter()
            .map(|d| d.model.name.clone())
            .collect();
        let stream = self.stream(n, &models)?;
        // Resolve each source's origin device once, up front.
        let source_ids: Vec<Option<s2m3_net::device::DeviceId>> = self
            .sources
            .iter()
            .map(|s| match &s.device {
                None => Ok(None),
                Some(device) => {
                    if instance.fleet().device(device).is_none() {
                        return Err(WorkloadError::Core(CoreError::UnknownDevice(
                            device.as_str().into(),
                        )));
                    }
                    Ok(Some(device.as_str().into()))
                }
            })
            .collect::<Result<_, _>>()?;
        // One template per (model, source, class), class slot 0 being
        // "no class"; its clones share its shape.
        let class_slots = self.classes.len() + 1;
        let mut templates: Vec<Option<Request>> =
            vec![None; models.len() * self.sources.len() * class_slots];
        let mut requests = Vec::with_capacity(stream.remaining);
        let mut arrivals = Vec::with_capacity(stream.remaining);
        for (i, wr) in stream.enumerate() {
            let slot = (wr.model as usize * self.sources.len() + wr.source as usize) * class_slots
                + wr.class.map_or(0, |ci| ci as usize + 1);
            let template = match &mut templates[slot] {
                Some(template) => template,
                empty => {
                    let mut request = instance.request(0, &models[wr.model as usize])?;
                    let shape = request.shape_mut();
                    if let Some(id) = &source_ids[wr.source as usize] {
                        shape.source = id.clone();
                    }
                    if let Some(ci) = wr.class {
                        shape.class = Some(self.classes[ci as usize].class.clone());
                    }
                    empty.insert(request)
                }
            };
            let mut request = template.clone();
            request.id = i as u64;
            requests.push(request);
            arrivals.push(wr.at_s);
        }
        Ok((requests, arrivals))
    }
}

/// A mixed request stream over an instance's deployed models.
///
/// Requests round-robin over the deployments (a uniform task mix) with
/// ids `0..n` and the fleet requester as source — the
/// [`ModelMix::LegacyRoundRobin`] workload, materialized.
///
/// # Errors
///
/// [`WorkloadError::Empty`] if the instance deploys no model;
/// [`WorkloadError::Core`] if a deployment cannot build requests.
pub fn mixed_stream(instance: &Instance, n: usize) -> Result<Vec<Request>, WorkloadError> {
    let spec = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "mixed");
    let (requests, _) = spec.materialize(instance, n)?;
    Ok(requests)
}

/// Latency distribution summary of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub n: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Completed requests per second of virtual time.
    pub throughput: f64,
}

/// Computes latency statistics from a simulation report.
pub fn latency_stats(report: &SimReport) -> LatencyStats {
    let mut latencies: Vec<f64> = report.requests.values().map(|r| r.latency()).collect();
    // Completion never precedes arrival, so latencies are finite and at
    // least +0.0, where `total_cmp` is the numeric order; a NaN would
    // sort last instead of corrupting the order around it.
    debug_assert!(latencies.iter().all(|l| !l.is_nan()));
    latencies.sort_unstable_by(f64::total_cmp);
    let n = latencies.len();
    if n == 0 {
        return LatencyStats {
            n: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
            throughput: 0.0,
        };
    }
    LatencyStats {
        n,
        mean: latencies.iter().sum::<f64>() / n as f64,
        p50: percentile_sorted(&latencies, 0.50),
        p95: percentile_sorted(&latencies, 0.95),
        p99: percentile_sorted(&latencies, 0.99),
        max: latencies[n - 1],
        throughput: n as f64 / report.makespan.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use s2m3_core::plan::Plan;

    #[test]
    fn arrival_processes_are_deterministic_and_sorted() {
        for p in [
            ArrivalProcess::Simultaneous,
            ArrivalProcess::Uniform { interval_s: 0.5 },
            ArrivalProcess::Poisson { rate_per_s: 2.0 },
            ArrivalProcess::Mmpp {
                rates_per_s: vec![0.5, 8.0],
                mean_dwell_s: 3.0,
            },
            ArrivalProcess::Diurnal {
                base_rate_per_s: 0.5,
                peak_rate_per_s: 4.0,
                period_s: 60.0,
            },
            ArrivalProcess::Trace {
                inter_arrival_s: vec![0.1, 0.4, 2.0],
            },
        ] {
            let a = p.arrivals(32, "t");
            let b = p.arrivals(32, "t");
            assert_eq!(a, b);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{p:?} unsorted");
            assert_eq!(a[0], 0.0);
        }
        assert_ne!(
            ArrivalProcess::Poisson { rate_per_s: 2.0 }.arrivals(8, "x"),
            ArrivalProcess::Poisson { rate_per_s: 2.0 }.arrivals(8, "y")
        );
    }

    #[test]
    fn a_tiny_poisson_rate_is_not_floored() {
        // At 1e-300 req/s the gaps are ~1e300 s: the second arrival is
        // past the clock's range, where the engines reject it.
        let a = ArrivalProcess::Poisson { rate_per_s: 1e-300 }.arrivals(2, "tiny");
        assert_eq!(a[0], 0.0);
        assert!(a[1] > crate::kernel::MAX_ARRIVAL_S, "{}", a[1]);
    }

    #[test]
    fn poisson_rate_approximates_lambda() {
        let rate = 4.0;
        let a = ArrivalProcess::Poisson { rate_per_s: rate }.arrivals(400, "rate");
        let measured = 399.0 / a.last().unwrap();
        assert!(
            (measured - rate).abs() < 0.8,
            "measured rate {measured:.2} vs λ {rate}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean_rate() {
        // Same mean rate, but MMPP concentrates arrivals in storm phases:
        // the variance of its inter-arrival gaps must exceed Poisson's.
        let n = 2000;
        let mmpp = ArrivalProcess::Mmpp {
            rates_per_s: vec![0.2, 7.8],
            mean_dwell_s: 10.0,
        };
        let poisson = ArrivalProcess::Poisson { rate_per_s: 4.0 };
        let gap_var = |a: &[f64]| {
            let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64
        };
        let vm = gap_var(&mmpp.arrivals(n, "burst"));
        let vp = gap_var(&poisson.arrivals(n, "burst"));
        assert!(vm > 2.0 * vp, "MMPP variance {vm:.4} vs Poisson {vp:.4}");
    }

    #[test]
    fn diurnal_peaks_and_troughs_modulate_density() {
        let p = ArrivalProcess::Diurnal {
            base_rate_per_s: 0.2,
            peak_rate_per_s: 8.0,
            period_s: 100.0,
        };
        let a = p.arrivals(1200, "day");
        // Count arrivals falling into peak-phase halves vs trough halves
        // of each cycle; peaks must dominate.
        let (mut peak, mut trough) = (0usize, 0usize);
        for t in &a {
            let phase = (t / 100.0).fract();
            if (0.25..0.75).contains(&phase) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak > 2 * trough,
            "peak half got {peak}, trough half got {trough}"
        );
    }

    #[test]
    fn trace_replay_cycles_and_clamps() {
        let p = ArrivalProcess::Trace {
            inter_arrival_s: vec![1.0, -5.0, 2.0],
        };
        let a = p.arrivals(7, "trace");
        // Gaps cycle 1, 0 (clamped), 2, ...; the first arrival (after a
        // 1 s gap) shifts back to t = 0.
        assert_eq!(a, vec![0.0, 0.0, 2.0, 3.0, 3.0, 5.0, 6.0]);
        assert_eq!(
            ArrivalProcess::Trace {
                inter_arrival_s: vec![]
            }
            .arrivals(3, "empty"),
            vec![0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn mean_rates_reflect_process_parameters() {
        assert_eq!(ArrivalProcess::Simultaneous.mean_rate_per_s(), None);
        assert_eq!(
            ArrivalProcess::Uniform { interval_s: 0.5 }.mean_rate_per_s(),
            Some(2.0)
        );
        assert_eq!(
            ArrivalProcess::Mmpp {
                rates_per_s: vec![1.0, 3.0],
                mean_dwell_s: 5.0
            }
            .mean_rate_per_s(),
            Some(2.0)
        );
        assert_eq!(
            ArrivalProcess::Diurnal {
                base_rate_per_s: 1.0,
                peak_rate_per_s: 3.0,
                period_s: 10.0
            }
            .mean_rate_per_s(),
            Some(2.0)
        );
        let trace = ArrivalProcess::Trace {
            inter_arrival_s: vec![0.5, 0.5],
        };
        assert_eq!(trace.mean_rate_per_s(), Some(2.0));
    }

    #[test]
    fn mixed_stream_round_robins_tasks() {
        let i = Instance::on_fleet(
            s2m3_net::fleet::Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 16), ("CLIP-Classifier Food-101", 0)],
        )
        .unwrap();
        let stream = mixed_stream(&i, 6).unwrap();
        assert_eq!(stream.len(), 6);
        assert_eq!(stream[0].model, "CLIP ViT-B/16");
        assert_eq!(stream[1].model, "CLIP-Classifier Food-101");
        assert_eq!(stream[4].model, "CLIP ViT-B/16");
    }

    fn names(i: &Instance) -> Vec<String> {
        i.deployments()
            .iter()
            .map(|d| d.model.name.clone())
            .collect()
    }

    fn two_model_instance() -> Instance {
        Instance::on_fleet(
            s2m3_net::fleet::Fleet::edge_testbed(),
            &[("CLIP ViT-B/16", 16), ("CLIP-Classifier Food-101", 0)],
        )
        .unwrap()
    }

    #[test]
    fn legacy_spec_reproduces_the_round_robin_stream() {
        let i = two_model_instance();
        let spec = WorkloadSpec::single_source(ArrivalProcess::Poisson { rate_per_s: 1.0 }, "leg");
        let (requests, arrivals) = spec.materialize(&i, 9).unwrap();
        let expected_arrivals = ArrivalProcess::Poisson { rate_per_s: 1.0 }.arrivals(9, "leg");
        assert_eq!(arrivals, expected_arrivals, "bit-identical arrival times");
        let models = names(&i);
        for (k, r) in requests.iter().enumerate() {
            assert_eq!(r.id, k as u64);
            assert_eq!(r.model, models[k % models.len()], "rid % n_models");
            assert_eq!(r.source.as_str(), "jetson-a");
            assert_eq!(r.class, None);
        }
    }

    #[test]
    fn weighted_mix_samples_near_the_declared_shares() {
        let i = two_model_instance();
        let mut spec = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "wmix");
        spec.mix = ModelMix::Weighted {
            weights: vec![
                ModelWeight {
                    model: "CLIP ViT-B/16".to_string(),
                    weight: 3.0,
                },
                ModelWeight {
                    model: "CLIP-Classifier Food-101".to_string(),
                    weight: 1.0,
                },
            ],
        };
        let collect = |spec: &WorkloadSpec| -> Vec<WorkloadRequest> {
            spec.stream(4000, &names(&i)).unwrap().collect()
        };
        let stream = collect(&spec);
        let clip = stream.iter().filter(|r| r.model == 0).count();
        let share = clip as f64 / 4000.0;
        assert!(
            (share - 0.75).abs() < 0.03,
            "3:1 weights drew a {share:.3} share"
        );
        // Determinism: same spec, same stream; different seed differs.
        assert_eq!(stream, collect(&spec));
        let mut other = spec.clone();
        other.sources[0].label = "other".to_string();
        assert_ne!(stream, collect(&other));
    }

    #[test]
    fn per_source_mixes_and_weights_shape_the_stream() {
        let i = two_model_instance();
        let clip_only = ModelMix::Weighted {
            weights: vec![ModelWeight {
                model: "CLIP ViT-B/16".to_string(),
                weight: 1.0,
            }],
        };
        let spec = WorkloadSpec {
            sources: vec![
                SourceSpec {
                    device: Some("laptop".to_string()),
                    arrivals: ArrivalProcess::Uniform { interval_s: 1.0 },
                    label: "a".to_string(),
                    weight: Some(3.0),
                    mix: Some(clip_only),
                },
                SourceSpec {
                    device: Some("desktop".to_string()),
                    arrivals: ArrivalProcess::Uniform { interval_s: 1.0 },
                    label: "b".to_string(),
                    weight: Some(1.0),
                    mix: Some(ModelMix::Trace {
                        models: vec!["CLIP-Classifier Food-101".to_string()],
                    }),
                },
            ],
            mix: ModelMix::LegacyRoundRobin,
            classes: Vec::new(),
            seed: "ps".to_string(),
        };
        let (requests, _) = spec.materialize(&i, 40).unwrap();
        // 3:1 budget split.
        let from_laptop = requests.iter().filter(|r| r.source.as_str() == "laptop");
        assert_eq!(from_laptop.clone().count(), 30);
        // Per-source mixes: every laptop request is CLIP, every desktop
        // request the classifier.
        assert!(from_laptop.clone().all(|r| r.model == "CLIP ViT-B/16"));
        assert!(requests
            .iter()
            .filter(|r| r.source.as_str() == "desktop")
            .all(|r| r.model == "CLIP-Classifier Food-101"));
    }

    #[test]
    fn classes_assign_deterministically_with_declared_shares() {
        let i = two_model_instance();
        let mut spec = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "cls");
        spec.classes = vec![
            ClassShare {
                class: DeadlineClass {
                    name: "interactive".to_string(),
                    deadline_s: 5.0,
                    priority: 10,
                },
                weight: 1.0,
            },
            ClassShare {
                class: DeadlineClass {
                    name: "batch".to_string(),
                    deadline_s: 120.0,
                    priority: 0,
                },
                weight: 3.0,
            },
        ];
        let (requests, _) = spec.materialize(&i, 2000).unwrap();
        let interactive = requests
            .iter()
            .filter(|r| r.class.as_ref().is_some_and(|c| c.name == "interactive"))
            .count();
        let share = interactive as f64 / 2000.0;
        assert!((share - 0.25).abs() < 0.04, "1:3 classes drew {share:.3}");
        assert!(requests.iter().all(|r| r.class.is_some()));
        let (again, _) = spec.materialize(&i, 2000).unwrap();
        assert_eq!(requests, again);
    }

    #[test]
    fn materialize_shares_one_shape_per_model_source_and_class() {
        let i = two_model_instance();
        let spec = WorkloadSpec {
            sources: ["laptop", "desktop"]
                .iter()
                .map(|device| SourceSpec {
                    device: Some(device.to_string()),
                    arrivals: ArrivalProcess::Poisson { rate_per_s: 2.0 },
                    label: format!("shapes/{device}"),
                    weight: None,
                    mix: None,
                })
                .collect(),
            mix: ModelMix::LegacyRoundRobin,
            classes: ["interactive", "batch"]
                .iter()
                .map(|name| ClassShare {
                    class: DeadlineClass {
                        name: name.to_string(),
                        deadline_s: 5.0,
                        priority: 1,
                    },
                    weight: 1.0,
                })
                .collect(),
            seed: "shapes".to_string(),
        };
        let (requests, _) = spec.materialize(&i, 400).unwrap();

        // Field for field what building every request on its own gives.
        let models = names(&i);
        for (k, (r, wr)) in requests
            .iter()
            .zip(spec.stream(400, &models).unwrap())
            .enumerate()
        {
            let mut own = i.request(k as u64, &models[wr.model as usize]).unwrap();
            own.shape_mut().source = spec.sources[wr.source as usize]
                .device
                .as_deref()
                .unwrap()
                .into();
            own.shape_mut().class = wr.class.map(|c| spec.classes[c as usize].class.clone());
            assert_eq!(*r, own);
        }

        // Requests share a shape exactly when they agree on (model,
        // source, class): 2 x 2 x 2 shapes for 400 requests.
        let mut shapes: Vec<&Request> = Vec::new();
        for r in &requests {
            match shapes.iter().find(|s| s.shares_shape(r)) {
                Some(s) => assert_eq!(
                    (&s.model, &s.source, &s.class),
                    (&r.model, &r.source, &r.class)
                ),
                None => {
                    assert!(shapes.iter().all(
                        |s| (&s.model, &s.source, &s.class) != (&r.model, &r.source, &r.class)
                    ));
                    shapes.push(r);
                }
            }
        }
        assert_eq!(shapes.len(), 8);
    }

    #[test]
    fn mixed_stream_over_no_deployments_is_an_empty_workload() {
        let bare = Instance::new(s2m3_net::fleet::Fleet::edge_testbed(), vec![]).unwrap();
        let err = mixed_stream(&bare, 3).unwrap_err();
        assert_eq!(err, WorkloadError::Empty("no deployed models".into()));
        assert_eq!(err.to_string(), "empty workload: no deployed models");
    }

    #[test]
    fn stream_yields_n_requests_in_merge_order() {
        // A deliberately heterogeneous spec: three sources with distinct
        // processes and budgets, per-source mix overrides, weighted
        // classes — every code path the lazy generator must replay.
        let i = two_model_instance();
        let models = names(&i);
        let spec = WorkloadSpec {
            sources: vec![
                SourceSpec {
                    device: None,
                    arrivals: ArrivalProcess::Poisson { rate_per_s: 2.0 },
                    label: "sa".to_string(),
                    weight: Some(2.0),
                    mix: None,
                },
                SourceSpec {
                    device: Some("laptop".to_string()),
                    arrivals: ArrivalProcess::Mmpp {
                        rates_per_s: vec![0.5, 6.0],
                        mean_dwell_s: 4.0,
                    },
                    label: "sb".to_string(),
                    weight: Some(1.0),
                    mix: Some(ModelMix::Weighted {
                        weights: vec![
                            ModelWeight {
                                model: models[0].clone(),
                                weight: 1.0,
                            },
                            ModelWeight {
                                model: models[1].clone(),
                                weight: 2.0,
                            },
                        ],
                    }),
                },
                SourceSpec {
                    device: Some("desktop".to_string()),
                    arrivals: ArrivalProcess::Trace {
                        inter_arrival_s: vec![0.3, 0.0, 1.7],
                    },
                    label: "sc".to_string(),
                    weight: None,
                    mix: Some(ModelMix::Trace {
                        models: vec![models[1].clone(), models[0].clone()],
                    }),
                },
            ],
            mix: ModelMix::LegacyRoundRobin,
            classes: vec![
                ClassShare {
                    class: DeadlineClass {
                        name: "interactive".to_string(),
                        deadline_s: 5.0,
                        priority: 10,
                    },
                    weight: 1.0,
                },
                ClassShare {
                    class: DeadlineClass {
                        name: "batch".to_string(),
                        deadline_s: 120.0,
                        priority: 0,
                    },
                    weight: 3.0,
                },
            ],
            seed: "stream-eq".to_string(),
        };
        // Merged by (arrival, source rank): a stable sort of the
        // sources' time-sorted emissions.
        let merged = |w: &[WorkloadRequest]| {
            w.windows(2)
                .all(|p| (p[0].at_ns, p[0].source) <= (p[1].at_ns, p[1].source))
        };
        for n in [0, 1, 7, 250] {
            let mut stream = spec.stream(n, &models).unwrap();
            assert_eq!(stream.remaining, n);
            let lazy: Vec<WorkloadRequest> = (&mut stream).collect();
            assert_eq!(lazy.len(), n);
            assert!(merged(&lazy), "n={n}");
            assert_eq!(stream.remaining, 0);
            assert!(stream.next_request().is_none());
        }
        // Simultaneous arrivals everywhere: the all-ties merge is
        // source-major.
        let mut ties = spec.clone();
        for s in &mut ties.sources {
            s.arrivals = ArrivalProcess::Simultaneous;
        }
        let lazy: Vec<WorkloadRequest> = ties.stream(30, &models).unwrap().collect();
        assert!(lazy.iter().all(|r| r.at_ns == 0));
        assert!(merged(&lazy));
    }

    #[test]
    fn workload_validation_rejects_bad_specs() {
        let i = two_model_instance();
        let models = names(&i);
        let base = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "v");

        let empty = WorkloadSpec {
            sources: Vec::new(),
            ..base.clone()
        };
        assert!(matches!(
            empty.validate(&models),
            Err(WorkloadError::Empty(_))
        ));

        let mut unknown = base.clone();
        unknown.mix = ModelMix::Weighted {
            weights: vec![ModelWeight {
                model: "nope".to_string(),
                weight: 1.0,
            }],
        };
        assert!(matches!(
            unknown.validate(&models),
            Err(WorkloadError::UnknownModel(_))
        ));

        let mut negative = base.clone();
        negative.mix = ModelMix::Weighted {
            weights: vec![ModelWeight {
                model: models[0].clone(),
                weight: -1.0,
            }],
        };
        assert!(matches!(
            negative.validate(&models),
            Err(WorkloadError::BadWeight(_))
        ));

        let mut bad_source_weight = base.clone();
        bad_source_weight.sources[0].weight = Some(0.0);
        assert!(matches!(
            bad_source_weight.validate(&models),
            Err(WorkloadError::BadWeight(_))
        ));

        let mut bad_class = base.clone();
        bad_class.classes = vec![ClassShare {
            class: DeadlineClass {
                name: "x".to_string(),
                deadline_s: 0.0,
                priority: 0,
            },
            weight: 1.0,
        }];
        assert!(matches!(
            bad_class.validate(&models),
            Err(WorkloadError::BadWeight(_))
        ));

        let mut empty_trace = base.clone();
        empty_trace.mix = ModelMix::Trace { models: Vec::new() };
        assert!(matches!(
            empty_trace.validate(&models),
            Err(WorkloadError::Empty(_))
        ));

        // Each weight finite, but the *sum* overflows to infinity:
        // proportional shares would all floor to zero.
        let mut overflow = base;
        overflow.sources = (0..2)
            .map(|i| SourceSpec {
                device: None,
                arrivals: ArrivalProcess::Simultaneous,
                label: format!("o{i}"),
                weight: Some(f64::MAX),
                mix: None,
            })
            .collect();
        assert!(matches!(
            overflow.validate(&models),
            Err(WorkloadError::BadWeight(_))
        ));
    }

    #[test]
    fn arrival_processes_the_generator_cannot_honour_are_rejected() {
        let models = names(&two_model_instance());
        let mmpp = |rates_per_s: Vec<f64>, mean_dwell_s| ArrivalProcess::Mmpp {
            rates_per_s,
            mean_dwell_s,
        };
        let diurnal = |base_rate_per_s, peak_rate_per_s, period_s| ArrivalProcess::Diurnal {
            base_rate_per_s,
            peak_rate_per_s,
            period_s,
        };
        // One case per rule, each naming the field it breaks.
        let cases = [
            // Every number finite.
            (
                ArrivalProcess::Poisson {
                    rate_per_s: f64::NAN,
                },
                "rate_per_s",
            ),
            (
                ArrivalProcess::Uniform {
                    interval_s: f64::INFINITY,
                },
                "interval_s",
            ),
            (mmpp(vec![1.0], f64::NAN), "mean_dwell_s"),
            (diurnal(1.0, 2.0, f64::INFINITY), "period_s"),
            (
                ArrivalProcess::Trace {
                    inter_arrival_s: vec![1.0, f64::NAN],
                },
                "inter_arrival_s",
            ),
            // Poisson rate > 0.
            (ArrivalProcess::Poisson { rate_per_s: 0.0 }, "rate_per_s"),
            (ArrivalProcess::Poisson { rate_per_s: -2.0 }, "rate_per_s"),
            // Uniform interval >= 0.
            (ArrivalProcess::Uniform { interval_s: -1.0 }, "interval_s"),
            // MMPP: a state, rates >= 0, one rate > 0, dwell > 0.
            (mmpp(vec![], 5.0), "rates_per_s"),
            (mmpp(vec![1.0, -0.5], 5.0), "rates_per_s"),
            (mmpp(vec![0.0, 0.0], 5.0), "rates_per_s"),
            (mmpp(vec![1.0], 0.0), "mean_dwell_s"),
            // Diurnal: base >= 0, peak > 0, period > 0.
            (diurnal(-1.0, 2.0, 60.0), "base_rate_per_s"),
            (diurnal(0.0, 0.0, 60.0), "peak_rate_per_s"),
            (diurnal(1.0, 2.0, 0.0), "period_s"),
        ];
        for (arrivals, field) in cases {
            let mut spec = WorkloadSpec::single_source(ArrivalProcess::Simultaneous, "ok");
            spec.sources.push(SourceSpec {
                device: None,
                arrivals: arrivals.clone(),
                label: "bad".to_string(),
                weight: None,
                mix: None,
            });
            match spec.validate(&models) {
                Err(WorkloadError::BadArrival {
                    source: 1,
                    field: got,
                    ..
                }) => assert_eq!(got, field, "{arrivals:?}"),
                other => panic!("{arrivals:?}: {other:?}"),
            }
        }
        // The edges of each rule are valid, and trace gaps keep their
        // clamp of negatives to 0.
        for arrivals in [
            ArrivalProcess::Uniform { interval_s: 0.0 },
            mmpp(vec![0.0, 1.0], 5.0),
            diurnal(0.0, 1.0, 60.0),
            ArrivalProcess::Trace {
                inter_arrival_s: vec![-1.0, 0.0],
            },
        ] {
            let spec = WorkloadSpec::single_source(arrivals, "edge");
            assert_eq!(spec.validate(&models), Ok(()), "{spec:?}");
        }
        let msg = WorkloadSpec::single_source(ArrivalProcess::Poisson { rate_per_s: 0.0 }, "m")
            .validate(&models)
            .unwrap_err()
            .to_string();
        assert_eq!(
            msg,
            "source 0 arrivals: rate_per_s must be finite and > 0 (got 0)"
        );
    }

    #[test]
    fn stats_reflect_queueing_under_load() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let requests = mixed_stream(&i, 12).unwrap();
        let plan = Plan::greedy(&i, requests).unwrap();
        // Slow arrivals: no queuing, p99 ≈ p50.
        let slow = simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(ArrivalProcess::Uniform { interval_s: 10.0 }.arrivals(12, "s")),
                ..SimConfig::default()
            },
        )
        .unwrap();
        let slow_stats = latency_stats(&slow);
        assert!(slow_stats.p99 < slow_stats.p50 * 1.3);
        // Saturating arrivals: the queue builds, p99 >> p50 of slow case.
        let fast = simulate(
            &i,
            &plan,
            &SimConfig {
                arrivals: Some(ArrivalProcess::Uniform { interval_s: 0.2 }.arrivals(12, "f")),
                ..SimConfig::default()
            },
        )
        .unwrap();
        let fast_stats = latency_stats(&fast);
        assert!(fast_stats.p99 > 2.0 * slow_stats.p99);
        assert_eq!(fast_stats.n, 12);
        assert!(fast_stats.throughput > 0.0);
    }

    #[test]
    fn empty_report_yields_zero_stats() {
        let s = latency_stats(&SimReport::default());
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }
}
