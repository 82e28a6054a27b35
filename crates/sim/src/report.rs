//! Simulation output: per-request timings and Gantt timelines.
//!
//! # The span table
//!
//! A run names a handful of devices and modules and a few spans per
//! request, so [`Spans`] — the storage behind [`SimReport::spans`] —
//! holds what is identical once and refers to it: one table each of the
//! run's device names, module names and request ids, plus a `Vec` of
//! rows. A row is `Copy` plain data of 32 bytes: `start`, `end`, three
//! `u32` indices into those tables (request — a reserved value for
//! loading spans, which belong to none — device, module) and a one-byte
//! phase tag. Recording a span is one store, freeing a million of them
//! one `dealloc`, and no reference count moves either way. This row is
//! what a span sink streaming through `data::sink` and sampled
//! per-request lifecycle spans should write, rather than growing a
//! second span type.
//!
//! [`GanttSpan`] and [`Phase`] are the owned view of one row and the
//! type spans are built from and exchanged as. [`Spans::iter`]
//! materialises them on demand, cloning (reference-counted) names per
//! span; the rows never do. Two tables are equal when they list equal
//! spans in the same order, whatever the order or contents of their name
//! tables, and the JSON of a table is exactly the JSON of the
//! `Vec<GanttSpan>` it lists — in both directions.

use std::collections::BTreeMap;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use s2m3_models::module::ModuleId;
use s2m3_net::device::DeviceId;

/// What a Gantt span represents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Loading a module's weights onto the device.
    ModelLoading(ModuleId),
    /// Raw user input travelling to an encoder device.
    InputTx(ModuleId),
    /// Encoder computation.
    Encode(ModuleId),
    /// Encoded embeddings travelling to the head device.
    OutputTx(ModuleId),
    /// Head (distance / classifier / LLM) computation.
    Head(ModuleId),
}

impl Phase {
    /// Short label for timeline rendering (matches Fig. 3's legend).
    pub fn label(&self) -> String {
        match self {
            Phase::ModelLoading(_) => "load".into(),
            Phase::InputTx(_) => "tx-in".into(),
            Phase::Encode(m) => format!("encode {}", short(m)),
            Phase::OutputTx(_) => "tx-out".into(),
            Phase::Head(m) => format!("head {}", short(m)),
        }
    }

    fn split(&self) -> (PhaseTag, &ModuleId) {
        match self {
            Phase::ModelLoading(m) => (PhaseTag::ModelLoading, m),
            Phase::InputTx(m) => (PhaseTag::InputTx, m),
            Phase::Encode(m) => (PhaseTag::Encode, m),
            Phase::OutputTx(m) => (PhaseTag::OutputTx, m),
            Phase::Head(m) => (PhaseTag::Head, m),
        }
    }
}

fn short(m: &ModuleId) -> &str {
    m.as_str().rsplit('/').next().unwrap_or(m.as_str())
}

/// One bar of the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttSpan {
    /// Device the span occurred on (transfers are attributed to the
    /// receiving device).
    pub device: DeviceId,
    /// Owning request, if any (loading spans have none).
    pub request: Option<u64>,
    /// What happened.
    pub phase: Phase,
    /// Start time, seconds of virtual time.
    pub start: f64,
    /// End time, seconds of virtual time.
    pub end: f64,
}

/// [`Phase`] without its module: the row's one-byte tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseTag {
    ModelLoading,
    InputTx,
    Encode,
    OutputTx,
    Head,
}

impl PhaseTag {
    fn with(self, module: ModuleId) -> Phase {
        match self {
            PhaseTag::ModelLoading => Phase::ModelLoading(module),
            PhaseTag::InputTx => Phase::InputTx(module),
            PhaseTag::Encode => Phase::Encode(module),
            PhaseTag::OutputTx => Phase::OutputTx(module),
            PhaseTag::Head => Phase::Head(module),
        }
    }
}

/// `SpanRow::request` of a span no request owns.
pub(crate) const NO_REQUEST: u32 = u32::MAX;

/// One span as [`Spans`] stores it: times, a phase tag and indices into
/// the table's names and request ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRow {
    pub(crate) start: f64,
    pub(crate) end: f64,
    /// Index into the table's request ids, or [`NO_REQUEST`].
    pub(crate) request: u32,
    pub(crate) device: u32,
    pub(crate) module: u32,
    pub(crate) phase: PhaseTag,
}

const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<SpanRow>();
    assert!(std::mem::size_of::<SpanRow>() <= 32);
};

/// A timeline: spans in report order, each name and request id stored
/// once (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Spans {
    devices: Vec<DeviceId>,
    modules: Vec<ModuleId>,
    requests: Vec<u64>,
    /// Every index is in range of its table.
    rows: Vec<SpanRow>,
}

impl Spans {
    /// A table over `rows`, which index the three other arguments.
    pub(crate) fn from_parts(
        devices: Vec<DeviceId>,
        modules: Vec<ModuleId>,
        requests: Vec<u64>,
        rows: Vec<SpanRow>,
    ) -> Self {
        assert!(
            requests.len() < NO_REQUEST as usize,
            "request indices must fit below the reserved value"
        );
        debug_assert!(rows.iter().all(|r| {
            (r.request == NO_REQUEST || (r.request as usize) < requests.len())
                && (r.device as usize) < devices.len()
                && (r.module as usize) < modules.len()
        }));
        Spans {
            devices,
            modules,
            requests,
            rows,
        }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the timeline has no spans.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The spans in order, each materialised as an owned [`GanttSpan`]
    /// (its names are cloned out of the table).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = GanttSpan> + '_ {
        self.rows.iter().map(|r| GanttSpan {
            device: self.devices[r.device as usize].clone(),
            request: (r.request != NO_REQUEST).then(|| self.requests[r.request as usize]),
            phase: r.phase.with(self.modules[r.module as usize].clone()),
            start: r.start,
            end: r.end,
        })
    }

    /// The rows, for in-crate consumers that work on indices.
    pub(crate) fn rows(&self) -> &[SpanRow] {
        &self.rows
    }

    /// The device names the rows index.
    pub(crate) fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Spare room in the row `Vec` would mean the engine's one-off
    /// reservation was not exact.
    #[cfg(test)]
    pub(crate) fn row_capacity(&self) -> usize {
        self.rows.capacity()
    }
}

/// Span contents, not table layout: two tables are equal when they list
/// equal spans in the same order.
impl PartialEq for Spans {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Index of `value` in `table`, appended on first sight.
fn intern<T: Ord + Clone>(index: &mut BTreeMap<T, u32>, table: &mut Vec<T>, value: &T) -> u32 {
    if let Some(&i) = index.get(value) {
        return i;
    }
    let i = u32::try_from(table.len())
        .ok()
        .filter(|&i| i != NO_REQUEST)
        .expect("a span table indexes fewer than 2^32 - 1 distinct names or requests");
    table.push(value.clone());
    index.insert(value.clone(), i);
    i
}

impl FromIterator<GanttSpan> for Spans {
    fn from_iter<I: IntoIterator<Item = GanttSpan>>(spans: I) -> Self {
        let mut out = Spans::default();
        let (mut devices, mut modules, mut requests) =
            (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for span in spans {
            let (phase, module) = span.phase.split();
            out.rows.push(SpanRow {
                start: span.start,
                end: span.end,
                request: span.request.map_or(NO_REQUEST, |id| {
                    intern(&mut requests, &mut out.requests, &id)
                }),
                device: intern(&mut devices, &mut out.devices, &span.device),
                module: intern(&mut modules, &mut out.modules, module),
                phase,
            });
        }
        out
    }
}

impl From<Vec<GanttSpan>> for Spans {
    fn from(spans: Vec<GanttSpan>) -> Self {
        spans.into_iter().collect()
    }
}

impl Serialize for Spans {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(self.iter())
    }
}

impl<'de> Deserialize<'de> for Spans {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<GanttSpan>::deserialize(d).map(Spans::from)
    }
}

/// Per-request timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestTiming {
    /// Arrival (submission) time.
    pub arrival: f64,
    /// Completion time (head output produced).
    pub completion: f64,
}

impl RequestTiming {
    /// Request latency (completion − arrival).
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// The full simulation result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// All timeline spans, in start order.
    pub spans: Spans,
    /// Per-request timings.
    pub requests: BTreeMap<u64, RequestTiming>,
    /// When model loading finished across all devices (0 when loading is
    /// not simulated).
    pub loading_done: f64,
    /// Completion time of the last request.
    pub makespan: f64,
}

impl SimReport {
    /// Latency of request `id`, if it ran.
    pub fn request_latency(&self, id: u64) -> Option<f64> {
        self.requests.get(&id).map(RequestTiming::latency)
    }

    /// Mean latency over all requests (objective 4a normalized).
    pub fn mean_latency(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .values()
            .map(RequestTiming::latency)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Maximum latency over all requests.
    pub fn max_latency(&self) -> f64 {
        self.requests
            .values()
            .map(RequestTiming::latency)
            .fold(0.0, f64::max)
    }

    /// Renders an ASCII Gantt chart (one row per device), the textual
    /// form of Fig. 3.
    pub fn render_gantt(&self, width: usize) -> String {
        let horizon = self.makespan.max(1e-9);
        let mut by_device: BTreeMap<&DeviceId, Vec<&SpanRow>> = BTreeMap::new();
        for s in self.spans.rows() {
            by_device
                .entry(&self.spans.devices()[s.device as usize])
                .or_default()
                .push(s);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "virtual time: 0 .. {horizon:.2}s  ({width} cols)\n"
        ));
        for (dev, spans) in by_device {
            let mut row = vec![' '; width];
            for s in spans {
                let a = ((s.start / horizon) * width as f64).floor() as usize;
                let b = (((s.end / horizon) * width as f64).ceil() as usize).min(width);
                let ch = match s.phase {
                    PhaseTag::ModelLoading => 'L',
                    PhaseTag::InputTx | PhaseTag::OutputTx => 't',
                    PhaseTag::Encode => 'E',
                    PhaseTag::Head => 'H',
                };
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    *c = ch;
                }
            }
            out.push_str(&format!(
                "{:>10} |{}|\n",
                dev.as_str(),
                row.iter().collect::<String>()
            ));
        }
        out.push_str("legend: L=model loading  t=transfer  E=encode  H=task head\n");
        out
    }

    /// JSON export of the timeline (for external plotting).
    ///
    /// # Errors
    ///
    /// Propagates serialization failure (should not happen for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(dev: &str, phase: Phase, start: f64, end: f64) -> GanttSpan {
        GanttSpan {
            device: dev.into(),
            request: Some(0),
            phase,
            start,
            end,
        }
    }

    #[test]
    fn latency_accounting() {
        let mut r = SimReport::default();
        r.requests.insert(
            0,
            RequestTiming {
                arrival: 1.0,
                completion: 3.5,
            },
        );
        r.requests.insert(
            1,
            RequestTiming {
                arrival: 1.0,
                completion: 2.0,
            },
        );
        assert_eq!(r.request_latency(0), Some(2.5));
        assert_eq!(r.request_latency(9), None);
        assert!((r.mean_latency() - 1.75).abs() < 1e-12);
        assert!((r.max_latency() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_mean_is_zero() {
        assert_eq!(SimReport::default().mean_latency(), 0.0);
    }

    #[test]
    fn gantt_renders_all_devices_and_legend() {
        let r = SimReport {
            spans: vec![
                span(
                    "jetson-a",
                    Phase::Encode("vision/ViT-B-16".into()),
                    0.0,
                    1.0,
                ),
                span("laptop", Phase::Encode("text/CLIP-B-16".into()), 0.0, 2.0),
                span("jetson-a", Phase::Head("head/cosine".into()), 2.0, 2.2),
            ]
            .into(),
            makespan: 2.2,
            ..Default::default()
        };
        let g = r.render_gantt(40);
        assert!(g.contains("jetson-a"));
        assert!(g.contains("laptop"));
        assert!(g.contains('E'));
        assert!(g.contains('H'));
        assert!(g.contains("legend"));
    }

    #[test]
    fn json_roundtrip() {
        let r = SimReport {
            spans: vec![span(
                "laptop",
                Phase::InputTx("text/CLIP-B-16".into()),
                0.0,
                0.1,
            )]
            .into(),
            makespan: 0.1,
            ..Default::default()
        };
        let j = r.to_json().unwrap();
        let back: SimReport = serde_json::from_str(&j).unwrap();
        assert_eq!(r, back);
    }

    /// Names the arbitrary span lists draw from; with at most a dozen
    /// spans some go unused, others repeat.
    const DEVICES: [&str; 5] = ["server", "desktop", "laptop", "jetson-b", "jetson-a"];
    const MODULES: [&str; 4] = [
        "vision/ViT-B-16",
        "text/CLIP-B-16",
        "head/cosine",
        "llm/Flint-1B",
    ];
    const TAGS: [PhaseTag; 5] = [
        PhaseTag::ModelLoading,
        PhaseTag::InputTx,
        PhaseTag::Encode,
        PhaseTag::OutputTx,
        PhaseTag::Head,
    ];
    /// Request ids a hand-laid table lists, used or not.
    const REQUEST_IDS: u64 = 4;

    /// A span as indices into the pools above: device, module, tag,
    /// request (`REQUEST_IDS` = none), start, duration.
    type Drawn = (usize, usize, usize, u64, f64, f64);

    fn arb_spans() -> impl Strategy<Value = Vec<Drawn>> {
        proptest::collection::vec(
            (
                0..DEVICES.len(),
                0..MODULES.len(),
                0..TAGS.len(),
                0..=REQUEST_IDS,
                // A coarse grid (equal starts) or anything at all.
                prop_oneof![(0u32..4).prop_map(|k| f64::from(k) * 0.5), 0.0f64..1.0e6],
                0.0f64..50.0,
            ),
            0..12,
        )
    }

    fn owned(&(device, module, tag, request, start, dur): &Drawn) -> GanttSpan {
        GanttSpan {
            device: DEVICES[device].into(),
            request: (request < REQUEST_IDS).then_some(request),
            phase: TAGS[tag].with(MODULES[module].into()),
            start,
            end: start + dur,
        }
    }

    /// The same list as a table laid out by hand: every pool name, used
    /// or not, in reverse order, and every request id likewise.
    fn reversed_layout(drawn: &[Drawn]) -> Spans {
        let last = |len: usize, i: usize| (len - 1 - i) as u32;
        Spans::from_parts(
            DEVICES.iter().rev().map(|&d| d.into()).collect(),
            MODULES.iter().rev().map(|&m| m.into()).collect(),
            (0..REQUEST_IDS).rev().collect(),
            drawn
                .iter()
                .map(|&(device, module, tag, request, start, dur)| SpanRow {
                    start,
                    end: start + dur,
                    request: if request < REQUEST_IDS {
                        last(REQUEST_IDS as usize, request as usize)
                    } else {
                        NO_REQUEST
                    },
                    device: last(DEVICES.len(), device),
                    module: last(MODULES.len(), module),
                    phase: TAGS[tag],
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A table is its span list: `iter()` gives the list back, the
        /// JSON is the list's JSON and parses back equal, and equality
        /// sees span contents only — not how the name tables are laid
        /// out, and every single field of every span.
        #[test]
        fn a_span_table_is_its_span_list(
            drawn in arb_spans(),
            which in 0usize..12,
            field in 0usize..6,
        ) {
            let list: Vec<GanttSpan> = drawn.iter().map(owned).collect();
            let table = Spans::from(list.clone());
            prop_assert_eq!(table.len(), list.len());
            prop_assert_eq!(table.is_empty(), list.is_empty());
            prop_assert_eq!(&table.iter().collect::<Vec<_>>(), &list);

            let json = serde_json::to_string(&table).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&list).unwrap());
            prop_assert_eq!(&serde_json::from_str::<Spans>(&json).unwrap(), &table);
            prop_assert_eq!(&serde_json::from_str::<Vec<GanttSpan>>(&json).unwrap(), &list);

            let relaid = reversed_layout(&drawn);
            prop_assert_eq!(&relaid, &table);
            prop_assert_eq!(&relaid.iter().collect::<Vec<_>>(), &list);

            if !drawn.is_empty() {
                let mut changed = drawn.clone();
                let (device, module, tag, request, start, dur) =
                    &mut changed[which % drawn.len()];
                match field {
                    0 => *device = (*device + 1) % DEVICES.len(),
                    1 => *module = (*module + 1) % MODULES.len(),
                    2 => *tag = (*tag + 1) % TAGS.len(),
                    3 => *request = (*request + 1) % (REQUEST_IDS + 1),
                    4 => *start += 1.0,
                    _ => *dur += 1.0,
                }
                let changed_list: Vec<GanttSpan> = changed.iter().map(owned).collect();
                prop_assert_ne!(&Spans::from(changed_list), &table);
                prop_assert_ne!(&reversed_layout(&changed), &table);
            }
        }
    }

    #[test]
    fn phase_labels_are_short() {
        assert_eq!(
            Phase::Encode("vision/ViT-B-16".into()).label(),
            "encode ViT-B-16"
        );
        assert_eq!(Phase::ModelLoading("x".into()).label(), "load");
    }
}
