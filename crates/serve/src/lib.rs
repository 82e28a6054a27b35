//! # s2m3-serve
//!
//! An online serving control plane over the S2M3 reproduction: the layer
//! that turns the paper's single-burst evaluation into a continuously
//! running system.
//!
//! The paper (Sec. VI-C) sketches adaptive reallocation under fleet
//! changes and reports one simultaneous multi-task burst (Table X). This
//! crate closes the loop end-to-end:
//!
//! - **request streams** — any seeded
//!   [`ArrivalProcess`](s2m3_sim::workload::ArrivalProcess), including
//!   the bursty MMPP, diurnal, and trace-replay variants, drawn lazily
//!   (`serve::arrivals`);
//! - **admission control** — per-device queues under
//!   [`AdmissionPolicy`] (FIFO, earliest-deadline-first, or
//!   shed-on-overload) and in-flight request slots ([`queue`]);
//! - **parallel routing** — every (model, source) route priced once per
//!   placement and cached in nanoseconds (`serve::routes`);
//! - **discrete-event execution** — per-device lanes with module-level
//!   FIFO queues and head-priority dispatch, mirroring
//!   `s2m3_sim::engine`'s semantics;
//! - **SLO tracking** — bounded ring-buffer windows summarized into
//!   p50/p95/p99 latency and deadline-miss rates, plus per-device
//!   utilization;
//! - **live replanning** — [`FleetEvent`]s and rolling-p95 breaches wake
//!   the controller in `serve::replan`, which calls
//!   [`s2m3_core::adaptive::replan`], accepts migrations only when they
//!   break even at the observed arrival rate, and costs them downtime;
//! - **budget enforcement** — an optional per-window fleet-wide cost
//!   cap ([`budget`]): dispatches reserve their route's priced cost and
//!   the lowest-priority work defers or sheds when a window runs dry.
//!
//! Each stage owns its state and is tested without a kernel;
//! [`engine`] keeps the request lifetime and every write to the kernel.
//!
//! ## Example
//!
//! ```
//! use s2m3_serve::{serve, ServeScenario};
//!
//! let mut scenario = ServeScenario::churn_default();
//! scenario.requests = 200; // keep the doctest fast
//! scenario.events.clear();
//! let report = serve(&scenario).unwrap();
//! assert_eq!(report.arrived, 200);
//! assert_eq!(report.completed + report.shed, 200);
//! assert!(report.latency.p50_s <= report.latency.p99_s);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accounting;
mod arrivals;
pub mod budget;
pub mod config;
pub mod engine;
pub mod queue;
mod replan;
pub mod report;
mod routes;
pub mod slab;
pub mod slo;
pub mod trace;

#[cfg(test)]
mod proptests;

pub use budget::{
    BudgetClassReport, BudgetEnforcement, BudgetMetric, BudgetPolicy, BudgetReport, BudgetWindow,
};
pub use config::{
    AdmissionPolicy, BatchPolicy, FleetEvent, FleetEventKind, KindBatchCap, ModelDeployment,
    ReplanPolicy, ServeScenario, SloReplanTrigger, StreamingConfig, TrafficSource,
};
pub use engine::{prepare, serve, ServeError, ServeSession, SharedStart};
// The unified workload layer lives in `s2m3_sim::workload`; re-export
// the pieces serving scenarios embed so configs build from one import.
pub use report::{
    ClassReport, DeviceReport, EventRecord, LatencySummary, RejectedSloRun, ReplanRecord,
    ReplanTrigger, ServeReport,
};
pub use s2m3_sim::workload::{ClassShare, ModelMix, ModelWeight, WorkloadSpec};
pub use slo::{SloWindow, WindowSnapshot};
