//! # s2m3-sim
//!
//! Discrete-event execution of S2M3 [`Plan`](s2m3_core::plan::Plan)s in
//! virtual time.
//!
//! The analytic objective in `s2m3-core` evaluates one request in
//! isolation (Eqs. 1–3). This simulator executes *sequences* of requests
//! against the same placement, which is where the paper's dynamic effects
//! live:
//!
//! - **queuing** on shared modules — the Table X observation that sharing
//!   trades memory for latency when simultaneous requests collide on a
//!   module (constraint (4b)'s capacity term, enforced here as FIFO device
//!   lanes);
//! - **pipelining** — the next request enters an encoder as soon as it
//!   frees (Sec. V-B);
//! - **model loading** — the end-to-end latency component of Table VII and
//!   the loading bars of Fig. 3;
//! - **per-request Gantt timelines** — the data behind Fig. 3, exportable
//!   as text or JSON.
//!
//! ## Example
//!
//! ```
//! use s2m3_core::prelude::*;
//! use s2m3_sim::{simulate, SimConfig};
//!
//! let instance = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
//! let request = instance.request(0, "CLIP ViT-B/16").unwrap();
//! let plan = Plan::greedy(&instance, vec![request]).unwrap();
//! let report = simulate(&instance, &plan, &SimConfig::default()).unwrap();
//! // One-request simulated latency agrees with the analytic objective
//! // within the scheduler's resolution.
//! let analytic = total_latency(&instance, &plan.routed[0].1, &plan.routed[0].0).unwrap();
//! assert!((report.request_latency(0).unwrap() - analytic).abs() < 0.15);
//! ```

pub mod batching;
pub mod energy;
pub mod engine;
pub mod kernel;
pub mod loading;
pub mod report;
pub mod workload;

#[cfg(test)]
mod proptests;

pub use engine::{simulate, simulate_shared, SimConfig, SimError};
pub use report::{GanttSpan, Phase, SimReport, Spans};
pub use workload::{
    ArrivalProcess, ClassShare, ModelMix, ModelWeight, SourceSpec, WorkloadError, WorkloadRequest,
    WorkloadSpec,
};
