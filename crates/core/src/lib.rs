//! # s2m3-core
//!
//! The paper's primary contribution: **split-and-share** deployment of
//! multi-modal models over a fleet of resource-constrained devices, with
//! module-level greedy placement and per-request parallel routing
//! (Algorithm 1 of the paper).
//!
//! ## The problem (Sec. V-A)
//!
//! Devices `n ∈ N` have memory budgets `R_n`; the distinct functional
//! modules `m ∈ M = ∪_k M_k` of all deployed models have memory needs
//! `r_m`. A placement `x_{m,n} ∈ {0,1}` decides which devices host which
//! modules; a per-request routing `y^q_{m,n}` picks one hosting device per
//! required module. The end-to-end latency of a request (Eqs. 1–3) is
//!
//! ```text
//! t_total = max over encoders m [ t_comm(input → n) + t_comp(m, n)
//!                                  + t_comm(n → head device) ]
//!           + t_comp(head)
//! ```
//!
//! — the **max**, not the sum, because S2M3 routes the modalities of a
//! single request to different devices *in parallel*.
//!
//! ## The solution (Sec. V-B)
//!
//! - [`placement::greedy_place`]: modules in descending memory order; each
//!   goes to the device with the shortest completion time (Eq. 5 for
//!   encoders — accumulated compute on the device; Eq. 6 for heads — pure
//!   compute), first fit under the memory budget, then leftover-memory
//!   replication.
//! - [`routing::route_request`]: per module, the fastest hosting device
//!   (Eq. 7), with the longest-running encoder dispatched first.
//! - [`upper::optimal_placement`]: exhaustive search over feasible
//!   placements — the paper's "Upper" baseline, used to certify that the
//!   greedy is optimal in ~94% of instances.
//! - [`objective`]: the exact analytic evaluator of Eqs. (1)–(4), shared
//!   by all of the above and by the property tests.
//! - [`resolved::ResolvedInstance`]: the interned-index data layer the
//!   hot paths run on — string ids at the boundary, dense `u32` indices
//!   and flat compute/link tables in the core (see the repository
//!   README's "Performance" section).
//!
//! ## Example
//!
//! ```
//! use s2m3_core::prelude::*;
//!
//! let instance = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
//! let placement = greedy_place(&instance).unwrap();
//! let request = instance.request(0, "CLIP ViT-B/16").unwrap();
//! let route = route_request(&instance, &placement, &request).unwrap();
//! let latency = total_latency(&instance, &route, &request).unwrap();
//! assert!(latency > 0.0 && latency < 10.0);
//! ```

pub mod adaptive;
pub mod cost;
pub mod error;
pub mod objective;
pub mod partition;
pub mod placement;
pub mod plan;
pub mod problem;
pub mod resolved;
pub mod routing;
pub mod sharing;
pub mod sketch;
pub mod upper;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::adaptive::{replan, ReplanDecision};
    pub use crate::cost::CostModel;
    pub use crate::error::CoreError;
    pub use crate::objective::{total_latency, validate};
    pub use crate::partition::greedy_place_partitioned;
    pub use crate::placement::greedy_place;
    pub use crate::plan::Plan;
    pub use crate::problem::{Instance, Placement, Request, RequestProfile, RequestShape, Route};
    pub use crate::resolved::ResolvedInstance;
    pub use crate::routing::route_request;
    pub use crate::sharing::SharingReport;
    pub use crate::upper::optimal_placement;
}

pub use cost::CostModel;
pub use error::CoreError;
pub use problem::{Instance, Placement, Request, RequestProfile, RequestShape, Route};
