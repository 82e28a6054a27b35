//! # S2M3 — Split-and-Share Multi-Modal Models
//!
//! A from-scratch Rust reproduction of *"S2M3: Split-and-Share
//! Multi-Modal Models for Distributed Multi-Task Inference on the Edge"*
//! (ICDCS 2025). This facade crate re-exports the whole workspace:
//!
//! - [`tensor`] — deterministic `f32` kernels;
//! - [`models`] — the functional-module catalog and 14+ model zoo
//!   (Tables II/V), with executable synthetic modules;
//! - [`net`] — the Table III device fleet and home-PAN/MAN network;
//! - [`core`] — the paper's contribution: split-and-share placement
//!   (Algorithm 1), per-request parallel routing, objective (Eqs. 1–4),
//!   and the brute-force Upper baseline;
//! - [`sim`] — discrete-event execution (queuing, pipelining, loading,
//!   Fig. 3 timelines);
//! - [`serve`] — the online serving control plane: admission control,
//!   rolling SLO windows, and live adaptive replanning under fleet churn;
//! - [`sweep`] — parallel Monte Carlo sweeps: seeded replica grids on
//!   scoped threads, aggregated into deterministic distribution
//!   bands and a capacity frontier;
//! - [`runtime`] — a split executor that runs each module on its routed
//!   device, with bit-identical split-vs-centralized outputs;
//! - [`data`] — ten synthetic benchmarks and the Table VIII accuracy
//!   harness;
//! - [`baselines`] — centralized, Megatron-style TP, Optimus/DistMM
//!   estimates, and the paper's own ablations.
//!
//! ## Quickstart
//!
//! ```
//! use s2m3::prelude::*;
//!
//! // Deploy CLIP ViT-B/16 for zero-shot retrieval over the paper's
//! // edge fleet (desktop + laptop + two Jetson Nanos).
//! let instance = Instance::single_model("CLIP ViT-B/16", 101)?;
//! let request = instance.request(0, "CLIP ViT-B/16")?;
//! let plan = Plan::greedy(&instance, vec![request.clone()])?;
//!
//! // Analytic end-to-end latency (Eq. 1): parallel encoders + head.
//! let latency = total_latency(&instance, &plan.routed[0].1, &request)?;
//! assert!(latency < 4.0, "edge inference stays in the paper's regime");
//! # Ok::<(), s2m3::core::CoreError>(())
//! ```

pub use s2m3_baselines as baselines;
pub use s2m3_core as core;
pub use s2m3_data as data;
pub use s2m3_models as models;
pub use s2m3_net as net;
pub use s2m3_runtime as runtime;
pub use s2m3_serve as serve;
pub use s2m3_sim as sim;
pub use s2m3_sweep as sweep;
pub use s2m3_tensor as tensor;

/// Everything most applications need.
pub mod prelude {
    pub use s2m3_core::prelude::*;
    pub use s2m3_data::{evaluate, Benchmark, Dataset};
    pub use s2m3_models::zoo::{ModelSpec, Task, Zoo};
    pub use s2m3_net::fleet::Fleet;
    pub use s2m3_runtime::{reference, RequestInput, Runtime};
    pub use s2m3_serve::{serve, AdmissionPolicy, ServeReport, ServeScenario};
    pub use s2m3_sim::{simulate, SimConfig, SimReport};
    pub use s2m3_sweep::{run_sweep, SweepReport, SweepSpec};
}
