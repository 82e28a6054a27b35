//! # s2m3-runtime
//!
//! An executable distributed runtime for S2M3 plans: every device of the
//! fleet becomes a worker thread hosting the synthetic modules its
//! placement assigns, connected by the in-process message bus of
//! [`s2m3_net::transport`]. Requests fan their modality inputs out to the
//! encoder devices *in parallel* (real threads, real channels, real —
//! small — tensor computation), embeddings converge on the head device,
//! and the head's output returns to the requester.
//!
//! This is the correctness substrate for the paper's Table VIII: the same
//! request executed through *any* placement produces **bit-identical**
//! outputs, because modules are pure functions of (weights, input). The
//! latency numbers come from `s2m3-sim` instead — wall-clock here would
//! measure this machine, not the paper's testbed.
//!
//! ## Example
//!
//! ```
//! use s2m3_core::prelude::*;
//! use s2m3_runtime::{reference, RequestInput, Runtime};
//!
//! let instance = Instance::single_model("CLIP ViT-B/16", 8).unwrap();
//! let request = instance.request(0, "CLIP ViT-B/16").unwrap();
//! let plan = Plan::greedy(&instance, vec![request.clone()]).unwrap();
//! let input = RequestInput::synthetic(
//!     &instance.deployment("CLIP ViT-B/16").unwrap().model, "demo", 8);
//!
//! let runtime = Runtime::start(&instance, &plan).unwrap();
//! let distributed = runtime.infer(&request, &plan.routed[0].1, &input).unwrap();
//! runtime.shutdown();
//!
//! // Centralized single-process execution of the same model and input:
//! let central = reference::run_model(
//!     &instance.deployment("CLIP ViT-B/16").unwrap().model, &input).unwrap();
//! assert_eq!(distributed, central); // bit-identical
//! ```

pub mod input;
pub mod messages;
pub mod reference;
mod runtime;
mod worker;

pub use input::RequestInput;
pub use runtime::{Runtime, RuntimeError};
