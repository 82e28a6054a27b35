//! # s2m3-runtime
//!
//! The split executor for S2M3 plans: [`Runtime::start`] builds the
//! synthetic modules each device hosts under the plan's placement, and
//! [`Runtime::infer`] runs a request along its route — every encoder on
//! its routed device, then the head on the head's device — on the
//! caller's thread. Each value that crosses devices (the modality inputs,
//! the embeddings, the query and the output) crosses as serialized bytes,
//! so the run computes on exactly what the wire format carries.
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
//!
//! // Centralized single-process execution of the same model and input:
//! let central = reference::run_model(
//!     &instance.deployment("CLIP ViT-B/16").unwrap().model, &input).unwrap();
//! assert_eq!(distributed, central); // bit-identical
//! ```

pub mod input;
pub mod reference;
mod runtime;

pub use input::RequestInput;
pub use runtime::{Runtime, RuntimeError};
