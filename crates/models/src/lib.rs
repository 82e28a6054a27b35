//! # s2m3-models
//!
//! The S2M3 model zoo: functional-level modules and the multi-modal model
//! architectures the paper evaluates (Tables II, IV, V).
//!
//! S2M3's core observation is that multi-modal models decompose into
//! *functional-level* modules — modality-wise encoders plus one task-specific
//! head — and that modules with identical weights recur across models and
//! tasks (Insights 1–4 of the paper). This crate provides:
//!
//! - [`module`]: [`ModuleSpec`] — identity, kind, parameter count, memory
//!   footprint, FLOP cost, and output dimension of one functional module.
//!   Module **identity** is what sharing keys on: two models that both use
//!   `ViT-B/16` reference the *same* [`ModuleId`] and therefore the same
//!   placement slot.
//! - [`catalog`]: every functional module of Table V (ten vision encoders,
//!   the per-variant CLIP text transformers, the OpenCLIP text transformer,
//!   the ViT-B audio encoder, four language models, and the distance /
//!   classifier heads).
//! - [`zoo`]: the 14+ [`ModelSpec`]s of Table II across the five tasks of
//!   Table IV, assembled from catalog modules.
//! - [`exec`]: *executable* synthetic instances of each module built on
//!   [`s2m3_tensor`]. They perform real (small) deterministic computation so
//!   that any deployment — centralized or split — produces bit-identical
//!   outputs, the property behind the paper's Table VIII.
//! - [`input`]: modality payload descriptions (byte sizes for the network
//!   model, plus synthetic content for executable inference).
//!
//! ## Example: look up a model and inspect its split
//!
//! ```
//! use s2m3_models::zoo::Zoo;
//!
//! let zoo = Zoo::standard();
//! let clip = zoo.model("CLIP ViT-B/16").unwrap();
//! // CLIP splits into a vision encoder, a text encoder and a similarity head.
//! assert_eq!(clip.encoders().len(), 2);
//! // The split-architecture worst single-device cost is the largest module,
//! // not the sum (Sec. IV-A of the paper).
//! assert!(clip.max_module_params() < clip.total_params());
//! ```

pub mod catalog;
pub mod exec;
pub mod input;
pub mod module;
pub mod zoo;

pub use input::{Modality, ModalityInput};
pub use module::{ModuleId, ModuleKind, ModuleSpec};
pub use zoo::{ModelSpec, Task, Zoo};
