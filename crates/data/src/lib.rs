//! # s2m3-data
//!
//! Synthetic stand-ins for the paper's ten public benchmarks and the
//! zero-shot evaluation harness of Table VIII.
//!
//! ## Why synthetic benchmarks are a faithful substitution
//!
//! Table VIII's claim is architectural, not dataset-specific: *splitting a
//! model across devices does not change its outputs*, hence accuracy is
//! identical to centralized inference. That exactness property holds for
//! any dataset — so what the benchmarks must provide is (a) realistic
//! class structure for the tasks, (b) difficulty that scales the way the
//! real benchmarks do (CIFAR-10 easy, Country-211 brutal), and (c) a
//! model-quality ordering (ViT-L beats ViT-B, 7B beats 1B). All three are
//! synthesized: each benchmark has seeded class prototypes in the shared
//! raw-feature space, per-sample noise with a per-benchmark level, and
//! the encoder-quality distortion of [`s2m3_models::exec`] supplies the
//! model ordering. The per-benchmark noise levels are calibrated so the
//! *measured* zero-shot accuracy lands near the paper's reported column.
//!
//! ## Example
//!
//! ```
//! use s2m3_data::{Benchmark, Dataset, evaluate};
//! use s2m3_models::zoo::Zoo;
//!
//! let zoo = Zoo::standard();
//! let bench = Benchmark::cifar10();
//! let dataset = Dataset::generate(&bench, 50);
//! let result = evaluate(zoo.model("CLIP ViT-B/16").unwrap(), &dataset).unwrap();
//! assert!(result.accuracy() > 0.5); // CIFAR-10 is the easy one
//! ```

pub mod benchmark;
pub mod dataset;
pub mod eval;
pub mod sink;
pub mod table_viii;

pub use benchmark::Benchmark;
pub use dataset::{Dataset, LabeledSample};
pub use eval::{evaluate, EvalResult};
