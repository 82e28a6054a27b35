//! # s2m3-bench
//!
//! The experiment harness: one module (and one binary) per table/figure
//! of the paper's evaluation section. `all_experiments` regenerates
//! everything and emits a machine-readable summary.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table VI (per-architecture cost & latency) | [`table6`] | `table6` |
//! | Table VII (deployment comparison)          | [`table7`] | `table7` |
//! | Fig. 3 (inference timeline)                | [`fig3`]   | `fig3` |
//! | Table VIII (accuracy)                      | [`table8`] | `table8` |
//! | Table IX (device availability)             | [`table9`] | `table9` |
//! | Table X (multi-task sharing)               | [`table10`]| `table10` |
//! | Table XI (baseline comparison)             | [`table11`]| `table11` |
//! | §VI-A 89/95 optimality claim               | [`optimality`] | `optimality` |
//! | Footnote 4 batch scaling                   | [`batching`]   | `batching` |
//! | Mechanism ablations (DESIGN.md)            | [`ablations`]  | `ablations` |

pub mod ablations;
pub mod batching;
pub mod churn;
pub mod fig3;
pub mod load_sweep;
pub mod optimality;
pub mod perturb;
pub mod scalability;
pub mod sweep;
pub mod table;
pub mod table10;
pub mod table11;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;

pub use table::Table;
