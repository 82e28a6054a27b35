//! # s2m3-baselines
//!
//! Every deployment the paper's evaluation compares S2M3 against:
//!
//! - [`centralized`]: the whole model on one device — the paper's
//!   *Centralized Cloud* (GPU server over the MAN) and *Local* (Jetson)
//!   baselines, plus any other single device of Table VII;
//! - [`megatron`]: Megatron-LM-style intra-module tensor parallelism,
//!   applied per functional module (Table XI) — capacity-proportional
//!   sharding with per-layer allreduce over the home network, no
//!   cross-encoder parallelism, no cross-task sharing;
//! - [`estimators`]: Optimus (VQA-only) and DistMM (retrieval-only)
//!   ideal-parallelism estimates, constructed exactly as the paper's
//!   footnote 3 does (the systems are closed-source, so their latency is
//!   estimated as ideal tensor/modality parallelism);
//! - [`ablations`]: S2M3 without per-request parallel routing and S2M3
//!   without module sharing (the Table VII / Table X counterfactuals).
//!
//! All baselines consume the same [`Instance`](s2m3_core::problem::Instance)
//! and cost model as S2M3 itself, so comparisons are apples-to-apples.

pub mod ablations;
pub mod centralized;
pub mod estimators;
pub mod megatron;
