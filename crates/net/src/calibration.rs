//! Calibration constants for the simulated Table III testbed.
//!
//! Each constant is pinned to an observation in the paper; the goal is not
//! to reproduce every cell exactly (the authors' wall-clock includes
//! framework noise we do not model) but to place every device and link in
//! the right *regime* so that placement decisions, who-wins orderings, and
//! crossover points match. The paper's values sit beside each
//! experiment, in the comments of `crates/bench/src/table*.rs`.
//!
//! Anchors used:
//! - Footnote 2: CLIP ViT-B/16 text encoding (101 Food-101 prompts) takes
//!   ~3 s on the laptop, ~43 s on a Jetson Nano → Jetson ≈ 14 effective
//!   GFLOP/s, laptop ≈ 260.
//! - Table VII: desktop centralized 3.46 s, laptop 3.02 s, Jetson 45.19 s,
//!   cloud 2.44 s for the same model → desktop ≈ 200 GFLOP/s; the GPU
//!   server's latency is dominated by per-execution and per-prompt serving
//!   overheads (0.37 s + 7.5 ms/prompt), not FLOPs.
//! - Table VI's VQA rows (cloud 1.23 s vs retrieval 2.44 s for the same
//!   backbone) pin the per-work-unit overhead: 101 prompts vs 1.
//! - Table IX's "+ Server" row (1.74 s < cloud's 2.44 s) pins GPU
//!   parallelism = 2: S2M3 overlaps vision and text module executions on
//!   the same GPU, while the centralized monolith runs them sequentially.
//! - Footnote 1 / Fig. 3 / Table VII end-to-end column pin model-loading:
//!   ~11 s to load CLIP ViT-B/16 on the Tesla P40 host, ~15 s on a Jetson,
//!   ~1.5 s on the desktop, ~2.3 s on the laptop.

/// Effective compute speed of the Tesla P40 server (GPU path), GFLOP/s.
pub(crate) const SERVER_GPU_GFLOPS: f64 = 3500.0;
/// Effective compute speed of the server CPU path (Table VII
/// "Server (w/o GPU)"), GFLOP/s.
pub(crate) const SERVER_CPU_GFLOPS: f64 = 95.0;
/// Effective compute speed of the i7-13700 desktop, GFLOP/s.
/// Slightly below the M3 Pro (Table VII: desktop centralized 3.46 s vs
/// laptop 3.02 s) but close enough that Eq. 5's accumulation term spreads
/// a CLIP pair across both devices rather than stacking the laptop.
pub(crate) const DESKTOP_GFLOPS: f64 = 250.0;
/// Effective compute speed of the Apple M3 Pro laptop, GFLOP/s.
pub(crate) const LAPTOP_GFLOPS: f64 = 260.0;
/// Effective compute speed of a 4 GB Jetson Nano, GFLOP/s.
pub(crate) const JETSON_GFLOPS: f64 = 14.0;

/// The desktop's relative throughput advantage on convolutional vision
/// towers (AVX-heavy convs) over its transformer baseline. Required to
/// reproduce the paper's observed placement (vision on desktop, text on
/// laptop — Table X) from Eq. 5, and keeps the greedy optimal on the
/// default instance as the paper reports.
pub(crate) const DESKTOP_VISION_EFFICIENCY: f64 = 1.5;

/// Per-module-execution serving overhead on the server (kernel launches,
/// Python dispatch, batch assembly), seconds.
pub(crate) const SERVER_EXEC_OVERHEAD_S: f64 = 0.37;
/// Per-work-unit overhead on the server (tokenization & per-prompt
/// dispatch), seconds.
pub(crate) const SERVER_UNIT_OVERHEAD_S: f64 = 0.0075;
/// Per-module-execution overhead on edge devices, seconds.
pub(crate) const EDGE_EXEC_OVERHEAD_S: f64 = 0.05;
/// Per-work-unit overhead on edge devices, seconds.
pub(crate) const EDGE_UNIT_OVERHEAD_S: f64 = 0.002;

/// Concurrent module executions the GPU server sustains (CUDA streams).
pub(crate) const SERVER_PARALLELISM: usize = 2;
/// Concurrent module executions an edge CPU sustains.
pub(crate) const EDGE_PARALLELISM: usize = 1;

/// Usable memory budgets (beyond OS/runtime reserves), bytes.
/// Table III: server 23.9 GB VRAM, desktop 31.7 GB RAM (≈24 GB usable),
/// laptop 18 GB unified (≈14 GB usable), Jetson 4.1 GB (≈1.1 GB usable
/// once the OS and the inference runtime are resident — which is what
/// makes RN50x16 infeasible there, as in Table VI).
pub(crate) const SERVER_MEM_BYTES: u64 = 23_900_000_000;
/// Desktop usable memory, bytes.
pub(crate) const DESKTOP_MEM_BYTES: u64 = 24_000_000_000;
/// Laptop usable memory, bytes.
pub(crate) const LAPTOP_MEM_BYTES: u64 = 14_000_000_000;
/// Jetson usable memory, bytes.
pub(crate) const JETSON_MEM_BYTES: u64 = 1_100_000_000;

/// Model-loading: fixed setup seconds + MB/s streaming rate, per device.
/// (fixed, rate) pairs anchored to Table VII's end-to-end column.
pub(crate) const SERVER_LOAD: (f64, f64) = (9.0, 250.0);
/// Desktop model-loading profile.
pub(crate) const DESKTOP_LOAD: (f64, f64) = (0.5, 500.0);
/// Laptop model-loading profile.
pub(crate) const LAPTOP_LOAD: (f64, f64) = (1.8, 1000.0);
/// Jetson model-loading profile.
pub(crate) const JETSON_LOAD: (f64, f64) = (12.0, 150.0);

/// Wired home-PAN access link: 940 Mbit/s, 1.5 ms one-way.
pub const PAN_WIRED: (f64, f64) = (940.0e6, 0.0015);
/// Wi-Fi (IEEE 802.11) home-PAN access link: 120 Mbit/s, 3 ms one-way.
pub const PAN_WIFI: (f64, f64) = (120.0e6, 0.003);
/// MAN access of the dedicated server: 200 Mbit/s, 5 ms one-way
/// (the paper measured 4–5 ms per packet to its dedicated server).
pub(crate) const MAN_ACCESS: (f64, f64) = (200.0e6, 0.005);
