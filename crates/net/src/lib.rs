//! # s2m3-net
//!
//! The platform substrate for S2M3: the **device fleet** of the paper's
//! Table III and the **home-PAN / MAN network** connecting it.
//!
//! The paper's testbed is five physical machines (GPU server, desktop,
//! laptop, two 4 GB Jetson Nanos) in a home network with the server one
//! MAN hop away. None of that hardware exists here, so this crate models
//! it: each device carries a calibrated compute profile (effective
//! GFLOP/s, per-module-execution overhead, per-work-unit overhead, memory
//! budget, model-loading speed) and each link a latency + bandwidth pair.
//! The calibration constants (see [`device`] and [`calibration`]) were
//! chosen so the headline cells of the paper's Tables VI/VII land in the
//! right regime — e.g. CLIP ViT-B/16 retrieval ≈ 45 s on a Jetson, ≈ 2.4 s
//! on the GPU server including the MAN hop, ≈ 3 s on the M3 laptop.
//!
//! What placement and routing consume is only the *interface*:
//! `t_comp(m, n)` ([`DeviceSpec::compute_time`]), `r_m ≤ R_n`
//! ([`DeviceSpec::usable_memory_bytes`]), and `t_comm`
//! ([`Topology::transfer_time`]).
//!
//! ## Example
//!
//! ```
//! use s2m3_net::fleet::Fleet;
//! use s2m3_models::zoo::Zoo;
//!
//! let fleet = Fleet::standard_testbed();
//! let zoo = Zoo::standard();
//! let vision = zoo.catalog().get_by_name("vision/ViT-B-16").unwrap();
//! let jetson = fleet.device("jetson-a").unwrap();
//! let laptop = fleet.device("laptop").unwrap();
//! // The Jetson is an order of magnitude slower than the laptop.
//! assert!(jetson.compute_time(vision, 1.0) > 5.0 * laptop.compute_time(vision, 1.0));
//! ```

pub mod calibration;
pub mod device;
pub mod fleet;
pub mod link;
pub mod topology;

#[cfg(test)]
mod proptests;

pub use device::{DeviceId, DeviceSpec, KindEfficiency};
pub use fleet::Fleet;
pub use link::LinkSpec;
pub use topology::Topology;
